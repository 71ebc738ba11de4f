"""Tests for the direct-scattering stage.

Oracles used here:

* the piecewise-constant step has closed-form scattering data
  ``S = [[1 + A^2/(4 k^2), -A/(2ik)], [A/(2ik), 1]]`` (solving the
  constant-coefficient system exactly on each half-line);
* the one-soliton snapshot is reflectionless with
  ``a1 = (k - iA/2)/k`` and ``a2 = k/(k - iA/2)``;
* the synthetic rational families satisfy unitarity identically.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnlswedge import scattering
from nnlswedge.profiles import InitialProfile, ProfileKind
from nnlswedge.scattering import (
    CaseClassificationError,
    CaseTag,
    RootBracketError,
    SmallKData,
    SmallKMismatchError,
    SpectralData,
    check_assumption2,
    classify_case,
    compute_spectral_data,
    default_k_grid,
    find_k1,
    load_spectral_data,
    reflection_coefficients,
    save_spectral_data,
    scattering_grid,
    scattering_matrix,
    synthetic_case_i,
    synthetic_case_ii,
)


def pure_step_exact(amplitude: float, k: np.ndarray):
    a1 = 1.0 + amplitude**2 / (4.0 * k**2)
    a2 = np.ones_like(k, dtype=complex)
    b = amplitude / (2j * k)
    return a1.astype(complex), a2, b


# ---------------------------------------------------------------------------
# scattering matrix
# ---------------------------------------------------------------------------


def test_pure_step_matrix_example():
    # A = 2, k = 1: S = [[2, i], [-i, 1]]
    S = scattering_matrix(InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0), 1.0)
    expect = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    assert np.max(np.abs(S - expect)) < 1e-10


def test_pure_step_matrix_det_one():
    S = scattering_matrix(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0), 0.37)
    assert abs(S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0] - 1.0) < 1e-10


def test_reflection_example_at_negative_k():
    # A = 2, k = -1: r1 = b(-1)/a1(-1) = i/2, r2 = conj(b(1))/a2(-1) = i
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0)
    s_neg = scattering_matrix(p, -1.0)
    s_pos = scattering_matrix(p, 1.0)
    r1 = s_neg[1, 0] / s_neg[0, 0]
    r2 = np.conj(s_pos[1, 0]) / s_neg[1, 1]
    assert abs(r1 - 0.5j) < 1e-10
    assert abs(r2 - 1.0j) < 1e-10


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_default_grid_shape():
    k = default_k_grid()
    assert k.size == 800
    assert np.all(np.diff(k) > 0)
    assert np.min(np.abs(k)) == pytest.approx(1e-3)
    assert np.max(np.abs(k)) == pytest.approx(1e2)
    assert np.allclose(k, -k[::-1])


@pytest.mark.parametrize("amplitude", [1.0, 2.0])
def test_pure_step_grid_matches_closed_form(amplitude):
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=amplitude)
    k = default_k_grid()
    a1, a2, b, diag = scattering_grid(p, k)
    a1x, a2x, bx = pure_step_exact(amplitude, k)
    assert np.max(np.abs(a1 - a1x)) < 1e-6
    assert np.max(np.abs(a2 - a2x)) < 1e-8
    assert np.max(np.abs(b - bx)) < 1e-8
    assert diag["unitarity_residual"] < 1e-8
    assert diag["symmetry_residual"] < 1e-8


def test_soliton_grid_matches_closed_form(sd_soliton):
    k = sd_soliton.k_grid
    k1 = 0.5  # A/2 for A = 1
    a1x = (k - 1j * k1) / k
    a2x = k / (k - 1j * k1)
    assert np.max(np.abs(sd_soliton.a1 - a1x) / np.abs(a1x)) < 1e-7
    assert np.max(np.abs(sd_soliton.a2 - a2x)) < 1e-9
    assert np.max(np.abs(sd_soliton.b)) < 1e-6


def test_smoothed_step_invariants(sd_smoothed):
    sd = sd_smoothed
    assert sd.unitarity_residual < 1e-8
    assert sd.symmetry_residual < 1e-8
    # symmetry relations on the transmission entries
    assert np.max(np.abs(np.conj(sd.a1[::-1]) - sd.a1)) < 1e-8
    assert np.max(np.abs(np.conj(sd.a2[::-1]) - sd.a2)) < 1e-8


def test_grid_validation():
    p = InitialProfile(ProfileKind.PURE_STEP)
    with pytest.raises(ValueError):
        scattering_grid(p, np.linspace(-1.0, 2.0, 64))  # asymmetric
    with pytest.raises(ValueError):
        scattering_grid(p, np.linspace(-1.0, 1.0, 65))  # contains zero


# ---------------------------------------------------------------------------
# small-k limits and case classification
# ---------------------------------------------------------------------------


def test_smoothed_step_case_i(sd_smoothed):
    sd = sd_smoothed
    assert sd.case is CaseTag.CASE_I
    # two independent routes agreed during classification; freeze the
    # converged value (both routes reproduce it to ~1e-12)
    assert abs(sd.a2_at_zero - 0.6366197723674) < 1e-9
    assert sd.a11 is None and sd.a21 is None


def test_pure_step_small_k(sd_pure_a2):
    sd = sd_pure_a2
    assert sd.case is CaseTag.CASE_I
    assert abs(sd.a2_at_zero - 1.0) < 1e-9
    assert abs(sd.k1 - 1.0) < 1e-9  # A/2 with A = 2


def test_soliton_case_ii(sd_soliton):
    sd = sd_soliton
    assert sd.case is CaseTag.CASE_II
    assert abs(sd.a11 - (-0.5j)) < 1e-8
    assert abs(sd.a21 - 2.0j) < 1e-8
    assert abs((sd.a11 * sd.a21).real - 1.0) < 1e-4
    assert abs(sd.k1 - 0.5) < 1e-8


def test_perturbed_step_classifies_generic(sd_perturbed):
    sd = sd_perturbed
    assert sd.case is CaseTag.CASE_I
    assert sd.a2_at_zero is not None
    assert abs(sd.assumption2_limit) < 1e-3


def test_classify_case_error_paths():
    # routes disagree while the grid sees a degenerate limit
    small = SmallKData(
        a2_zero_ode=0.5,
        a2_zero_grid=0.0 + 0.0j,
        a11=-0.5j,
        a21=2.0j,
        ode_step_error=0.0,
    )
    with pytest.raises(SmallKMismatchError):
        classify_case(small, 1.0)
    # degenerate limit but a11 not purely imaginary
    small = SmallKData(0.0, 0.0j, a11=0.3 - 0.5j, a21=2.0j, ode_step_error=0.0)
    with pytest.raises(CaseClassificationError):
        classify_case(small, 1.0)
    # degenerate limit with negative product
    small = SmallKData(0.0, 0.0j, a11=-0.5j, a21=-2.0j, ode_step_error=0.0)
    with pytest.raises(CaseClassificationError):
        classify_case(small, 1.0)
    # generic limit, routes disagree
    small = SmallKData(0.9, 0.6 + 0.0j, a11=0.0j, a21=0.0j, ode_step_error=0.0)
    with pytest.raises(SmallKMismatchError):
        classify_case(small, 1.0)
    # generic limit, complex a2(0)
    small = SmallKData(0.6, 0.6 + 0.1j, a11=0.0j, a21=0.0j, ode_step_error=0.0)
    with pytest.raises(CaseClassificationError):
        classify_case(small, 1.0)


@pytest.mark.parametrize("a2_zero_grid", [0.0j, 0.6 + 0.0j], ids=["degenerate", "generic"])
def test_classify_case_rejects_a_non_finite_auxiliary_limit(a2_zero_grid):
    # an overflowed k = 0 integration gives NaN, which fails every
    # comparison of either branch and so would otherwise be accepted
    small = SmallKData(math.nan, a2_zero_grid, a11=-0.5j, a21=2.0j, ode_step_error=math.nan)
    with pytest.raises(SmallKMismatchError, match=r"non-finite a2\(0\) = nan"):
        classify_case(small, 1.0)


# ---------------------------------------------------------------------------
# transmission zero on the imaginary axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("amplitude", [0.3, 1.0, 2.0, 5.0, 1000.0])
def test_pure_step_k1(amplitude):
    # at A = 1000 the confirm sweep leaves a bracket wider than 1e-14, so a
    # 63-fold sweep ends the search
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=amplitude)
    assert abs(find_k1(p) - 0.5 * amplitude) < 1e-12 * amplitude


@pytest.mark.parametrize("amplitude", [0.3, 1.0, 5.0])
def test_imag_axis_wronskian_is_the_transmission(amplitude):
    # pure step: a1(i rho) = 1 - (A / 2 rho)^2 in size and sign, also at
    # rho R = 2000, where the renormalization removes a factor near e^4000
    rho = np.geomspace(0.05, 20.0, 9) * amplitude
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=amplitude)
    expected = 1.0 - (0.5 * amplitude / rho) ** 2
    assert np.allclose(
        scattering._imag_axis_transmission_batch(p, rho), expected, rtol=1e-12, atol=1e-12
    )


def test_smoothed_step_k1_takes_three_sweeps(monkeypatch):
    # the scan, 32 Chebyshev nodes, and the confirm sweep around their root
    sweeps = []
    batch = scattering._imag_axis_transmission_batch

    def counted(profile, rho):
        sweeps.append(rho.size)
        return batch(profile, rho)

    monkeypatch.setattr(scattering, "_imag_axis_transmission_batch", counted)
    k1 = find_k1(InitialProfile(ProfileKind.SMOOTHED_STEP))
    assert len(sweeps) == 3
    assert abs(k1 - 0.5) < 1e-12


def test_find_k1_without_sign_change_raises(monkeypatch):
    monkeypatch.setattr(
        "nnlswedge.scattering._imag_axis_transmission_batch",
        lambda profile, rho: 1.0 + rho * rho,
    )
    with pytest.raises(RootBracketError, match="no transmission zero"):
        find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))


def test_find_k1_raises_when_refinement_loses_the_sign_change(monkeypatch):
    # sweep 2 samples the Chebyshev nodes, 3 confirms, 4 is a 63-fold sweep
    for lost_at in (2, 3, 4):
        calls = []

        def flaky(profile, rho):  # a jump at 0.5 before sweep `lost_at`, then none
            calls.append(rho.size)
            if len(calls) < lost_at:
                return np.where(rho < 0.5, -1.0, 1.0)
            return np.ones_like(rho)

        monkeypatch.setattr("nnlswedge.scattering._imag_axis_transmission_batch", flaky)
        with pytest.raises(RootBracketError, match="refinement lost"):
            find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))
        assert len(calls) == lost_at  # no fall-through to the coarse ladder


def test_find_k1_stops_at_adjacent_floats(monkeypatch):
    # near 100 the float spacing (1.4e-14) exceeds the 1e-14 stopping width;
    # the jump is no root of the Chebyshev interpolant, so the confirm sweep
    # misses it and 63-fold sweeps go on to adjacent floats
    sweeps = []

    def step(profile, rho):  # a sign change at 100.1 with no exact zero
        sweeps.append(rho.size)
        assert len(sweeps) < 50, "bracket refinement does not terminate"
        return np.where(rho < 100.1, -1.0, 1.0)

    monkeypatch.setattr("nnlswedge.scattering._imag_axis_transmission_batch", step)
    k1 = find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))
    assert abs(k1 - 100.1) <= 2 * np.spacing(100.1)
    assert len(sweeps) > 5


def test_smoothed_step_k1(sd_smoothed):
    # the mirror-symmetric tanh step keeps the transmission zero at A/2
    assert abs(sd_smoothed.k1 - 0.5) < 1e-8


@pytest.mark.parametrize("root, scan_sweeps", [(0.5, 1), (2.0, 2)])
def test_find_k1_scan_lays_its_first_sweep_for_a(monkeypatch, root, scan_sweeps):
    # the 64 scan nodes up to 8 A: those up to A first, on a layout for A; the
    # rest, from the last node up to A on, only when no root lies below A
    nodes = np.geomspace(1e-3, 8.0, 64)
    swept = []

    def linear(profile, rho):  # the layout node comes last
        swept.append(rho)
        return rho - root

    monkeypatch.setattr(scattering, "_imag_axis_transmission_batch", linear)
    k1 = find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))
    assert abs(k1 - root) < 1e-14
    first = swept[0][:-1]
    assert swept[0][-1] == first[-1] <= 1.0 < nodes[first.size]
    assert np.array_equal(first, nodes[: first.size])
    if scan_sweeps == 2:
        second = swept[1][:-1]
        assert np.array_equal(second, nodes[first.size - 1 :])
    assert swept[scan_sweeps][-1] < swept[scan_sweeps - 1][-1]  # Chebyshev stage


# ---------------------------------------------------------------------------
# both halves of a layout swept at once
# ---------------------------------------------------------------------------


_PAIRED_PROFILES = {
    "smoothed": InitialProfile(ProfileKind.SMOOTHED_STEP),
    "soliton": InitialProfile(
        ProfileKind.SOLITON_SNAPSHOT, amplitude=1.0, phase=math.pi, radius=26.0
    ),
    "compact": InitialProfile(ProfileKind.COMPACT_STEP),
    "pure": InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0),
    "bumped": InitialProfile(
        ProfileKind.SMOOTHED_STEP,
        bump_amplitude=0.15 * np.exp(0.7j),
        bump_center=1.5,
        bump_width=1.2,
    ),
}


def _inline_pair(profile, k, left, right, *, rescale=False):
    return (
        scattering._sweep(profile, k, *left, rescale=rescale),
        scattering._sweep(profile, k, *right, rescale=rescale),
    )


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", list(_PAIRED_PROFILES))
def test_paired_sweep_is_bit_equal_to_inline_sweeps(monkeypatch, name):
    profile = _PAIRED_PROFILES[name]
    k, rho = default_k_grid(8, 1e-2, 10.0), np.geomspace(0.05, 2.0, 12)

    def both_sweep_sites():
        left, right = scattering.jost_at_origin(profile, k)
        return left, right, scattering._imag_axis_transmission_batch(profile, rho)

    paired = both_sweep_sites()
    _assert_no_child()
    with monkeypatch.context() as m:
        m.setattr(scattering, "_sweep_pair", _inline_pair)
        inline = both_sweep_sites()
    with monkeypatch.context() as m:  # a platform without fork sweeps inline
        m.delattr(os, "fork")
        no_fork = both_sweep_sites()
    for got, want, fallback in zip(paired, inline, no_fork):
        assert np.array_equal(got, want) and np.array_equal(fallback, want)


@pytest.mark.parametrize(
    "failing, error, message",
    [
        ("child", scattering.DegenerateJostError, "the child's half failed"),
        ("parent", scattering.DegenerateJostError, "the parent's half failed"),
        ("lost", scattering.ScatteringError, "child process ended without a result"),
    ],
)
def test_paired_sweep_raises_either_halfs_error(monkeypatch, failing, error, message):
    # the child's error comes back with its type, a child that dies without
    # a word is an error too, and a parent's error kills the child at once
    # (here the child would sleep for a minute); either way no child is left
    parent = os.getpid()
    sweep = scattering._sweep

    def one_half_fails(*args, **kwargs):
        if (os.getpid() == parent) == (failing == "parent"):
            if failing == "lost":
                os._exit(3)
            raise scattering.DegenerateJostError(f"the {failing}'s half failed")
        if failing == "parent":
            time.sleep(60)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(scattering, "_sweep", one_half_fails)
    start = time.monotonic()
    with pytest.raises(error, match=message):
        scattering.jost_at_origin(_PAIRED_PROFILES["soliton"], default_k_grid(8))
    assert time.monotonic() - start < 30
    _assert_no_child()


# ---------------------------------------------------------------------------
# winding of the reflection product
# ---------------------------------------------------------------------------


def test_assumption2_small_for_steps(sd_smoothed, sd_perturbed):
    assert abs(sd_smoothed.assumption2_limit) < 1e-6
    assert abs(sd_perturbed.assumption2_limit) < 1e-3
    limit, reliable = check_assumption2(
        sd_smoothed.k_grid, sd_smoothed.a1, sd_smoothed.a2, sd_smoothed.b
    )
    assert reliable
    assert limit == pytest.approx(sd_smoothed.assumption2_limit)


@pytest.mark.parametrize("turn,rejected", [(0.85, False), (0.95, True)])
def test_assumption2_rejects_a_near_pi_turn(turn, rejected):
    # 1 + r1 r2 = 1 + 1/a1 = w with b = a2 = 1 and a1 = 1/(w - 1); its
    # argument turns by turn * pi between two adjacent negative nodes, a
    # step that unwrapping alone keeps below pi and so cannot flag
    k_grid = default_k_grid(6, 0.1, 10.0)
    theta = np.where(k_grid < k_grid[2], 0.0, turn * math.pi)
    w = 2.0 * np.exp(1j * theta)
    ones = np.ones_like(w)
    if rejected:
        with pytest.raises(CaseClassificationError):
            check_assumption2(k_grid, 1.0 / (w - 1.0), ones, ones)
    else:
        limit, reliable = check_assumption2(k_grid, 1.0 / (w - 1.0), ones, ones)
        assert limit == pytest.approx(turn * math.pi)
        assert not reliable


def test_assumption2_rejects_a_half_turn_towards_zero(monkeypatch):
    # b = a2 = 1 and a1 = 1/(W - 1) give 1 + r1 r2 = W = (k - ic)/(k + ic),
    # whose argument turns smoothly by pi from the far field to k = 0^-
    k_grid = default_k_grid()
    w = (k_grid - 0.5j) / (k_grid + 0.5j)
    a1, ones = 1.0 / (w - 1.0), np.ones_like(w)
    limit, reliable = check_assumption2(k_grid, a1, ones, ones)
    assert abs(limit) == pytest.approx(math.pi, rel=1e-6)
    assert not reliable
    # so the pipeline refuses such data (a2 = 1 is the pure step's a2(0))
    diagnostics = {"unitarity_residual": 0.0, "symmetry_residual": 0.0}
    monkeypatch.setattr(scattering, "scattering_grid", lambda *_: (a1, ones, ones, diagnostics))
    monkeypatch.setattr(scattering, "find_k1", lambda _: 0.5)
    with pytest.raises(CaseClassificationError, match="reflection product winds by 3.142"):
        compute_spectral_data(InitialProfile(ProfileKind.PURE_STEP), k_grid)


# ---------------------------------------------------------------------------
# synthetic families
# ---------------------------------------------------------------------------


def _assert_mirror_symmetric(sd):
    # a_j(k) = conj(a_j(-k)); the grid is symmetric, so -k is k[::-1]
    for a in (sd.a1, sd.a2):
        assert np.all(np.abs(a - np.conj(a[::-1])) <= 1e-14 * np.abs(a))


_FAMILY_PARAM = st.floats(0.2, 3.0)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(k1=_FAMILY_PARAM, d=_FAMILY_PARAM)
def test_synthetic_case_i_identities(k1, d):
    sd = synthetic_case_i(k1=k1, d=d)
    # the identity cancels terms of size d^2/k^2 (up to ~1e7 at the smallest
    # node), so measure the residual relative to the term size
    scale = np.maximum(1.0, np.abs(sd.a1 * sd.a2))
    uni = np.max(np.abs(sd.a1 * sd.a2 + sd.b * np.conj(sd.b[::-1]) - 1.0) / scale)
    assert uni < 1e-13
    _assert_mirror_symmetric(sd)


def test_synthetic_case_i_closed_forms():
    sd = synthetic_case_i(k1=0.6, d=0.9)
    k = sd.k_grid
    assert sd.amplitude == pytest.approx(1.2)
    assert sd.a2_at_zero == pytest.approx(1.5)  # d/k1
    # k^2 a1 is the quadratic (k + i d)(k - i k1): its zeros are i k1 and -i d
    roots = np.roots(np.polyfit(k, k**2 * sd.a1, 2))
    assert np.allclose(sorted(roots, key=lambda r: r.imag), [-0.9j, 0.6j], atol=1e-9)
    # reduces to the pure step at d = k1
    sd0 = synthetic_case_i(k1=0.6, d=0.6)
    a1x, a2x, bx = pure_step_exact(1.2, k)
    assert np.max(np.abs(sd0.a1 - a1x) / np.abs(a1x)) < 1e-14
    assert np.max(np.abs(sd0.a2 - a2x)) < 1e-14
    assert np.max(np.abs(sd0.b - bx) / np.abs(bx)) < 1e-14


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    k1=_FAMILY_PARAM,
    pole=_FAMILY_PARAM,
    ratio=st.floats(0.0, 0.99),
)
def test_synthetic_case_ii_identities(k1, pole, ratio):
    sd = synthetic_case_ii(k1=k1, pole=pole, coupling=ratio * pole)
    uni = np.max(np.abs(sd.a1 * sd.a2 + sd.b * np.conj(sd.b[::-1]) - 1.0))
    assert uni < 1e-13
    _assert_mirror_symmetric(sd)


def test_synthetic_case_ii_closed_forms():
    sd = synthetic_case_ii(k1=0.6, pole=1.0, coupling=0.5)
    assert sd.a11 == pytest.approx(-0.6j)
    assert sd.a21 == pytest.approx(1j * 0.75 / 0.6)
    prod = (sd.a11 * sd.a21).real
    assert 0 < prod < 1
    assert prod == pytest.approx(0.75)


def test_synthetic_reflectionless_is_exact_soliton_data():
    sd = synthetic_case_ii(k1=0.45, pole=1.3, coupling=0.0)
    assert np.max(np.abs(sd.b)) == 0.0
    assert sd.amplitude == pytest.approx(0.9)  # forced to 2 k1
    k = sd.k_grid
    assert np.max(np.abs(sd.a1 - (k - 0.45j) / k)) < 1e-14
    assert np.max(np.abs(sd.a2 - k / (k - 0.45j))) < 1e-14
    assert (sd.a11 * sd.a21).real == pytest.approx(1.0)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_case_i(k1=-1.0, d=0.5)
    with pytest.raises(ValueError):
        synthetic_case_ii(k1=0.5, pole=1.0, coupling=1.5)


# ---------------------------------------------------------------------------
# reflection coefficients on data
# ---------------------------------------------------------------------------


def test_reflection_coefficients_on_synthetic():
    sd = synthetic_case_i(k1=0.6, d=0.9)
    r1, r2 = reflection_coefficients(sd)
    k = sd.k_grid
    # closed forms: r1 = b/a1, r2 = conj(b(-k))/a2 with the family values
    r1x = (-0.9j / k) / sd.a1
    r2x = np.conj(-0.9j / (-k)) / sd.a2
    assert np.max(np.abs(r1 - r1x)) < 1e-14
    assert np.max(np.abs(r2 - r2x)) < 1e-14
    # the product satisfies 1 + r1 r2 = 1/(a1 a2) = k^2/(k^2 + d^2)
    w = 1.0 + r1 * r2
    assert np.max(np.abs(w - k**2 / (k**2 + 0.81))) < 1e-12


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path, sd_smoothed):
    # case I from the solver, and case II with a11/a21 set and a2_at_zero null
    path, again = tmp_path / "sd.json", tmp_path / "again.json"
    for sd in (sd_smoothed, synthetic_case_ii()):
        save_spectral_data(sd, path)
        back = load_spectral_data(path)
        for field in dataclasses.fields(SpectralData):
            want, got = getattr(sd, field.name), getattr(back, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert type(got) is type(want) and got == want, field.name
        assert json.loads(path.read_text(encoding="ascii"))["a2_at_zero"] == sd.a2_at_zero
        save_spectral_data(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_cache_hit(tmp_path):
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0)
    path = tmp_path / "cache.json"
    sd1 = compute_spectral_data(p, cache_path=path)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    sd2 = compute_spectral_data(p, cache_path=path)
    assert path.stat().st_mtime_ns == stamp  # untouched on hit
    assert np.array_equal(sd1.a1, sd2.a1)


def test_cache_miss_on_other_grid(tmp_path):
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0)
    path = tmp_path / "cache.json"
    coarse = compute_spectral_data(p, default_k_grid(100), cache_path=path)
    assert coarse.k_grid.size == 200
    stamp = path.stat().st_mtime_ns
    fine = compute_spectral_data(p, default_k_grid(400), cache_path=path)
    assert fine.k_grid.size == 800
    assert path.stat().st_mtime_ns != stamp  # rewritten for the new grid
    assert load_spectral_data(path).k_grid.size == 800


@pytest.mark.parametrize(
    "content",
    ['{"schema": "spectral-data/0"}', "not json", '{"schema": "spectral-data/1"}', "[1, 2]"],
)
def test_unreadable_cache_is_a_miss(tmp_path, content):
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0)
    path = tmp_path / "cache.json"
    path.write_text(content, encoding="ascii")
    sd = compute_spectral_data(p, default_k_grid(100), cache_path=path)
    assert sd.k_grid.size == 200
    assert json.loads(path.read_text(encoding="ascii"))["schema"] == "spectral-data/1"
    assert load_spectral_data(path).profile_fingerprint == sd.profile_fingerprint
