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
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnlswedge import profiles, scattering
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
    save_spectral_data,
    scattering_grid,
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


def _scattering_matrix(profile, k):
    """S(k) = Phi_right(0)^{-1} Phi_left(0) (2x2) at one real k, from the
    sweep's Jost matrices and the rows every grid run forms."""
    k = np.array([float(k)])
    top, bottom, _ = scattering._s_entries(k, *scattering.jost_at_origin(profile, k))
    return np.array([top[:, 0], bottom[:, 0]])


def test_pure_step_matrix_example():
    # A = 2, k = 1: S = [[2, i], [-i, 1]]
    S = _scattering_matrix(InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0), 1.0)
    expect = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    assert np.max(np.abs(S - expect)) < 1e-10


def test_pure_step_matrix_det_one():
    S = _scattering_matrix(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0), 0.37)
    assert abs(S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0] - 1.0) < 1e-10


def test_reflection_example_at_negative_k():
    # A = 2, k = -1: r1 = b(-1)/a1(-1) = i/2, r2 = conj(b(1))/a2(-1) = i
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0)
    s_neg = _scattering_matrix(p, -1.0)
    s_pos = _scattering_matrix(p, 1.0)
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


def _soliton_errors(profile, k):
    """Worst relative errors of a1 and a2 and worst |b| against the closed form."""
    a1, a2, b, _ = scattering_grid(profile, k)
    a1x = (k - 0.5j * profile.amplitude) / k
    a2x = k / (k - 0.5j * profile.amplitude)
    return (
        np.max(np.abs(a1 - a1x) / np.abs(a1x)),
        np.max(np.abs(a2 - a2x) / np.abs(a2x)),
        np.max(np.abs(b)),
    )


@pytest.mark.parametrize("amplitude", [0.7, 1.0, 2.0])
def test_soliton_core_of_18_over_a_is_as_accurate_as_32_over_a(monkeypatch, amplitude):
    # at phase pi the snapshot A / (1 + e^{-A x}) is the smoothed step of
    # width 2/A, whose core ends at 9 width = 18/A; the clamp at the radius,
    # not the core, sets the error floor
    k = default_k_grid(n_per_sign=10)
    for phase in (math.pi, 2.0, 4.5):
        profile = InitialProfile(
            ProfileKind.SOLITON_SNAPSHOT, amplitude=amplitude, phase=phase, radius=26.0
        )
        errors = _soliton_errors(profile, k)
        with monkeypatch.context() as m:
            m.setattr(profiles, "_CORE_DECAY", 32.0)
            wide_steps = scattering.step_count(profile, k[-1])
            wide_errors = _soliton_errors(profile, k)
        assert scattering.step_count(profile, k[-1]) < wide_steps
        for got, wide in zip(errors, wide_errors):
            assert got <= 1.01 * wide


def test_fine_small_k_grid_is_not_flagged_as_under_resolved(monkeypatch):
    # the absolute unitarity residual grows like 1/k**2 (7e-3 at k_min =
    # 1e-7); relative to the larger term it stays at round-off, and only the
    # relative value can warn
    seen = []
    grid = scattering.scattering_grid

    def recorded(*args):
        seen.append(grid(*args))
        return seen[-1]

    monkeypatch.setattr(scattering, "scattering_grid", recorded)
    k = default_k_grid(n_per_sign=40, k_min=1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sd = compute_spectral_data(InitialProfile(ProfileKind.SMOOTHED_STEP), k)
    diag = seen[0][3]
    assert diag["unitarity_residual_rel"] <= 1e-12
    assert sd.unitarity_residual == diag["unitarity_residual"] > 1e-6


def test_relative_unitarity_residual_warns(monkeypatch):
    k = default_k_grid(n_per_sign=40, k_min=1e-2, k_max=40.0)
    a1, a2, b = pure_step_exact(1.0, k)
    diagnostics = {
        "unitarity_residual": 0.0,
        "unitarity_residual_rel": 2e-6,
        "symmetry_residual": 0.0,
    }
    monkeypatch.setattr(scattering, "scattering_grid", lambda *_: (a1, a2, b, diagnostics))
    with pytest.warns(UserWarning, match="relative unitarity residual 2.00e-06 exceeds 1e-6"):
        compute_spectral_data(InitialProfile(ProfileKind.PURE_STEP), k)


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


@pytest.mark.parametrize("k_min", [1e-50, 1e-150])
def test_tiny_k_min_ends_in_a_named_error_without_warnings(k_min):
    # the quartic fit runs in k / max|k|, so k**4 cannot underflow into a
    # poorly conditioned fit (numpy's RankWarning); the grid route is still
    # wrong this close to the pole of a1, and the two routes' gap names it
    k = default_k_grid(n_per_sign=40, k_min=k_min)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SmallKMismatchError, match="grid extrapolation gives a2"):
            compute_spectral_data(InitialProfile(ProfileKind.SMOOTHED_STEP), k)


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
        scattering._imag_axis_transmission_batch(p, rho, rho[-1]),
        expected,
        rtol=1e-12,
        atol=1e-12,
    )


def test_smoothed_step_k1_takes_three_sweeps(monkeypatch):
    # the scan, 32 Chebyshev nodes, and the confirm sweep around their root
    sweeps = []
    batch = scattering._imag_axis_transmission_batch

    def counted(profile, rho, k_scale):
        sweeps.append(rho.size)
        return batch(profile, rho, k_scale)

    monkeypatch.setattr(scattering, "_imag_axis_transmission_batch", counted)
    k1 = find_k1(InitialProfile(ProfileKind.SMOOTHED_STEP))
    assert len(sweeps) == 3
    assert abs(k1 - 0.5) < 1e-12


def test_find_k1_without_sign_change_raises(monkeypatch):
    monkeypatch.setattr(
        "nnlswedge.scattering._imag_axis_transmission_batch",
        lambda profile, rho, k_scale: 1.0 + rho * rho,
    )
    with pytest.raises(RootBracketError, match="no transmission zero"):
        find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))


def test_find_k1_raises_when_refinement_loses_the_sign_change(monkeypatch):
    # sweep 2 samples the Chebyshev nodes, 3 confirms, 4 is a 63-fold sweep
    for lost_at in (2, 3, 4):
        calls = []

        def flaky(profile, rho, k_scale):  # a jump at 0.5 before sweep `lost_at`, then none
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

    def step(profile, rho, k_scale):  # a sign change at 100.1 with no exact zero
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

    def linear(profile, rho, k_scale):
        swept.append((rho, k_scale))
        return rho - root

    monkeypatch.setattr(scattering, "_imag_axis_transmission_batch", linear)
    k1 = find_k1(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))
    assert abs(k1 - root) < 1e-14
    first, first_scale = swept[0]
    assert first_scale == first[-1] <= 1.0 < nodes[first.size]
    assert np.array_equal(first, nodes[: first.size])
    if scan_sweeps == 2:
        second, second_scale = swept[1]
        assert np.array_equal(second, nodes[first.size - 1 :])
        assert second_scale == second[-1]
    assert swept[scan_sweeps][1] < swept[scan_sweeps - 1][1]  # Chebyshev stage


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


def _inline_halves(profile, k, k_scale, left_rows, right_rows, *, rescale=False):
    left, right = scattering._step_edges(profile, k_scale)
    return (
        scattering._sweep(profile, k, left, *left_rows, rescale=rescale),
        scattering._sweep(profile, k, right, *right_rows, rescale=rescale),
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
        return left, right, scattering._imag_axis_transmission_batch(profile, rho, rho[-1])

    paired = both_sweep_sites()
    _assert_no_child()
    with monkeypatch.context() as m:
        m.setattr(scattering, "_sweep_halves", _inline_halves)
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
# the Magnus step against its reference form
# ---------------------------------------------------------------------------


def _expm_traceless_reference(o11, o12, o21):
    """``scattering._expm_traceless`` with both branches on every entry."""
    lam2 = o11 * o11 + o12 * o21
    lam = np.sqrt(lam2)
    small = np.abs(lam) < 1e-4
    lam_safe = np.where(small, 1.0, lam)
    c_big = np.cosh(lam_safe)
    s_big = np.sinh(lam_safe) / lam_safe
    c_small = 1.0 + lam2 * (0.5 + lam2 / 24.0)
    s_small = 1.0 + lam2 * (1.0 / 6.0 + lam2 / 120.0)
    c = np.where(small, c_small, c_big)
    s = np.where(small, s_small, s_big)
    return c + s * o11, s * o12, s * o21, c - s * o11


def _sweep_reference(profile, k, x_starts, h_steps, top, bottom, *, rescale=False):
    """``scattering._sweep`` with every step's terms formed afresh."""
    xg1 = x_starts + scattering._GAUSS_C1 * h_steps
    xg2 = x_starts + scattering._GAUSS_C2 * h_steps
    q1_all = profile.sample(xg1)
    q2_all = profile.sample(xg2)
    qm1_all = np.conj(profile.sample(-xg1))
    qm2_all = np.conj(profile.sample(-xg2))
    mik = -1j * k
    growth = np.ascontiguousarray(k.imag)
    logs = 0.0
    sqrt3_12, sqrt3_6 = scattering._SQRT3_12, scattering._SQRT3_6
    for i in range(x_starts.size):
        h = h_steps[i]
        q1, q2 = q1_all[i], q2_all[i]
        qm1, qm2 = qm1_all[i], qm2_all[i]
        o11 = mik * h + sqrt3_12 * h * h * (q1 * qm2 - q2 * qm1)
        o12 = 0.5 * h * (q1 + q2) + sqrt3_6 * h * h * mik * (q1 - q2)
        o21 = -0.5 * h * (qm1 + qm2) + sqrt3_6 * h * h * mik * (qm1 - qm2)
        e11, e12, e21, e22 = _expm_traceless_reference(o11, o12, o21)
        top, bottom = e11 * top + e12 * bottom, e21 * top + e22 * bottom
        if rescale:
            scale = np.maximum(np.abs(top), np.abs(bottom))
            scale = np.where(scale > 0, scale, 1.0)
            top = top / scale
            bottom = bottom / scale
            logs = logs + (np.log(scale) - abs(h) * growth)
    return top, bottom, logs


def _assert_bit_equal(got, want):
    """Equal bit patterns (signed zeros told apart), entry by entry."""
    for g, w in zip(got, want, strict=True):
        g, w = np.ascontiguousarray(g), np.ascontiguousarray(w)
        assert g.dtype == w.dtype and np.array_equal(g.view(np.uint64), w.view(np.uint64))


_KERNEL_PROFILES = {
    **_PAIRED_PROFILES,
    "soliton-phase-2": InitialProfile(
        ProfileKind.SOLITON_SNAPSHOT, amplitude=1.0, phase=2.0, radius=26.0
    ),
}


def _complex_grid(re, im):
    """Every ``re + i im``, signed zeros kept (``1j * im`` would drop them)."""
    z = np.empty((re.size, im.size), dtype=complex)
    z.real, z.imag = re[:, None], im[None]
    return z.ravel()


# Re lam on both sides of 2^-28 and out to 2^-20, signed zeros, and finite
# and non-finite imaginary parts
_THRESHOLD = 2.0**-28
_EDGE_RE = np.concatenate(
    (
        _THRESHOLD * (1.0 + np.arange(-6, 7) * 2.0**-50),
        [np.nextafter(_THRESHOLD, 0.0), _THRESHOLD, np.nextafter(_THRESHOLD, 1.0)],
        2.0 ** np.arange(-27.0, -19.0),
        [0.0, -0.0, 1e-300, 1e-12, 0.5],
    )
)
_EDGE_IM = np.array([0.0, -0.0, 1e-300, 0.3, -2.5, 40.0])


def test_expm_traceless_is_bit_equal_to_its_reference():
    # all entries (zero and both sides of the |lam| = 1e-4 switch included),
    # only series entries, and none
    rng = np.random.default_rng(7)
    scale = np.concatenate((np.geomspace(1e-9, 1e2, 60), [0.0, 9.9e-5, 1e-4, 1.01e-4]))
    draw = lambda: scale * (rng.normal(size=scale.size) + 1j * rng.normal(size=scale.size))
    o11, o12, o21 = draw(), draw(), draw()
    # lam across |Re lam| = 2^-28 (and on to 2^-20), purely real and purely
    # imaginary: with o12 = o21 = 0, lam = sqrt(o11^2) is within a few ulps
    # of o11; and signed zeros in every generator entry
    edge = _complex_grid(_EDGE_RE, _EDGE_IM)
    near = (edge, np.zeros_like(edge), np.zeros_like(edge))
    signed = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0, 0.3, -0.3)])
    zeros = tuple(np.array(np.meshgrid(signed, signed, signed)).reshape(3, -1))
    lam = np.sqrt(near[0] * near[0] + near[1] * near[2])
    assert np.any(np.abs(lam.real) < _THRESHOLD) and np.any(np.abs(lam.real) >= _THRESHOLD)
    assert np.any((lam.real >= _THRESHOLD) & (lam.real < 2.0**-26))
    for entries, parts in (
        ((o11, o12, o21), (slice(None), slice(0, 20), slice(40, 60))),
        (near, (slice(None), np.abs(lam.real) < _THRESHOLD, np.abs(lam.real) >= _THRESHOLD)),
        (zeros, (slice(None),)),
    ):
        for sel in parts:
            args = tuple(o[sel] for o in entries)
            want = _expm_traceless_reference(*args)
            got = scattering._expm_traceless(*(o.copy() for o in args))
            _assert_bit_equal(got, want)


def test_cosh_sinh_is_bit_equal_to_the_complex_ufuncs():
    # every Re lam of _EDGE_RE with either sign, against every Im lam of
    # _EDGE_IM and the non-finite ones, which go to the complex ufuncs, as a
    # whole array and as its narrow and wide parts alone
    re = np.concatenate((_EDGE_RE, -_EDGE_RE, [math.inf, math.nan]))
    im = np.concatenate((_EDGE_IM, -_EDGE_IM, [math.inf, -math.inf, math.nan]))
    lam = _complex_grid(re, im)
    narrow = (np.abs(lam.real) < _THRESHOLD) & np.isfinite(lam.imag)
    with np.errstate(all="ignore"):
        for sel in (slice(None), narrow, ~narrow):
            want = (np.cosh(lam[sel]), np.sinh(lam[sel]))
            _assert_bit_equal(scattering._cosh_sinh(lam[sel]), want)


def _join_rows(h_steps):
    """Rows of a block that holds the tail's last steps and the core's first
    (every change of step length in ``h_steps``, which starts with a tail)."""
    change = np.flatnonzero(np.abs(np.diff(h_steps)) > 1e-9 * np.abs(h_steps[1:]))
    return int(change[-1]) + 2


@pytest.mark.parametrize("k_min", [1e-3, 1e-7])
@pytest.mark.parametrize("name", list(_KERNEL_PROFILES))
def test_sweep_is_bit_equal_to_its_reference(monkeypatch, name, k_min):
    # every 16th edge of each half keeps its core and tails, and the right
    # half's negative steps; k_min = 1e-7 puts many entries on the
    # small-|lam| series.  Each sweep runs with blocks of one step, with
    # blocks that hold the tail's last steps and the core's first, and with
    # the default cap; k has shape (nk,) and (1, nk), on the real axis (an
    # odd nk too) and on the imaginary one
    profile = _KERNEL_PROFILES[name]
    k = default_k_grid(k_min=k_min)
    halves = [edges[::16] for edges in scattering._step_edges(profile, k[-1])]
    dress = 0.5 * profile.amplitude / (1j * k)
    ones = np.ones_like(dress)
    starts = [
        (np.stack((ones, 0 * ones)), np.stack((dress, ones))),
        (np.stack((ones, dress)), np.stack((0 * ones, ones))),
    ]
    imag = 1j * np.geomspace(0.05, 8.0, 64)[None]
    imag_start = (np.ones_like(imag), 0.5 * profile.amplitude / (1j * imag))
    odd = k[None, ::3]
    odd_start = (np.ones_like(odd), 0.5 * profile.amplitude / (1j * odd))
    default = scattering._BLOCK_ENTRIES
    for edges, start in zip(halves, starts):
        steps = (edges[:-1], np.diff(edges))
        runs = [(k, start, False), (k, start, True), (imag, imag_start, True)]
        runs.append((odd, odd_start, False))
        for kk, begin, rescale in runs:
            want = _sweep_reference(profile, kk, *steps, *begin, rescale=rescale)
            for cap in (kk.size, _join_rows(steps[1]) * kk.size, default):
                monkeypatch.setattr(scattering, "_BLOCK_ENTRIES", cap)
                _assert_bit_equal(
                    scattering._sweep(profile, kk, edges, *begin, rescale=rescale), want
                )


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
    diagnostics = {
        "unitarity_residual": 0.0,
        "unitarity_residual_rel": 0.0,
        "symmetry_residual": 0.0,
    }
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
    r1 = sd.b / sd.a1
    r2 = np.conj(sd.b[::-1]) / sd.a2
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


def test_cache_written_under_another_layout_misses(tmp_path, monkeypatch):
    # a cache made by another core rule (here a shorter core) holds data of
    # another step layout: it must be recomputed, not handed back
    p = InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=1.0)
    k = default_k_grid(20, 1e-2, 10.0)
    path = tmp_path / "cache.json"
    with monkeypatch.context() as patch:
        patch.setattr(profiles, "_CORE_DECAY", 12.0)
        old = compute_spectral_data(p, k, cache_path=path)
    fresh = compute_spectral_data(p, k)
    assert not np.array_equal(old.a1, fresh.a1)
    back = compute_spectral_data(p, k, cache_path=path)
    assert np.array_equal(back.a1, fresh.a1)
    # the core half-widths 12 / 2 and 18 / 2, and the file is rewritten
    assert old.layout[0] == 6.0 and fresh.layout[0] == 9.0
    assert back.layout == fresh.layout == load_spectral_data(path).layout


def test_cache_written_under_other_k1_rules_misses(tmp_path, monkeypatch):
    # a cache made with other refinement nodes for the k1 search holds a k1
    # of those rules: it must be recomputed, not handed back
    p = InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=1.0)
    k = default_k_grid(20, 1e-2, 10.0)
    path = tmp_path / "cache.json"
    with monkeypatch.context() as patch:
        patch.setattr(scattering, "_K1_CHEB_NODES", np.linspace(0.0, 1.0, 4))
        old = compute_spectral_data(p, k, cache_path=path)
    fresh = compute_spectral_data(p, k)
    assert old.k1 != fresh.k1 and old.layout == fresh.layout
    back = compute_spectral_data(p, k, cache_path=path)
    assert back.k1 == fresh.k1
    assert back.limit_rules == fresh.limit_rules == load_spectral_data(path).limit_rules
    assert fresh.limit_rules["k1_cheb_nodes"] == scattering._K1_CHEB_NODES.tolist()
    assert fresh.limit_rules["a2_zero_steps"] == [2400, 4800]


def test_non_finite_data_is_refused_and_a_cache_holding_it_misses(tmp_path):
    sd = synthetic_case_i(k_grid=default_k_grid(20, 1e-2, 10.0))
    a1 = sd.a1.copy()
    a1[3] = complex(math.inf, 0.0)
    with pytest.raises(ValueError) as err:
        dataclasses.replace(sd, a1=a1)
    assert str(err.value) == f"a1 is not finite at k = {float(sd.k_grid[3])!r}"
    # a cache with an Infinity token loads as no data: a miss, recomputed
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0)
    path = tmp_path / "cache.json"
    k = default_k_grid(20, 1e-2, 10.0)
    good = compute_spectral_data(p, k, cache_path=path)
    payload = json.loads(path.read_text(encoding="ascii"))
    payload["b"][5] = [math.inf, 0.0]
    path.write_text(json.dumps(payload), encoding="ascii")
    assert "Infinity" in path.read_text(encoding="ascii")
    back = compute_spectral_data(p, k, cache_path=path)
    assert np.array_equal(back.b, good.b)
    assert "Infinity" not in path.read_text(encoding="ascii")


@pytest.mark.parametrize(
    "content",
    [
        '{"schema": "spectral-data/0"}',
        "not json",
        '{"schema": "spectral-data/1"}',
        "[1, 2]",
        '{"schema": "spectral-data/2"}',
        '{"schema": "spectral-data/3"}',
    ],
)
def test_unreadable_cache_is_a_miss(tmp_path, content):
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0)
    path = tmp_path / "cache.json"
    path.write_text(content, encoding="ascii")
    sd = compute_spectral_data(p, default_k_grid(100), cache_path=path)
    assert sd.k_grid.size == 200
    assert json.loads(path.read_text(encoding="ascii"))["schema"] == "spectral-data/3"
    assert load_spectral_data(path).profile_fingerprint == sd.profile_fingerprint
