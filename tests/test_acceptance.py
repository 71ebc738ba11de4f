"""Acceptance suite: one test per numbered criterion, one pass/fail line each.

Run ``pytest -v tests/test_acceptance.py`` — each test name carries its
criterion number, so the verbose listing is the pass/fail report.  Metric
values are printed inside each test and surface on failure (or with -s).

Criterion 9 is expected to FAIL: direct time integration of the smoothed
step hits a finite-time pole of the continuum solution at t ~ 2.8 (the
onset converges under grid and step refinement, scales like 1/A^2, and
localizes at the mirror point x = 0, the same mechanism as the exact
soliton's pole at t = pi/A^2), so no explicit scheme can reach the
t = {50, 100, 200} ladder.  The test attempts the specified configuration
and reports the abort instead of weakening the gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from nnlswedge.pde import (
    FieldBlowUpError,
    evolve,
    interpolate_field,
    symmetric_grid,
)
from nnlswedge.phases import tracker_for
from nnlswedge.profiles import InitialProfile, ProfileKind, soliton_exact
from nnlswedge.scattering import (
    CaseTag,
    default_k_grid,
    scattering_grid,
    synthetic_case_i,
    synthetic_case_ii,
)
from nnlswedge.wedge import (
    Side,
    _connection,
    amplitude_Q,
    gen_as_predict,
    matching_check,
    matching_ladder,
    phase_coefficients,
    predict_q,
    wedge_point,
)


@pytest.fixture(scope="module")
def sd_synth_i():
    return synthetic_case_i()


@pytest.fixture(scope="module")
def sd_synth_ii():
    return synthetic_case_ii()


def _fit_slope(x, y):
    return float(np.polyfit(np.asarray(x), np.asarray(y), 1)[0])


# ---------------------------------------------------------------------------
# 1. closed-form scattering, generic case


def test_criterion_01_pure_step_closed_form(sd_pure_a1, sd_pure_a2):
    start = time.perf_counter()
    k = default_k_grid(400)
    worst = 0.0
    for amplitude in (1.0, 2.0):
        profile = InitialProfile(ProfileKind.PURE_STEP, amplitude=amplitude)
        a1, a2, b, _ = scattering_grid(profile, k)
        a1x = 1.0 + amplitude**2 / (4.0 * k**2)
        a2x = np.ones_like(k, dtype=complex)
        bx = amplitude / (2.0j * k)
        worst = max(
            worst,
            float(np.max(np.abs(a1 - a1x))),
            float(np.max(np.abs(a2 - a2x))),
            float(np.max(np.abs(b - bx))),
        )
    elapsed = time.perf_counter() - start
    k1_errs = (abs(sd_pure_a1.k1 - 0.5), abs(sd_pure_a2.k1 - 1.0))
    print(
        f"criterion 01: max entrywise gap = {worst:.3e}, "
        f"k1 errors = {k1_errs[0]:.3e}/{k1_errs[1]:.3e}, {elapsed:.1f}s"
    )
    assert worst < 1e-6
    assert k1_errs[0] < 1e-6 and k1_errs[1] < 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. closed-form scattering, degenerate case


def test_criterion_02_soliton_degenerate_tags(sd_soliton):
    max_b = float(np.max(np.abs(sd_soliton.b)))
    product = sd_soliton.a11 * sd_soliton.a21
    print(
        f"criterion 02: max|b| = {max_b:.3e}, "
        f"|a11 a21 - 1| = {abs(product - 1.0):.3e}, case = {sd_soliton.case.value}"
    )
    assert max_b < 1e-6
    assert abs(product - 1.0) < 1e-4
    assert sd_soliton.case is CaseTag.CASE_II


# ---------------------------------------------------------------------------
# 3. spectral identities on the smoothed step


def test_criterion_03_spectral_identities(sd_smoothed):
    assert sd_smoothed.unitarity_residual < 1e-6
    assert sd_smoothed.symmetry_residual < 1e-6
    # small-k limit: k^2 a1(k) -> (A^2/4) a2(0) on the five smallest nodes,
    # extrapolated to k = 0 by a quadratic fit
    pos = sd_smoothed.k_grid > 0
    k = sd_smoothed.k_grid[pos][:5]
    vals = (k**2) * sd_smoothed.a1[pos][:5]
    limit = complex(
        np.polyfit(k, vals.real, 2)[-1], np.polyfit(k, vals.imag, 2)[-1]
    )
    target = sd_smoothed.amplitude**2 * sd_smoothed.a2_at_zero / 4.0
    resid = abs(limit - target)
    print(
        f"criterion 03: unitarity {sd_smoothed.unitarity_residual:.2e}, "
        f"symmetry {sd_smoothed.symmetry_residual:.2e}, "
        f"small-k limit residual {resid:.2e}"
    )
    assert resid < 1e-6


# ---------------------------------------------------------------------------
# 4. connection-coefficient product identity


def test_criterion_04_connection_product_grid(sd_synth_i, sd_synth_ii):
    worst = 0.0
    for sd in (sd_synth_i, sd_synth_ii):
        for s in np.geomspace(0.1, 10.0, 10):
            for t in np.geomspace(1e3, 1e9, 10):
                bg = _connection(sd, wedge_point(0.65, float(s), float(t)))
                worst = max(worst, abs(bg.beta * bg.gamma - bg.nu))
    print(f"criterion 04: worst |beta*gamma - nu| = {worst:.2e} on 2x10x10")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 5. saddle-vs-origin constant offset


def test_criterion_05_saddle_origin_offset(sd_pure_a1):
    alpha, s = 0.8, 1.0
    tracker = tracker_for(sd_pure_a1)
    diffs = {}
    for t in (1e4, 1e6):
        point = wedge_point(alpha, s, t)
        diffs[t] = tracker.chi_hat(-s, point) - tracker.chi_hat(0.0, point)
    target = 1j * math.pi / 6.0
    raw = abs(diffs[1e6] - target)
    # eliminate the first-order x^(alpha-1) approach term (its rate across
    # the pair is (t2/t1)^((alpha-1)/(2-alpha)))
    rate = (1e6 / 1e4) ** ((alpha - 1.0) / (2.0 - alpha))
    extrap = (diffs[1e6] - rate * diffs[1e4]) / (1.0 - rate)
    gap = abs(extrap - target)
    print(
        f"criterion 05: raw gap at t=1e6 is {raw:.3f}, "
        f"first-order eliminated gap {gap:.4f}"
    )
    assert gap < 1e-2


# ---------------------------------------------------------------------------
# 6. expansion convergence rate of the winding index


def test_criterion_06_winding_expansion_rate(sd_synth_ii, sd_perturbed):
    ts = (1e3, 1e4, 1e5, 1e6, 1e7)
    notes = []

    def gap(sd, point):
        # the expanded winding index nu_1 - h ln(xi) / pi, read off the wedge
        # ledger as h (r/pi) L + nu_s
        pc = phase_coefficients(sd, point.alpha, point.s)
        expanded = pc.tilt.log_times_loglog * point.ln_4st + pc.nu_s
        return abs(tracker_for(sd).nu_hat(point) - expanded)

    for alpha in (0.4, 0.6, 0.8):
        target = (alpha - 1.0) / (2.0 - alpha)
        points = [wedge_point(alpha, 1.0, t) for t in ts]
        gaps = [gap(sd_synth_ii, point) for point in points]
        slope = _fit_slope(np.log(ts), np.log(gaps))
        notes.append(f"a={alpha}: {slope:+.4f} vs {target:+.4f}")
        assert abs(slope - target) < 0.2 * abs(target), notes[-1]
        # data with a symmetry-suppressed first-order term must decay at
        # least this fast (it lands near twice the rate); one-sided check
        gaps_p = [gap(sd_perturbed, point) for point in points]
        slope_p = _fit_slope(np.log(ts), np.log(gaps_p))
        assert slope_p <= target + 0.2 * abs(target), f"perturbed {slope_p:.4f}"
    print("criterion 06: " + " | ".join(notes))


# ---------------------------------------------------------------------------
# 7. cross-oracle decay over the full branch matrix


def test_criterion_07_route_gap_decay(sd_synth_i, sd_synth_ii):
    ladder = (1e4, 1e6, 1e8, 1e10)
    lnts = np.log(ladder)
    cells = 0
    for sd in (sd_synth_i, sd_synth_ii):
        level = amplitude_Q(sd)
        for alpha in (0.5, 0.75, 0.9):
            for side in (Side.PLUS_X, Side.MINUS_X):
                gaps, expanded = [], None
                for t in ladder:
                    wp = wedge_point(alpha, 1.0, t, side)
                    expanded = predict_q(sd, wp)
                    exact = gen_as_predict(sd, wp)
                    gaps.append(abs(expanded.total - exact.total) / level)
                order = expanded.error_order
                reduced = np.log(gaps) - order.log_power * np.log(lnts)
                slope = _fit_slope(lnts, reduced)
                assert slope <= order.t_exponent + 0.06, (
                    f"{expanded.regime} alpha={alpha}: fitted {slope:.4f} "
                    f"vs recorded {order.t_exponent:.4f}"
                )
                assert gaps[-1] < gaps[0]
                cells += 1
    # reflectionless data: both routes agree to round-off
    refl = synthetic_case_ii(coupling=0.0)
    worst = 0.0
    for alpha in (0.5, 0.75, 0.9):
        for side in (Side.PLUS_X, Side.MINUS_X):
            wp = wedge_point(alpha, 1.0, 1e6, side)
            worst = max(
                worst,
                abs(predict_q(refl, wp).total - gen_as_predict(refl, wp).total),
            )
    print(
        f"criterion 07: {cells} branch cells within recorded orders, "
        f"reflectionless gap {worst:.2e}"
    )
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# 8. evolution oracle


def test_criterion_08_evolution_oracle():
    start = time.perf_counter()
    grid = symmetric_grid(40.0, 0.02)
    res = evolve(
        lambda x: soliton_exact(1.0, math.pi, x, 0.0), grid, 1.0
    )
    exact = soliton_exact(1.0, math.pi, grid.x, 1.0)
    err = float(np.max(np.abs(res.final.q - exact)))
    # the zero field is a fixed point, bit for bit
    zero = evolve(np.zeros(grid.size, dtype=complex), grid, 0.25)
    zero_max = float(np.max(np.abs(zero.final.q)))
    # step-like run: boundary neighborhoods must stay quiet
    step = InitialProfile(ProfileKind.SMOOTHED_STEP)
    drift = evolve(step.sample(grid.x), grid, 1.0).final.right_drift
    elapsed = time.perf_counter() - start
    print(
        f"criterion 08: soliton error {err:.2e}, zero field max {zero_max:.1e}, "
        f"step right drift {drift:.2e}, {elapsed:.0f}s"
    )
    assert err <= 1e-3
    assert zero_max == 0.0
    assert drift <= 1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 9. end-to-end wedge stress test


def test_criterion_09_wedge_stress():
    """Direct evolution to t = {50, 100, 200} on the smoothed step.

    Expected to fail: the continuum solution develops a pole at
    t ~ 2.8 (grid- and step-refinement confirm it is not numerical), so
    the ladder is unreachable and there are no evolved times left for
    the documented fitted-exponent fallback either.
    """
    prof = InitialProfile(ProfileKind.SMOOTHED_STEP)
    alpha, s = 0.8, 1.0
    times = (50.0, 100.0, 200.0)
    grid = symmetric_grid(500.0, 0.06)
    try:
        res = evolve(prof.sample(grid.x), grid, 200.0, snapshot_times=times)
    except FieldBlowUpError as exc:
        print(f"criterion 09: evolution aborted - {exc}")
        pytest.fail(
            f"direct evolution cannot reach the t = {{50, 100, 200}} ladder: "
            f"{exc}. The onset converges under grid refinement "
            f"(t* = 3.04/2.92/2.87/2.84 for h = 0.06/0.045/0.03/0.02) and is "
            f"unchanged under dt-halving, scales like 1/A^2 with the "
            f"background level, and localizes at the mirror point x = 0 - a "
            f"finite-time pole of the continuum solution for step-like data, "
            f"the same mechanism as the exact soliton's pole at t = pi/A^2. "
            f"No explicit time-stepper can cross an (x,t) pole, and the "
            f"fitted-exponent fallback has zero evolved ladder times to fit "
            f"(the reachable window t <= 2.6 oscillates through the plateau). "
            f"Full analysis in the decisions ledger."
        )
    # if the evolution ever does reach the ladder, apply the stated gate
    from nnlswedge.scattering import compute_spectral_data

    level = amplitude_Q(compute_spectral_data(prof))
    gaps = []
    for snap in res.snapshots:
        x = (4.0 * s * snap.t) ** (1.0 / (2.0 - alpha))
        gaps.append(abs(abs(interpolate_field(grid, snap.q, x)) - level))
    print(f"criterion 09: gaps {gaps}")
    if all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.1:
        return
    # documented fallback: report the fitted decay exponent instead
    exponent = _fit_slope(np.log(times), np.log(gaps))
    print(f"criterion 09: fallback fitted decay exponent {exponent:.3f}")
    assert exponent < 0.0


# ---------------------------------------------------------------------------
# 10. straight-ray matching limit


def test_criterion_10_matching_limit(sd_synth_i):
    report = matching_check(
        sd_synth_i, *matching_ladder(1.0, [0.9, 0.99, 0.999], hold_product=1.0)
    )
    residuals = [row.phase_residual for row in report.rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals
    # the fast-oscillation coefficient limit is 4 s^2, exactly
    assert report.oscillation_coefficient_limit == 4.0
    assert report.oscillation_coefficient_expected == 4.0
    off_scale = matching_check(
        sd_synth_i, *matching_ladder(0.8, [0.9, 0.99], hold_product=1.0)
    )
    assert off_scale.oscillation_coefficient_limit == pytest.approx(
        4.0 * 0.8**2, rel=1e-14
    )
    # explicit mirror-side magnitude decays like t^(-1/2)
    assert report.mirror_exponent == pytest.approx(-0.5, abs=0.05)
    print(
        f"criterion 10: residuals {['%.4f' % r for r in residuals]}, "
        f"mirror exponent {report.mirror_exponent:.4f}"
    )
