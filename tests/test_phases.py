"""Tests for the phase functionals.

Oracle strategy:

* For step-like data the spectral product is ``W(k) = k^2/(k^2 + q^2)``
  (``q`` = half the amplitude, or the synthetic pole parameter), which
  gives closed forms via the dilogarithm:

  - origin constant: ``-i (pi/24 + ln(q^2)^2 / (8 pi))``;
  - ray modulation:  ``delta0(xi) = exp(i Li2(-q^2/xi^2) / (4 pi))``,
    in particular ``delta0(q) = exp(-i pi/48)``;

  both verified against independent 30-digit arbitrary-precision
  quadrature before freezing the literals below.
* The degenerate synthetic family has rational data with frozen
  30-digit values for its constant, plateau, and limiting exponent.
* Reflectionless data must produce identically vanishing functionals.
* The saddle/origin offset must approach i*pi/6 at the documented
  first-order rate in the scaled wedge variable.
* The tracker's numpy not-a-knot spline must match scipy's ``CubicSpline``
  at round-off.
"""

import cmath
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import spence

from nnlswedge import phases
from nnlswedge.phases import (
    LogSingularityError,
    PhaseTracker,
    RefinementRequiredError,
    Side,
    WedgePoint,
    tracker_for,
    wedge_point,
)
from nnlswedge.scattering import (
    CaseTag,
    default_k_grid,
    synthetic_case_i,
    synthetic_case_ii,
)
from nnlswedge.specfun import QuadratureError, QuadratureSpec, Singularity, quad
from nnlswedge.wedge import phase_coefficients, predict_q

# Frozen oracle values (30-digit arbitrary-precision quadrature against
# exact rational spectral data; see module docstring for the formulas).
CONST_PURE_A1 = -0.20736616598805566j  # -i(pi/24 + ln(1/4)^2/(8 pi))
CONST_PURE_A2 = -0.13089969389957472j  # -i pi/24
CONST_SYNTH_I = -0.13266644718106691j  # q = 0.9
CHI1_SYNTH_II = -0.071920518112945232 - 0.051315927852272045j
PLATEAU_SYNTH_II = -0.071920518112945232
NU0_SYNTH_II = -0.045786023869621704  # ln(0.75)/(2 pi)
DELTA0_AT_Q = cmath.exp(-1j * math.pi / 48)
XI_A08_T1E6 = 0.079370052598409974  # (4e6)**(-1/6)
SADDLE_OFFSET_A08_T1E6 = 0.43952274612609989j  # pure step A=1, s=1
I_PI_6 = 1j * math.pi / 6


@pytest.fixture(scope="module")
def sd_synth_i():
    return synthetic_case_i()


@pytest.fixture(scope="module")
def sd_synth_ii():
    return synthetic_case_ii()


@pytest.fixture(scope="module")
def sd_reflectionless():
    return synthetic_case_ii(coupling=0.0)


def _point(alpha, s, t):
    """Wedge point at (alpha, s, t) built without wedge_point's regime
    check, so unit-scale points such as 4st = 1 stay reachable."""
    return WedgePoint(alpha, s, math.log(t), Side.PLUS_X)


def test_tracker_rejects_short_grid():
    # the algebraic tail is fitted on |k| >= 30, so a grid stopping short
    # must fail loudly instead of fitting an empty window
    short = synthetic_case_i(k_grid=default_k_grid(50, 1e-3, 10.0))
    with pytest.raises(ValueError, match="tail fit"):
        tracker_for(short)


# ---------------------------------------------------------------------------
# slow variables
# ---------------------------------------------------------------------------


def test_slow_variables_unit_point():
    # 4st = 1 makes ln x vanish, so xi = s for every alpha.
    for alpha in (0.2, 0.5, 0.8):
        point = _point(alpha, 2.0, 0.125)
        assert point.ln_4st == pytest.approx(0.0, abs=1e-15)
        assert point.ln_x == pytest.approx(0.0, abs=1e-15)
        assert point.xi == pytest.approx(2.0, rel=1e-14)


def test_slow_variables_log_space():
    direct = wedge_point(0.8, 1.0, 1.0e6)
    logged = wedge_point(0.8, 1.0, ln_t=math.log(1.0e6))
    assert (direct.ln_xi, direct.ln_x, direct.ln_4st) == pytest.approx(
        (logged.ln_xi, logged.ln_x, logged.ln_4st), rel=1e-14
    )
    # Far beyond float range for t itself: xi stays moderate.
    far = wedge_point(0.999, 1.0, ln_t=1000.0)
    assert far.xi == pytest.approx(math.exp(-(math.log(4.0) + 1000.0) * 0.001 / 1.001))


# ---------------------------------------------------------------------------
# nu_hat
# ---------------------------------------------------------------------------


def test_nu_hat_pure_step_frozen(sd_pure_a2):
    tracker = tracker_for(sd_pure_a2)
    # At 4st = 1 the stationary point sits at xi = s = 1 for every alpha,
    # where W = 4/(4 + A^2) = 1/2, hence nu_hat = ln(2)/(2 pi).
    value = tracker.nu_hat(_point(0.5, 1.0, 0.25))
    assert value.real == pytest.approx(math.log(2.0) / (2.0 * math.pi), abs=1e-8)
    assert abs(value.imag) < 1e-9
    again = tracker.nu_hat(_point(0.3, 1.0, 0.25))
    assert again == pytest.approx(value, abs=1e-12)


def test_nu_hat_synthetic_exact(sd_synth_i):
    tracker = tracker_for(sd_synth_i)
    # W = k^2/(k^2 + 0.81): frozen ln(1.81)/(2 pi) at xi = 1 and
    # ln(4.81/4)/(2 pi) at xi = 2.
    v1 = tracker.nu_hat(_point(0.5, 1.0, 0.25))
    assert v1.real == pytest.approx(0.094430900295071604, abs=5e-8)
    assert abs(v1.imag) < 1e-9
    v2 = tracker.nu_hat(_point(0.5, 2.0, 0.125))
    assert v2.real == pytest.approx(0.029348604884702087, abs=5e-8)


def test_nu_hat_matches_dressed_product(sd_synth_ii):
    # exp(-2 pi nu_hat) must reproduce the float product 1 + r1 r2 built
    # from the same dressed reflection values the parametrix uses.
    tracker = tracker_for(sd_synth_ii)
    for alpha, s, t in ((0.7, 1.0, 1.0e3), (0.4, 0.3, 1.0e7), (0.9, 5.0, 1.0e5)):
        point = _point(alpha, s, t)
        r1, r2 = tracker.reflection_pair(point)
        w = 1.0 + r1 * r2
        nu = tracker.nu_hat(point)
        assert cmath.exp(-2.0 * math.pi * nu) == pytest.approx(w, rel=1e-12)


def test_dressing_cancels_in_product(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    xi = _point(0.7, 1.0, 1.0e3).xi
    r1, r2 = tracker.reflection_pair(_point(0.7, 1.0, 1.0e3))
    bare = complex(tracker._spline(-xi, cols=1)) * complex(tracker._spline(-xi, cols=2))
    assert r1 * r2 == pytest.approx(bare, rel=1e-12)


def test_nu_hat_no_winding_slips(sd_perturbed):
    tracker = tracker_for(sd_perturbed)
    values = [tracker.nu_hat(_point(0.6, 1.0, 10.0**p)) for p in range(2, 8)]
    for prev, nxt in zip(values, values[1:]):
        # nu0 * ln(10) per decade is ~0.21 here; a missed winding would
        # jump by a full unit of 1/(2 pi) ~ 0.159 on top of that.
        assert abs(nxt - prev) < 0.35
    imags = [abs(v.imag) for v in values]
    assert imags[-1] < imags[0]
    assert imags[-1] < 5e-3


# ---------------------------------------------------------------------------
# vanishing data
# ---------------------------------------------------------------------------


def test_reflectionless_functionals_vanish(sd_reflectionless):
    tracker = tracker_for(sd_reflectionless)
    assert abs(tracker.plateau) < 1e-14
    assert abs(tracker.origin_constant) < 1e-12
    assert abs(tracker.nu_hat(_point(0.6, 1.0, 1.0e4))) < 1e-13
    assert abs(tracker.chi_hat(0.0, _point(0.6, 1.0, 1.0e4))) < 1e-12
    assert abs(tracker.chi_hat(-1.0, _point(0.6, 1.0, 1.0e4))) < 1e-12
    assert abs(_delta0(tracker, 0.5) - 1.0) < 1e-12


def test_soliton_functionals_near_zero(sd_soliton):
    tracker = tracker_for(sd_soliton)
    assert abs(tracker.nu_hat(_point(0.6, 1.0, 1.0e4))) < 1e-8
    assert abs(tracker.chi_hat(0.0, _point(0.6, 1.0, 1.0e4))) < 1e-6
    assert abs(_delta0(tracker, 0.5) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# cached constants
# ---------------------------------------------------------------------------


def test_origin_constant_closed_forms(sd_pure_a1, sd_pure_a2, sd_synth_i):
    assert tracker_for(sd_pure_a1).origin_constant == pytest.approx(CONST_PURE_A1, abs=5e-7)
    assert tracker_for(sd_pure_a2).origin_constant == pytest.approx(CONST_PURE_A2, abs=5e-7)
    # Exact synthetic data: only interpolation/quadrature error remains.
    assert tracker_for(sd_synth_i).origin_constant == pytest.approx(CONST_SYNTH_I, abs=1e-8)


def test_degenerate_constant_and_plateau(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    assert tracker.origin_constant == pytest.approx(CHI1_SYNTH_II, abs=1e-8)
    assert tracker.plateau == pytest.approx(PLATEAU_SYNTH_II, abs=5e-9)
    assert tracker.origin_constant.real == pytest.approx(tracker.plateau, abs=5e-9)
    # In the degenerate case the origin and saddle constants coincide.
    assert tracker.chi_origin_const(3.0) == tracker.origin_constant
    assert tracker.chi_saddle_const(3.0) == tracker.origin_constant


def test_plateau_vanishes_for_real_products(sd_pure_a1, sd_synth_i):
    assert abs(tracker_for(sd_pure_a1).plateau) < 1e-6
    assert abs(tracker_for(sd_synth_i).plateau) < 1e-12


def test_origin_and_saddle_constants_offset(sd_pure_a1):
    tracker = tracker_for(sd_pure_a1)
    s = 1.7
    assert tracker.chi_origin_const(s) == pytest.approx(
        1j * math.log(s) ** 2 / (2.0 * math.pi) + CONST_PURE_A1, abs=5e-7
    )
    assert tracker.chi_saddle_const(s) - tracker.chi_origin_const(s) == I_PI_6


# ---------------------------------------------------------------------------
# chi_hat
# ---------------------------------------------------------------------------


def test_chi_purely_imaginary_for_real_products(sd_pure_a1):
    tracker = tracker_for(sd_pure_a1)
    for z in (0.0, -0.4, -1.0):
        value = tracker.chi_hat(z, _point(0.8, 1.0, 1.0e6))
        assert abs(value.real) < 1e-8


def test_saddle_offset_frozen_and_first_order_rate(sd_pure_a1):
    tracker = tracker_for(sd_pure_a1)
    xis = []
    offsets = []
    for t in (1.0e4, 1.0e6, 1.0e8):
        point = _point(0.8, 1.0, t)
        xis.append(point.xi)
        offsets.append(tracker.chi_hat(-1.0, point) - tracker.chi_hat(0.0, point))
    assert xis[1] == pytest.approx(XI_A08_T1E6, rel=1e-12)
    assert offsets[1] == pytest.approx(SADDLE_OFFSET_A08_T1E6, abs=1e-6)

    gaps = [abs(off - I_PI_6) for off in offsets]
    assert gaps[0] > gaps[1] > gaps[2]
    slope = (math.log(gaps[0]) - math.log(gaps[2])) / (math.log(xis[0]) - math.log(xis[2]))
    assert 0.8 < slope < 1.2

    # First-order elimination in xi lands well inside the converged limit.
    extrapolated = offsets[2] + (offsets[2] - offsets[1]) * xis[2] / (xis[1] - xis[2])
    assert abs(extrapolated - I_PI_6) < 2e-3


def test_chi_split_matches_naive_quadrature(sd_pure_a1, sd_synth_ii):
    """The log-variable split must agree with a single direct quadrature
    of the defining integral in the slow variable."""

    def naive_chi(tracker, z, alpha, s, t):
        scale = math.exp((alpha - 1.0) * _point(alpha, s, t).ln_x)  # x**(alpha-1)
        z_hat = z * scale
        edge = tracker.k_edge / scale  # slow-variable grid edge
        spec = QuadratureSpec(atol=1e-9, rtol=1e-8, max_subdivisions=2000)

        def derivative(zeta):  # d/dzeta of the tracked log in slow units
            u = scale * np.asarray(zeta, dtype=float)
            return tracker._g0(u) / np.asarray(zeta, dtype=float)

        if z == -s:
            def flipped(v):
                v = np.asarray(v, dtype=float)
                return np.log(v) * derivative(-s - v)

            spec = dataclasses.replace(spec, singularity=Singularity.LOG_AT_LEFT_END)
            mid = quad(flipped, 0.0, edge - s, spec).value
        else:
            def direct(zeta):
                zeta = np.asarray(zeta, dtype=float)
                return np.log(z - zeta) * derivative(zeta)

            mid = quad(direct, -edge, -s, spec).value
        tail = tracker._tail_chi(z_hat) - math.log(scale) * tracker._tail_l(-tracker.k_edge)
        return 1j / (2.0 * math.pi) * (tail + mid)

    for sd in (sd_pure_a1, sd_synth_ii):
        tracker = tracker_for(sd)
        for z in (0.0, -1.0):
            split = tracker.chi_hat(z, _point(0.6, 1.0, 1.0e3))
            naive = naive_chi(tracker, z, 0.6, 1.0, 1.0e3)
            assert split == pytest.approx(naive, abs=1e-6)


def test_chi_interior_point_real_part(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    value = tracker.chi_hat(-0.5, _point(0.6, 1.0, 1.0e8))
    assert abs(value.real - tracker.plateau) < 0.02


def test_real_part_plateaus_at_large_time(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    errs = []
    for t in (1.0e4, 1.0e8, 1.0e12):
        value = tracker.chi_hat(0.0, _point(0.6, 1.0, t))
        errs.append(abs(value.real - tracker.plateau))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


# ---------------------------------------------------------------------------
# expansions vs direct quadrature
# ---------------------------------------------------------------------------


def _expansion(sd, point):
    """Large-time forms of nu_hat, chi(0) and chi(-s) at ``point``, with
    r = (1-alpha)/(2-alpha) and L = ln 4st: nu = nu_1 - h ln(xi) / pi, read off
    the wedge ledger as h (r/pi) L + nu_s;
    chi(0) = -i h r^2 L^2 / (2 pi) - i r nu_1 L + chi_origin_const(s);
    chi(-s) = chi(0) + i h pi / 6."""
    tracker = tracker_for(sd)
    pc = phase_coefficients(sd, point.alpha, point.s)
    ln_4st, h = point.ln_4st, tracker.h
    ratio = (1.0 - point.alpha) / (2.0 - point.alpha)
    nu = pc.tilt.log_times_loglog * ln_4st + pc.nu_s
    chi_origin = (
        -1j * h * ratio**2 * ln_4st**2 / (2.0 * math.pi)
        - 1j * ratio * tracker.nu_one * ln_4st
        + tracker.chi_origin_const(point.s)
    )
    return complex(nu), chi_origin, chi_origin + 1j * h * math.pi / 6.0


def test_expansion_fields_and_convergence_generic(sd_pure_a2):
    tracker = tracker_for(sd_pure_a2)
    errors = {"nu": [], "chi0": [], "chis": []}
    for t in (1.0e3, 1.0e6):
        point = _point(0.7, 1.0, t)
        nu, chi_origin, chi_saddle = _expansion(sd_pure_a2, point)
        assert tracker.case is CaseTag.CASE_I
        # the plateau's remainder, which the expanded route records at +x
        error_order = predict_q(sd_pure_a2, point).error_order
        assert error_order.t_exponent == pytest.approx((1.0 - 0.7) / (0.7 - 2.0))
        assert error_order.log_power == 1
        assert tracker.chi_saddle_const(1.0) - tracker.chi_origin_const(1.0) == I_PI_6
        errors["nu"].append(abs(tracker.nu_hat(point) - nu))
        errors["chi0"].append(abs(tracker.chi_hat(0.0, point) - chi_origin))
        errors["chis"].append(abs(tracker.chi_hat(-point.s, point) - chi_saddle))
    for history in errors.values():
        assert history[1] < history[0]
        assert history[1] < 0.3


def test_expansion_fields_and_convergence_degenerate(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    errs_nu = []
    errs_chi = []
    for t in (1.0e4, 1.0e8):
        point = _point(0.6, 1.0, t)
        nu, chi_origin, chi_saddle = _expansion(sd_synth_ii, point)
        assert nu == pytest.approx(NU0_SYNTH_II, abs=1e-12)
        assert chi_origin == chi_saddle
        errs_nu.append(abs(tracker.nu_hat(point) - nu))
        errs_chi.append(abs(tracker.chi_hat(0.0, point) - chi_origin))
    assert errs_nu[1] < errs_nu[0]
    assert errs_chi[1] < errs_chi[0]
    assert errs_nu[1] < 0.01
    assert errs_chi[1] < 0.05


def test_expansion_matches_coefficient_table(sd_synth_i, sd_synth_ii):
    # the wedge ledgers against the paper's forms: the ledger's winding
    # index is nu_1 - h ln(xi) / pi, and 2 Re(nu) ln s + 2 Im chi(0) is the
    # main slow phase
    for sd in (sd_synth_i, sd_synth_ii):
        tracker = tracker_for(sd)
        for alpha in (0.3, 0.6, 0.9):
            for s in (0.2, 1.0, 5.0):
                pc = phase_coefficients(sd, alpha, s)
                for t in (1.0e3, 1.0e8):
                    point = _point(alpha, s, t)
                    nu, chi_origin, _ = _expansion(sd, point)
                    paper = tracker.nu_one - tracker.h * point.ln_xi / math.pi
                    assert abs(nu - paper) <= 1e-13 * max(1.0, abs(paper))
                    main = pc.main.slow_phase(point.ln_4st)
                    slow = 2.0 * nu.real * math.log(s) + 2.0 * chi_origin.imag
                    assert abs(slow - main) <= 1e-13 * max(1.0, abs(main))


def test_expansion_error_is_first_order_generic(sd_perturbed):
    tracker = tracker_for(sd_perturbed)
    xis = []
    errs = []
    for t in (1.0e3, 1.0e5, 1.0e7):
        point = _point(0.6, 1.0, t)
        xis.append(point.xi)
        direct = tracker.nu_hat(point)
        expansion = _expansion(sd_perturbed, point)[0]
        errs.append(abs(direct - expansion))
    assert errs[0] > errs[1] > errs[2]
    slope = (math.log(errs[0]) - math.log(errs[2])) / (math.log(xis[0]) - math.log(xis[2]))
    assert 0.6 < slope < 1.4


# ---------------------------------------------------------------------------
# delta0: the straight-ray modulation, an oracle of the tracker's spline and
# tail that no prediction route reads, so it is computed here
# ---------------------------------------------------------------------------


def _delta0(tracker, xi):
    """Modulation factor of the straight-ray region by direct quadrature of
    the tracker's ln W over [xi, k_edge] plus its fitted tail."""
    tracker._check_window(xi)
    spec = QuadratureSpec(atol=1e-10, rtol=1e-9, max_subdivisions=600)
    mid = -quad(
        lambda tau: tracker.log_w(-np.exp(tau)), math.log(xi), math.log(tracker.k_edge), spec
    ).value
    return cmath.exp(-1j * (tracker._tail_log_integral() + mid) / (2.0 * math.pi))


def _delta0_expansion(tracker, xi):
    """Small-xi form of delta0 built from the tracker's cached constants."""
    ln_xi = math.log(xi)
    return cmath.exp(
        1j * ln_xi * (tracker.nu_one - tracker.h * ln_xi / (2.0 * math.pi))
        + tracker.origin_constant
    )


def test_delta0_pure_step_closed_form(sd_pure_a1, sd_pure_a2, sd_synth_i):
    # delta0 evaluated where xi equals the pole parameter gives the
    # universal value exp(-i pi/48).
    assert _delta0(tracker_for(sd_pure_a1), 0.5) == pytest.approx(DELTA0_AT_Q, abs=1e-7)
    assert _delta0(tracker_for(sd_pure_a2), 1.0) == pytest.approx(DELTA0_AT_Q, abs=1e-7)
    assert _delta0(tracker_for(sd_synth_i), 0.9) == pytest.approx(DELTA0_AT_Q, abs=2e-8)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(
    q=_log_uniform(0.2, 3.0),
    xis=st.lists(_log_uniform(0.02, 10.0), min_size=3, max_size=3),
)
def test_closed_forms_across_synthetic_case_i(q, xis):
    # W = k^2/(k^2 + q^2): the dilogarithm closed forms of the module
    # docstring, with Li2(-q^2/xi^2) = spence(1 + q^2/xi^2)
    tracker = tracker_for(synthetic_case_i(d=q))
    constant = -1j * (math.pi / 24.0 + math.log(q * q) ** 2 / (8.0 * math.pi))
    assert abs(tracker.origin_constant - constant) < 5e-8
    for xi in xis:
        expected = cmath.exp(1j * spence(1.0 + q * q / (xi * xi)) / (4.0 * math.pi))
        assert abs(_delta0(tracker, xi) - expected) < 5e-8


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(
    k1=_log_uniform(0.2, 2.0),
    pole=_log_uniform(0.05, 3.0),
    ratio=st.floats(0.05, 0.95),
)
def test_b_at_zero_across_synthetic_case_ii(k1, pole, ratio):
    # b = coupling / (k - i pole), so b(0) = i coupling / pole
    coupling = ratio * pole
    tracker = PhaseTracker(synthetic_case_ii(k1=k1, pole=pole, coupling=coupling))
    expected = 1j * coupling / pole
    assert abs(tracker.b_at_zero - expected) <= 1e-9 * abs(expected)


def test_delta0_unimodular_for_real_products(sd_pure_a1):
    tracker = tracker_for(sd_pure_a1)
    for xi in (0.1, 1.0, 5.0):
        assert abs(abs(_delta0(tracker, xi)) - 1.0) < 1e-9


def test_delta0_expansion_limit_generic(sd_synth_i):
    tracker = tracker_for(sd_synth_i)
    far = abs(_delta0(tracker, 0.5) / _delta0_expansion(tracker, 0.5) - 1.0)
    near = abs(_delta0(tracker, 0.05) / _delta0_expansion(tracker, 0.05) - 1.0)
    assert near < 2e-3
    assert near < far


def test_delta0_expansion_limit_degenerate(sd_synth_ii):
    tracker = tracker_for(sd_synth_ii)
    far = abs(_delta0(tracker, 0.2) / _delta0_expansion(tracker, 0.2) - 1.0)
    near = abs(_delta0(tracker, 0.02) / _delta0_expansion(tracker, 0.02) - 1.0)
    assert near < 0.05
    assert near < far


# ---------------------------------------------------------------------------
# guards and validation
# ---------------------------------------------------------------------------


def test_argument_validation(sd_synth_i):
    tracker = tracker_for(sd_synth_i)
    with pytest.raises(ValueError):
        tracker.chi_hat(-2.0, _point(0.5, 1.0, 1.0e3))  # z below the stationary point
    with pytest.raises(ValueError):
        tracker._check_window(60.0)  # outside the tabulated window
    with pytest.raises(ValueError):
        tracker.nu_hat(_point(0.5, 100.0, 1.0e-6))  # xi ~ 1360 off the grid


def test_log_singularity_guard(sd_synth_i):
    tracker = tracker_for(sd_synth_i)
    with pytest.raises(LogSingularityError):
        tracker._log_w_tracked(1e-13 + 0j, -1e-3)
    # Integration-level trigger: xi so small that W = xi^2/(xi^2+d^2)
    # drops below the stability floor.
    with pytest.raises(LogSingularityError):
        tracker.nu_hat(_point(0.4, 1.0, 1.0e20))


def test_refinement_guards(sd_synth_ii):
    flipped = dataclasses.replace(
        sd_synth_ii, a1=np.where(sd_synth_ii.k_grid < -1.0, -sd_synth_ii.a1, sd_synth_ii.a1)
    )
    with pytest.raises(RefinementRequiredError):
        PhaseTracker(flipped)
    negated = dataclasses.replace(sd_synth_ii, a21=-sd_synth_ii.a21)
    with pytest.raises(RefinementRequiredError):
        PhaseTracker(negated)


def test_tail_fit_quality(sd_pure_a1, sd_smoothed, sd_perturbed, sd_soliton, sd_synth_i, sd_synth_ii):
    for sd in (sd_pure_a1, sd_smoothed, sd_perturbed, sd_soliton, sd_synth_i, sd_synth_ii):
        assert tracker_for(sd).tail_residual < 1e-7


def test_tracker_cache(sd_pure_a1):
    assert tracker_for(sd_pure_a1) is tracker_for(sd_pure_a1)
    # same fingerprint and grid, other data: never the cached tracker
    other = dataclasses.replace(sd_pure_a1, b=0.5 * sd_pure_a1.b)
    assert tracker_for(other) is not tracker_for(sd_pure_a1)


def test_tracker_is_freed_with_its_data():
    sd = synthetic_case_i()
    # with values in its chi_hat dict, too
    tracker_for(sd).chi_hat(0.0, _point(0.75, 1.0, 1.0e6))
    assert tracker_for(sd)._chi_values
    tracker = weakref.ref(tracker_for(sd))
    assert tracker() is tracker_for(sd)
    del sd
    gc.collect()
    assert tracker() is None


# ---------------------------------------------------------------------------
# chi_hat's per-tracker values: shared across sides, never across requests
# ---------------------------------------------------------------------------

_CHI_DATA = ["sd_smoothed", "sd_pure_a1", "sd_synth_i", "sd_synth_ii"]


def _bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def _counting_quad(monkeypatch) -> list:
    """Make phases log the interval of every quadrature it runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(phases, "quad", counted)
    return calls


@pytest.mark.parametrize("data", _CHI_DATA)
def test_chi_hat_values_are_shared_by_the_two_sides(request, monkeypatch, data):
    sd = request.getfixturevalue(data)
    plus = wedge_point(0.75, 1.0, 1.0e6, Side.PLUS_X)
    minus = dataclasses.replace(plus, side=Side.MINUS_X)
    tracker = PhaseTracker(sd)
    calls = _counting_quad(monkeypatch)
    for z in (0.0, -plus.s):
        fresh = PhaseTracker(sd).chi_hat(z, plus)
        before = len(calls)
        value = tracker.chi_hat(z, minus)
        assert _bits(value) == _bits(fresh)
        assert len(calls) == before + 1
        # a repeat, on either side, is the stored value and no quadrature
        assert tracker.chi_hat(z, minus) is value
        assert tracker.chi_hat(z, plus) is value
        assert len(calls) == before + 1


@pytest.mark.parametrize("data", _CHI_DATA)
def test_chi_hat_neighbours_get_their_own_values(request, monkeypatch, data):
    # a request that differs in one key field by as little as one ulp is
    # integrated afresh, and gets exactly what a fresh tracker gives it
    sd = request.getfixturevalue(data)
    point = wedge_point(0.75, 1.0, 1.0e6, Side.MINUS_X)
    tracker = PhaseTracker(sd)
    tracker.chi_hat(0.0, point)
    tracker.chi_hat(-point.s, point)
    later_ln_t = dataclasses.replace(point, ln_t=math.nextafter(point.ln_t, math.inf))
    other_s = dataclasses.replace(point, s=1.5)
    calls = _counting_quad(monkeypatch)
    for z, neighbour in [
        (0.0, later_ln_t),
        (-point.s, later_ln_t),
        (0.0, other_s),
        (-other_s.s, other_s),
        (0.25, point),
        (math.nextafter(0.0, 1.0), point),
    ]:
        before = len(calls)
        fresh = PhaseTracker(sd).chi_hat(z, neighbour)
        assert _bits(tracker.chi_hat(z, neighbour)) == _bits(fresh)
        assert len(calls) == before + 2


def test_chi_hat_stores_nothing_when_it_raises(sd_smoothed):
    tracker = PhaseTracker(sd_smoothed)
    outside = wedge_point(0.9, 100.0, 2.0)  # xi = 54.5, beyond half the window
    # the bench's smoothed-step cell whose origin quadrature runs out of panels
    stuck = wedge_point(0.75, 5.0, 1.0e4, Side.MINUS_X)
    for point, error in [(outside, ValueError), (stuck, QuadratureError)]:
        for _ in range(2):
            with pytest.raises(error):
                tracker.chi_hat(0.0, point)
            assert tracker._chi_values == {}


# ---------------------------------------------------------------------------
# the tracker's spline against scipy's CubicSpline (test-only oracle)
# ---------------------------------------------------------------------------


def _assert_matches_cubic_spline(spline, x, y, points):
    """Values and first derivatives of every column agree with
    ``CubicSpline(x, y)`` to 1e-13 * max(1, |oracle|)."""
    oracle = CubicSpline(x, y)
    for derivative in (0, 1):
        want = oracle(points, derivative).T
        got = spline(points, derivative)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("data", ["smoothed-step", "synthetic-case-i", "synthetic-case-ii"])
def test_tracker_spline_matches_cubic_spline(request, monkeypatch, data):
    # record the nodes and columns (ln P, s1, s2) the tracker splines
    seen = []

    class Recording(phases._NotAKnotSpline):
        def __init__(self, x, y):
            seen.append((x, y))
            super().__init__(x, y)

    monkeypatch.setattr(phases, "_NotAKnotSpline", Recording)
    sd = {
        "smoothed-step": lambda: request.getfixturevalue("sd_smoothed"),
        "synthetic-case-i": synthetic_case_i,
        "synthetic-case-ii": synthetic_case_ii,
    }[data]()
    tracker = PhaseTracker(sd)
    (x, y), = seen
    assert y.shape == (x.size, 3) and x[-1] == 0.0
    # the knots, both ends (k = 0 included) and 1e4 points from the grid
    # edge down to the quadrature floor tau = ln(-k) = _TAU_FLOOR
    deep = -np.geomspace(tracker.k_edge, math.exp(phases._TAU_FLOOR), 10**4)
    points = np.concatenate([x, [x[0], 0.0], deep])
    _assert_matches_cubic_spline(tracker._spline, x, y, points)


def test_spline_matches_cubic_spline_on_a_nonuniform_grid():
    x = np.array([-40.0, -39.999, -3.0, -2.5, -1e-4, 0.0])
    y = np.stack([np.cos(x) + 1j * x**2, np.exp(x / 10.0)], axis=1)
    # two intervals of 1e-3 and 1e-4 next to ones of 37 and 2.5
    points = np.concatenate([x, np.linspace(x[0], x[-1], 997)])
    _assert_matches_cubic_spline(phases._NotAKnotSpline(x, y), x, y, points)


@pytest.mark.parametrize(
    "x", [[0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0, 3.0]], ids=["three-nodes", "repeated-node"]
)
def test_spline_rejects_short_or_unordered_nodes(x):
    with pytest.raises(ValueError):
        phases._NotAKnotSpline(x, np.ones((len(x), 1)))
