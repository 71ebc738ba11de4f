"""Tests for the wedge-curve asymptotic predictions.

Frozen expected values come from an independent 30-digit implementation of
the slow-variable integrals and the connection-coefficient assembly
(mpmath), evaluated straight from the defining integrals rather than through
this package's quadrature layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rgamma

from nnlswedge.phases import tracker_for
from nnlswedge.scattering import CaseTag, synthetic_case_i, synthetic_case_ii
from nnlswedge.wedge import (
    DEGENERATE_REFLECTION,
    PhaseLedger,
    Side,
    _connection,
    amplitude_Q,
    gen_as_predict,
    guard_fast_phase,
    matching_check,
    matching_ladder,
    phase_coefficients,
    predict_q,
    _rgamma,
    wedge_point,
)

# ---------------------------------------------------------------------------
# frozen cross-implementation values (30-digit independent evaluation)

# field values q(+x) and q(-x) on the wedge curve, exact mid-level route
FIELD_ORACLE = [
    # (case key, alpha, s, t, q at +x, q at -x)
    (
        "I",
        0.7,
        1.0,
        1.0e6,
        -0.84392527878001600724 + 0.8532892526250156039j,
        -4.4820676465937475973e-6 + 3.6467081450972486593e-5j,
    ),
    (
        "I",
        0.85,
        2.5,
        1.0e7,
        0.78404557136613996573 - 0.9084451702340815579j,
        -5.0042637707272704019e-5 + 2.6240251097195028986e-5j,
    ),
    (
        "II",
        0.75,
        0.8,
        1.0e5,
        0.86554869342187092906 + 0.13287763716617189432j,
        -1.9197553099749749787e-5 + 5.0641405522444769068e-5j,
    ),
    (
        "II",
        0.55,
        1.2,
        1.0e6,
        0.82819073156972515453 + 0.26833609772575777814j,
        1.244709900887378598e-6 - 2.2725411408054631974e-6j,
    ),
]

# connection-coefficient internals at the first Case I point (alpha=0.7,
# s=1, t=1e6) and the first Case II point (alpha=0.75, s=0.8, t=1e5)
NU_I_A = 1.0833046214305182941
BETA_I_A = 0.52404068521232463524 - 0.89926969351397335659j
CHI_SADDLE_I_A = -1.4671657608387339342j
NU_II_A = -0.04501325251594037726 - 0.0066423593644847674495j


@pytest.fixture(scope="module")
def sd_i():
    return synthetic_case_i()


@pytest.fixture(scope="module")
def sd_ii():
    return synthetic_case_ii()


@pytest.fixture(scope="module")
def sd_refl():
    return synthetic_case_ii(coupling=0.0)


def _fit_slope(lnts, values):
    return float(np.polyfit(np.asarray(lnts), np.asarray(values), 1)[0])


# ---------------------------------------------------------------------------
# wedge-point geometry


def test_wedge_point_round_trip():
    for alpha in (0.3, 0.5, 0.8):
        for s in (0.5, 1.0, 3.0):
            for t in (1.0e3, 1.0e7):
                wp = wedge_point(alpha, s, t)
                assert wp.x ** (2.0 - alpha) / (4.0 * t) == pytest.approx(
                    s, rel=1e-12
                )
                assert wp.xi == pytest.approx(s * wp.x ** (alpha - 1.0), rel=1e-12)
                assert wp.ln_4st == pytest.approx(math.log(4.0 * s * t), rel=1e-12)


def test_wedge_point_log_time_and_side_type():
    # a side string would otherwise read as the -x side
    with pytest.raises(TypeError):
        wedge_point(0.5, 1.0, 100.0, "+x")
    # log-time form survives where t itself overflows a double
    wp = wedge_point(0.9, 1.0, ln_t=5000.0)
    assert wp.t == math.inf
    assert wp.ln_x == pytest.approx((math.log(4.0) + 5000.0) / 1.1, rel=1e-14)
    same = wedge_point(0.9, 1.0, 1.0e6)
    via_log = wedge_point(0.9, 1.0, ln_t=math.log(1.0e6))
    assert same.ln_4st == pytest.approx(via_log.ln_4st, rel=1e-15)


def test_wedge_point_validation():
    with pytest.raises(ValueError):
        wedge_point(0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        wedge_point(1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        wedge_point(0.5, 0.0, 100.0)
    with pytest.raises(ValueError):
        wedge_point(0.5, 1.0)  # neither t nor ln_t
    with pytest.raises(ValueError):
        wedge_point(0.5, 1.0, -2.0)  # t must be positive
    with pytest.raises(ValueError):
        wedge_point(0.5, 1.0, 0.9)  # t must exceed 1
    with pytest.raises(ValueError):
        wedge_point(0.5, 0.001, 1.2)  # ln(4st) must exceed 1


# ---------------------------------------------------------------------------
# phase ledgers


def test_phase_ledger_term_arithmetic():
    ledger = PhaseLedger(0.0, -0.25, 0.125, 2.0, -1.5, 0.75)
    big_l = 17.0
    expected = (
        -0.25 * big_l**2
        + 0.125 * big_l * math.log(big_l)
        + 2.0 * big_l
        - 1.5 * math.log(big_l)
        + 0.75
    )
    assert ledger.slow_phase(big_l) == pytest.approx(expected, rel=1e-15)
    assert astuple(ledger) == (0.0, -0.25, 0.125, 2.0, -1.5, 0.75)
    with pytest.raises(ValueError):
        ledger.slow_phase(0.0)

    fast = PhaseLedger(3.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    wp = wedge_point(0.5, 1.0, 100.0)
    want = 3.0 * math.exp(0.5 / 1.5 * math.log(100.0)) + 1.0
    assert fast.phase_at(wp) == pytest.approx(want, rel=1e-14)


def test_phase_ledger_overflow_guard():
    fast = PhaseLedger(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    huge = wedge_point(0.9, 1.0, ln_t=5000.0)
    with pytest.raises(OverflowError):
        fast.phase_at(huge)
    # slow terms stay evaluable at the same point
    slow = PhaseLedger(0.0, -1.0, 0.0, 2.0, 0.0, 0.0)
    assert math.isfinite(slow.phase_at(huge))


def test_one_fast_phase_guard_for_both_routes(sd_i):
    # at (alpha, s, ln t) = (0.99, 1e3, 709) the power's exponent is 695,
    # within e**709, but the fast phase 3.4e6 * e**695 overflows: the expanded
    # route's fast ledger and the exact route both refuse the point
    point = wedge_point(0.99, 1e3, ln_t=709.0)
    with pytest.raises(OverflowError):
        guard_fast_phase(point)
    forward = phase_coefficients(sd_i, 0.99, 1e3).forward
    with pytest.raises(OverflowError):
        forward.phase_at(point)
    with pytest.raises(OverflowError):
        gen_as_predict(sd_i, point)
    # the expanded +x branch at alpha > 2/3 reads no fast phase
    pred = predict_q(sd_i, point)
    assert pred.regime == "I+x/leading-only"
    assert pred.correction == 0
    assert abs(pred.leading) == pytest.approx(amplitude_Q(sd_i), rel=1e-15)
    # one step back in ln t both routes evaluate again
    inside = wedge_point(0.99, 1e3, ln_t=690.0)
    assert guard_fast_phase(inside) == pytest.approx(0.99 / 1.01 * 690.0, rel=1e-15)
    assert math.isfinite(forward.phase_at(inside))


# ---------------------------------------------------------------------------
# plateau amplitude


def test_plateau_amplitude_closed_forms(sd_i, sd_ii, sd_refl):
    # real unitarity product: plateau modulus equals the background level
    assert amplitude_Q(sd_i) == pytest.approx(1.2, abs=1e-12)
    assert amplitude_Q(sd_refl) == pytest.approx(1.2, abs=1e-12)
    # rational-product family: closed form A * (a11 a21)**(1/2)
    prod = (complex(sd_ii.a11) * complex(sd_ii.a21)).real
    assert amplitude_Q(sd_ii) == pytest.approx(math.sqrt(prod), abs=5e-9)


# ---------------------------------------------------------------------------
# phase ledgers


def _reference_ledgers(sd, alpha, s):
    """The (main, tilt, forward, backward) ledgers from the per-class
    coefficient tables as the paper states them, one table per small-k
    class: the oracle for the one formula of :func:`phase_coefficients`."""
    tracker = tracker_for(sd)
    nu0 = (1.0 - alpha) / (math.pi * (2.0 - alpha))
    psi = (1.0 - alpha) ** 2 / (math.pi * (2.0 - alpha) ** 2)
    phi0 = 2.0 ** (2.0 * alpha / (2.0 - alpha)) * s ** (2.0 / (2.0 - alpha))
    shear = alpha * nu0 / (2.0 - alpha)
    if sd.case is CaseTag.CASE_I:
        amp_half = 0.5 * sd.amplitude * abs(sd.a2_at_zero)
        phi4 = math.log(amp_half / s) / math.pi
        phi_i = 2.0 * nu0 * math.log(s / amp_half)
        phi3_hat = nu0 * (
            math.log(nu0) - 1.0 + math.log(2.0 * s) - 2.0 * math.log(2.0 * amp_half)
        )
        phi31 = phi3_hat - alpha * phi4 / (2.0 - alpha)
        main_constant = (
            2.0 / math.pi * math.log(s) * math.log(amp_half / s)
            + 2.0 * tracker.chi_origin_const(s).imag
        )
        return (
            PhaseLedger(0.0, -psi, 0.0, phi_i, 0.0, main_constant),
            PhaseLedger(0.0, -psi, nu0, phi3_hat, phi4, 0.0),
            PhaseLedger(phi0, -psi - shear, nu0, phi31, phi4, 0.0),
            PhaseLedger(-phi0, -psi + shear, -nu0, 2.0 * phi_i - phi31, -phi4, 0.0),
        )
    nu_zero = math.log((complex(sd.a11) * complex(sd.a21)).real) / (2.0 * math.pi)
    phi5_hat = -nu_zero * (1.0 - alpha) / (2.0 - alpha)
    main_constant = 2.0 * math.log(s) * nu_zero + 2.0 * tracker.origin_constant.imag
    phi52 = nu_zero * (3.0 * alpha - 2.0) / (2.0 - alpha)
    return (
        PhaseLedger(0.0, 0.0, 0.0, 2.0 * phi5_hat, 0.0, main_constant),
        PhaseLedger(0.0, 0.0, 0.0, 2.0 * phi5_hat, 0.0, 0.0),
        PhaseLedger(phi0, 0.0, 0.0, -nu_zero, 0.0, 0.0),
        PhaseLedger(-phi0, 0.0, 0.0, phi52, 0.0, 0.0),
    )


@st.composite
def _ledger_cells(draw):
    """A synthetic data set of either family (reflectionless included) and
    a wedge ray (alpha, s), s drawn log-uniformly."""
    k1 = draw(st.floats(0.3, 1.5))
    if draw(st.booleans()):
        sd = synthetic_case_i(k1=k1, d=draw(st.floats(0.3, 2.0)))
    else:
        pole = draw(st.floats(0.5, 2.0))
        sd = synthetic_case_ii(k1=k1, pole=pole, coupling=draw(st.floats(0.0, 0.9)) * pole)
    return sd, draw(st.floats(0.3, 0.99)), 10.0 ** draw(st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(_ledger_cells())
def test_ledgers_match_per_class_tables(cell):
    sd, alpha, s = cell
    pc = phase_coefficients(sd, alpha, s)
    reference = _reference_ledgers(sd, alpha, s)
    for ledger, expected in zip((pc.main, pc.tilt, pc.forward, pc.backward), reference):
        for got, want in zip(astuple(ledger), astuple(expected)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_coefficient_table_reference_values(sd_i):
    pc = phase_coefficients(sd_i, 0.5, 1.0)
    assert pc.h == 1
    psi = 1.0 / (9.0 * math.pi)
    nu0 = 1.0 / (3.0 * math.pi)
    # universal entries at alpha = 1/2
    assert pc.main.log_squared == pytest.approx(-psi, abs=1e-16)
    assert pc.tilt.log_squared == pc.main.log_squared
    assert pc.tilt.log_times_loglog == pytest.approx(nu0, abs=1e-16)
    assert pc.forward.log_times_loglog == pytest.approx(nu0, abs=1e-16)
    # the squared-log corrections collapse onto a single side at alpha = 1/2
    assert pc.backward.log_squared == pytest.approx(0.0, abs=1e-16)
    assert pc.forward.log_squared == pytest.approx(-2.0 / (9.0 * math.pi), abs=1e-16)
    # data-bearing entries (half-level of the synthetic family is 0.9)
    phi4 = math.log(0.9) / math.pi
    assert pc.nu_s == pytest.approx(phi4, rel=1e-12)
    assert pc.tilt.loglog == pytest.approx(phi4, rel=1e-12)
    assert pc.main.log_linear == pytest.approx(2.0 * nu0 * math.log(1.0 / 0.9), rel=1e-12)
    # at s = 1 the tilt's linear term is nu0 (ln nu0 - 1) + nu0 ln(1/2) - 2 r nu_1
    tilt_linear = nu0 * (math.log(nu0) - 1.0) - nu0 * math.log(2.0) - 2.0 / 3.0 * phi4
    assert pc.tilt.log_linear == pytest.approx(tilt_linear, rel=1e-13)

    # fast-phase coefficient has an exact closed value at alpha = 1/2, s = 2
    pc2 = phase_coefficients(sd_i, 0.5, 2.0)
    assert pc2.forward.oscillation == pytest.approx(4.0, rel=1e-14)
    assert pc2.backward.oscillation == -pc2.forward.oscillation


def test_coefficient_pairings(sd_i, sd_ii):
    # one rule for both classes: the correction phases sum to twice the main
    # phase on the L**2 and L terms and cancel on the others
    for sd, s in ((sd_i, 1.3), (sd_ii, 0.7)):
        for alpha in (0.35, 0.6, 0.85):
            pc = phase_coefficients(sd, alpha, s)
            forward, backward, main = pc.forward, pc.backward, pc.main
            assert forward.log_squared + backward.log_squared == pytest.approx(
                2.0 * main.log_squared, rel=1e-13
            )
            assert forward.log_linear + backward.log_linear == pytest.approx(
                2.0 * main.log_linear, rel=1e-12
            )
            for term in ("oscillation", "log_times_loglog", "loglog"):
                assert getattr(forward, term) == -getattr(backward, term)


def test_coefficient_table_degenerate_class(sd_ii, sd_refl):
    pc = phase_coefficients(sd_ii, 0.75, 0.8)
    nu_one = math.log(0.75) / (2.0 * math.pi)  # product a11 a21 = 3/4
    assert pc.h == 0
    assert pc.nu_s == pytest.approx(nu_one, rel=1e-13)
    assert pc.forward.log_linear == pytest.approx(-nu_one, rel=1e-13)
    assert pc.backward.log_linear == pytest.approx(nu_one * 0.25 / 1.25, rel=1e-13)
    assert pc.main.log_linear == pytest.approx(-2.0 * nu_one * 0.25 / 1.25, rel=1e-13)
    assert pc.tilt.log_linear == pytest.approx(pc.main.log_linear, rel=1e-13)
    # every term carrying a factor h is empty in the degenerate class
    for ledger in (pc.main, pc.tilt, pc.forward, pc.backward):
        assert ledger.log_squared == ledger.log_times_loglog == ledger.loglog == 0.0
    # reflectionless data zeroes the whole data-bearing column
    pr = phase_coefficients(sd_refl, 0.75, 0.8)
    for ledger in (pr.main, pr.tilt, pr.forward, pr.backward):
        assert ledger.log_linear == 0.0
    assert abs(pr.main.constant) < 1e-10  # quadrature noise around exact zero


def test_coefficient_validation(sd_i):
    with pytest.raises(ValueError):
        phase_coefficients(sd_i, 1.2, 1.0)
    with pytest.raises(ValueError):
        phase_coefficients(sd_i, 0.5, -1.0)


# ---------------------------------------------------------------------------
# reciprocal gamma of the parametrix pair against the library routine (its
# imaginary-axis identities are checked in test_specfun)


def test_rgamma_matches_library():
    # the square |Re z|, |Im z| <= 10 on a 1/8 grid, both reflection sides;
    # at the poles of Gamma (z = 0, -1, ..., -10) the zeros are exact
    axis = np.linspace(-10.0, 10.0, 161)
    z = (axis[:, None] + 1j * axis[None, :]).ravel()
    ours = np.array([_rgamma(complex(v)) for v in z])
    ref = rgamma(z)
    poles = ref == 0
    assert np.count_nonzero(poles) == 11
    assert np.all(ours[poles] == 0)
    rel = np.abs(ours[~poles] - ref[~poles]) / np.abs(ref[~poles])
    assert rel.max() <= 2e-13


# ---------------------------------------------------------------------------
# exact mid-level route against the independent implementation


@pytest.mark.parametrize("case_key,alpha,s,t,q_plus,q_minus", FIELD_ORACLE)
def test_exact_route_matches_independent_values(
    sd_i, sd_ii, case_key, alpha, s, t, q_plus, q_minus
):
    sd = sd_i if case_key == "I" else sd_ii
    got_plus = gen_as_predict(sd, wedge_point(alpha, s, t, Side.PLUS_X)).total
    got_minus = gen_as_predict(sd, wedge_point(alpha, s, t, Side.MINUS_X)).total
    assert abs(got_plus - q_plus) < 5e-7
    assert abs(got_minus - q_minus) < 1e-6 * abs(q_minus)


def _beta_gamma(sd, alpha, s, t):
    """Connection coefficients at the +x wedge point (alpha, s, t)."""
    return _connection(sd, wedge_point(alpha, s, t))


def _tilde_pair_asymptotic(sd, alpha, s, t):
    """Large-time form of the tilde pair at the +x wedge point: the frozen
    constants of the wedge ledger on its tilt phase, times (ln t)**(h/2)."""
    point = wedge_point(alpha, s, t)
    pc = phase_coefficients(sd, alpha, s)
    slow = pc.tilt.slow_phase(point.ln_4st)
    root = point.ln_t ** (0.5 * pc.h)
    return (
        pc.beta_const * cmath.exp(1j * slow) * root,
        pc.gamma_const * cmath.exp(-1j * slow) * root,
    )


def test_connection_pair_matches_independent_values(sd_i, sd_ii):
    bg = _beta_gamma(sd_i, 0.7, 1.0, 1.0e6)
    assert abs(bg.nu - NU_I_A) < 5e-9
    assert abs(bg.beta - BETA_I_A) < 1e-9
    assert abs(bg.chi_saddle - CHI_SADDLE_I_A) < 5e-8
    # real-product data keeps the winding index real and the pair conjugate
    assert abs(bg.nu.imag) < 1e-10
    assert abs(bg.gamma - bg.beta.conjugate() * (bg.nu / abs(bg.beta) ** 2)) < 1e-9

    bg2 = _beta_gamma(sd_ii, 0.75, 0.8, 1.0e5)
    assert abs(bg2.nu - NU_II_A) < 5e-9


def test_connection_product_equals_winding_index(sd_i, sd_ii):
    for sd in (sd_i, sd_ii):
        for s in (0.3, 1.0, 4.0):
            for t in (1.0e3, 1.0e6, 1.0e9):
                bg = _beta_gamma(sd, 0.65, s, t)
                assert abs(bg.beta * bg.gamma - bg.nu) < 1e-10


@st.composite
def _synthetic_cells(draw):
    """A synthetic data set of either family and a wedge point (alpha, s, t);
    s and t are drawn log-uniformly."""
    k1 = draw(st.floats(0.3, 1.5))
    pole = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        sd = synthetic_case_i(k1=k1, d=draw(st.floats(0.3, 2.0)))
    else:
        sd = synthetic_case_ii(k1=k1, pole=pole, coupling=draw(st.floats(0.05, 0.9)) * pole)
    alpha = draw(st.floats(0.3, 0.95))
    s = 10.0 ** draw(st.floats(-1.0, 1.0))
    t = 10.0 ** draw(st.floats(3.0, 9.0))
    return sd, synthetic_case_ii(k1=k1, pole=pole, coupling=0.0), alpha, s, t


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(_synthetic_cells())
def test_connection_identities_across_synthetic_families(cell):
    sd, refl, alpha, s, t = cell
    # criterion 04: the parametrix product is the winding index
    bg = _beta_gamma(sd, alpha, s, t)
    assert abs(bg.beta * bg.gamma - bg.nu) < 1e-10
    # criterion 07: on reflectionless data both routes agree to round-off
    for side in (Side.PLUS_X, Side.MINUS_X):
        wp = wedge_point(alpha, s, t, side)
        assert abs(predict_q(refl, wp).total - gen_as_predict(refl, wp).total) < 1e-11


def test_reflectionless_data_short_circuits(sd_refl):
    bg = _beta_gamma(sd_refl, 0.7, 1.0, 1.0e6)
    assert bg.degenerate
    assert bg.beta == bg.gamma == 0j
    assert _tilde_pair_asymptotic(sd_refl, 0.7, 1.0, 1.0e6)[0] == 0j

    for side in (Side.PLUS_X, Side.MINUS_X):
        wp = wedge_point(0.7, 1.0, 1.0e6, side)
        exact = gen_as_predict(sd_refl, wp)
        expanded = predict_q(sd_refl, wp)
        # both routes reduce to the bare plateau, and they agree exactly
        assert abs(exact.total - expanded.total) < 1e-12
        if side is Side.PLUS_X:
            assert abs(abs(exact.total) - 1.2) < 1e-12
        else:
            assert exact.total == 0j


def test_tilde_pair_asymptotics_converge(sd_i, sd_ii):
    ladder = (1.0e4, 1.0e6, 1.0e8, 1.0e10)

    # generic class: relative error decays on a logarithmic scale; assert
    # monotone improvement and the measured endpoint with margin
    errs = []
    for t in ladder:
        bg = _beta_gamma(sd_i, 0.7, 1.0, t)
        beta_asymptotic = _tilde_pair_asymptotic(sd_i, 0.7, 1.0, t)[0]
        errs.append(abs(beta_asymptotic - bg.beta_tilde) / abs(bg.beta_tilde))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.06  # measured 0.0511

    # degenerate class: clean power law at rate (alpha-1)/(2-alpha)
    target = (0.7 - 1.0) / (2.0 - 0.7)
    for index, attr in enumerate(("beta_tilde", "gamma_tilde")):
        errs2 = []
        for t in ladder:
            bg = _beta_gamma(sd_ii, 0.7, 1.0, t)
            approx = _tilde_pair_asymptotic(sd_ii, 0.7, 1.0, t)[index]
            exact = getattr(bg, attr)
            errs2.append(abs(approx - exact) / abs(exact))
        slope = _fit_slope(np.log(ladder), np.log(errs2))
        assert abs(slope - target) < 0.3 * abs(target)  # measured -0.214


# ---------------------------------------------------------------------------
# expanded-route structure


def test_plus_side_leading_modulus_is_plateau(sd_i, sd_ii):
    for sd, level in ((sd_i, 1.2), (sd_ii, math.sqrt(0.75))):
        for alpha in (0.4, 0.8):
            wp = wedge_point(alpha, 1.0, 1.0e5, Side.PLUS_X)
            pred = predict_q(sd, wp)
            assert abs(pred.leading) == pytest.approx(amplitude_Q(sd), rel=1e-12)
            assert abs(abs(pred.leading) - level) < 5e-9


def test_regime_matrix_and_error_orders(sd_i, sd_ii):
    # (case, side, alpha) -> (regime, t-exponent, log power)
    expectations = [
        (sd_i, "+x", 0.5, "I+x/explicit-correction", 0.5 / -3.0, -0.5),
        (sd_i, "+x", 2.0 / 3.0, "I+x/leading-only", (1 / 3) / (2 / 3 - 2), 1.0),
        (sd_i, "+x", 0.9, "I+x/leading-only", 0.1 / -1.1, 1.0),
        (sd_i, "-x", 2.0 / 3.0, "I-x/bound-only", 1.0 / (2 / 3 - 2), 1.0),
        (sd_i, "-x", 0.8, "I-x/explicit-correction", 1.6 / -2.4, -0.5),
        (sd_ii, "+x", 0.45, "II+x/explicit-correction", 0.45 / -1.55, 1.0),
        (sd_ii, "+x", 0.5, "II+x/explicit-correction", 0.5 / -1.5, 1.0),
        (sd_ii, "+x", 0.75, "II+x/leading-only", 0.25 / -1.25, 1.0),
        (sd_ii, "-x", 0.5, "II-x/bound-only", 1.0 / -1.5, 1.0),
        (sd_ii, "-x", 0.75, "II-x/explicit-correction", 1.0 / -1.25, 1.0),
        (sd_ii, "-x", 0.8, "II-x/explicit-correction", 1.0 / -1.2, 1.0),
        (sd_ii, "-x", 0.85, "II-x/explicit-correction", 1.75 / -2.3, 0.5),
    ]
    for sd, side, alpha, regime, t_exp, log_pow in expectations:
        pred = predict_q(sd, wedge_point(alpha, 1.0, 1.0e6, Side(side)))
        assert pred.regime == regime
        assert pred.error_order.t_exponent == pytest.approx(t_exp, rel=1e-12)
        assert pred.error_order.log_power == log_pow

    # exact-route remainders
    cells = [
        (sd_i, "+x", 0.9, -0.5, 0.5),
        (sd_i, "+x", 0.5, 0.5 / -1.5, 1.0),
        (sd_ii, "-x", 0.9, 1.5 / -2.2, 0.5),
        (sd_ii, "-x", 0.75, 1.0 / -1.25, 1.0),
    ]
    for sd, side, alpha, t_exp, log_pow in cells:
        pred = gen_as_predict(sd, wedge_point(alpha, 1.0, 1.0e6, Side(side)))
        assert pred.regime.endswith("/exact-route")
        assert pred.error_order.t_exponent == pytest.approx(t_exp, rel=1e-12)
        assert pred.error_order.log_power == log_pow


def test_prediction_ledger_selection(sd_i):
    pc = phase_coefficients(sd_i, 0.8, 1.0)
    plus = predict_q(sd_i, wedge_point(0.8, 1.0, 1.0e6, Side.PLUS_X))
    assert plus.ledger == pc.main
    assert plus.ledger.oscillation == 0.0

    minus = predict_q(sd_i, wedge_point(0.8, 1.0, 1.0e6, Side.MINUS_X))
    assert minus.leading == 0j
    assert minus.ledger == pc.forward

    bound = predict_q(sd_i, wedge_point(0.5, 1.0, 1.0e6, Side.MINUS_X))
    assert bound.total == 0j
    assert astuple(bound.ledger) == (0.0,) * 6


def test_leading_phase_tracks_exact_route(sd_i):
    diffs = []
    for t in (1.0e4, 1.0e6, 1.0e8):
        wp = wedge_point(0.8, 1.0, t, Side.PLUS_X)
        exact = gen_as_predict(sd_i, wp)
        expanded = predict_q(sd_i, wp)
        diffs.append(abs(cmath.phase(exact.leading / expanded.leading)))
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-3  # measured 2.7e-4


def test_expanded_route_converges_to_exact_route(sd_i, sd_ii):
    """Cross-route convergence over the full branch matrix.

    The gap between the fully expanded prediction and the exact mid-level
    route must decay no slower than the expanded route's recorded remainder
    order.  The fit removes the recorded log power first, then compares the
    fitted power of t against the recorded exponent (small tolerance for
    residual log drift).  Bound-only regimes predict zero, so there the
    check bounds the field itself by the recorded remainder.
    """
    ladder = (1.0e4, 1.0e6, 1.0e8, 1.0e10)
    for sd in (sd_i, sd_ii):
        level = amplitude_Q(sd)
        for alpha in (0.5, 0.75, 0.9):
            for side in (Side.PLUS_X, Side.MINUS_X):
                gaps = []
                for t in ladder:
                    wp = wedge_point(alpha, 1.0, t, side)
                    exact = gen_as_predict(sd, wp)
                    expanded = predict_q(sd, wp)
                    gaps.append(abs(expanded.total - exact.total) / level)
                order = expanded.error_order
                lnts = np.log(ladder)
                reduced = np.log(gaps) - order.log_power * np.log(lnts)
                slope = _fit_slope(lnts, reduced)
                assert slope <= order.t_exponent + 0.06, (
                    f"{expanded.regime} alpha={alpha}: fitted {slope:.4f} "
                    f"vs recorded {order.t_exponent:.4f}; gaps={gaps}"
                )
                # the two routes genuinely approach each other everywhere
                assert gaps[-1] < gaps[0]


# ---------------------------------------------------------------------------
# straight-ray matching


def test_matching_fixed_product_generic(sd_i):
    report = matching_check(sd_i, *matching_ladder(1.0, [0.9, 0.99, 0.999], hold_product=1.0))
    assert report.mode == "fixed-product"
    assert report.case is CaseTag.CASE_I
    residuals = [row.phase_residual for row in report.rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    # limit of the slow-phase residual under (1-alpha) ln t = 1:
    # |-1 + 2 ln(1/0.9)| / pi for this family's half-level 0.9
    limit = abs(-1.0 + 2.0 * math.log(1.0 / 0.9)) / math.pi
    assert abs(residuals[-1] - limit) < 5e-3  # measured 2.3e-4
    # explicit mirror magnitude follows the straight-ray decay t**(-1/2)
    assert report.mirror_exponent == pytest.approx(-0.5, abs=0.02)
    for row in report.rows:
        assert row.mirror_log_magnitude is not None
        assert row.ray_log_magnitude is not None
        # the two log-magnitudes stay within an O(1) offset of each other
        assert abs(row.mirror_log_magnitude - row.ray_log_magnitude) < 2.0
    assert report.oscillation_coefficient_limit == 4.0
    assert report.oscillation_coefficient_expected == 4.0
    assert report.mirror_amplitude_ratio is None


def test_matching_fixed_time_contrast(sd_i):
    report = matching_check(sd_i, *matching_ladder(1.0, [0.9, 0.99, 0.999], t=1.0e8))
    assert report.mode == "fixed-time"
    residuals = [row.phase_residual for row in report.rows]
    # at fixed time the residual collapses as alpha -> 1 (not necessarily
    # monotonically at the floor set by the constant terms)
    assert residuals[0] > 0.1
    assert max(residuals[1:]) < 0.01
    # constant ln t along the ladder leaves no decay exponent to fit
    assert report.mirror_exponent is None


def test_matching_degenerate_ratio(sd_ii):
    report = matching_check(sd_ii, *matching_ladder(0.8, [0.9, 0.99, 0.999], hold_product=1.0))
    residuals = [row.phase_residual for row in report.rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert report.oscillation_coefficient_limit == pytest.approx(2.56, rel=1e-14)
    ratio = report.mirror_amplitude_ratio
    # the mirror constant reproduces the straight-ray constant up to the
    # data-reflection factor conj(a21)/a21, equal to -1 for this family
    assert ratio is not None
    assert abs(ratio + 1.0) < 5e-3  # measured 1.2e-3


def test_matching_validation(sd_i, sd_refl):
    with pytest.raises(ValueError):
        matching_ladder(1.0, [0.9], hold_product=1.0, t=1.0e6)
    with pytest.raises(ValueError):
        matching_ladder(1.0, [])
    with pytest.raises(ValueError):
        matching_ladder(1.0, [1.5], t=1.0e6)
    with pytest.raises(ValueError):
        matching_ladder(1.0, [0.9])  # no mode selected
    # reflectionless data has no explicit mirror term and no ratio
    report = matching_check(sd_refl, *matching_ladder(1.0, [0.9, 0.99], hold_product=1.0))
    assert report.mirror_amplitude_ratio is None
    assert all(row.mirror_log_magnitude is None for row in report.rows)


def test_matching_ladder_rejects_repeated_alphas():
    # a repeated rung would be matched, and reported, twice
    with pytest.raises(ValueError, match="alphas repeat a value"):
        matching_ladder(1.0, [0.9, 0.99, 0.9], hold_product=1.0)
