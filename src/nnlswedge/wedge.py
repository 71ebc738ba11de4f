"""Asymptotic predictions along the slow-observation wedge x**(2-alpha) = 4st.

For step-like data the field near the wedge curve oscillates on a plateau of
modulus Q with a phase driven by two nested logarithmic scales, plus decaying
correction terms whose amplitudes come from a parabolic-cylinder parametrix.
This module evaluates those predictions by two deliberately independent
routes so they can cross-check each other:

* :func:`gen_as_predict` -- the exact mid-level route.  The connection
  coefficients are assembled from direct-quadrature values of the phase
  functionals and from the dressed reflection values at the stationary
  point; no large-time expansion of those ingredients enters.  The only
  asymptotic content is the parametrix error recorded in ``error_order``.
* :func:`predict_q` -- the fully expanded route.  Every factor is a frozen
  constant multiplied by elementary functions of t, organized by the ledger
  of log-phase coefficients from :func:`phase_coefficients`.

The two routes converge to each other at the slower of their printed error
rates; their gap is the working measure of how quickly the closed-form
coefficients take over from the exact functionals.

:func:`matching_check` reconciles the wedge-interior forms with the
straight-ray forms as alpha -> 1, holding either the observation time or the
product (1 - alpha) ln t fixed along the ladder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phases import (
    ErrorOrder,
    Side,
    WedgePoint,
    tracker_for,
    wedge_point,
)
from .scattering import CaseTag, SpectralData

__all__ = [
    "Side",
    "WedgePoint",
    "PhaseLedger",
    "PhaseCoefficients",
    "BetaGamma",
    "AsymptoticPrediction",
    "MatchingRow",
    "MatchingReport",
    "wedge_point",
    "amplitude_Q",
    "phase_coefficients",
    "beta_gamma",
    "predict_q",
    "gen_as_predict",
    "matching_check",
    "matching_ladder",
    "DEGENERATE_REFLECTION",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# Reflection values below this threshold are treated as exactly
# reflectionless: every connection coefficient degenerates to zero there
# (the gamma-factor pole cancels against the vanishing reflection).
DEGENERATE_REFLECTION = 1e-10

# Magnitude logs below this underflow double precision; such terms are
# returned as exact zeros rather than denormals.
_UNDERFLOW_LOG = -700.0

# alpha edges of the branch table (see _branch)
_EXPLICIT_EDGE = 2.0 / 3.0
_REMAINDER_EDGE = 4.0 / 5.0


# ---------------------------------------------------------------------------
# phase ledgers


@dataclass(frozen=True)
class PhaseLedger:
    """Real coefficients of one wedge phase, organized by elementary term::

        phase(t) = oscillation * t**(alpha/(2-alpha))
                 + log_squared * L**2 + log_times_loglog * L * ln(L)
                 + log_linear * L + loglog * ln(L) + constant,    L = ln(4st)

    The oscillation entry multiplies the fast power of t (it equals s * x**alpha
    on the wedge); all other terms vary on logarithmic scales only.
    ``dataclasses.astuple`` gives the six coefficients in this order.
    """

    oscillation: float
    log_squared: float
    log_times_loglog: float
    log_linear: float
    loglog: float
    constant: float

    def slow_phase(self, ln_4st: float) -> float:
        """Every term except the fast oscillation, at L = ln_4st."""
        if not ln_4st > 0.0:
            raise ValueError("slow phase needs ln(4st) > 0")
        ln_l = math.log(ln_4st)
        return (
            self.log_squared * ln_4st * ln_4st
            + self.log_times_loglog * ln_4st * ln_l
            + self.log_linear * ln_4st
            + self.loglog * ln_l
            + self.constant
        )

    def phase_at(self, point: WedgePoint) -> float:
        """Full phase value at the given wedge point.

        Raises OverflowError when the fast oscillation exceeds the double
        range; magnitudes never involve this term, so log-space consumers
        should use :meth:`slow_phase` instead.
        """
        value = self.slow_phase(point.ln_4st)
        if self.oscillation:
            exponent = point.alpha / (2.0 - point.alpha) * point.ln_t
            if exponent > 709.0:
                raise OverflowError(
                    "fast oscillation overflows at this ln_t; use slow_phase"
                )
            value += self.oscillation * math.exp(exponent)
        return value


@dataclass(frozen=True)
class PhaseCoefficients:
    """Frozen phase ledgers of the wedge at one (alpha, s, data).

    One formula serves both small-k classes.  It reads two numbers of the
    data's phase tracker: ``h`` (1 generic, 0 degenerate) and
    nu_1 = ln P(0) / (2 pi).  With r = (1-alpha)/(2-alpha),
    w = alpha r / (pi (2-alpha)), ``nu_s`` = nu_1 - h ln(s) / pi and
    L = ln 4st, the terms of each ledger (fast, L**2, L ln L, L, ln L,
    const) are::

        main       0   -h r^2/pi         0        M        0         C
        tilt       0   -h r^2/pi         h r/pi   T        h nu_s    0
        forward    f   -h (r^2/pi + w)   h r/pi   F        h nu_s    0
        backward  -f   -h (r^2/pi - w)  -h r/pi   2M - F  -h nu_s    0

    where f = :func:`_fast_coefficient`, M = -2 r nu_s,
    T = h (r/pi) (ln(r/pi) - 1 + ln(s/2)) - 2 r nu_1,
    F = T - alpha nu_s / (2-alpha) and
    C = 2 nu_1 ln s - 2 h ln(s)^2 / pi + 2 Im chi_origin_const(s).

    ``main`` is the plateau phase, ``forward`` / ``backward`` the phases of
    the two correction terms, and ``tilt`` the slow phase of the dressed
    connection pair in :func:`beta_gamma`.  ``nu_s`` is the winding index at
    which the frozen connection pair is dressed.  The frozen amplitudes go
    with these ledgers, each times the slowly varying factor (ln t)**(h/2):
    ``beta_const`` / ``gamma_const`` of the dressed connection pair (with
    ``tilt``), ``amp_forward`` / ``amp_backward`` of the two +x correction
    terms, and ``amp_mirror`` of the -x explicit term (with ``forward``).
    All are zero on reflectionless data, which ``degenerate`` marks.
    """

    alpha: float
    s: float
    h: int
    nu_s: float
    main: PhaseLedger
    tilt: PhaseLedger
    forward: PhaseLedger
    backward: PhaseLedger
    beta_const: complex
    gamma_const: complex
    amp_forward: complex
    amp_backward: complex
    amp_mirror: complex
    degenerate: bool


def _fast_coefficient(alpha: float, s: float) -> float:
    """Coefficient of the fast phase t**(alpha/(2-alpha)), i.e. s * x**alpha
    over that power of t on the wedge."""
    return 2.0 ** (2.0 * alpha / (2.0 - alpha)) * s ** (2.0 / (2.0 - alpha))


def _ledger(*terms: float) -> PhaseLedger:
    # + 0.0 turns the -0.0 of an h = 0 product into 0.0, so that a term
    # absent from the degenerate class prints as 0
    return PhaseLedger(*(term + 0.0 for term in terms))


def phase_coefficients(sd: SpectralData, alpha: float, s: float) -> PhaseCoefficients:
    """Evaluate the four phase ledgers and their frozen amplitudes at one
    (alpha, s); see :class:`PhaseCoefficients` for the table."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not s > 0.0:
        raise ValueError("s must be positive")
    tracker = tracker_for(sd)
    h, nu_one = tracker.h, tracker.nu_one
    r = (1.0 - alpha) / (2.0 - alpha)
    rate = r / math.pi
    ln_s = math.log(s)
    nu_s = nu_one - h * ln_s / math.pi
    fast = _fast_coefficient(alpha, s)
    squared = -h * r * rate
    split = h * alpha * rate / (2.0 - alpha)
    main_linear = -2.0 * r * nu_s
    tilt_linear = (
        h * rate * (math.log(rate) - 1.0 + math.log(0.5 * s)) - 2.0 * r * nu_one
    )
    forward_linear = tilt_linear - alpha * nu_s / (2.0 - alpha)
    main_constant = (
        2.0 * nu_one * ln_s
        - 2.0 * h * ln_s * ln_s / math.pi
        + 2.0 * tracker.chi_origin_const(s).imag
    )
    main = _ledger(0.0, squared, 0.0, main_linear, 0.0, main_constant)
    k1, level = sd.k1, sd.amplitude
    degenerate = _reflectionless(sd)
    if degenerate:
        beta_const = gamma_const = amp_forward = amp_backward = amp_mirror = 0j
    else:
        if sd.case is CaseTag.CASE_I:
            # the frozen pair: level / (2 k1) and its inverse, times
            # (r/pi)**(1/2 +- i nu)
            log_rate = math.log((1.0 - alpha) / (math.pi * (2.0 - alpha)))
            beta_pair = level / (2.0 * k1 * cmath.exp((-1j * nu_s - 0.5) * log_rate))
            gamma_pair = 2.0 * k1 / (level * cmath.exp((1j * nu_s - 0.5) * log_rate))
        else:
            # the parametrix pair with the k -> 0 limits of the dressed
            # reflection values
            b_zero = tracker.b_at_zero
            beta_pair, gamma_pair = _parametrix_pair(
                nu_s,
                -1j * k1 * b_zero / complex(sd.a11),
                1j * b_zero.conjugate() / (k1 * complex(sd.a21)),
            )
        beta_const, gamma_const = _dress(
            beta_pair, gamma_pair, nu_s, tracker.chi_saddle_const(s), alpha, s
        )
        plateau_q = amplitude_Q(sd)
        amp_forward = -(2.0 * k1 / s) * beta_const
        amp_backward = (
            plateau_q
            * plateau_q
            * cmath.exp(2j * main.constant)
            * gamma_const
            / (2.0 * k1 * s)
        )
        amp_mirror = (
            math.exp(
                alpha / (2.0 - alpha) * ln_s
                - (2.0 - 3.0 * alpha) / (2.0 - alpha) * _LN2
            )
            * gamma_const.conjugate()
            / k1
        )
    return PhaseCoefficients(
        alpha=float(alpha),
        s=float(s),
        h=h,
        nu_s=nu_s,
        main=main,
        tilt=_ledger(0.0, squared, h * rate, tilt_linear, h * nu_s, 0.0),
        forward=_ledger(
            fast, squared - split, h * rate, forward_linear, h * nu_s, 0.0
        ),
        backward=_ledger(
            -fast,
            squared + split,
            -h * rate,
            2.0 * main_linear - forward_linear,
            -h * nu_s,
            0.0,
        ),
        beta_const=beta_const,
        gamma_const=gamma_const,
        amp_forward=amp_forward,
        amp_backward=amp_backward,
        amp_mirror=amp_mirror,
        degenerate=degenerate,
    )


def _reflectionless(sd: SpectralData) -> bool:
    """True for degenerate-class data whose reflection vanishes at k = 0,
    where every connection coefficient of the expanded route is zero."""
    b_zero = tracker_for(sd).b_at_zero
    return b_zero is not None and abs(b_zero) < DEGENERATE_REFLECTION * max(1.0, sd.amplitude)


# ---------------------------------------------------------------------------
# amplitudes


def amplitude_Q(sd: SpectralData) -> float:
    """Modulus of the oscillatory plateau on the wedge.

    Equals the background level times the squared large-time modulus of the
    ray-limit modulation; for data with a real unitarity product it reduces
    to the background level exactly.
    """
    return sd.amplitude * math.exp(2.0 * tracker_for(sd).plateau)


# Lanczos (1964) coefficients for g = 7, n = 9
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _rgamma(z: complex) -> complex:
    """Reciprocal gamma function 1/Gamma(z), entire in z (exactly 0 at the
    non-positive integers)."""
    if z.real < 0.5:
        # reflection 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi, with the sine's
        # argument reduced by the nearest integer so the zeros are exact
        n = round(z.real)
        return (-1) ** n * cmath.sin(math.pi * (z - n)) / (math.pi * _rgamma(1.0 - z))
    z -= 1.0
    series = _LANCZOS[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS[1:], 1))
    t = z + 7.5  # z + g + 1/2
    return cmath.exp(t - (z + 0.5) * cmath.log(t)) / (_SQRT_2PI * series)


def _parametrix_pair(nu: complex, r1: complex, r2: complex) -> tuple[complex, complex]:
    """Parametrix connection pair (beta, gamma) for the winding index ``nu``
    and reflection values ``r1``, ``r2``; ``beta * gamma == nu`` identically
    when ``nu = -ln(1 + r1 r2) / (2 pi)``."""
    beta = (
        _SQRT_2PI
        * cmath.exp(-0.5 * math.pi * nu - 0.75j * math.pi)
        * _rgamma(-1j * nu)
        / r1
    )
    gamma = (
        _SQRT_2PI
        * cmath.exp(-0.5 * math.pi * nu - 0.25j * math.pi)
        * _rgamma(1j * nu)
        / r2
    )
    return beta, gamma


def _dress(
    beta: complex, gamma: complex, nu: complex, chi: complex, alpha: float, s: float
) -> tuple[complex, complex]:
    """Tilde pair ``(i beta, -i gamma) * exp(+-i nu ln(s/2) + common +- 2 chi)``:
    the connection pair dressed by the phase functional ``chi``."""
    common = (1.0 - alpha) / (2.0 - alpha) * math.log(s) + (alpha + 2.0) / (
        2.0 * alpha - 4.0
    ) * _LN2
    rotation = 1j * nu * math.log(0.5 * s)
    return (
        1j * beta * cmath.exp(rotation + common + 2.0 * chi),
        -1j * gamma * cmath.exp(-rotation + common - 2.0 * chi),
    )


# ---------------------------------------------------------------------------
# connection coefficients


@dataclass(frozen=True)
class BetaGamma:
    """Connection coefficients at one wedge point.

    ``beta`` / ``gamma`` are the parametrix pair from the dressed reflection
    values, with ``nu`` and ``chi_saddle`` (``chi`` at the stationary point)
    by direct quadrature; their product equals ``nu`` identically.
    ``beta_tilde`` / ``gamma_tilde`` absorb the phase-functional dressing.
    The ``*_asymptotic`` entries re-evaluate the tilde pair from the frozen
    large-time constants and the tilt ledger, times the slowly varying factor
    (ln t)**(h/2) (the square root of ln t in the generic class).
    ``degenerate`` marks reflectionless data, where every entry is exactly
    zero.
    """

    beta: complex
    gamma: complex
    beta_tilde: complex
    gamma_tilde: complex
    beta_tilde_asymptotic: complex
    gamma_tilde_asymptotic: complex
    nu: complex
    chi_saddle: complex
    degenerate: bool


def _connection(sd: SpectralData, point: WedgePoint, pc: PhaseCoefficients) -> BetaGamma:
    """Connection coefficients at ``point``, with the frozen pair of ``pc``
    (the phase coefficients at the point's alpha and s) on the tilt ledger;
    the all-zero record where the dressed reflection vanishes."""
    tracker = tracker_for(sd)
    r1_dressed, r2_dressed = tracker.reflection_pair(point)
    if min(abs(r1_dressed), abs(r2_dressed)) < DEGENERATE_REFLECTION:
        return BetaGamma(0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, degenerate=True)
    nu = tracker.nu_hat(point)
    chi_saddle = tracker.chi_hat(-point.s, point)
    beta, gamma = _parametrix_pair(nu, r1_dressed, r2_dressed)
    beta_tilde, gamma_tilde = _dress(beta, gamma, nu, chi_saddle, point.alpha, point.s)
    slow = pc.tilt.slow_phase(point.ln_4st)
    root = point.ln_t ** (0.5 * pc.h)
    return BetaGamma(
        beta=beta,
        gamma=gamma,
        beta_tilde=beta_tilde,
        gamma_tilde=gamma_tilde,
        beta_tilde_asymptotic=pc.beta_const * cmath.exp(1j * slow) * root,
        gamma_tilde_asymptotic=pc.gamma_const * cmath.exp(-1j * slow) * root,
        nu=nu,
        chi_saddle=chi_saddle,
        degenerate=False,
    )


def beta_gamma(sd: SpectralData, alpha: float, s: float, t: float) -> BetaGamma:
    """Evaluate the connection coefficients at the +x wedge point (alpha, s, t),
    with the same direct-quadrature inputs :func:`gen_as_predict` uses."""
    return _connection(sd, wedge_point(alpha, s, t), phase_coefficients(sd, alpha, s))


# ---------------------------------------------------------------------------
# predictions


@dataclass(frozen=True)
class AsymptoticPrediction:
    """One evaluated prediction at a wedge point.

    ``leading`` is the plateau term (zero on the -x side), ``correction``
    the explicit decaying term for the regimes that have one.  ``ledger``
    records the phase decomposition the record can be re-fit against: the
    main-phase ledger on the +x side, the explicit-term ledger on the -x
    side, zeros for bound-only regimes.  ``regime`` is the branch id, e.g.
    ``"I+x/explicit-correction"`` or ``"II-x/bound-only"``.
    """

    leading: complex
    correction: complex
    ledger: PhaseLedger
    error_order: ErrorOrder
    case: CaseTag
    regime: str
    point: WedgePoint

    @property
    def total(self) -> complex:
        return self.leading + self.correction

    @property
    def rough_magnitude(self) -> float:
        """Coarse modulus scale of the branch with unit constants: on the +x
        side the plateau modulus; on the -x side the decay law of the explicit
        term (h = 1 in case I, 0 in case II) or, where that term is zero, the
        recorded bound t**(1/(alpha-2)) ln t."""
        point = self.point
        if point.side is Side.PLUS_X:
            return abs(self.leading)
        if self.correction != 0:
            h = int(self.case is CaseTag.CASE_I)
            return math.exp(_decay_law(Side.MINUS_X, point, h, 0.0)[1])
        return math.exp(point.ln_t / (point.alpha - 2.0) + math.log(point.ln_t))


def _decay_law(side: Side, point: WedgePoint, h: int, log_constant: float) -> tuple[float, float]:
    """Decay law c t**p (ln t)**(h/2) of the explicit term on ``side`` at the
    point's (alpha, t), with ln c = ``log_constant``: returns p and the log
    of the law.  The +x correction pair has p = alpha/(2 alpha-4), the -x
    mirror term p = (4-3 alpha)/(2 alpha-4)."""
    alpha = point.alpha
    p = (alpha if side is Side.PLUS_X else 4.0 - 3.0 * alpha) / (2.0 * alpha - 4.0)
    return p, log_constant + p * point.ln_t + 0.5 * h * math.log(point.ln_t)


_ZERO_LEDGER = PhaseLedger(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _evaluate_term(
    amplitude: complex, ledger: PhaseLedger, point: WedgePoint, log_prefactor: float
) -> complex:
    """amplitude * exp(i * ledger phase) * exp(log_prefactor), safely."""
    if amplitude == 0:
        return 0j
    magnitude_log = log_prefactor + math.log(abs(amplitude))
    if magnitude_log < _UNDERFLOW_LOG:
        return 0j
    phase = ledger.phase_at(point) + cmath.phase(amplitude)
    return math.exp(magnitude_log) * cmath.exp(1j * phase)


def _branch(point: WedgePoint, case: CaseTag) -> tuple[str, ErrorOrder, ErrorOrder]:
    """The paper's branch table: the expanded route's branch at ``point`` of
    the small-k ``case``, its remainder O(t**e ln(t)**m) as (e, m), and the
    exact route's remainder (a = alpha, p the power of :func:`_decay_law`)::

        side  alpha       branch               expanded, I  expanded, II          exact
        +x    < 1/2       explicit-correction  (p, -1/2)    (a/(a-2), 1)          (a/(a-2), 1)
        +x    [1/2, 2/3)  explicit-correction  (p, -1/2)    ((1-a)/(a-2), 1)      (a/(a-2), 1)
        +x    2/3         leading-only         ((1-a)/(a-2), 1) in both classes   (a/(a-2), 1)
        +x    > 2/3       leading-only         ((1-a)/(a-2), 1) in both classes   (-1/2, 1/2)
        -x    <= 2/3      bound-only           (1/(a-2), 1) in both classes       (1/(a-2), 1)
        -x    (2/3, 4/5]  explicit-correction  (p, -1/2)    (1/(a-2), 1)          (1/(a-2), 1)
        -x    > 4/5       explicit-correction  (p, -1/2)    ((6-5a)/(2a-4), 1/2)  the same

    In class II the expanded -x remainder is the exact one, and so is the
    +x one for alpha < 1/2.
    """
    alpha = point.alpha
    plus = point.side is Side.PLUS_X
    if plus and alpha > _EXPLICIT_EDGE:
        exact = ErrorOrder(-0.5, 0.5)
    elif plus:
        exact = ErrorOrder(alpha / (alpha - 2.0), 1.0)
    elif alpha > _REMAINDER_EDGE:
        exact = ErrorOrder((6.0 - 5.0 * alpha) / (2.0 * alpha - 4.0), 0.5)
    else:
        exact = ErrorOrder(1.0 / (alpha - 2.0), 1.0)
    plateau = ErrorOrder((1.0 - alpha) / (alpha - 2.0), 1.0)
    if plus and not alpha < _EXPLICIT_EDGE:
        return "leading-only", plateau, exact
    if not plus and not alpha > _EXPLICIT_EDGE:
        return "bound-only", exact, exact
    if case is CaseTag.CASE_I:
        p, _ = _decay_law(point.side, point, 0, 0.0)
        return "explicit-correction", ErrorOrder(p, -0.5), exact
    return "explicit-correction", plateau if plus and not alpha < 0.5 else exact, exact


def predict_q(sd: SpectralData, point: WedgePoint) -> AsymptoticPrediction:
    """Fully expanded prediction at one wedge point: the terms explicit in its
    :func:`_branch`, with that branch's remainder in ``error_order``."""
    pc = phase_coefficients(sd, point.alpha, point.s)
    branch, error, _ = _branch(point, sd.case)
    explicit = branch == "explicit-correction"
    _, prefactor = _decay_law(point.side, point, pc.h, 0.0)
    if point.side is Side.PLUS_X:
        leading = amplitude_Q(sd) * cmath.exp(1j * pc.main.phase_at(point))
        ledger = pc.main
        correction = 0j
        if explicit:
            correction = _evaluate_term(
                pc.amp_forward, pc.forward, point, prefactor
            ) + _evaluate_term(pc.amp_backward, pc.backward, point, prefactor)
    else:
        leading = 0j
        ledger = pc.forward if explicit else _ZERO_LEDGER
        correction = _evaluate_term(pc.amp_mirror, ledger, point, prefactor) if explicit else 0j
    return AsymptoticPrediction(
        leading=leading,
        correction=correction,
        ledger=ledger,
        error_order=error,
        case=sd.case,
        regime=f"{sd.case.value}{point.side.value}/{branch}",
        point=point,
    )


def gen_as_predict(sd: SpectralData, point: WedgePoint) -> AsymptoticPrediction:
    """Exact mid-level prediction at one wedge point.

    The ray-limit modulation and the connection coefficients are computed by
    direct quadrature; the large-time phase ledgers are only recorded, not
    evaluated, so the result is an independent target the expanded route
    must converge to.  ``error_order`` records the parametrix remainder of this route.
    """
    tracker = tracker_for(sd)
    alpha, s = point.alpha, point.s
    pc = phase_coefficients(sd, alpha, s)
    # the origin value first: a cell whose quadrature fails there never
    # pays for the saddle one
    chi_origin = tracker.chi_hat(0.0, point)
    pair = _connection(sd, point, pc)
    nu = tracker.nu_hat(point) if pair.degenerate else pair.nu
    delta_sq = cmath.exp(2.0 * (1j * nu * math.log(s) + chi_origin))
    if pair.degenerate:
        forward_term = backward_term = 0j
    else:
        fast = alpha * point.ln_x
        if fast > 709.0:
            raise OverflowError("fast oscillation overflows at this ln_t")
        rotation = 1j * s * math.exp(fast) - 1j * alpha * nu * point.ln_4st / (2.0 - alpha)
        decay = alpha / (2.0 * alpha - 4.0) * point.ln_t
        forward_term = pair.beta_tilde * cmath.exp(rotation + decay)
        backward_term = pair.gamma_tilde * cmath.exp(-rotation + decay)
    if point.side is Side.PLUS_X:
        leading = sd.amplitude * delta_sq
        correction = (
            sd.amplitude**2 / (2.0 * sd.k1 * s) * delta_sq * delta_sq * backward_term
            - 2.0 * sd.k1 / s * forward_term
        )
        ledger = pc.main
    else:
        leading = 0j
        correction = (
            2.0
            * s
            / sd.k1
            * math.exp((2.0 * alpha - 2.0) * point.ln_x)
            * backward_term.conjugate()
        )
        ledger = pc.forward
    return AsymptoticPrediction(
        leading=leading,
        correction=correction,
        ledger=ledger,
        error_order=_branch(point, sd.case)[2],
        case=sd.case,
        regime=f"{sd.case.value}{point.side.value}/exact-route",
        point=point,
    )


# ---------------------------------------------------------------------------
# matching diagnostics


@dataclass(frozen=True)
class MatchingRow:
    """One rung of a matching ladder.

    ``phase_residual`` is the distance of the wedge main phase from its
    straight-ray constant; the two log-magnitudes compare the explicit
    mirror term against the straight-ray decay law (None where the mirror
    term is not explicit).
    """

    alpha: float
    ln_t: float
    phase_residual: float
    mirror_log_magnitude: float | None
    ray_log_magnitude: float | None


@dataclass(frozen=True)
class MatchingReport:
    """Reconciliation of wedge-interior and straight-ray forms.

    ``mirror_exponent`` is the fitted slope of the mirror log-magnitude
    against ln t (only available when ln t varies along the ladder);
    ``oscillation_coefficient_limit`` evaluates the fast-phase coefficient
    at alpha = 1, which must equal ``4 s**2`` exactly;
    ``mirror_amplitude_ratio`` compares the mirror-term constant against
    the straight-ray constant at the top of the ladder (degenerate class
    only; its modulus tends to 1 and its argument to pi).
    """

    case: CaseTag
    mode: str
    s: float
    rows: tuple[MatchingRow, ...]
    mirror_exponent: float | None
    oscillation_coefficient_limit: float
    oscillation_coefficient_expected: float
    mirror_amplitude_ratio: complex | None


def matching_ladder(
    s: float,
    alphas,
    *,
    t: float | None = None,
    hold_product: float | None = None,
) -> tuple[str, tuple[WedgePoint, ...]]:
    """Validate a matching ladder and return its mode and its rungs.

    The rungs are +x wedge points in increasing alpha, either at the fixed
    time ``t`` or at ln t = ``hold_product`` / (1 - alpha).
    """
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("alphas must lie in (0, 1)")
    if any(a == b for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"alphas repeat a value: {alphas}")
    if not 4.0 * s * s < math.inf:  # the fast-phase coefficient at alpha = 1
        raise ValueError(f"s = {s:g} is too large: the fast-phase coefficient 4 s**2 overflows")
    if hold_product is not None:
        if not hold_product > 0.0:
            raise ValueError("hold_product must be positive")
        if t is not None:
            raise ValueError("pass either hold_product or a fixed time, not both")
        mode = "fixed-product"
    else:
        if t is None or not t > 1.0:
            raise ValueError("fixed-time mode needs t > 1")
        ln_t = math.log(t)
        mode = "fixed-time"
    points = tuple(
        wedge_point(
            alpha,
            s,
            ln_t=hold_product / (1.0 - alpha) if hold_product is not None else ln_t,
        )
        for alpha in alphas
    )
    return mode, points


def matching_check(
    sd: SpectralData,
    s: float,
    alphas,
    *,
    t: float | None = None,
    hold_product: float | None = None,
) -> MatchingReport:
    """Run a matching ladder in alpha toward the straight-ray regime.

    Two ladder modes (see :func:`matching_ladder`): pass ``t`` to hold the
    observation time fixed while alpha -> 1, or ``hold_product`` = c to keep
    (1 - alpha) * ln t = c fixed, which sends t -> infinity along the ladder.
    In fixed-product mode the phase residual decreases toward a finite limit
    and the mirror magnitudes expose the straight-ray decay exponent; in
    fixed-time mode the residual itself tends to zero.
    """
    mode, points = matching_ladder(s, alphas, t=t, hold_product=hold_product)
    tracker = tracker_for(sd)
    generic = sd.case is CaseTag.CASE_I
    if generic:
        ray_const_log = (
            math.log(4.0 * s / sd.amplitude)
            - 1.5 * _LN2
            - 2.0 * tracker.chi_saddle_const(s).real
        )
    ray_mirror = None if generic or _reflectionless(sd) else _ray_mirror_constant(sd, s)
    rows = []
    fit_lnts: list[float] = []
    fit_mags: list[float] = []
    for point in points:
        alpha, lt = point.alpha, point.ln_t
        pc = phase_coefficients(sd, alpha, s)
        residual = abs(pc.main.slow_phase(point.ln_4st) - pc.main.constant)
        mirror_log = None
        ray_log = None
        if alpha > _EXPLICIT_EDGE and not pc.degenerate:
            _, mirror_log = _decay_law(
                Side.MINUS_X, point, pc.h, math.log(abs(pc.amp_mirror))
            )
            if generic:
                rate = (1.0 - alpha) / (math.pi * (2.0 - alpha))
                ray_log = ray_const_log - 0.5 * lt + 0.5 * math.log(rate * lt)
            else:
                ray_log = math.log(abs(ray_mirror)) - 0.5 * lt
            fit_lnts.append(lt)
            fit_mags.append(mirror_log)
        rows.append(
            MatchingRow(
                alpha=alpha,
                ln_t=lt,
                phase_residual=residual,
                mirror_log_magnitude=mirror_log,
                ray_log_magnitude=ray_log,
            )
        )
    mirror_exponent = None
    if len(fit_lnts) >= 2 and max(fit_lnts) - min(fit_lnts) > 1e-9:
        slope = np.polyfit(np.asarray(fit_lnts), np.asarray(fit_mags), 1)[0]
        mirror_exponent = float(slope)
    # fast-phase coefficient continued to the straight-ray edge alpha = 1
    osc_limit = _fast_coefficient(1.0, s)
    ratio = None
    if ray_mirror is not None:  # pc is the top rung's
        ratio = (
            pc.amp_mirror
            * cmath.exp(-1j * tracker.nu_one * math.log(4.0 * s))
            / ray_mirror
        )
    return MatchingReport(
        case=sd.case,
        mode=mode,
        s=s,
        rows=tuple(rows),
        mirror_exponent=mirror_exponent,
        oscillation_coefficient_limit=osc_limit,
        oscillation_coefficient_expected=4.0 * s * s,
        mirror_amplitude_ratio=ratio,
    )


def _ray_mirror_constant(sd: SpectralData, s: float) -> complex:
    """Straight-ray mirror-term constant of reflecting degenerate-class data."""
    tracker = tracker_for(sd)
    nu_one = tracker.nu_one
    chi_one = tracker.origin_constant
    return (
        -math.sqrt(math.pi)
        * cmath.exp(
            -0.5 * math.pi * nu_one
            + 0.25j * math.pi
            - 2.0 * chi_one.conjugate()
            - 3j * nu_one * _LN2
        )
        * s
        * complex(sd.a21)
        * _rgamma(-1j * nu_one)
        / tracker.b_at_zero
    )
