"""Phase functionals driving the curved-wedge asymptotics.

A point on the wedge x**(2-alpha) = 4 s t is a :class:`WedgePoint`; it
alone derives ln(4st), ln x and the scaled stationary point
xi = s * x**(alpha-1), and every point method of :class:`PhaseTracker`
takes one.

Every quantity in this module is a Cauchy-type integral of the
branch-tracked logarithm of ``W(k) = 1 + r1(k) r2(k)`` over the negative
spectral half-line.  Under unitarity ``W = 1/(a1 a2)`` exactly, so the
tracker never forms the reflection coefficients where they are singular;
instead it works with the regularized product ``P(k) = k^(2h) a1(k) a2(k)``,
where ``2h`` is the power of k that keeps a1 a2 finite at k = 0:

* generic (Case I), h = 1: a1 has a double pole, ``P(0) = (A a2(0)/2)^2 > 0``;
* degenerate (Case II), h = 0: a1 has a simple pole and a2 a simple zero,
  ``P(0) = a11 a21 > 0``.

The small-k class fixes only the k = 0 data (``P(0)``, the endpoint values
of the regularized reflection coefficients, and ``b(0)`` where b is
finite); every functional is one formula in h and
``nu_1 = ln P(0) / (2 pi)``, so ``ln W = 2h ln(-k) - ln P``.  The continuous
logarithm of P is sampled on the scattering grid, splined (a not-a-knot cubic,
built in numpy), and anchored so the accumulated argument tends to 0 as k -> -inf.
Beyond the grid edge the logarithm is continued by a fitted algebraic
tail ``c1/u + c2/u^2 + c3/u^3 + c4/u^4`` whose integrals close in
elementary form.

Integrals that reach the spectral origin are computed in the variable
``tau = ln(-k)``; this absorbs the logarithmic growth of the integrand
into a bounded factor ``u d/du ln W(u)`` and turns endpoint log
singularities into the quadrature module's log-at-left-end form.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .profiles import DomainError
from .scattering import CaseTag, SpectralData, _extrapolate_to_zero, _rotation_too_large
from .specfun import QuadratureSpec, Singularity, quad

__all__ = [
    "ErrorOrder",
    "ExpansionBandWarning",
    "LogSingularityError",
    "PhaseFunctionalResult",
    "PhaseTracker",
    "RefinementRequiredError",
    "Side",
    "WedgePoint",
    "tracker_for",
    "wedge_point",
]

_TWO_PI = 2.0 * math.pi

# Inner edge of the window on which the algebraic tail is fitted.
_K_FIT = 30.0
# Largest slow variable xi, and kernel offset, as a fraction of the grid
# edge |k|: the tail series in offset/u converges geometrically inside it.
_WINDOW_FRACTION = 0.5
# Inverse powers used by the tail fit.
_TAIL_POWERS = (1, 2, 3, 4)
# Lower cutoff in tau = ln(-k) for integrals reaching k = 0; the
# truncated piece is O(|tau_floor| * residual winding) and far below the
# quadrature tolerances for data satisfying the normalization check.
_TAU_FLOOR = -40.0
# Band of the slow variable on which the large-time expansions are
# uniform; outside it they are still evaluated but flagged.
EXPANSION_BAND = (0.05, 20.0)


class LogSingularityError(DomainError, ArithmeticError):
    """1 + r1 r2 is too close to its zero for a stable logarithm."""


class RefinementRequiredError(DomainError, RuntimeError):
    """Branch tracking hit an argument jump too large to unwrap safely."""


class ExpansionBandWarning(UserWarning):
    """Slow variable outside the band where the expansions are uniform."""


@dataclass(frozen=True)
class ErrorOrder:
    """Symbolic error descriptor O(t**t_exponent * ln(t)**log_power).

    ``log_power`` may be half-integral: square-root-of-log factors appear
    in the generic wedge corrections.
    """

    t_exponent: float
    log_power: float

    def __str__(self) -> str:
        return f"O(t^{self.t_exponent:+.6g} ln^{self.log_power:g} t)"


@dataclass(frozen=True)
class PhaseFunctionalResult:
    """Large-time expansions of the scalar phase functionals at one
    (alpha, s, t) point.

    ``chi_origin_const`` holds the constant ``i h ln(s)^2 / (2 pi) + C`` of
    the origin value (h is half the regularizing power of the tracker);
    ``chi_saddle_const`` holds its stationary-point counterpart, larger by
    the exact offset ``i h pi / 6``.  ``error_order`` is the expansion's
    remainder.
    """

    nu_hat: complex
    chi_at_origin: complex
    chi_at_saddle: complex
    chi_origin_const: complex
    chi_saddle_const: complex
    plateau: float
    error_order: ErrorOrder
    case: CaseTag


class Side(Enum):
    """Which side of the origin a prediction refers to.

    The wedge coordinate x is always positive; ``MINUS_X`` predictions
    describe the field at ``-x``, which is coupled to the field at ``+x``
    by the mirror nonlinearity.
    """

    PLUS_X = "+x"
    MINUS_X = "-x"


@dataclass(frozen=True)
class WedgePoint:
    """A point on the wedge curve x**(2-alpha) = 4 s t, stored in log-time
    form.

    All derived quantities are exposed through logarithms so the point
    remains usable on ladders where t itself would overflow a double.
    """

    alpha: float
    s: float
    ln_t: float
    side: Side

    @property
    def ln_4st(self) -> float:
        return math.log(4.0 * self.s) + self.ln_t

    @property
    def ln_x(self) -> float:
        return self.ln_4st / (2.0 - self.alpha)

    @property
    def ln_xi(self) -> float:
        return math.log(self.s) + (self.alpha - 1.0) * self.ln_x

    @property
    def t(self) -> float:
        return math.exp(self.ln_t) if self.ln_t < 709.0 else math.inf

    @property
    def x(self) -> float:
        return math.exp(self.ln_x) if self.ln_x < 709.0 else math.inf

    @property
    def xi(self) -> float:
        return math.exp(self.ln_xi)


def wedge_point(
    alpha: float,
    s: float,
    t: float | None = None,
    side: Side = Side.PLUS_X,
    *,
    ln_t: float | None = None,
) -> WedgePoint:
    """Construct a :class:`WedgePoint`, validating the asymptotic regime.

    Pass ``ln_t`` instead of ``t`` to stay in log space.  Requires t > 1 and
    4st > e so every logarithm in the phase ledgers is positive.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not s > 0.0:
        raise ValueError("s must be positive")
    if ln_t is None:
        if t is None or not t > 0.0:
            raise ValueError("provide t > 0 or ln_t")
        ln_t = math.log(t)
    if not isinstance(side, Side):
        raise TypeError(f"side must be a Side, got {side!r}")
    if not ln_t > 0.0:
        raise ValueError("asymptotic predictions require t > 1")
    point = WedgePoint(float(alpha), float(s), float(ln_t), side)
    if not point.ln_4st > 1.0:
        raise ValueError("asymptotic predictions require ln(4 s t) > 1")
    return point


def _tail_moment(n: int, k_edge: float) -> float:
    """Integral of u**(-n) over (-inf, -k_edge], n >= 2."""
    return (-k_edge) ** (1 - n) / (1 - n)


class _NotAKnotSpline:
    """Not-a-knot cubic spline, built in numpy, through the columns of ``y`` (n, m) at n >= 4
    increasing nodes ``x``: ``CubicSpline``'s end rows, node slopes d from one tridiagonal
    (Thomas) sweep, and ``c[:, j, i]`` = (c3, c2, c1, c0) of column j in powers of u - x[i]."""

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y).reshape(len(x), -1)
        if x.size < 4 or not (np.diff(x) > 0.0).all() or not np.isfinite(np.r_[x, y.ravel()]).all():
            raise ValueError("need >= 4 finite, strictly increasing nodes and finite data")
        dx = np.diff(x)
        h = dx[:, None]
        s = np.diff(y, axis=0) / h
        # equation i reads lower[i-1] d[i-1] + diag[i] d[i] + upper[i] d[i+1]
        diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]]
        upper, lower = np.r_[x[2] - x[0], dx[:-1]], np.r_[dx[1:], x[-1] - x[-3]]
        d = np.empty_like(s, shape=y.shape)
        d[0] = ((dx[0] + 2.0 * upper[0]) * dx[1] * s[0] + dx[0] ** 2 * s[1]) / upper[0]
        d[1:-1] = 3.0 * (h[1:] * s[:-1] + h[:-1] * s[1:])
        d[-1] = (dx[-1] ** 2 * s[-2] + (2.0 * lower[-1] + dx[-1]) * dx[-2] * s[-1]) / lower[-1]
        for i in range(1, x.size):
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            d[i] -= w * d[i - 1]
        d[-1] /= diag[-1]
        for i in range(x.size - 2, -1, -1):
            d[i] = (d[i] - upper[i] * d[i + 1]) / diag[i]
        t = (d[:-1] + d[1:] - 2.0 * s) / h
        self.x = x
        self.c = np.stack([t / h, (s - d[:-1]) / h - t, d[:-1], y[:-1]]).transpose(0, 2, 1)

    def __call__(self, u, derivative: int = 0, cols=slice(None)):
        """Value (0) or first derivative (1) at u: shape (cols,) + u.shape."""
        u = np.asarray(u, dtype=float)
        i = np.searchsorted(self.x[1:-1], u, side="right")
        z = u - self.x[i]
        c3, c2, c1, c0 = self.c[:, cols, i]
        if derivative:
            return (3.0 * c3 * z + 2.0 * c2) * z + c1
        return ((c3 * z + c2) * z + c1) * z + c0


class PhaseTracker:
    """Branch-tracked evaluator of the phase functionals for one data set.

    The data's small-k class enters only through the k = 0 values chosen in
    the constructor; every method, and every wedge phase ledger, runs one
    formula for both classes in ``h``, half the power of k that regularizes
    a1 a2 at k = 0 (1 generic, 0 degenerate), and ``nu_one`` =
    ln P(0) / (2 pi) (in the degenerate class the winding index at the
    origin, ln(a11 a21) / (2 pi)).  It keeps the data's ``k1`` and ``case``
    but no reference to them, so :func:`tracker_for` stores it on them
    without a reference cycle.
    """

    def __init__(self, sd: SpectralData):
        self.k1 = sd.k1
        self.case = sd.case
        k = sd.k_grid
        neg = k < 0.0
        kneg = k[neg]  # increasing, -k_max .. -k_min
        self.k_edge = float(-kneg[0])
        amp = sd.amplitude

        # The small-k class picks h, the regularized product at 0, the
        # endpoint values of the regularized reflection splines
        # r1(u) = u*s1(u), r2(u) = s2(u)/u, and b(0), which is finite only
        # in the degenerate class.
        if sd.case is CaseTag.CASE_I:
            self.h = 1
            val0 = complex((0.5 * amp * sd.a2_at_zero) ** 2)
            s1_zero = -2.0j / amp
            s2_zero = -0.5j * amp
            self.b_at_zero = None
        else:
            self.h = 0
            val0 = complex((complex(sd.a11) * complex(sd.a21)).real)
            near = np.argsort(np.abs(k), kind="stable")[:10]
            self.b_at_zero = _extrapolate_to_zero(k[near], sd.b[near])
            s1_zero = self.b_at_zero / complex(sd.a11)
            s2_zero = np.conj(self.b_at_zero) / complex(sd.a21)
        if not val0.real > 0.0:
            raise RefinementRequiredError(
                "regularized spectral product is not positive at k = 0"
            )
        self.nu_one = math.log(val0.real) / _TWO_PI

        vals = kneg ** (2 * self.h) * (sd.a1[neg] * sd.a2[neg])
        allv = np.append(vals, val0)
        if _rotation_too_large(allv):
            raise RefinementRequiredError(
                "argument jump between adjacent nodes too close to pi; "
                "refine the spectral grid"
            )
        # one spline of three columns: ln P = ln|P| + i theta, s1 and s2
        log_p = np.log(np.abs(allv)) + 1j * np.unwrap(np.angle(allv))
        b_mirror = np.conj(sd.b[::-1][neg])  # conj(b(-k)) at the same nodes
        s1 = np.append((sd.b[neg] / sd.a1[neg]) / kneg, s1_zero)
        s2 = np.append(kneg * (b_mirror / sd.a2[neg]), s2_zero)
        self._spline = _NotAKnotSpline(np.append(kneg, 0.0), np.stack([log_p, s1, s2], axis=1))

        # Algebraic tail of L = ln W fitted on the outermost window.
        window = kneg <= -_K_FIT
        if not np.any(window):
            raise ValueError(
                f"spectral grid stops at |k| = {-float(np.min(kneg)):.3g}; "
                f"the tail fit needs samples with |k| >= {_K_FIT:g}"
            )
        u_fit = kneg[window]
        l_fit = 2 * self.h * np.log(-u_fit) - log_p[:-1][window]
        basis = np.stack([u_fit ** (-p) for p in _TAIL_POWERS], axis=1)
        coef, *_ = np.linalg.lstsq(basis, l_fit, rcond=None)
        self._tail_coef = coef
        self.tail_residual = float(np.max(np.abs(basis @ coef - l_fit)))
        self._chi_values: dict[tuple[float, float, float, float], complex] = {}

    # -- elementary evaluations ----------------------------------------------

    def _log_pn(self, u, derivative: int = 0):
        return self._spline(u, derivative, cols=0)

    def log_w(self, u):
        """Branch-tracked ln(1 + r1 r2) = 2h ln(-u) - ln P(u) on [-k_edge, 0)."""
        return 2 * self.h * np.log(-u) - self._log_pn(u)

    def _g0(self, u):
        """u * d/du ln(1 + r1 r2) = 2h - u (ln P)'(u): bounded on [-k_edge, 0]."""
        return 2 * self.h - u * self._log_pn(u, 1)

    def _tail_l(self, u: float) -> complex:
        return complex(sum(c * u ** (-p) for c, p in zip(self._tail_coef, _TAIL_POWERS)))

    def _tail_log_integral(self) -> complex:
        """Integral of L(u)/u over (-inf, -k_edge] from the fitted tail."""
        return complex(
            sum(c * _tail_moment(p + 1, self.k_edge) for c, p in zip(self._tail_coef, _TAIL_POWERS))
        )

    def _tail_chi(self, z_hat: float) -> complex:
        """Integral of ln(z_hat - u) dL(u) over (-inf, -k_edge]."""
        k_edge = self.k_edge
        if not abs(z_hat) < _WINDOW_FRACTION * k_edge:
            raise ValueError("kernel offset too large for the tail series")
        total = math.log(z_hat + k_edge) * self._tail_l(-k_edge)
        # integral of L(u)/(z_hat-u): geometric expansion in z_hat/u
        acc = 0.0 + 0.0j
        power = 1.0
        for m in range(64):
            term = power * sum(
                c * _tail_moment(p + m + 1, k_edge) for c, p in zip(self._tail_coef, _TAIL_POWERS)
            )
            acc += term
            if abs(term) <= 1e-17 * (1.0 + abs(acc)) or z_hat == 0.0:
                break
            power *= z_hat
        return total - acc

    def _check_window(self, xi: float) -> None:
        if not xi < _WINDOW_FRACTION * self.k_edge:
            raise ValueError(
                f"slow-variable argument {xi:.3g} lies outside the tabulated "
                f"spectral window (edge {self.k_edge:.3g})"
            )

    # -- point values ----------------------------------------------------------

    def reflection_pair(self, point: WedgePoint):
        """Saddle-point values of the pole-dressed reflection coefficients.

        Their product equals r1(-xi) r2(-xi) identically -- the dressing
        cancels -- so these are the values whose combination with nu_hat
        obeys the exact parametrix product identity.
        """
        xi = point.xi
        self._check_window(xi)
        dress = 1.0 + 1j * self.k1 * math.exp((1.0 - point.alpha) * point.ln_x) / point.s
        s1, s2 = self._spline(-xi, cols=slice(1, 3))
        r1 = complex(s1) * (-xi) * dress
        r2 = complex(s2) / (-xi) / dress
        return r1, r2

    def _log_w_tracked(self, w: complex, u: float) -> complex:
        """log of a point value of W with the winding taken from the
        tracked argument of the regularized product."""
        if abs(w) < 1e-12:
            raise LogSingularityError(
                "1 + r1 r2 is within 1e-12 of zero; the logarithm is unstable"
            )
        principal = cmath.phase(w)
        target = -float(self._log_pn(u).imag)
        wind = round((target - principal) / _TWO_PI)
        return complex(math.log(abs(w)), principal + _TWO_PI * wind)

    def nu_hat(self, point: WedgePoint) -> complex:
        """-(1/2 pi) ln(1 + r1 r2) at the stationary point, continuous branch."""
        r1, r2 = self.reflection_pair(point)
        return -self._log_w_tracked(1.0 + r1 * r2, -point.xi) / _TWO_PI

    def chi_hat(self, z: float, point: WedgePoint) -> complex:
        """Direct quadrature of the log-kernel functional at height z >= -s.

        Each value is kept in a dict on the tracker keyed by
        ``(z, alpha, s, ln_t)``, everything the integral reads; the side is
        not in the key because it never enters, so the +x and -x cells of
        one wedge rung share their quadratures.  Only returned values are
        stored: a call that raises stores nothing and raises again when
        repeated.  The dict lives as long as the tracker, hence as long as
        its data (:func:`tracker_for`), and grows with the distinct rungs
        asked for, as the output rows do.
        """
        key = (z, point.alpha, point.s, point.ln_t)
        value = self._chi_values.get(key)
        if value is not None:
            return value
        alpha, s = point.alpha, point.s
        ln_xi, ln_x = point.ln_xi, point.ln_x
        xi = point.xi
        self._check_window(xi)
        if z < -s - 1e-12 * max(1.0, s):
            raise ValueError("chi_hat requires z >= -s")
        at_saddle = abs(z + s) <= 1e-12 * max(1.0, s)
        z_hat = -xi if at_saddle else z * math.exp((alpha - 1.0) * ln_x)
        if not abs(z_hat) < _WINDOW_FRACTION * self.k_edge:
            raise ValueError("scaled kernel offset outside the tabulated window")

        l_xi = complex(self.log_w(-xi))
        scale_term = 1j * (1.0 - alpha) * ln_x / _TWO_PI * l_xi
        tail = self._tail_chi(z_hat)

        ln_edge = math.log(self.k_edge)

        if at_saddle:
            # Shift the integration variable so the logarithmic endpoint
            # sits exactly at 0, where the singular map is lossless:
            # ln(-xi + e^(ln xi + v)) = ln(xi) + ln(expm1(v)).
            def integrand(v):
                grow = np.exp(v)
                return (ln_xi + np.log(np.expm1(v))) * self._g0(-xi * grow)

            lo, hi = 0.0, ln_edge - ln_xi
            kind = Singularity.LOG_AT_LEFT_END
        else:

            def integrand(tau):
                return np.log(z_hat + np.exp(tau)) * self._g0(-np.exp(tau))

            lo, hi = ln_xi, ln_edge
            kind = Singularity.NONE

        # Tolerances are bounded below by the C^1 smoothness of the splined
        # data: the panel error estimate saturates near 1e-10.
        spec = QuadratureSpec(
            atol=1e-10, rtol=1e-9, max_subdivisions=600, singularity=kind
        )
        mid = quad(integrand, lo, hi, spec).value
        value = self._chi_values[key] = scale_term + 1j / _TWO_PI * (tail - mid)
        return value

    # -- cached constants --------------------------------------------------------

    @cached_property
    def plateau(self) -> float:
        """Limiting real part of the log-kernel functional: the weighted
        winding of W over the negative half-line."""
        tail = float(np.imag(self._tail_log_integral()))

        def integrand(tau):
            return self._log_pn(-np.exp(tau)).imag

        spec = QuadratureSpec(atol=5e-10, rtol=1e-9, max_subdivisions=800)
        mid = quad(integrand, _TAU_FLOOR, math.log(self.k_edge), spec).value
        return (tail + float(mid)) / _TWO_PI

    @cached_property
    def origin_constant(self) -> complex:
        """s-independent constant C of the large-time origin value: the
        log-kernel integral of dL split at the unit circle.  Inside it the
        regularizing part 2h du/u of dL is left out; its log-kernel
        integral is carried by the i h ln(s)^2 / (2 pi) term of
        :meth:`chi_origin_const`."""
        ln_k = math.log(self.k_edge)
        spec = QuadratureSpec(atol=5e-10, rtol=1e-9, max_subdivisions=800)

        def outer(tau):
            return tau * self._g0(-np.exp(tau))

        def inner(tau):
            u = -np.exp(tau)
            return tau * (u * self._log_pn(u, 1))

        mid = -quad(outer, 0.0, ln_k, spec).value
        inner_val = quad(inner, _TAU_FLOOR, 0.0, spec).value
        return 1j / _TWO_PI * (self._tail_chi(0.0) + mid + inner_val)

    def chi_origin_const(self, s: float) -> complex:
        """Large-time constant of the origin value at slow variable s:
        i h ln(s)^2 / (2 pi) + C."""
        return 1j * self.h * math.log(s) ** 2 / _TWO_PI + self.origin_constant

    def chi_saddle_const(self, s: float) -> complex:
        """Large-time constant at the stationary point: the origin constant
        plus the exact dilogarithm offset i h pi / 6."""
        return self.chi_origin_const(s) + 1j * self.h * math.pi / 6.0

    # -- result assembly -----------------------------------------------------------

    def expansion(self, point: WedgePoint) -> PhaseFunctionalResult:
        """Large-time expansions of nu_hat and chi_hat.

        With r = (1-alpha)/(2-alpha) and L = ln 4st:
        nu = nu_1 - h ln(xi) / pi and
        chi(0) = -i h r^2 L^2 / (2 pi) - i r nu_1 L + chi_origin_const(s);
        chi(-s) adds i h pi / 6.
        """
        alpha, s, ln_4st = point.alpha, point.s, point.ln_4st
        if not EXPANSION_BAND[0] <= s <= EXPANSION_BAND[1]:
            warnings.warn(
                f"s={s:.3g} outside the uniform-expansion band {EXPANSION_BAND}",
                ExpansionBandWarning,
                stacklevel=2,
            )
        h, nu_one = self.h, self.nu_one
        ratio = (1.0 - alpha) / (2.0 - alpha)
        nu = nu_one - h * point.ln_xi / math.pi
        chi0_s = self.chi_origin_const(s)
        chi_origin = (
            -1j * h * ratio**2 * ln_4st**2 / _TWO_PI
            - 1j * ratio * nu_one * ln_4st
            + chi0_s
        )
        return PhaseFunctionalResult(
            nu_hat=complex(nu),
            chi_at_origin=chi_origin,
            chi_at_saddle=chi_origin + 1j * h * math.pi / 6.0,
            chi_origin_const=chi0_s,
            chi_saddle_const=self.chi_saddle_const(s),
            plateau=self.plateau,
            error_order=ErrorOrder((1.0 - alpha) / (alpha - 2.0), 1),
            case=self.case,
        )

    # -- ray-limit modulation -----------------------------------------------------

    def delta0(self, xi: float) -> complex:
        """Modulation factor of the straight-ray region by direct quadrature."""
        if not xi > 0.0:
            raise ValueError("xi must be positive")
        self._check_window(xi)

        def integrand(tau):
            return self.log_w(-np.exp(tau))

        spec = QuadratureSpec(atol=1e-10, rtol=1e-9, max_subdivisions=600)
        mid = -quad(integrand, math.log(xi), math.log(self.k_edge), spec).value
        total = self._tail_log_integral() + mid
        return cmath.exp(-1j * total / _TWO_PI)

    def delta0_expansion(self, xi: float) -> complex:
        """Small-xi form of delta0 built from the cached constants."""
        if not xi > 0.0:
            raise ValueError("xi must be positive")
        ln_xi = math.log(xi)
        return cmath.exp(
            1j * ln_xi * (self.nu_one - self.h * ln_xi / _TWO_PI)
            + self.origin_constant
        )


# -- module-level convenience API ------------------------------------------------


def tracker_for(sd: SpectralData) -> PhaseTracker:
    """The PhaseTracker of ``sd``: built on first use and kept on the data
    themselves, so it lives exactly as long as they do."""
    tracker = vars(sd).get("_tracker")
    if tracker is None:
        tracker = PhaseTracker(sd)
        object.__setattr__(sd, "_tracker", tracker)
    return tracker
