"""Direct scattering at time zero for the mirror-coupled step problem.

The first-order system ``Phi_x = (-i k sigma3 + U(x)) Phi`` with

    U(x) = [[0, q(x)], [-conj(q(-x)), 0]]

is integrated with a fourth-order Magnus method (two-point Gauss
sampling per step, closed-form exponential of the traceless generator).
Jost solutions are normalized through the boundary matrices of the
one-sided step background: the left solution approaches the free form
built on the zero level, the right one the form built on the constant
level ``A``, each carrying the ``A/(2ik)`` off-diagonal dressing that
the step forces.

The scattering matrix is assembled at the origin,

    S(k) = Phi_right(0)^{-1} Phi_left(0) = [[a1, -conj(b(-k))], [b, a2]],

and the module also extracts the small-wavenumber data that controls
the wedge asymptotics: either the finite limit ``a2(0)`` (generic case,
tagged I) or the pole/zero coefficients ``a11 = lim k a1`` and
``a21 = lim a2 / k`` (degenerate case, tagged II).

Every sweep runs in two independent halves, each from its outer end to
``x = 0``: the left from ``-R`` and the right from ``R``
(:func:`_sweep_halves`).  On POSIX a forked child integrates the right half
while the caller integrates the left, and its result comes back
bit-identical through a pipe.  Elsewhere both halves run in turn.

Within a half (:func:`_sweep`) the step generators and their exponentials
are formed a block of steps at a time, ~4,096 complex entries per block,
and the solution columns then cross the block's steps in order.  The
exponential's ``cosh`` and ``sinh`` come from the real ``cos`` and ``sin``
of ``Im lam`` wherever ``|Re lam| < 2^-28``, where libm's ``cosh`` and
``sinh`` of ``Re lam`` are exactly 1 and ``Re lam`` (:func:`_cosh_sinh`).
Both give the bits of a step-by-step sweep with numpy's complex ``cosh``
and ``sinh``; only the time changes.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .profiles import DomainError, InitialProfile, fingerprint

__all__ = [
    "CaseTag",
    "SpectralData",
    "SmallKData",
    "ScatteringError",
    "DegenerateJostError",
    "SmallKMismatchError",
    "CaseClassificationError",
    "RootBracketError",
    "default_k_grid",
    "jost_at_origin",
    "scattering_grid",
    "small_k_data",
    "classify_case",
    "find_k1",
    "check_assumption2",
    "compute_spectral_data",
    "save_spectral_data",
    "load_spectral_data",
    "step_count",
    "synthetic_case_i",
    "synthetic_case_ii",
]


class CaseTag(str, Enum):
    """Small-wavenumber type of the transmission data."""

    CASE_I = "I"  # a1 has a double pole at k=0, a2(0) finite and nonzero
    CASE_II = "II"  # a1 has a simple pole, a2 a simple zero


class ScatteringError(DomainError, RuntimeError):
    """Base class for scattering-stage failures."""


class DegenerateJostError(ScatteringError):
    """Right Jost matrix lost invertibility (determinant below 1e-12)."""


class SmallKMismatchError(ScatteringError):
    """Independent small-k routes disagree beyond the accepted band."""


class CaseClassificationError(ScatteringError):
    """Measured limits violate the admissibility assumptions."""


class RootBracketError(ScatteringError):
    """No sign change of the imaginary-axis transmission where one was sought."""


# ---------------------------------------------------------------------------
# grids and step layout
# ---------------------------------------------------------------------------


def default_k_grid(n_per_sign: int = 400, k_min: float = 1e-3, k_max: float = 1e2) -> np.ndarray:
    """Symmetric log-spaced grid, ``n_per_sign`` nodes per sign, no zero."""
    pos = np.geomspace(k_min, k_max, n_per_sign)
    return np.concatenate((-pos[::-1], pos))


def _layout(profile: InitialProfile, k_scale: float):
    """Core half-width, core and tail step densities, and the step counts of
    one core half and one tail.

    The core (varying) region, out to where an exponential tail is down by
    ``e^{-18}``, is resolved with a density that grows like ``sqrt(k)`` --
    the scaling that keeps the fourth-order phase-sampling error of the
    Magnus rule at fixed accuracy -- while the tails, where the profile is
    constant to that factor and the rule is all but exact, get a coarse
    grid (no tail when the core fills the radius).
    """
    half = profile.core_halfwidth
    dens_core = 48.0 * math.sqrt(1.0 + 0.5 * k_scale)
    dens_tail = 8.0 * math.sqrt(1.0 + 0.125 * k_scale)
    n_half = max(2, int(math.ceil(half * dens_core)))
    if half >= profile.radius:
        return half, dens_core, dens_tail, n_half, 0
    n_tail = max(4, int(math.ceil((profile.radius - half) * dens_tail)))
    return half, dens_core, dens_tail, n_half, n_tail


def step_count(profile: InitialProfile, k_scale: float) -> int:
    """Steps of the :func:`_step_edges` layout, without building it."""
    *_, n_half, n_tail = _layout(profile, k_scale)
    return 2 * (n_half + n_tail)


def _step_edges(profile: InitialProfile, k_scale: float):
    """Step edges of the halves ``-R ... 0`` and ``R ... 0``, with the
    :func:`_layout` counts.

    Each half is ordered from its outer end to ``x = 0``, which ends both
    exactly, so a jump of the pure step never sits inside a step.
    """
    radius = profile.radius
    half, _, _, n_half, n_tail = _layout(profile, k_scale)
    left = np.linspace(-half, 0.0, n_half + 1)
    right = np.linspace(0.0, half, n_half + 1)
    if n_tail:
        left = np.concatenate((np.linspace(-radius, -half, n_tail + 1)[:-1], left))
        right = np.concatenate((right, np.linspace(half, radius, n_tail + 1)[1:]))
    return left, right[::-1]


_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0
_SQRT3_12 = math.sqrt(3.0) / 12.0
_SQRT3_6 = math.sqrt(3.0) / 6.0


# |Re lam| below which libm's cosh and sinh of Re lam are exactly 1 and Re lam
_EXACT_RE = 2.0**-28

# complex entries in one block of the step generators that _sweep forms at once
_BLOCK_ENTRIES = 4096


def _cosh_sinh(lam):
    """``cosh(lam)`` and ``sinh(lam)``, bit-equal to numpy's complex ufuncs.

    With ``lam = x + i y`` those take libm's ``cosh(x) cos(y) + i sinh(x)
    sin(y)`` and ``sinh(x) cos(y) + i cosh(x) sin(y)``.  Where ``|x| < 2^-28``
    and ``y`` is finite, libm's ``cosh(x)`` is exactly 1 and ``sinh(x)``
    exactly ``x``, so the real ``cos`` and ``sin`` of ``y`` give the same
    bits at a fraction of the cost; every other entry goes to the complex
    ufuncs.
    """
    x, y = lam.real, lam.imag
    narrow = np.abs(x) < _EXACT_RE
    narrow &= np.isfinite(y)
    if narrow.all():
        return _cosh_sinh_narrow(x, y)
    if not narrow.any():
        return np.cosh(lam), np.sinh(lam)
    c, s = np.empty_like(lam), np.empty_like(lam)
    wide = ~narrow
    c[wide], s[wide] = np.cosh(lam[wide]), np.sinh(lam[wide])
    c[narrow], s[narrow] = _cosh_sinh_narrow(x[narrow], y[narrow])
    return c, s


def _cosh_sinh_narrow(x, y):
    """``cos(y) + i x sin(y)`` and ``x cos(y) + i sin(y)``."""
    c, s = np.empty(y.shape, dtype=complex), np.empty(y.shape, dtype=complex)
    np.cos(y, out=c.real)
    np.sin(y, out=s.imag)
    np.multiply(x, s.imag, out=c.imag)
    np.multiply(x, c.real, out=s.real)
    return c, s


def _expm_traceless(o11, o12, o21):
    """Entries of ``exp([[o11, o12], [o21, -o11]])`` via cosh/sinhc.

    For a traceless generator, ``exp(O) = cosh(lam) I + sinhc(lam) O``
    with ``lam^2 = o11^2 + o12 o21``; the even functions are insensitive
    to the square-root branch, and a series handles small ``|lam|``.
    ``cosh`` and ``sinh`` come from :func:`_cosh_sinh`, which takes the
    real ``cos`` and ``sin`` of ``Im lam`` wherever ``|Re lam| < 2^-28``
    (every entry on a real wavenumber and a real profile) and gives the
    bits of the complex ufuncs everywhere.  The arguments may have any
    common shape; ``o12`` and ``o21`` are overwritten with the off-diagonal
    entries.
    """
    lam2 = o11 * o11 + o12 * o21
    lam = np.sqrt(lam2)
    c, s = _cosh_sinh(lam)
    small = np.abs(lam) < 1e-4
    series = small.any()
    if series:
        lam[small] = 1.0  # no 0/0 below; the series overwrites these entries
    s /= lam
    if series:
        lam2 = lam2[small]
        c[small] = 1.0 + lam2 * (0.5 + lam2 / 24.0)
        s[small] = 1.0 + lam2 * (1.0 / 6.0 + lam2 / 120.0)
    # complex products keep their operand order: numpy's fused multiply-add
    # can round s * o and o * s differently in the last bit
    so11 = s * o11
    np.multiply(s, o12, out=o12)
    np.multiply(s, o21, out=o21)
    return c + so11, o12, o21, c - so11


def _sweep(profile, k, edges, top, bottom, *, rescale=False):
    """Carry a stack of columns across the Magnus steps between ``edges``.

    ``edges`` runs in the direction of travel, so the steps are negative on
    a half swept from ``R`` towards 0.  ``top`` and ``bottom`` are (m, nk)
    arrays: the upper and lower rows of m propagated solution columns.
    Returns ``(top, bottom, logs)``.  With ``rescale=True`` every column is
    renormalized per element after every step; the logs of the removed
    factors, each less the step's free growth ``|h| Im k``, are summed per
    column into ``logs`` (else 0).

    The generators and their exponentials are formed for a block of steps
    at once, up to :data:`_BLOCK_ENTRIES` complex entries (one step at
    least); the columns then cross the block's steps one by one.  Every
    entry rounds as it would in a sweep that forms each step on its own.
    """
    x_starts, h_steps = edges[:-1], np.diff(edges)
    xg1 = x_starts + _GAUSS_C1 * h_steps
    xg2 = x_starts + _GAUSS_C2 * h_steps
    q1_all = profile.sample(xg1)
    q2_all = profile.sample(xg2)
    qm1_all = np.conj(profile.sample(-xg1))
    qm2_all = np.conj(profile.sample(-xg2))
    mik = -1j * k
    growth = np.ascontiguousarray(k.imag)  # a strided view costs more per step
    # the k-dependent terms of each step length, which uniform segments repeat
    lengths, length_of = np.unique(h_steps, return_inverse=True)
    mik_h = np.array([mik * h for h in lengths])
    mik_hh = np.array([_SQRT3_6 * h * h * mik for h in lengths])
    logs = 0.0
    rows = max(1, _BLOCK_ENTRIES // k.size)
    column = (-1,) + (1,) * k.ndim  # one step per row, broadcast along k
    for start in range(0, h_steps.size, rows):
        block = slice(start, start + rows)
        h = h_steps[block]
        q1, q2, qm1, qm2 = q1_all[block], q2_all[block], qm1_all[block], qm2_all[block]
        # the block's per-step scalars.  A product of two samples is formed
        # as a numpy scalar, since an array product may fuse a multiply-add
        # and round differently; a product with a real factor, a sum and a
        # difference round the same either way
        cross = np.array([a * b - c * d for a, b, c, d in zip(q1, qm2, q2, qm1)])
        c11 = (_SQRT3_12 * h * h * cross).reshape(column)
        d12, s12 = (q1 - q2).reshape(column), (0.5 * h * (q1 + q2)).reshape(column)
        d21, s21 = (qm1 - qm2).reshape(column), (-0.5 * h * (qm1 + qm2)).reshape(column)
        # a column entry multiplies its row as the step's scalar would the
        # step's array, with the operands in the same order
        which = length_of[block]
        o11 = mik_h.take(which, axis=0)
        o11 += c11
        hh = mik_hh.take(which, axis=0)
        o12 = hh * d12
        o12 += s12
        o21 = np.multiply(hh, d21, out=hh)
        o21 += s21
        e11, e12, e21, e22 = _expm_traceless(o11, o12, o21)
        if rescale:
            free_growth = np.abs(h.reshape(column)) * growth
        for i in range(e11.shape[0]):
            top, bottom = e11[i] * top + e12[i] * bottom, e21[i] * top + e22[i] * bottom
            if rescale:
                scale = np.maximum(np.abs(top), np.abs(bottom))
                scale = np.where(scale > 0, scale, 1.0)
                top /= scale
                bottom /= scale
                logs = logs + (np.log(scale) - free_growth[i])
    return top, bottom, logs


def _sweep_child(read_fd: int, write_fd: int, profile, k, args, rescale: bool):
    """Body of the forked child of :func:`_sweep_halves`; never returns.

    Sends ``(True, result)`` or ``(False, exception)`` down the pipe and
    leaves with ``os._exit``, so no atexit handler, buffered output or
    caller's code runs in the child.  If even that fails, the child sends
    nothing and the parent reads an empty pipe.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, _sweep(profile, k, *args, rescale=rescale))
        except BaseException as exc:
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _sweep_halves(profile, k, k_scale, left_rows, right_rows, *, rescale=False):
    """``_sweep`` over both halves of the ``k_scale`` layout, concurrently.

    ``left_rows`` and ``right_rows`` are the ``(top, bottom)`` start rows at
    ``x = -R`` and ``x = R``; returns the two ``_sweep`` results at
    ``x = 0``, left first.  A forked child sweeps the right half while this
    process sweeps the left; the child's result comes back pickled over a
    pipe, so it is bit-identical to an inline sweep.  An exception in the
    child is re-raised here with its type, and the child is always reaped
    (killed first if this process fails before reading its result).  Where
    ``os.fork`` does not exist, both halves run inline.
    """
    left, right = _step_edges(profile, k_scale)
    if not hasattr(os, "fork"):
        return (
            _sweep(profile, k, left, *left_rows, rescale=rescale),
            _sweep(profile, k, right, *right_rows, rescale=rescale),
        )
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _sweep_child(read_fd, write_fd, profile, k, (right, *right_rows), rescale)
    os.close(write_fd)
    reply = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            near = _sweep(profile, k, left, *left_rows, rescale=rescale)
            try:
                reply = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                lost = ScatteringError("the sweep's child process ended without a result")
                reply = (False, lost)
    finally:
        if reply is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    ok, far = reply
    if not ok:
        raise far
    return near, far


def jost_at_origin(profile: InitialProfile, k):
    """Left and right Jost matrices at ``x = 0`` for the nonzero real
    wavenumbers ``k``.

    Returns ``(Phi_left, Phi_right)``, each of shape ``(2, 2, nk)``: entry
    ``[i, j]`` is row i of column j over the wavenumbers.
    """
    k = np.atleast_1d(np.asarray(k))
    if np.any(k == 0):
        raise ValueError("k = 0 is excluded; use the dedicated small-k routines")
    radius = profile.radius
    a = profile.amplitude
    dress = 0.5 * a / (1j * k)
    ep = np.exp(1j * k * radius)
    em = np.exp(-1j * k * radius)
    zero = np.zeros_like(ep)

    # left solution: N_minus * exp(i k R sigma3) at x = -R, swept to 0;
    # right solution: N_plus * exp(-i k R sigma3) at x = +R, swept to 0
    left_rows = (np.stack((ep, zero)), np.stack((dress * ep, em)))
    right_rows = (np.stack((em, dress * ep)), np.stack((zero, ep)))
    (l_top, l_bottom, _), (r_top, r_bottom, _) = _sweep_halves(
        profile, k, float(np.max(np.abs(k))), left_rows, right_rows
    )
    return np.stack((l_top, l_bottom)), np.stack((r_top, r_bottom))


def _s_entries(k, left, right):
    """Rows of ``Phi_right^{-1} Phi_left`` over a stack of wavenumbers.

    Returns ``((s11, s12), (s21, s22), min_det)``, each row a (2, nk)
    array; raises :class:`DegenerateJostError` when the right Jost
    determinant drops below 1e-12 anywhere.
    """
    det = right[0, 0] * right[1, 1] - right[0, 1] * right[1, 0]
    worst = int(np.argmin(np.abs(det)))
    min_det = float(abs(det[worst]))
    if min_det < 1e-12:
        raise DegenerateJostError(
            f"right Jost determinant dropped to {min_det:.3e} at k={k[worst]!r}"
        )
    # an overflow ends in a non-finite entry, which scattering_grid names
    with np.errstate(over="ignore", invalid="ignore"):
        top = (right[1, 1] * left[0] - right[0, 1] * left[1]) / det
        bottom = (-right[1, 0] * left[0] + right[0, 0] * left[1]) / det
    return top, bottom, min_det


def scattering_grid(profile: InitialProfile, k_grid: np.ndarray):
    """Scattering coefficients on a symmetric grid.

    Returns ``(a1, a2, b, diagnostics)`` where the diagnostics dict
    carries the worst unitarity and symmetry residuals over the grid.  The
    unitarity residual |a1 a2 + b conj(b(-k)) - 1| is given absolute and,
    as ``unitarity_residual_rel``, relative to the larger of its two terms,
    which grow like 1/k**2 at small k.
    Raises :class:`ScatteringError` naming the first node where a1, a2 or
    b is not finite (a k_min so small that the sweep overflows).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    _require_symmetric(k_grid)
    (a1, s12), (b, a2), min_det = _s_entries(k_grid, *jost_at_origin(profile, k_grid))
    bad = ~(np.isfinite(a1) & np.isfinite(a2) & np.isfinite(b))
    if bad.any():
        node = float(k_grid[np.argmax(bad)])
        raise ScatteringError(f"scattering coefficients are not finite at k = {node}")
    b_mirror = b[::-1]  # b(-k) on a symmetric grid
    product, reflected = a1 * a2, b * np.conj(b_mirror)
    residual = np.abs(product + reflected - 1.0)
    scale = np.maximum(np.abs(product), np.abs(reflected))
    sym_offdiag = float(np.max(np.abs(s12 + np.conj(b_mirror))))
    sym_a1 = float(np.max(np.abs(np.conj(a1[::-1]) - a1)))
    sym_a2 = float(np.max(np.abs(np.conj(a2[::-1]) - a2)))
    diagnostics = {
        "unitarity_residual": float(np.max(residual)),
        "unitarity_residual_rel": float(np.max(residual / scale)),
        "symmetry_residual": max(sym_offdiag, sym_a1, sym_a2),
        "min_det_right": min_det,
    }
    return a1, a2, b, diagnostics


def _require_symmetric(k_grid: np.ndarray) -> None:
    if k_grid.ndim != 1 or k_grid.size < 8:
        raise ValueError("k grid must be a 1-d array with at least 8 nodes")
    if np.any(k_grid == 0.0):
        raise ValueError("k grid must exclude zero")
    if np.any(np.diff(k_grid) <= 0):
        raise ValueError("k grid must be strictly increasing")
    if not np.allclose(k_grid, -k_grid[::-1], rtol=0, atol=1e-15 * np.max(np.abs(k_grid))):
        raise ValueError("k grid must be symmetric about zero")


# ---------------------------------------------------------------------------
# small-k data: quadrature route and grid extrapolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallKData:
    """Measured small-wavenumber limits from two independent routes."""

    a2_zero_ode: float  # from the k=0 auxiliary system (real by symmetry)
    a2_zero_grid: complex  # polynomial extrapolation of a2 on the grid
    a11: complex  # extrapolation of k*a1
    a21: complex  # extrapolation of a2/k
    ode_step_error: float  # step-halving error estimate of the first route


def _a2_zero_ode(profile: InitialProfile, n_steps: int) -> complex:
    """Integrate the k = 0 auxiliary system on ``[-R, 0]``.

    With ``v1' = q(x) v2``, ``v2' = -conj(q(-x)) v1`` and the step-forced
    start ``(0, -iA/2)``, the finite transmission limit is
    ``a2(0) = 4 (|v2(0)|^2 - |v1(0)|^2) / A^2``.
    """
    radius, a = profile.radius, profile.amplitude
    h = radius / n_steps
    xs = np.linspace(-radius, 0.0, 2 * n_steps + 1)
    qv = profile.sample(xs)
    qmv = np.conj(profile.sample(-xs))
    v1, v2 = 0.0 + 0.0j, -0.5j * a

    def rhs(idx, w1, w2):
        return qv[idx] * w2, -qmv[idx] * w1

    # an overflow ends in a NaN, which classify_case names; no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            i0, i1, i2 = 2 * i, 2 * i + 1, 2 * i + 2
            k1a, k1b = rhs(i0, v1, v2)
            k2a, k2b = rhs(i1, v1 + 0.5 * h * k1a, v2 + 0.5 * h * k1b)
            k3a, k3b = rhs(i1, v1 + 0.5 * h * k2a, v2 + 0.5 * h * k2b)
            k4a, k4b = rhs(i2, v1 + h * k3a, v2 + h * k3b)
            v1 += (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            v2 += (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        return 4.0 * (abs(v2) ** 2 - abs(v1) ** 2) / a**2


def _extrapolate_to_zero(k_nodes: np.ndarray, values: np.ndarray) -> complex:
    """Value at ``k = 0`` of the quartic least-squares fit through the nodes.

    The fit runs in ``k / max|k|``: the value at 0 is the same in exact
    arithmetic, and ``k**4`` cannot underflow on a grid with a tiny ``k_min``.
    """
    t = k_nodes / np.max(np.abs(k_nodes))
    coef_re = np.polynomial.polynomial.polyfit(t, values.real, 4)
    coef_im = np.polynomial.polynomial.polyfit(t, values.imag, 4)
    return complex(coef_re[0], coef_im[0])


# RK4 step counts of the k = 0 auxiliary route, coarse and fine (twice as many)
_A2_ZERO_STEPS = (2400, 4800)


def small_k_data(
    profile: InitialProfile, k_grid: np.ndarray, a1: np.ndarray, a2: np.ndarray
) -> SmallKData:
    """Small-k limits from the auxiliary system and from grid extrapolation.

    The auxiliary route integrates the k = 0 system with 2400 and 4800 RK4
    steps (:data:`_A2_ZERO_STEPS`) and Richardson-extrapolates; the grid
    route fits a quartic through the ten nodes nearest k = 0, five per sign.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    order = np.argsort(np.abs(k_grid), kind="stable")
    sel = order[:10]
    kn = k_grid[sel]
    coarse, fine = (_a2_zero_ode(profile, n) for n in _A2_ZERO_STEPS)
    richardson = (16.0 * fine - coarse) / 15.0
    step_err = abs(fine - coarse) / 15.0
    return SmallKData(
        a2_zero_ode=float(np.real(richardson)),
        a2_zero_grid=_extrapolate_to_zero(kn, a2[sel]),
        a11=_extrapolate_to_zero(kn, kn * a1[sel]),
        a21=_extrapolate_to_zero(kn, a2[sel] / kn),
        ode_step_error=float(step_err),
    )


def classify_case(small: SmallKData, amplitude: float):
    """Decide the small-k case and validate its admissibility.

    Returns ``(CaseTag, fields)`` where ``fields`` holds ``a2_at_zero``
    (case I) or the purified ``a11``/``a21`` pair (case II).
    """
    if not math.isfinite(small.a2_zero_ode):
        # every comparison below is False for NaN, so it must stop here
        raise SmallKMismatchError(
            f"the k = 0 auxiliary route gives a non-finite a2(0) = {small.a2_zero_ode!r}"
        )
    eps_case = 1e-6 * max(1.0, amplitude)
    a2g = small.a2_zero_grid
    if abs(a2g) <= eps_case:
        # degenerate transmission: simple pole / simple zero structure
        if abs(small.a2_zero_ode) > 10.0 * eps_case:
            raise SmallKMismatchError(
                f"grid extrapolation gives a2(0) ~ 0 but the auxiliary route "
                f"gives {small.a2_zero_ode:.3e}"
            )
        a11, a21 = small.a11, small.a21
        for name, val in (("a11", a11), ("a21", a21)):
            if abs(val) < eps_case:
                raise CaseClassificationError(f"{name} vanishes; data is not generic")
            if abs(val.real) > 1e-3 * abs(val):
                raise CaseClassificationError(
                    f"{name} = {val!r} is not purely imaginary within tolerance"
                )
        a11 = 1j * a11.imag
        a21 = 1j * a21.imag
        product = (a11 * a21).real
        if product <= 0:
            raise CaseClassificationError(
                f"a11*a21 = {product:.6e} must be positive for the admissible case"
            )
        return CaseTag.CASE_II, {"a2_at_zero": None, "a11": a11, "a21": a21}
    # generic case: finite a2(0); cross-validate the independent routes
    if abs(a2g.imag) > 1e-3 * abs(a2g):
        raise CaseClassificationError(f"a2(0) = {a2g!r} is not real within tolerance")
    rel_gap = abs(small.a2_zero_ode - a2g.real) / max(abs(a2g.real), eps_case)
    if rel_gap > 1e-3:
        raise SmallKMismatchError(
            f"a2(0) routes disagree: auxiliary {small.a2_zero_ode:.10f} vs "
            f"grid {a2g.real:.10f} (relative gap {rel_gap:.2e})"
        )
    return CaseTag.CASE_I, {"a2_at_zero": float(a2g.real), "a11": None, "a21": None}


# ---------------------------------------------------------------------------
# transmission zero on the positive imaginary axis
# ---------------------------------------------------------------------------


def _imag_axis_transmission_batch(
    profile: InitialProfile, rho: np.ndarray, k_scale: float
) -> np.ndarray:
    """Transmission ``a1(i rho)``, the Wronskian of two Jost columns (the
    right Jost matrix has unit determinant): real-analytic in rho and O(1).

    Both columns are propagated with running renormalization; their start
    factors ``exp(-rho R)`` cancel the free growth over ``[-R, R]``, so the
    summed log-scales restore the true size.  ``k_scale``, at least
    ``max(rho)``, sets the layout.
    """
    rho = np.asarray(rho, dtype=float)
    k = 1j * rho[None]  # one-column (1, nk) stacks that the sweep need not broadcast
    dress = 0.5 * profile.amplitude / (1j * k)
    ones = np.ones_like(dress)
    # first column of the left solution at x = -R: e^{ikR} (1, A/(2ik));
    # second column of the right solution at x = +R: e^{ikR} (A/(2ik), 1)
    (w1, w2, logs_w), (v1, v2, logs_v) = _sweep_halves(
        profile, k, k_scale, (ones, dress), (dress, ones), rescale=True
    )
    return (np.real(w1 * v2 - v1 * w2) * np.exp(logs_w + logs_v))[0]


# refinement of the k1 bracket: Chebyshev-Lobatto nodes on [0, 1], the confirm
# window's relative half-width, nodes per sweep, and the stopping width
_K1_CHEB_NODES = np.sin(np.linspace(0.0, 0.5 * math.pi, 32)) ** 2
_K1_CONFIRM = 1e-13
_K1_SWEEP_NODES = 64
_K1_XTOL = 1e-14


def find_k1(profile: InitialProfile) -> float:
    """Locate the zero of the transmission ``a1`` on the imaginary axis.

    Scans ``[1e-3 A, 1e3 A]`` for the first sign change of ``a1(i rho)``
    (64 geometric nodes up to ``8 A``, 16-node segments above).  The nodes
    up to ``A`` are swept first, on their own layout; the rest of the 64,
    from the last node up to ``A`` on, only if those hold no sign change.
    Later sweeps keep the scan bracket's step layout: 32 Chebyshev nodes on it,
    64 nodes within a relative 1e-13 of the interpolant's root plus the
    bracket's ends, then 64 linear nodes until the bracket is 1e-14 wide or
    spans adjacent floats; returns its midpoint (or an exact zero node).
    Raises :class:`RootBracketError` if the scan or a sweep finds no sign change.
    """
    a = profile.amplitude
    lo, hi = 1e-3 * a, 1e3 * a
    top = 8.0 * a
    first = np.geomspace(lo, top, 64)
    split = int(np.count_nonzero(first <= a))
    scan = [first[:split], first[split - 1 :]]
    while top < hi:
        scan.append(np.geomspace(top, min(hi, 4.0 * top), 16))
        top = min(hi, 4.0 * top)
    bracket = None
    sweeps = 0  # sweeps since the scan
    while bracket is None or bracket[1] - bracket[0] > _K1_XTOL:
        if bracket is None:
            if not scan:
                raise RootBracketError(
                    f"no transmission zero found on the imaginary axis in [{lo:g}, {hi:g}]"
                )
            rho = scan.pop(0)
            layout = rho[-1]
        elif sweeps == 0:  # Chebyshev-Lobatto nodes; their top node fixes the layout
            layout = bracket[1]
            rho = bracket[0] + (layout - bracket[0]) * _K1_CHEB_NODES
        elif sweeps == 1:  # confirm the interpolant's root
            roots = np.polynomial.Chebyshev.fit(rho, vals, rho.size - 1).roots()
            root = np.clip(roots[np.argmin(np.abs(roots - sum(bracket) / 2))].real, *bracket)
            window = root * (1.0 + _K1_CONFIRM * np.linspace(-1.0, 1.0, _K1_SWEEP_NODES))
            rho = np.r_[bracket[0], np.clip(window, *bracket), bracket[1]]
        else:
            rho = np.linspace(bracket[0], bracket[1], _K1_SWEEP_NODES)
        sweeps += bracket is not None
        vals = _imag_axis_transmission_batch(profile, rho, layout)
        zeros = np.nonzero(vals == 0.0)[0]
        if zeros.size:
            return float(rho[zeros[0]])
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if flips.size:
            found = (float(rho[flips[0]]), float(rho[flips[0] + 1]))
            if found == bracket:
                break
            bracket = found
        elif bracket is not None:
            raise RootBracketError(
                f"refinement lost the sign change of a1(i rho) on "
                f"[{bracket[0]!r}, {bracket[1]!r}]"
            )
    return 0.5 * (bracket[0] + bracket[1])


def _limit_rules() -> dict:
    """The rules that make ``k1`` and ``a2(0)``, as a cache records them:
    :func:`find_k1`'s refinement constants and the k = 0 route's steps."""
    return {
        "k1_cheb_nodes": _K1_CHEB_NODES.tolist(),
        "k1_confirm": _K1_CONFIRM,
        "k1_sweep_nodes": _K1_SWEEP_NODES,
        "k1_xtol": _K1_XTOL,
        "a2_zero_steps": list(_A2_ZERO_STEPS),
    }


# ---------------------------------------------------------------------------
# admissibility of the reflection product near k = 0
# ---------------------------------------------------------------------------


def _rotation_too_large(w: np.ndarray) -> bool:
    """True when the argument of ``w`` turns by more than 0.9 pi between
    adjacent entries, too close to pi to tell which way it wound."""
    rotation = np.angle(w[1:] * np.conj(w[:-1]))
    return bool(rotation.size) and float(np.max(np.abs(rotation))) > 0.9 * math.pi


def check_assumption2(k_grid: np.ndarray, a1: np.ndarray, a2: np.ndarray, b: np.ndarray):
    """Winding check of ``1 + r1 r2`` as ``k -> 0^-``.

    The phase of ``1 + r1(k) r2(k) = 1/(a1 a2)`` is unwrapped along the
    negative axis starting from the far field (where it tends to zero) and
    extrapolated linearly to ``k = 0`` through the two negative nodes
    nearest it.  That limit is returned together with a reliability flag
    (`False` when the limit exceeds 1e-2, signalling either a genuine
    winding obstruction or an under-resolved grid).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    _require_symmetric(k_grid)
    w = 1.0 + b * np.conj(b[::-1]) / (a1 * a2)
    neg = k_grid < 0
    w_neg = w[neg]  # ordered from the most negative node towards 0^-
    if _rotation_too_large(w_neg):
        raise CaseClassificationError(
            "phase of 1 + r1 r2 turns by more than 0.9 pi between adjacent "
            "nodes; refine the wavenumber grid"
        )
    phase = np.unwrap(np.angle(w_neg))  # anchored at ~0 in the far field
    k_near, k_last = k_grid[neg][-2:]
    limit = float(phase[-1] - (phase[-1] - phase[-2]) * k_last / (k_last - k_near))
    return limit, bool(abs(limit) <= 1e-2)


# ---------------------------------------------------------------------------
# the assembled spectral data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Scattering coefficients on a symmetric grid plus the slow-variable
    constants needed by the wedge asymptotics."""

    k_grid: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    amplitude: float
    k1: float
    case: CaseTag
    a2_at_zero: float | None
    a11: complex | None
    a21: complex | None
    profile_fingerprint: str
    assumption2_limit: float = 0.0
    unitarity_residual: float = 0.0
    symmetry_residual: float = 0.0
    # the sweep's _layout at max |k| (core half-width, core and tail
    # densities, core-half and tail step counts); None for closed-form data
    layout: tuple | None = None
    # the rules that made k1 and a2(0) (_limit_rules); None for closed-form data
    limit_rules: dict | None = None

    def __post_init__(self) -> None:
        k = np.asarray(self.k_grid, dtype=float)
        _require_symmetric(k)
        for name in ("a1", "a2", "b"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != k.shape:
                raise ValueError(f"{name} must match the k grid shape")
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"{name} is not finite at k = {float(k[np.argmax(bad)])}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "k_grid", k)
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not self.k1 > 0:
            raise ValueError("k1 must be positive")
        case = CaseTag(self.case)
        object.__setattr__(self, "case", case)
        if case is CaseTag.CASE_I:
            if self.a2_at_zero is None:
                raise ValueError("case I requires a2_at_zero")
        else:
            if self.a11 is None or self.a21 is None:
                raise ValueError("case II requires a11 and a21")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_SCHEMA = "spectral-data/3"

# the saved SpectralData fields, in file order after the schema
_SAVED_FIELDS = (
    "amplitude", "k1", "case", "a2_at_zero", "a11", "a21", "profile_fingerprint",
    "assumption2_limit", "unitarity_residual", "symmetry_residual", "layout",
    "limit_rules", "k_grid", "a1", "a2", "b",
)


def _to_json(value):
    """Complex values as ``[re, im]`` pairs, arrays as lists, anything else as is."""
    if np.iscomplexobj(value):
        return np.stack((np.real(value), np.imag(value)), axis=-1).tolist()
    return value.tolist() if isinstance(value, np.ndarray) else value


def save_spectral_data(sd: SpectralData, path) -> None:
    """Serialize the :data:`_SAVED_FIELDS` to JSON with exact float round-trip."""
    payload = {"schema": _SCHEMA}
    payload.update((name, _to_json(getattr(sd, name))) for name in _SAVED_FIELDS)
    Path(path).write_text(json.dumps(payload), encoding="ascii")


def load_spectral_data(path) -> SpectralData:
    """Read back what :func:`save_spectral_data` wrote."""
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    if payload.get("schema") != _SCHEMA:
        raise ValueError(f"unrecognized spectral data schema {payload.get('schema')!r}")
    fields = {name: payload[name] for name in _SAVED_FIELDS}
    for name in ("a11", "a21"):
        if fields[name] is not None:
            fields[name] = complex(*fields[name])
    if fields["layout"] is not None:
        fields["layout"] = tuple(fields["layout"])
    for name in ("a1", "a2", "b"):
        fields[name] = np.array([complex(re, im) for re, im in fields[name]])
    return SpectralData(**fields)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def compute_spectral_data(
    profile: InitialProfile,
    k_grid: np.ndarray | None = None,
    *,
    cache_path=None,
    force: bool = False,
) -> SpectralData:
    """Full direct-scattering pipeline for a profile.

    Runs the Jost sweep over the grid, extracts and cross-validates the
    small-k limits, classifies the case, locates the imaginary-axis
    transmission zero, and measures the winding of the reflection
    product.  Results are optionally cached as JSON; a cached file is
    reused only when its profile fingerprint, its k grid, its step layout
    and the rules that make ``k1`` and ``a2(0)`` (:func:`_limit_rules`)
    all match the request.  A cached file that does not load
    (another schema, invalid JSON, missing fields, data that is not
    finite) is a miss and is overwritten.
    """
    fp = fingerprint(profile)
    k_grid = default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    layout = _layout(profile, float(np.max(np.abs(k_grid))))
    rules = _limit_rules()
    if cache_path is not None and not force:
        p = Path(cache_path)
        if p.exists():
            try:
                sd = load_spectral_data(p)
            except (ValueError, KeyError, TypeError, AttributeError):
                # another schema, invalid JSON, missing fields or a non-object
                # payload: a miss
                sd = None
            if (
                sd is not None
                and sd.profile_fingerprint == fp
                and sd.layout == layout
                and sd.limit_rules == rules
                and np.array_equal(sd.k_grid, k_grid)
            ):
                return sd
    a1, a2, b, diag = scattering_grid(profile, k_grid)
    if diag["unitarity_residual_rel"] > 1e-6:
        warnings.warn(
            f"relative unitarity residual {diag['unitarity_residual_rel']:.2e} "
            "exceeds 1e-6; "
            "scattering data may be under-resolved",
            stacklevel=2,
        )
    small = small_k_data(profile, k_grid, a1, a2)
    case, fields = classify_case(small, profile.amplitude)
    k1 = find_k1(profile)
    limit, reliable = check_assumption2(k_grid, a1, a2, b)
    if abs(limit) > 1.0:
        raise CaseClassificationError(
            f"reflection product winds by {limit:.3f} at k -> 0^-; "
            "the admissible-phase assumption fails for this profile"
        )
    if not reliable:
        warnings.warn(
            f"reflection-product phase limit {limit:.3e} exceeds 1e-2; "
            "treat downstream phase constants as unreliable",
            stacklevel=2,
        )
    sd = SpectralData(
        k_grid=k_grid,
        a1=a1,
        a2=a2,
        b=b,
        amplitude=profile.amplitude,
        k1=k1,
        case=case,
        a2_at_zero=fields["a2_at_zero"],
        a11=fields["a11"],
        a21=fields["a21"],
        profile_fingerprint=fp,
        assumption2_limit=limit,
        unitarity_residual=diag["unitarity_residual"],
        symmetry_residual=diag["symmetry_residual"],
        layout=layout,
        limit_rules=rules,
    )
    if cache_path is not None:
        save_spectral_data(sd, cache_path)
    return sd


# ---------------------------------------------------------------------------
# closed-form synthetic families
# ---------------------------------------------------------------------------


def synthetic_case_i(
    k1: float = 0.6,
    d: float = 0.9,
    k_grid: np.ndarray | None = None,
) -> SpectralData:
    """Rational unitary family with generic small-k behaviour.

    ``a1 = (k + i d)(k - i k1)/k^2``, ``a2 = (k - i d)/(k - i k1)``,
    ``b = -i d / k`` with background level ``A = 2 k1``; then
    ``a1 a2 + b conj(b(-k)) = 1`` identically, ``a2(0) = d/k1 > 0``, and
    ``d = k1`` reduces exactly to the pure-step data.
    """
    if not (k1 > 0 and d > 0):
        raise ValueError("k1 and d must be positive")
    if k_grid is None:
        k_grid = default_k_grid()
    k = np.asarray(k_grid, dtype=float)
    _require_symmetric(k)
    # data that overflows at tiny |k| is refused, naming the node, by SpectralData
    with np.errstate(all="ignore"):
        a1 = (k + 1j * d) * (k - 1j * k1) / k**2
        a2 = (k - 1j * d) / (k - 1j * k1)
        b = -1j * d / k
    return SpectralData(
        k_grid=k,
        a1=a1,
        a2=a2,
        b=b,
        amplitude=2.0 * k1,
        k1=k1,
        case=CaseTag.CASE_I,
        a2_at_zero=d / k1,
        a11=None,
        a21=None,
        profile_fingerprint=f"synthetic-case-i:k1={k1!r}:d={d!r}",
        assumption2_limit=0.0,
    )


def synthetic_case_ii(
    k1: float = 0.6,
    pole: float = 1.0,
    coupling: float = 0.5,
    k_grid: np.ndarray | None = None,
) -> SpectralData:
    """Rational unitary family with degenerate small-k behaviour.

    ``a1 = (k - i k1)/k``,
    ``a2 = k (k - i(pole - coupling))(k - i(pole + coupling)) /
    ((k - i k1)(k - i pole)^2)``, ``b = coupling/(k - i pole)`` with
    ``0 <= coupling < pole``.  Then ``a1 a2 = 1 + coupling^2/(k - i pole)^2``
    satisfies unitarity exactly, ``a11 = -i k1``,
    ``a21 = i (pole^2 - coupling^2)/(k1 pole^2)``, and
    ``coupling = 0`` gives exactly the reflectionless one-soliton data.
    The background level is ``A = 2 k1`` when ``coupling = 0`` and
    ``A = 1`` otherwise.
    """
    if not (k1 > 0 and pole > 0 and 0 <= coupling < pole):
        raise ValueError("require k1 > 0, pole > 0, 0 <= coupling < pole")
    amplitude = 2.0 * k1 if coupling == 0 else 1.0
    if k_grid is None:
        k_grid = default_k_grid()
    k = np.asarray(k_grid, dtype=float)
    _require_symmetric(k)
    # data that overflows at tiny |k| is refused, naming the node, by SpectralData
    with np.errstate(all="ignore"):
        a1 = (k - 1j * k1) / k
        a2 = (
            k
            * (k - 1j * (pole - coupling))
            * (k - 1j * (pole + coupling))
            / ((k - 1j * k1) * (k - 1j * pole) ** 2)
        )
        b = np.full_like(k, coupling, dtype=complex) / (k - 1j * pole)
    a11 = -1j * k1
    a21 = 1j * (pole**2 - coupling**2) / (k1 * pole**2)
    return SpectralData(
        k_grid=k,
        a1=a1,
        a2=a2,
        b=b,
        amplitude=float(amplitude),
        k1=k1,
        case=CaseTag.CASE_II,
        a2_at_zero=None,
        a11=a11,
        a21=a21,
        profile_fingerprint=(
            f"synthetic-case-ii:k1={k1!r}:pole={pole!r}:coupling={coupling!r}"
        ),
        assumption2_limit=0.0,
    )
