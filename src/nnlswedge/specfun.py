"""Quadrature kernel for the asymptotic pipeline.

This module provides an adaptive complex-valued Gauss--Kronrod (G7/K15)
integrator on finite intervals.  An integrand with an endpoint singularity
maps it away itself before calling :func:`quad`.

All integrands passed to :func:`quad` must be elementwise: they take a
one-dimensional numpy array of points and return an array of the same
shape (real or complex), each value depending on its own point only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .profiles import DomainError

__all__ = [
    "QuadResult",
    "QuadratureError",
    "quad",
]


# --------------------------------------------------------------------------
# Gauss-Kronrod 7/15 nodes and weights (positive half; rule is symmetric).
# ---------------------------------------------------------------------------

# Kronrod abscissae on [-1, 1]; every second one is a Gauss-7 node.
_XK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)

_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)

# Gauss-7 weights matching nodes _XK[1], _XK[3], _XK[5], _XK[7].
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Full 15-point node/weight tables on [-1, 1], ordered left to right.
_NODES = np.concatenate((-_XK[:7], _XK[::-1]))
_WEIGHTS_K = np.concatenate((_WK[:7], _WK[::-1]))
_GAUSS_IDX = slice(1, 15, 2)  # positions of the embedded Gauss-7 nodes
_WEIGHTS_G = np.concatenate((_WG[:3], _WG[::-1]))

@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive quadrature: value, error bound, effort."""

    value: complex
    error: float
    subdivisions: int
    evaluations: int


class QuadratureError(DomainError, RuntimeError):
    """Raised when the subdivision budget is exhausted before converging."""


def _gk15(f, a, b):
    """Gauss-Kronrod 7/15 on each panel [a[i], b[i]], all in one call of
    ``f``: (K15 values, |K15-G7|), one entry per panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    # Each row's products are contiguous, so numpy sums a row as it sums a
    # single panel's nodes (a column-wise order would round otherwise), and
    # hypot rounds as the scalar abs does, which np.abs of a complex array
    # need not: the values equal those of one panel at a time, bit for bit.
    val_k = half * np.sum(_WEIGHTS_K * y, axis=1)
    val_g = half * np.sum(_WEIGHTS_G * y[:, _GAUSS_IDX], axis=1)
    diff = val_k - val_g
    return val_k, np.hypot(diff.real, diff.imag)


def _adaptive(
    f, a: float, b: float, atol: float, rtol: float, max_subdivisions: int
) -> QuadResult:
    """Globally adaptive bisection driven by the worst-panel error.

    Each integrand call bisects the worst panel and, speculatively, the
    panel then at the heap top; that panel's children wait in ``ahead``
    until it is popped.  Panels are popped and split in the order of a
    one-panel-per-call loop, so totals, errors and subdivision counts are
    those of that loop; ``evaluations`` counts every point evaluated.
    """
    vals, errs = _gk15(f, np.array([a]), np.array([b]))
    val, err = vals[0], errs[0]
    # heap of (-err, panel id, a, b, value, err); ids break ties
    heap = [(-err, 0, a, b, val, err)]
    ahead = {}  # (a, b) of a heap panel -> its children's (values, errors)
    total = val
    total_err = err
    evals = 15
    next_id = 1
    splits = 0
    while True:
        tol = max(atol, rtol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, splits, evals)
        if splits >= max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge after {splits} subdivisions: "
                f"estimate {total!r}, error {total_err:.3e}, tol {tol:.3e}, "
                f"interval [{a!r}, {b!r}]"
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            raise QuadratureError(
                f"panel [{pa!r}, {pb!r}] collapsed below floating-point "
                "resolution; integrand is too singular for this rule"
            )
        children = ahead.pop((pa, pb), None)
        if children is None:
            lo, hi = [pa, pm], [pm, pb]
            if heap:
                qa, qb = heap[0][2], heap[0][3]
                qm = 0.5 * (qa + qb)
                # a panel that would collapse raises when popped, not here
                if (qa, qb) not in ahead and qa < qm < qb:
                    lo += [qa, qm]
                    hi += [qm, qb]
            vals, errs = _gk15(f, np.array(lo), np.array(hi))
            evals += 15 * len(lo)
            if len(lo) == 4:
                ahead[(qa, qb)] = (vals[2:], errs[2:])
            children = (vals[:2], errs[:2])
        (vl, vr), (el, er) = children
        total += (vl + vr) - pval
        total_err += (el + er) - perr
        splits += 1
        heapq.heappush(heap, (-el, next_id, pa, pm, vl, el))
        heapq.heappush(heap, (-er, next_id + 1, pm, pb, vr, er))
        next_id += 2


def quad(
    f, a: float, b: float, *, atol: float, rtol: float, max_subdivisions: int
) -> QuadResult:
    """Integrate ``f`` over the finite interval ``[a, b]`` adaptively.

    Subdivision stops once the global error estimate is at most
    ``max(atol, rtol * |integral|)``; after ``max_subdivisions`` splits
    without that, :class:`QuadratureError` is raised.  A non-finite
    endpoint raises ValueError.

    ``f`` must be elementwise.  It is called on batches of up to 60 points:
    the Gauss-Kronrod nodes of the children of the panel being split and,
    speculatively, of the panel next in line, which the loop may never
    split.  So ``f`` sees points whose values are never used, and
    ``QuadResult.evaluations`` counts them too.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("quadrature needs a finite interval")
    return _adaptive(f, a, b, atol, rtol, max_subdivisions)
