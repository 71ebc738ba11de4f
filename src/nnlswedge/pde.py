"""Direct time evolution of the mirror-coupled field.

Integrates  i q_t + q_xx + 2 q(x,t)^2 conj(q(-x,t)) = 0  on a symmetric
interval with step-like boundary levels, using a fourth-order centered
stencil in space and the classical fourth-order Runge-Kutta step in time.
The mirror coupling makes the evolution nonlocal: the grid is kept
symmetric about x = 0 with an odd node count so that the reflection
x -> -x is an exact grid reversal.  Each step runs in place on stage
buffers allocated once per :func:`evolve` call, so the step loop
allocates no arrays.

Scaling: the right-hand side is evaluated as the real-weighted sum
G = 16 (y[j-1] + y[j+1]) - (y[j-2] + y[j+2]) - 30 y[j]
+ 24 h^2 y[j]^2 conj(y(-x)[j]), which is 12 h^2 (q_xx + 2 q^2 conj(q(-x)))
on the grid; the real weights act on float64 views, and one complex
multiply by i dt_k / (12 h^2) turns it into the stage increment
K_k = i dt_k (...), with dt_k = dt/2, dt/2, dt, dt/6 for the four stages.
Each stage value is then q + K_k, and the update is
q + (K_1 + 2 K_2 + K_3) / 3 + K_4.  A step makes 57 passes over grid-sized
arrays: 12 per right-hand side and 9 for the stage values and the update.

Boundary handling: the two edge nodes are pinned to their initial values
(the far tails of step-like data are flat to machine precision on any
reasonable interval), and the stencil sees two constant ghost nodes past
each edge.  The module tracks how much the solution just inside each edge
drifts from its initial value; growth there means the interval is too
short for the requested final time.

Stability: the stencil's spectrum is purely imaginary with radius
(16/3) / h^2, and the RK4 stability region cuts the imaginary axis at
2*sqrt(2), so the linear step limit is dt <= 0.53 h^2.  The default step
0.4 h^2 leaves margin for the nonlinear term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import DomainError

__all__ = [
    "SpatialGrid",
    "FieldSnapshot",
    "EvolutionResult",
    "FieldBlowUpError",
    "BoundaryDriftError",
    "symmetric_grid",
    "resolve_dt",
    "evolve",
    "mirror_mass",
    "interpolate_field",
    "write_snapshots_csv",
    "read_snapshots_csv",
    "STABLE_DT_FACTOR",
    "DEFAULT_DT_FACTOR",
]

# dt / h^2 at the linear stability edge (see module docstring) and the
# default fraction actually used
STABLE_DT_FACTOR = 3.0 * 2.0 * math.sqrt(2.0) / 16.0  # = 0.5303...
DEFAULT_DT_FACTOR = 0.4
# evolve's blow-up and edge-drift guards (see its docstring)
BLOW_UP_FACTOR = 1.0e3
DRIFT_ABORT = 1.0e-3
CHECK_EVERY = 25
# Largest grid symmetric_grid builds: the grid and the stepper's buffers take
# ~110 bytes per node (~1.1 GB at this size), and dt ~ h**2 makes a finer
# grid far too slow to evolve anyway.
_MAX_GRID_NODES = 10**7


class FieldBlowUpError(DomainError, RuntimeError):
    """Raised when the field magnitude exceeds the configured bound;
    ``partial`` holds the run up to the abort (see :func:`evolve`)."""


class BoundaryDriftError(DomainError, RuntimeError):
    """Raised when the solution drifts at the pinned edges.

    Signals that truncation effects from the finite interval have reached
    the boundary, i.e. the requested final time is too large for the
    interval.  ``partial`` holds the run up to the abort.
    """


@dataclass(frozen=True)
class SpatialGrid:
    """Symmetric spatial grid with an odd node count.

    ``x[mid] == 0`` exactly, so ``q[::-1]`` evaluates the field at ``-x``
    without interpolation.
    """

    half_width: float
    step: float
    x: np.ndarray

    @property
    def size(self) -> int:
        return self.x.size


def symmetric_grid(half_width: float, step: float) -> SpatialGrid:
    """Build a symmetric grid, snapping the step so nodes mirror exactly.

    The actual step is ``half_width / round(half_width / step)``; it never
    differs from the request by more than one part in the node count.
    """
    if not (half_width > 0.0 and step > 0.0 and math.isfinite(half_width / step)):
        raise ValueError("half_width and step must be positive, with a finite ratio")
    half_nodes = int(round(half_width / step))
    if half_nodes < 4:
        raise ValueError("grid needs at least 4 nodes per side")
    if 2 * half_nodes + 1 > _MAX_GRID_NODES:
        raise ValueError(
            f"half_width / step gives {2 * half_nodes + 1} nodes, "
            f"above the ceiling of {_MAX_GRID_NODES}"
        )
    actual = half_width / half_nodes
    x = np.linspace(-half_width, half_width, 2 * half_nodes + 1)
    return SpatialGrid(half_width=half_width, step=actual, x=x)


@dataclass(frozen=True)
class FieldSnapshot:
    """Field state at one requested time."""

    t: float
    q: np.ndarray
    mirror_mass: complex
    left_drift: float
    right_drift: float


@dataclass(frozen=True)
class EvolutionResult:
    """Evolution with its requested snapshots.

    A completed run's ``snapshots`` end with the final-time state; the
    ``partial`` result an abort carries holds only the snapshots landed
    before it, possibly none.  The drift entries are running maxima of the
    deviation of the first interior node from its initial value on each
    side.
    """

    grid: SpatialGrid
    dt: float
    steps: int
    snapshots: tuple[FieldSnapshot, ...]

    @property
    def final(self) -> FieldSnapshot:
        return self.snapshots[-1]


def mirror_mass(q: np.ndarray, step: float) -> complex:
    """Trapezoid value of the conserved pairing integral q(x) conj(q(-x)).

    Exactly invariant for the continuum flow (the nonlinear contributions
    cancel pointwise), so its drift across an evolution measures solver
    quality.
    """
    integrand = q * np.conj(q[::-1])
    return complex(np.trapezoid(integrand, dx=step))


def interpolate_field(grid: SpatialGrid, q: np.ndarray, x: float) -> complex:
    """Linear interpolation of a complex field sample."""
    if not -grid.half_width <= x <= grid.half_width:
        raise ValueError("sample point outside the grid")
    re = float(np.interp(x, grid.x, q.real))
    im = float(np.interp(x, grid.x, q.imag))
    return complex(re, im)


def _bind_rhs(padded, out, work, kappa):
    """Return ``rhs(scale)``, which writes ``scale * G`` for
    ``y = padded[2:-2]`` into ``out``, with G the weighted sum of the module
    docstring and ``kappa = 24 h^2``; the edge entries are zeroed so the
    edge nodes stay pinned.  ``work`` is scratch of the grid size.  The
    shifted slices, the mirror view and the float64 views are built once
    here, not per call; the real weights act on the float64 views, so a
    call allocates nothing.
    """
    y = padded[2:-2]
    near_left, near_right = padded[1:-3], padded[3:-1]
    far_left, far_right = padded[:-4], padded[4:]
    mirror = y[::-1]
    y_r, out_r, work_r = (a.view(np.float64) for a in (y, out, work))

    def rhs(scale: complex) -> None:
        np.add(near_left, near_right, out=out)
        np.multiply(out_r, 16.0, out=out_r)
        np.add(far_left, far_right, out=work)
        np.subtract(out, work, out=out)
        np.multiply(y_r, 30.0, out=work_r)
        np.subtract(out, work, out=out)
        np.conjugate(mirror, out=work)
        np.multiply(work, y, out=work)
        np.multiply(work, y, out=work)
        np.multiply(work_r, kappa, out=work_r)
        np.add(out, work, out=out)
        np.multiply(out, scale, out=out)
        out[0] = 0.0
        out[-1] = 0.0

    return rhs


def _aligned_empty(size: int, lead: int = 0) -> np.ndarray:
    """Uninitialised complex buffer of ``size`` nodes whose node ``lead``
    starts on a 64-byte boundary, so the stepper's speed does not depend on
    where the heap happens to place it."""
    raw = np.empty(16 * size + 64, dtype=np.uint8)
    start = -(raw.ctypes.data + 16 * lead) % 64
    return raw[start : start + 16 * size].view(np.complex128)


def resolve_dt(grid: SpatialGrid, dt: float | None) -> float:
    """Time step on ``grid``: ``dt``, or ``DEFAULT_DT_FACTOR * h^2`` when it
    is None.  Raises ValueError when the step lies outside (0, dt_max], with
    dt_max = ``STABLE_DT_FACTOR * h^2`` the linear stability edge."""
    h = grid.step
    if dt is None:
        dt = DEFAULT_DT_FACTOR * h * h
    if not 0.0 < dt <= STABLE_DT_FACTOR * h * h * (1.0 + 1e-12):
        raise ValueError(
            f"dt must lie in (0, {STABLE_DT_FACTOR:.4f} h^2] for a stable step"
        )
    return dt


def evolve(
    q0,
    grid: SpatialGrid,
    t_final: float,
    *,
    dt: float | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> EvolutionResult:
    """Evolve initial data ``q0`` (array on ``grid.x`` or callable of x).

    Snapshot times are landed on exactly by shortening the step inside
    each segment; the returned snapshots end with the ``t_final`` state.
    Repeated snapshot times raise ValueError.  Raises
    :class:`FieldBlowUpError` when |q| exceeds ``BLOW_UP_FACTOR`` times its
    initial maximum (looked at every ``CHECK_EVERY`` steps), and
    :class:`BoundaryDriftError` when the first interior node on either side
    moves more than ``DRIFT_ABORT`` from its initial value.  The error's
    ``partial`` :class:`EvolutionResult` keeps the snapshots landed before
    the abort and counts every step taken.
    """
    if callable(q0):
        q0 = q0(grid.x)
    q0 = np.asarray(q0, dtype=np.complex128)
    if q0.shape != grid.x.shape:
        raise ValueError("initial data does not match the grid")
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    h = grid.step
    dt = resolve_dt(grid, dt)
    times = sorted(float(s) for s in snapshot_times)
    if times and (times[0] <= 0.0 or times[-1] > t_final * (1.0 + 1e-12)):
        raise ValueError("snapshot times must lie in (0, t_final]")
    if any(a == b for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must not repeat")
    if not times or times[-1] < t_final * (1.0 - 1e-12):
        times.append(t_final)

    inv_12h2 = 1.0 / (12.0 * h * h)
    kappa = 2.0 / inv_12h2
    # the state and the stage value live in the interiors of two padded
    # buffers whose two constant ghost nodes per side sit past the pinned
    # edges, so the stencil reads them in place; every stage of every step
    # reuses these buffers; the interiors and the scratch arrays are 64-byte
    # aligned
    state = _aligned_empty(q0.size + 4, lead=2)
    state[:2] = q0[0]
    state[2:-2] = q0
    state[-2:] = q0[-1]
    stage = _aligned_empty(q0.size + 4, lead=2)
    stage[:] = state
    q, y = state[2:-2], stage[2:-2]
    total = _aligned_empty(q0.size)  # K1 + 2 K2 + K3, then a third of it
    slope = _aligned_empty(q0.size)
    work = _aligned_empty(q0.size)
    total_r = total.view(np.float64)
    rhs_state = _bind_rhs(state, total, work, kappa)
    rhs_stage = _bind_rhs(stage, slope, work, kappa)
    magnitude = np.empty(q0.size)
    blow_limit = BLOW_UP_FACTOR * max(float(np.max(np.abs(q0))), 1e-30)
    left0, right0 = q0[1], q0[-2]
    left_drift = right_drift = 0.0
    snapshots: list[FieldSnapshot] = []
    t = 0.0
    total_steps = 0

    try:
        for target in times:
            span = target - t
            n_steps = max(1, int(math.ceil(span / dt - 1e-12)))
            dt_seg = span / n_steps
            # each stage's scale i dt_k / (12 h^2), dt_k = dt/2, dt/2, dt,
            # dt/6, makes the rhs return the stage increment K_k; then
            # (K1 + 2 K2 + K3) / 3 + K4 = dt/6 (k1 + 2 k2 + 2 k3 + k4)
            half = inv_12h2 * (0.5j * dt_seg)
            full = inv_12h2 * (1j * dt_seg)
            sixth = inv_12h2 * (1j * (dt_seg / 6.0))
            # overflow past the blow-up threshold is detected below, not warned
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n_steps):
                    rhs_state(half)
                    np.add(q, total, out=y)
                    rhs_stage(half)
                    np.add(total, slope, out=total)
                    np.add(total, slope, out=total)
                    np.add(q, slope, out=y)
                    rhs_stage(full)
                    np.add(total, slope, out=total)
                    np.add(q, slope, out=y)
                    np.multiply(total_r, 1.0 / 3.0, out=total_r)
                    rhs_stage(sixth)
                    np.add(q, total, out=q)
                    np.add(q, slope, out=q)
                    total_steps += 1
                    step_left = abs(q[1] - left0)
                    step_right = abs(q[-2] - right0)
                    # "not <=" also catches NaN reaching the boundary nodes
                    if not (step_left <= DRIFT_ABORT and step_right <= DRIFT_ABORT):
                        raise BoundaryDriftError(
                            f"edge drift {max(step_left, step_right):.3e} at "
                            f"t={t + (i + 1) * dt_seg:.6g}; enlarge the interval"
                        )
                    left_drift = max(left_drift, step_left)
                    right_drift = max(right_drift, step_right)
                    if total_steps % CHECK_EVERY == 0:
                        np.abs(q, out=magnitude)
                        peak = float(np.max(magnitude))
                        # "not <=" also catches NaN from a passed singularity
                        if not peak <= blow_limit:
                            raise FieldBlowUpError(
                                f"|q| reached {peak:.3e} at "
                                f"t={t + (i + 1) * dt_seg:.6g}"
                            )
            t = target
            snapshots.append(
                FieldSnapshot(t, q.copy(), mirror_mass(q, h), left_drift, right_drift)
            )
    except (FieldBlowUpError, BoundaryDriftError) as exc:
        exc.partial = EvolutionResult(grid, dt, total_steps, tuple(snapshots))
        raise

    return EvolutionResult(grid=grid, dt=dt, steps=total_steps, snapshots=tuple(snapshots))


# ---------------------------------------------------------------------------
# snapshot serialization


def write_snapshots_csv(result: EvolutionResult, path) -> None:
    """Write all snapshots as rows of (t, x, re_q, im_q).

    The header records the grid and step so a reader can rebuild the run's
    provenance; floats are printed with 17 significant digits, which
    round-trips doubles exactly.
    """
    g = result.grid
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# schema: t,x,re_q,im_q\n")
        fh.write(
            f"# half_width={g.half_width:.17g} step={g.step:.17g} "
            f"dt={result.dt:.17g} steps={result.steps}\n"
        )
        for snap in result.snapshots:
            for x, val in zip(g.x, snap.q):
                fh.write(
                    f"{snap.t:.17g},{x:.17g},{val.real:.17g},{val.imag:.17g}\n"
                )


def read_snapshots_csv(path) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Read a snapshot CSV back as {t: (x, q)} with q complex."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    out: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for t in np.unique(data[:, 0]):
        rows = data[data[:, 0] == t]
        out[float(t)] = (rows[:, 1], rows[:, 2] + 1j * rows[:, 3])
    return out
