"""Direct time evolution of the mirror-coupled field.

Integrates  i q_t + q_xx + 2 q(x,t)^2 conj(q(-x,t)) = 0  on a symmetric
interval [-L, L] with step-like boundary levels, by exponential time
differencing on a sine basis (ETDRK4: Cox & Matthews, J. Comput. Phys. 176
(2002) 430).  The mirror coupling makes the evolution nonlocal: the grid is
kept symmetric about x = 0 with an odd node count so that the reflection
x -> -x is an exact grid reversal.

Splitting: q = q_bg + v.  The background
q_bg = q_L + (q_R - q_L) (tanh x + tanh L) / (2 tanh L) takes the two edge
values of the initial data, so v vanishes at x = -L and x = L and lives on
the interior nodes in the DST-I basis sin(pi k (x + L) / 2L).  There i v_xx
is diagonal, -i (pi k / 2L)^2 v_k, and the scheme integrates it exactly;
the exact i q_bg'' enters with the nonlinear term as a forcing.  Each DST
is one numpy FFT of length n - 1 on n nodes, by the pre-weighting and
post-processing of Numerical Recipes' ``sinft`` (Press et al., 2nd ed.,
sec. 12.3) applied to complex data.  A step makes eight of them: one to the
grid and one back for each of its four nonlinear evaluations.
``symmetric_grid`` keeps that length 7-smooth.

The scheme's phi functions are contour means over 32 points of the full
circle of radius 1 about each dt lambda_k (Kassam & Trefethen, SIAM J. Sci.
Comput. 26 (2005) 1214); the half-circle shortcut holds only for a real
spectrum, and here lambda_k is imaginary.  Only the current segment's are
kept, and they are built again only when the segment step changes.

Time step: the linear part sets no stability limit, so dt is chosen for
accuracy.  The default ``DEFAULT_DT / max(1, max|q0|^2)`` follows the
nonlinear time scale 1/|q|^2.  On the unit soliton (phase pi, h = 0.025)
its error against the exact solution is 4e-11 at t = 1.5, 7e-8 at t = 2.5
and 2.2e-3 at t = 3, 0.14 before the pole, where dt = 0.01 would give
1.3e-2; the error falls ~16x per halving of dt and does not depend on h.

Boundary handling: the two edge nodes are pinned to their initial values
(the far tails of step-like data are flat to machine precision on any
reasonable interval).  The module tracks how much the solution just inside
each edge drifts from its initial value; growth there means the interval is
too short for the requested final time.
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
    "DEFAULT_DT",
]

# default time step at max|q0| <= 1 (see module docstring)
DEFAULT_DT = 0.005
# evolve's blow-up and edge-drift guards (see its docstring)
BLOW_UP_FACTOR = 1.0e3
DRIFT_ABORT = 1.0e-3
# points on the circle of each phi-function contour mean
_CONTOUR_POINTS = 32
# Largest grid symmetric_grid builds: an evolution peaks at ~34 complex
# arrays of the grid size (~5 GB at this size), and each step costs eight
# FFTs of the grid's length, ~220 ns per node-step on 16,801 nodes, so a
# finer grid is far too slow to evolve anyway.
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


def _next_7_smooth(n: int) -> int:
    """Smallest integer >= ``n`` whose only prime factors are 2, 3, 5 and 7."""
    best = 1 << (n - 1).bit_length()  # a power of two >= n
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                p2 = p3
                while p2 < n:
                    p2 *= 2
                best = min(best, p2)
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


def symmetric_grid(half_width: float, step: float) -> SpatialGrid:
    """Build a symmetric grid, snapping the step so nodes mirror exactly.

    The half-node count is ``half_width / step`` rounded up to the next
    7-smooth integer (prime factors 2, 3, 5 and 7 only), so the evolution's
    FFTs, of length 2 x half-node count, stay fast; the actual step
    ``half_width / half_nodes`` is never coarser than the one asked for.
    """
    if not (half_width > 0.0 and step > 0.0 and math.isfinite(half_width / step)):
        raise ValueError("half_width and step must be positive, with a finite ratio")
    ratio = half_width / step
    half_nodes = round(ratio)
    if half_nodes < ratio * (1.0 - 1e-12):  # never a coarser step, beyond round-off
        half_nodes += 1
    if half_nodes < 4:
        raise ValueError("grid needs at least 4 nodes per side")
    if 2 * half_nodes + 1 <= _MAX_GRID_NODES:
        half_nodes = _next_7_smooth(half_nodes)
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
    """Six-point Lagrange interpolation of a complex field sample.

    The stencil is the six nodes centred on x's interval, shifted inwards
    next to an edge; its error is O(h^6), below the stepper's own on any
    resolved field (5.7e-13 on exact soliton samples at h = 0.025).
    """
    if not -grid.half_width <= x <= grid.half_width:
        raise ValueError("sample point outside the grid")
    h = grid.step
    start = min(max(int((x + grid.half_width) / h) - 2, 0), grid.size - 6)
    s = (x - grid.x[start]) / h
    weights = [
        math.prod((s - other) / (node - other) for other in range(6) if other != node)
        for node in range(6)
    ]
    return complex(np.dot(weights, q[start : start + 6]))


def resolve_dt(dt: float | None, peak: float) -> float:
    """Time step for initial data of largest magnitude ``peak``: ``dt``, or
    ``DEFAULT_DT / max(1, peak^2)`` when it is None.  Raises ValueError
    unless the step is positive and finite."""
    if dt is None:
        dt = DEFAULT_DT / max(1.0, peak * peak)
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    return dt


def _etd_coefficients(lam: np.ndarray, dt: float, scale: complex):
    """ETDRK4's per-mode factors for the diagonal linear part ``lam`` and
    step ``dt``: exp(dt lam), exp(dt lam / 2), and Q, f1, f2, f3 of Kassam
    & Trefethen, times ``scale``, the factor that turns the transformed
    nonlinear term into the mode's rate of change.

    Each phi function is the mean over ``_CONTOUR_POINTS`` points of the
    circle of radius 1 about z = dt lam.  With lam imaginary, a point lands
    on z = 0 only at the angles +-pi/2, which the half-offset angles skip.
    The loop over the points holds only arrays of the mode count.
    """
    z0 = dt * lam
    sums = [np.zeros_like(z0) for _ in range(4)]
    angles = 2.0 * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS
    for root in np.exp(1j * angles):
        z = z0 + root
        ez = np.exp(z)
        z3 = z * z * z
        sums[0] += (np.exp(0.5 * z) - 1.0) / z
        sums[1] += (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3
        sums[2] += (2.0 + z + ez * (z - 2.0)) / z3
        sums[3] += (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3
    weight = dt * scale / _CONTOUR_POINTS
    return (np.exp(z0), np.exp(0.5 * z0), *(total * weight for total in sums))


def _sine_transform(intervals: int):
    """The transform ``sine(values, out)`` of the evolution's state, for an
    even ``intervals`` = N.

    sine(u)_k = -2i sum_j u_j sin(pi j k / N) for j, k = 1 .. N - 1, which
    is -2i times the DST-I of u, and equally entries 1 .. N - 1 of the FFT
    of the odd extension [0, u, 0, -u reversed] of length 2N.  One complex
    FFT of length N gives it (Numerical Recipes' ``sinft``, Press et al.,
    2nd ed., sec. 12.3, complex by linearity).  With s_j = sin(pi j / N),
    its input is w_0 = 0 and

        w_j = -i s_j (u_j + u_{N-j}) + (u_j - u_{N-j}) / 2,

    ``sinft``'s weights with the factor -i of sine on their symmetric part.
    Then W = fft(w) gives the even modes as sine_2m = W_m - W_{N-m}, and
    the odd ones as the running sum
    sine_{2m+1} = W_0 + sum_{l=1..m} (W_l + W_{N-l}).  The buffers are
    allocated here once; ``values`` is read before ``out`` is written.
    """
    half = intervals // 2
    weighted = np.zeros(intervals, dtype=np.complex128)
    body = weighted[1:]
    spectrum = np.empty_like(weighted)
    low, high = spectrum[1:half], spectrum[:half:-1]
    # w_j = c_j (u_j + u_{N-j}) + u_j with c_j = -1/2 - i s_j.  s_j is taken
    # at min(j, N - j): symmetric to the bit and within 2 ulp, where
    # sin(pi j / N) is off by up to 6,400 ulp near j = N at N = 16,800, a
    # smooth error that the running sum integrates (2.5x the odd-mode error
    # on a smooth field)
    j = np.arange(1, intervals)
    weights = -0.5 - 1j * np.sin(np.pi * np.minimum(j, intervals - j) / intervals)
    fft = np.fft.fft

    def sine(values, out):
        np.add(values, values[::-1], out=body)
        np.multiply(body, weights, out=body)
        np.add(body, values, out=body)
        fft(weighted, out=spectrum)
        np.subtract(low, high, out=out[1::2])
        np.add(low, high, out=low)
        np.add.accumulate(spectrum[:half], out=out[::2])

    return sine


def evolve(
    q0,
    grid: SpatialGrid,
    t_final: float,
    *,
    dt: float | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> EvolutionResult:
    """Evolve initial data ``q0`` (array on ``grid.x`` or callable of x).

    ``dt`` defaults by :func:`resolve_dt`.  Snapshot times are landed on
    exactly by shortening the step inside each segment; the returned
    snapshots end with the ``t_final`` state.  Repeated snapshot times raise
    ValueError.  After every step, :class:`FieldBlowUpError` is raised when
    |q| exceeds ``BLOW_UP_FACTOR`` times its initial maximum, and then
    :class:`BoundaryDriftError` when the first interior node on either side
    has moved more than ``DRIFT_ABORT`` from its initial value.  The error's
    ``partial`` :class:`EvolutionResult` keeps the snapshots landed before
    the abort and counts every step taken.
    """
    if callable(q0):
        q0 = q0(grid.x)
    q0 = np.asarray(q0, dtype=np.complex128)
    if q0.shape != grid.x.shape:
        raise ValueError("initial data does not match the grid")
    if grid.size % 2 == 0:
        raise ValueError("the grid needs an odd node count")
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    peak0 = float(np.max(np.abs(q0)))
    dt = resolve_dt(dt, peak0)
    times = sorted(float(s) for s in snapshot_times)
    if times and (times[0] <= 0.0 or times[-1] > t_final * (1.0 + 1e-12)):
        raise ValueError("snapshot times must lie in (0, t_final]")
    if any(a == b for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must not repeat")
    if not times or times[-1] < t_final * (1.0 - 1e-12):
        times.append(t_final)

    h = grid.step
    intervals = grid.size - 1
    # the background and half its second derivative on the interior nodes
    left, right = q0[0], q0[-1]
    tanh_edge = math.tanh(grid.half_width)
    tanh_x = np.tanh(grid.x[1:-1])
    rise = (right - left) / (2.0 * tanh_edge)
    background = left + rise * (tanh_x + tanh_edge)
    forcing = -rise * (1.0 - tanh_x * tanh_x) * tanh_x
    # the state holds the sine coefficients c of v = sine(c); sine is its
    # own inverse up to the factor -1 / (2 intervals)
    sine = _sine_transform(intervals)
    # each nonlinear evaluation of a step keeps its own transform of
    # g = q_bg''/2 + q^2 conj(q(-x)); as v_t = i v_xx + 2i g, g adds
    # scale * sine(g) to the rate of c, folded into the phi factors
    spectra = [np.empty(intervals - 1, dtype=np.complex128) for _ in range(4)]
    n_v, n_a, n_b, n_c = spectra
    wave = np.pi * np.arange(1, intervals) / (2.0 * grid.half_width)
    lam = -1j * wave * wave
    scale = -1j / intervals
    factors_dt = None

    field = q0.copy()
    inner = field[1:-1]
    coeffs = np.empty(intervals - 1, dtype=np.complex128)
    stage = np.empty_like(coeffs)
    previous = np.empty_like(coeffs)
    work = np.empty_like(coeffs)
    magnitude = np.empty(field.size)

    def to_field(values, out):
        """out = q_bg + sine(values) on the interior nodes."""
        sine(values, out)
        np.add(out, background, out=out)

    def nonlinear(q, spec):
        """spec = sine(g) at the interior field q."""
        np.conjugate(q[::-1], out=work)
        np.multiply(work, q, out=work)
        np.multiply(work, q, out=work)
        np.add(work, forcing, out=work)
        sine(work, spec)

    np.subtract(inner, background, out=work)
    sine(work, coeffs)
    np.multiply(coeffs, -0.5 / intervals, out=coeffs)

    blow_limit = BLOW_UP_FACTOR * max(peak0, 1e-30)
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
            if dt_seg != factors_dt:
                # the last segment's factors go before the new ones are built
                e = e2 = qf = f1 = f2 = f3 = None
                e, e2, qf, f1, f2, f3 = _etd_coefficients(lam, dt_seg, scale)
                factors_dt = dt_seg
            # overflow past the blow-up threshold is detected below, not warned
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n_steps):
                    # ETDRK4 (Cox-Matthews): the stages a, b, c and the update
                    nonlinear(inner, spectra[0])
                    np.multiply(e2, coeffs, out=previous)
                    np.multiply(qf, n_v, out=work)
                    np.add(previous, work, out=stage)  # a
                    to_field(stage, inner)
                    nonlinear(inner, spectra[1])
                    np.multiply(qf, n_a, out=work)
                    np.add(previous, work, out=previous)  # b
                    np.multiply(e2, stage, out=stage)  # E2 a
                    to_field(previous, inner)
                    nonlinear(inner, spectra[2])
                    np.multiply(n_b, 2.0, out=work)
                    np.subtract(work, n_v, out=work)
                    np.multiply(qf, work, out=work)
                    np.add(stage, work, out=stage)  # c
                    to_field(stage, inner)
                    nonlinear(inner, spectra[3])
                    np.multiply(e, coeffs, out=coeffs)
                    np.multiply(f1, n_v, out=work)
                    np.add(coeffs, work, out=coeffs)
                    np.add(n_a, n_b, out=work)
                    np.multiply(work, f2, out=work)
                    np.multiply(work, 2.0, out=work)
                    np.add(coeffs, work, out=coeffs)
                    np.multiply(f3, n_c, out=work)
                    np.add(coeffs, work, out=coeffs)
                    to_field(coeffs, inner)
                    total_steps += 1
                    np.abs(field, out=magnitude)
                    peak = float(np.max(magnitude))
                    # "not <=" also catches NaN from a passed singularity
                    if not peak <= blow_limit:
                        raise FieldBlowUpError(
                            f"|q| reached {peak:.3e} at t={t + (i + 1) * dt_seg:.6g}"
                        )
                    step_left = abs(inner[0] - left0)
                    step_right = abs(inner[-1] - right0)
                    if not (step_left <= DRIFT_ABORT and step_right <= DRIFT_ABORT):
                        raise BoundaryDriftError(
                            f"edge drift {max(step_left, step_right):.3e} at "
                            f"t={t + (i + 1) * dt_seg:.6g}; enlarge the interval"
                        )
                    left_drift = max(left_drift, step_left)
                    right_drift = max(right_drift, step_right)
            t = target
            snapshots.append(
                FieldSnapshot(t, field.copy(), mirror_mass(field, h), left_drift, right_drift)
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
    round-trips doubles exactly.  Values are formatted as Python floats, and
    each snapshot's rows go to the file in one ``writelines`` call.
    """
    g = result.grid
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# schema: t,x,re_q,im_q\n")
        fh.write(
            f"# half_width={g.half_width:.17g} step={g.step:.17g} "
            f"dt={result.dt:.17g} steps={result.steps}\n"
        )
        xs = g.x.tolist()
        for snap in result.snapshots:
            t = f"{snap.t:.17g}"
            fh.writelines(
                f"{t},{x:.17g},{re:.17g},{im:.17g}\n"
                for x, re, im in zip(xs, snap.q.real.tolist(), snap.q.imag.tolist())
            )
