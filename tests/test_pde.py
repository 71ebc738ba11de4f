"""Tests for the direct mirror-coupled evolution."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from nnlswedge import pde
from nnlswedge.pde import (
    BoundaryDriftError,
    FieldBlowUpError,
    _etd_coefficients,
    _next_7_smooth,
    _sine_transform,
    evolve,
    interpolate_field,
    mirror_mass,
    symmetric_grid,
    write_snapshots_csv,
)
from nnlswedge.profiles import soliton_exact
from nnlswedge.wedge import wedge_point


@pytest.fixture(scope="module")
def grid20():
    return symmetric_grid(20.0, 0.1)


def _soliton0(x):
    return soliton_exact(1.0, math.pi, x, 0.0)


def test_grid_is_odd_and_mirror_exact():
    g = symmetric_grid(40.0, 0.02)
    assert g.size % 2 == 1
    assert g.x[0] == -40.0 and g.x[-1] == 40.0
    assert g.x[g.size // 2] == 0.0
    # reversal realizes x -> -x at the ulp level
    assert np.max(np.abs(g.x + g.x[::-1])) < 1e-12
    # the step snaps to divide the half-width evenly
    assert g.step * (g.size // 2) == pytest.approx(40.0, rel=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        symmetric_grid(-1.0, 0.1)
    with pytest.raises(ValueError):
        symmetric_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        symmetric_grid(0.2, 0.1)  # fewer than 4 nodes per side
    with pytest.raises(ValueError, match="10000001 nodes"):
        symmetric_grid(5.0e6, 1.0)  # one node above the ceiling, never allocated


def test_grid_rounds_half_nodes_up_to_7_smooth():
    smooth = sorted(
        2**a * 3**b * 5**c * 7**d
        for a in range(13) for b in range(8) for c in range(6) for d in range(5)
    )
    for n in range(1, 4001):
        assert _next_7_smooth(n) == next(m for m in smooth if m >= n)
    # criterion 09's 500 / 0.06 = 8333.3 becomes 8,400 half-nodes, a finer step
    g = symmetric_grid(500.0, 0.06)
    assert g.size == 16_801 and g.step <= 0.06
    # the bench, criterion 08, grid20 and the compare grids are already smooth
    for half_width, step, half_nodes in (
        (40.0, 0.025, 1600), (40.0, 0.02, 2000), (20.0, 0.1, 200),
        (16.0, 0.05, 320), (16.0, 0.1, 160),
    ):
        g = symmetric_grid(half_width, step)
        assert g.size == 2 * half_nodes + 1 and g.step <= step * (1.0 + 1e-12)


def test_soliton_evolution_accuracy(grid20):
    res = evolve(_soliton0, grid20, 0.5, snapshot_times=(0.25, 0.5))
    assert [s.t for s in res.snapshots] == [0.25, 0.5]
    for snap in res.snapshots:
        exact = soliton_exact(1.0, math.pi, grid20.x, snap.t)
        assert np.max(np.abs(snap.q - exact)) < 1e-6  # measured 1.0e-9
        # boundary neighborhoods stay put
        assert snap.right_drift < 1e-6
        assert snap.left_drift < 1e-6


def test_soliton_conserved_pairing(grid20):
    # the pairing integral of the exact soliton equals the background level
    probe0 = mirror_mass(_soliton0(grid20.x), grid20.step)
    assert abs(probe0 - 1.0) < 1e-6
    res = evolve(_soliton0, grid20, 0.5)
    assert abs(res.final.mirror_mass - probe0) < 1e-8  # measured 1.4e-9


def test_zero_data_stays_exactly_zero(grid20):
    # zero levels make the background and its forcing vanish, and every
    # transform of zeros is zero: each snapshot is +0.0, bit for bit
    res = evolve(np.zeros(grid20.size, dtype=complex), grid20, 0.5, snapshot_times=(0.013,))
    for snap in res.snapshots:
        assert not snap.q.view(np.uint64).any()


@pytest.mark.parametrize(
    "amplitude, phase, rk4_error",
    [
        # max error at t = 0.5 on [-40, 40] with h = 0.1; the third column
        # is the fourth-order stencil with RK4 at dt = 0.4 h^2 on the same
        # grid (measured 2.0e-7, 4.2e-4, 7.5e-7, 1.7e-9)
        (1.0, math.pi, 2.0e-7),
        (2.0, math.pi, 4.2e-4),
        (1.0, 2.5, 7.5e-7),
        (0.5, math.pi, 1.7e-9),
    ],
)
def test_soliton_oracle_beats_the_rk4_stencil(amplitude, phase, rk4_error):
    # the exact one-soliton at several amplitudes and phases; measured
    # 1.5e-12, 9.5e-9, 8.6e-12 and 1.3e-10 (the last one the e^{-A L} tail
    # of the pinned edges)
    g = symmetric_grid(40.0, 0.1)
    res = evolve(lambda x: soliton_exact(amplitude, phase, x, 0.0), g, 0.5)
    exact = soliton_exact(amplitude, phase, g.x, 0.5)
    assert np.max(np.abs(res.final.q - exact)) < 0.1 * rk4_error


def test_fourth_order_in_time():
    # the sine basis resolves the soliton to round-off at h = 0.1, so the
    # time step sets the error; halving it cuts the error by ~16
    g = symmetric_grid(40.0, 0.1)
    errs = {}
    for dt in (0.04, 0.02):
        res = evolve(_soliton0, g, 2.0, dt=dt)
        errs[dt] = float(np.max(np.abs(res.final.q - soliton_exact(1.0, math.pi, g.x, 2.0))))
    assert math.log2(errs[0.04] / errs[0.02]) >= 3.8  # measured 3.93


def _phi(z):
    """phi_0 .. phi_3 at each z: phi_k(z) = sum_m z^m / (m + k)!, by the
    series for |z| < 1 and by phi_{k+1} = (phi_k - 1/k!) / z elsewhere."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    phis = [np.exp(z)]
    for k in range(3):
        big = (phis[k] - 1.0 / math.factorial(k)) / np.where(small, 1.0, z)
        series = sum(z**m / math.factorial(m + k + 1) for m in range(30))
        phis.append(np.where(small, series, big))
    return phis


def _dense_etdrk4(q0, grid, dt, snapshot_times):
    """Allocation-based ETDRK4 on the same semi-discrete system: the sine
    basis as a dense matrix and the phi functions from their series."""
    n = grid.size - 1  # intervals
    modes = np.arange(1, n)
    sines = np.sin(np.pi * np.outer(modes, modes) / n)  # symmetric; inverse 2/n x itself
    lam = -1j * (np.pi * modes / (2.0 * grid.half_width)) ** 2
    tanh_l = math.tanh(grid.half_width)
    x = grid.x[1:-1]
    background = q0[0] + (q0[-1] - q0[0]) * (np.tanh(x) + tanh_l) / (2.0 * tanh_l)
    second = (q0[-1] - q0[0]) / (2.0 * tanh_l) * (-2.0 * np.tanh(x) / np.cosh(x) ** 2)

    def rate(c):
        q = background + sines @ c
        return 2.0 / n * (sines @ (1j * second + 2j * q * q * np.conj(q[::-1])))

    c = 2.0 / n * (sines @ (q0[1:-1] - background))
    t = 0.0
    states = []
    for target in snapshot_times:
        steps = max(1, int(math.ceil((target - t) / dt - 1e-12)))
        h = (target - t) / steps
        z = h * lam
        _, p1, p2, p3 = _phi(z)
        e, e2 = np.exp(z), np.exp(z / 2)
        qf = h / 2 * _phi(z / 2)[1]
        f1, f2, f3 = h * (p1 - 3 * p2 + 4 * p3), h * (p2 - 2 * p3), h * (4 * p3 - p2)
        for _ in range(steps):
            nv = rate(c)
            a = e2 * c + qf * nv
            na = rate(a)
            b = e2 * c + qf * na
            nb = rate(b)
            cc = e2 * a + qf * (2 * nb - nv)
            nc = rate(cc)
            c = e * c + f1 * nv + 2 * f2 * (na + nb) + f3 * nc
        t = target
        states.append(np.concatenate(([q0[0]], background + sines @ c, [q0[-1]])))
    return states


def _skewed_step(x):
    # a step between two different nonzero levels with an off-centre
    # complex bump: no mirror symmetry, so the conj(q(-x)) coupling, the
    # background forcing and both pins all enter the result
    left, right = 0.4 * np.exp(0.9j), 1.0
    return (
        left
        + (right - left) * 0.5 * (1.0 + np.tanh(x - 0.7))
        + 0.3 * np.exp(0.4j) * np.exp(-((x - 2.0) ** 2))
    )


def _assert_matches_dense_etdrk4(grid, monkeypatch, dt, times):
    q0 = _skewed_step(grid.x)
    monkeypatch.setattr(pde, "DRIFT_ABORT", 1.0)
    res = evolve(q0, grid, times[-1], dt=dt, snapshot_times=times)
    oracle = _dense_etdrk4(q0, grid, dt, times)
    assert [s.t for s in res.snapshots] == list(times)
    for snap, want in zip(res.snapshots, oracle):
        assert np.max(np.abs(snap.q - want)) <= 1e-12  # measured <= 5.1e-15
        assert snap.q[0] == q0[0] and snap.q[-1] == q0[-1]


def test_stepper_matches_dense_etdrk4(grid20, monkeypatch):
    _assert_matches_dense_etdrk4(grid20, monkeypatch, 0.01, (0.05, 0.1))


@pytest.mark.parametrize(
    "dt, times",
    [
        # unequal segments, the first shorter than dt (a single step of
        # 0.001), so each segment builds its own phi functions
        (0.03, (0.001, 0.05, 0.0731, 0.2)),
        # a step 25x the old RK4 stability edge (0.53 h^2): the linear part
        # is integrated exactly, so no step size is unstable
        (0.125, (0.25, 0.5)),
    ],
    ids=["unequal-segments", "large-dt"],
)
def test_stepper_matches_dense_etdrk4_per_segment(grid20, monkeypatch, dt, times):
    # the phi functions are rebuilt from each segment's shortened step; the
    # oracle shortens its steps the same way
    _assert_matches_dense_etdrk4(grid20, monkeypatch, dt, times)


def _sine_matrix(n, rows):
    """Rows ``rows`` of _dense_etdrk4's sine matrix sin(pi j k / n), k = 1 ..
    n - 1, with j k reduced mod 2n first: at n = 16,800 the angle would reach
    5.3e4 rad, where a double resolves only 7e-12."""
    modes = np.arange(1, n)
    return np.sin(np.pi * (np.outer(rows, modes) % (2 * n)) / n)


def _odd_extension_sine(u):
    """sine(u) as entries 1 .. N - 1 of the FFT of the odd extension
    [0, u, 0, -u reversed] of length 2N, straight from its definition."""
    n = u.size + 1
    ext = np.zeros(2 * n, dtype=complex)
    ext[1:n] = u
    ext[n + 1 :] = -u[::-1]
    return np.fft.fft(ext)[1:n]


@pytest.mark.parametrize("intervals", [8, 10, 400, 3200, 16800])
def test_sine_transform_matches_its_oracles(intervals):
    # forward, inverse and round trip on random complex data and on samples
    # of a smooth complex bump, against the dense sine matrix and the FFT of
    # the odd extension of length 2N.  The odd modes are a running sum of
    # N / 2 FFT outputs, whose correlated round-off grows like N, so the
    # bound is 1e-13 of max|output| or N machine epsilons, whichever is
    # larger.  Measured: forward <= 1.5e-14 at every N; inverse and round
    # trip up to 1.7e-14, 7.2e-14 and 5.8e-13 at N = 400, 3,200 and 16,800
    # (the odd-extension FFT: 6e-16 at N = 16,800)
    bound = max(1e-13, intervals * np.finfo(float).eps)
    sine = _sine_transform(intervals)
    rng = np.random.default_rng(intervals)
    x = np.arange(1, intervals) / intervals
    data = [
        rng.standard_normal(intervals - 1) + 1j * rng.standard_normal(intervals - 1),
        np.exp(-40.0 * (x - 0.4) ** 2 + 7j * x) + 0.5j * np.sin(np.pi * x) ** 3,
    ]
    columns = []
    for u in data:
        forward = np.empty_like(u)
        sine(u, forward)
        inverse = np.empty_like(u)
        sine(forward, inverse)
        inverse *= -0.5 / intervals
        columns += [u, forward, inverse]
        for got, oracle in (
            (forward, _odd_extension_sine(u)),
            (inverse, _odd_extension_sine(forward) * (-0.5 / intervals)),
            (inverse, u),
        ):
            assert np.max(np.abs(got - oracle)) <= bound * np.max(np.abs(got))
    # the dense oracle, -2i S u forward and (i / N) S sine(u) inverse, on
    # every row up to N = 3,200 and on every 8th at N = 16,800 (2,100 rows,
    # in blocks, so the whole matrix is never held); the errors vary slowly
    # along the rows, so the sample sees their size
    columns = np.stack(columns, axis=1)
    rows = np.arange(1, intervals)[:: 1 if intervals <= 3200 else 8]
    blocks = []
    for start in range(0, rows.size, 512):
        block = _sine_matrix(intervals, rows[start : start + 512])
        blocks.append(block @ columns.real + 1j * (block @ columns.imag))
    dense = np.concatenate(blocks)
    picked = columns[rows - 1]
    for u, forward, inverse in np.split(np.arange(columns.shape[1]), len(data)):
        for got, oracle in (
            (picked[:, forward], -2j * dense[:, u]),
            (picked[:, inverse], 1j / intervals * dense[:, forward]),
        ):
            assert np.max(np.abs(got - oracle)) <= bound * np.max(np.abs(got))


def test_step_loop_allocates_no_grid_array(grid20, monkeypatch):
    # each FFT call reads the traced memory before it runs: the second (the
    # first inside the step loop, after the initial transform and the phi
    # functions) sets the base after a peak reset, the later ones the peak
    # since; every stage, guard and update of a step runs in between, so a
    # grid-sized temporary anywhere in a step lifts the peak by 16 * size
    fft = np.fft.fft
    seen = []

    def traced(*args, **kwargs):
        if len(seen) == 1:
            tracemalloc.reset_peak()
            seen.append(tracemalloc.get_traced_memory()[0])
        else:
            seen.append(tracemalloc.get_traced_memory()[1])
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", traced)
    dt = 5e-3
    tracemalloc.start()
    try:
        res = evolve(_soliton0, grid20, 3 * dt, dt=dt)
    finally:
        tracemalloc.stop()
    assert res.steps == 3 and len(seen) == 1 + 3 * 8
    assert max(seen[2:]) - seen[1] < 16 * grid20.size  # measured 2,456 B


def test_phi_functions_need_no_contour_sized_array():
    # the contour mean loops over its 32 points, so building the factors
    # for n modes holds a few arrays of n at a time (measured peak 14), never
    # one of 32 n
    lam = -1j * np.linspace(0.0, 3.0e3, 3199)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        factors = _etd_coefficients(lam, 0.005, -1j / 3200)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(factors) == 6
    assert peak < 24 * 16 * lam.size


def test_step_loop_memory_does_not_grow_with_steps(grid20):
    # the step loop reuses the buffers evolve allocates once, so a run of
    # ~1,000 steps peaks no higher than one of ~10 steps, to within less
    # than one grid array; a per-step allocation kept alive would grow it
    dt = 5e-4  # 1,000 steps end at t = 0.5, well before the pole at pi
    q0 = _soliton0(grid20.x)
    peaks = []
    tracemalloc.start()
    try:
        for n_steps in (10, 1000):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = evolve(q0, grid20, n_steps * dt, dt=dt)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert res.steps == n_steps
            del res
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 16 * grid20.size


def test_memory_does_not_grow_with_unequal_segments():
    # every unequally spaced snapshot time starts a segment with a new step;
    # only the current segment's six phi factors are kept, so 20 such times
    # peak above one snapshot by the 19 extra snapshots and a little slack,
    # not by six grid arrays per segment
    grid = symmetric_grid(40.0, 0.025)
    assert grid.size == 3201
    q0 = 0.5 * (1.0 + np.tanh(grid.x))
    t_final = 0.21
    times = tuple(t_final * np.cumsum(np.arange(1, 21)) / 210.0)
    peaks = []
    tracemalloc.start()
    try:
        for snapshot_times in ((), times):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = evolve(q0, grid, t_final, snapshot_times=snapshot_times)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert len(res.snapshots) == max(1, len(snapshot_times))
            del res
    finally:
        tracemalloc.stop()
    array = 16 * grid.size
    assert peaks[1] - peaks[0] <= (19 + 3) * array, [peak / array for peak in peaks]


def test_blow_up_guard_catches_the_pole(grid20, monkeypatch):
    # with carrier phase pi the exact solution has a finite-time pole at
    # (x, t) = (0, pi); the magnitude guard must abort on approach
    monkeypatch.setattr(pde, "BLOW_UP_FACTOR", 3.0)
    with pytest.raises(FieldBlowUpError):
        evolve(_soliton0, grid20, 3.0)


def test_boundary_drift_guard(grid20, monkeypatch):
    monkeypatch.setattr(pde, "DRIFT_ABORT", 1e-10)
    with pytest.raises(BoundaryDriftError) as err:
        evolve(_soliton0, grid20, 0.5)
    partial = err.value.partial
    assert partial.snapshots == () and 0 < partial.steps * partial.dt < 0.5


def test_abort_keeps_the_snapshots_landed_before_it(grid20, monkeypatch):
    # |q| passes 3 max|q0| near t = 2.81, inside the 2.5 -> 3 segment; the
    # partial run keeps every earlier snapshot and counts every step taken
    times = (1.0, 2.0, 2.5, 3.0)
    monkeypatch.setattr(pde, "BLOW_UP_FACTOR", 3.0)
    with pytest.raises(FieldBlowUpError) as err:
        evolve(_soliton0, grid20, 3.0, snapshot_times=times)
    partial = err.value.partial
    assert [s.t for s in partial.snapshots] == [1.0, 2.0, 2.5]
    abort_t = float(re.search(r"at t=(\S+)$", str(err.value)).group(1))
    assert 2.5 < abort_t < 3.0
    assert partial.steps * partial.dt == pytest.approx(abort_t, abs=partial.dt)
    clean = evolve(_soliton0, grid20, 2.5, snapshot_times=times[:2])
    for got, want in zip(partial.snapshots, clean.snapshots):
        assert np.array_equal(got.q, want.q)


def test_singularity_aborts_instead_of_returning_nan(monkeypatch):
    # with no magnitude limit the field passes the pole, overflows to inf
    # and then NaN; NaN compares false against every threshold, so only a
    # negated-form guard catches it -- a silent return full of NaN is the
    # regression this pins down
    monkeypatch.setattr(pde, "BLOW_UP_FACTOR", math.inf)
    monkeypatch.setattr(pde, "DRIFT_ABORT", math.inf)  # radiation reaches the edges first
    fine = symmetric_grid(16.0, 0.05)
    with pytest.raises(FieldBlowUpError, match="reached nan"):
        evolve(_soliton0, fine, 3.5)


def test_evolve_validation(grid20):
    with pytest.raises(ValueError):
        evolve(np.zeros(5, dtype=complex), grid20, 0.5)  # wrong shape
    even = pde.SpatialGrid(20.0, 0.1, np.linspace(-20.0, 20.0, 400))
    with pytest.raises(ValueError, match="odd node count"):
        evolve(np.zeros(400, dtype=complex), even, 0.5)  # the transform needs an even N
    with pytest.raises(ValueError):
        evolve(_soliton0, grid20, 0.0)  # no time span
    for dt in (0.0, -0.01, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            evolve(_soliton0, grid20, 0.5, dt=dt)
    with pytest.raises(ValueError):
        evolve(_soliton0, grid20, 0.5, snapshot_times=(0.7,))  # past t_final
    with pytest.raises(ValueError, match="must not repeat"):
        evolve(_soliton0, grid20, 0.5, snapshot_times=(0.2, 0.1, 0.2))


def test_final_state_always_snapshotted(grid20):
    res = evolve(_soliton0, grid20, 0.3)
    assert len(res.snapshots) == 1
    assert res.snapshots[0].t == 0.3
    res2 = evolve(_soliton0, grid20, 0.3, snapshot_times=(0.1,))
    assert [s.t for s in res2.snapshots] == [0.1, 0.3]


def test_interpolate_field(grid20):
    q = _soliton0(grid20.x)
    mid = grid20.size // 2
    assert interpolate_field(grid20, q, float(grid20.x[mid])) == pytest.approx(
        q[mid], rel=1e-14
    )
    # a quintic through six nodes is read back exactly, next to an edge too
    poly = (1.0 + 2.0j) * grid20.x**5 - 0.5 * grid20.x**2 + 3.0j
    for x in (0.05, -19.97, 19.93, 20.0):
        want = (1.0 + 2.0j) * x**5 - 0.5 * x**2 + 3.0j
        assert abs(interpolate_field(grid20, poly, x) - want) <= 1e-12 * abs(want)
    with pytest.raises(ValueError):
        interpolate_field(grid20, q, 21.0)


def test_interpolation_is_below_the_stepper_error():
    # exact soliton samples read at the bench config's 48 wedge points (x
    # off the nodes, t = 1.5 .. 3): the six-point stencil is far below the
    # stepper's own 7e-8 at t = 2.5 (measured 5.7e-13; linear
    # interpolation was off by 6.0e-6)
    g = symmetric_grid(40.0, 0.025)
    worst = 0.0
    for alpha, s, t in itertools.product((0.5, 0.75, 0.9), (0.5, 1.0), (1.5, 2.0, 2.5, 3.0)):
        q = soliton_exact(1.0, math.pi, g.x, t)
        x = wedge_point(alpha, s, t).x
        for xs in (x, -x):
            got = interpolate_field(g, q, xs)
            worst = max(worst, abs(got - soliton_exact(1.0, math.pi, xs, t)))
    assert worst <= 1e-10


def test_snapshot_csv_round_trip(tmp_path, grid20):
    res = evolve(_soliton0, grid20, 0.2, snapshot_times=(0.1, 0.2))
    path = tmp_path / "snapshots.csv"
    write_snapshots_csv(res, path)
    text = path.read_text()
    assert text.startswith("# schema: t,x,re_q,im_q")
    # rows of (t, x, re_q, im_q); 17 digits give the doubles back exactly
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert np.unique(data[:, 0]).tolist() == [0.1, 0.2]
    for snap in res.snapshots:
        rows = data[data[:, 0] == snap.t]
        assert np.array_equal(rows[:, 1], grid20.x)
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], snap.q)
