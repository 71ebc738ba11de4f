"""Tests for the direct mirror-coupled evolution."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from nnlswedge import pde
from nnlswedge.pde import (
    BoundaryDriftError,
    FieldBlowUpError,
    STABLE_DT_FACTOR,
    _aligned_empty,
    evolve,
    interpolate_field,
    mirror_mass,
    read_snapshots_csv,
    symmetric_grid,
    write_snapshots_csv,
)
from nnlswedge.profiles import soliton_exact


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


def test_soliton_evolution_accuracy(grid20):
    res = evolve(_soliton0, grid20, 0.5, snapshot_times=(0.25, 0.5))
    assert [s.t for s in res.snapshots] == [0.25, 0.5]
    for snap in res.snapshots:
        exact = soliton_exact(1.0, math.pi, grid20.x, snap.t)
        assert np.max(np.abs(snap.q - exact)) < 1e-6  # measured 2.0e-7
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
    res = evolve(np.zeros(grid20.size, dtype=complex), grid20, 0.5)
    assert float(np.max(np.abs(res.final.q))) == 0.0


def test_fourth_order_spatial_convergence():
    # same dt for both grids so the spatial error dominates; halving the
    # step should cut the error by ~16
    errs = {}
    for h in (0.2, 0.1):
        g = symmetric_grid(15.0, h)
        res = evolve(_soliton0, g, 0.25, dt=0.004)
        exact = soliton_exact(1.0, math.pi, g.x, 0.25)
        errs[h] = float(np.max(np.abs(res.final.q - exact)))
    assert errs[0.2] / errs[0.1] > 12.0  # measured 15.6


def _textbook_rk4(q0, grid, dt, snapshot_times):
    """Allocation-based classical RK4 on the same semi-discrete system."""
    n = q0.size
    inv_12h2 = 1.0 / (12.0 * grid.step**2)
    padded = np.empty(n + 4, dtype=np.complex128)
    padded[0] = padded[1] = q0[0]
    padded[-1] = padded[-2] = q0[-1]

    def rhs(q):
        padded[2:-2] = q
        lap = (
            -padded[:-4]
            + 16.0 * padded[1:-3]
            - 30.0 * padded[2:-2]
            + 16.0 * padded[3:-1]
            - padded[4:]
        ) * inv_12h2
        out = 1j * (lap + 2.0 * q * q * np.conj(q[::-1]))
        out[0] = 0.0
        out[-1] = 0.0
        return out

    q = q0.copy()
    t = 0.0
    states = []
    for target in snapshot_times:
        n_steps = max(1, int(math.ceil((target - t) / dt - 1e-12)))
        h = (target - t) / n_steps
        for _ in range(n_steps):
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * h * k1)
            k3 = rhs(q + 0.5 * h * k2)
            k4 = rhs(q + h * k3)
            q = q + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        t = target
        states.append(q.copy())
    return states


def _skewed_step(x):
    # a step between two different nonzero levels with an off-centre
    # complex bump: no mirror symmetry, so the conj(q(-x)) coupling, the
    # ghost nodes on both sides and both pins all enter the result
    left, right = 0.4 * np.exp(0.9j), 1.0
    return (
        left
        + (right - left) * 0.5 * (1.0 + np.tanh(x - 0.7))
        + 0.3 * np.exp(0.4j) * np.exp(-((x - 2.0) ** 2))
    )


def _assert_matches_textbook_rk4(grid, monkeypatch, dt, times):
    q0 = _skewed_step(grid.x)
    monkeypatch.setattr(pde, "DRIFT_ABORT", 1.0)
    res = evolve(q0, grid, times[-1], dt=dt, snapshot_times=times)
    oracle = _textbook_rk4(q0, grid, dt, times)
    assert [s.t for s in res.snapshots] == list(times)
    for snap, want in zip(res.snapshots, oracle):
        assert np.max(np.abs(snap.q - want)) <= 1e-12
        assert snap.q[0] == q0[0] and snap.q[-1] == q0[-1]


def test_stepper_matches_textbook_rk4(grid20, monkeypatch):
    _assert_matches_textbook_rk4(grid20, monkeypatch, 0.004, (0.05, 0.1))


@pytest.mark.parametrize(
    "dt, times",
    [
        # unequal segments, the first shorter than dt (a single step of
        # 0.001), so each segment's stage scales differ
        (0.003, (0.001, 0.05, 0.0731, 0.1)),
        # a dt near the stability edge, 0.53 h^2
        (0.0051, (0.04, 0.1)),
    ],
    ids=["unequal-segments", "dt-near-edge"],
)
def test_stepper_matches_textbook_rk4_per_segment(grid20, monkeypatch, dt, times):
    # the stage scales i dt_k / (12 h^2) are rebuilt from each segment's
    # shortened step; the oracle shortens its steps the same way
    _assert_matches_textbook_rk4(grid20, monkeypatch, dt, times)


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


def test_step_loop_allocates_no_grid_array(grid20, monkeypatch):
    # each rhs call reads the traced memory before it runs: the first sets
    # the base (after a peak reset), the later ones the peak since; the
    # stage values, the update and the rhs itself all run in between, so a
    # grid-sized temporary anywhere in a step lifts the peak by 16 * size
    bind = pde._bind_rhs
    seen = []

    def traced_bind(*args):
        rhs = bind(*args)

        def traced(scale):
            if not seen:
                tracemalloc.reset_peak()
                seen.append(tracemalloc.get_traced_memory()[0])
            else:
                seen.append(tracemalloc.get_traced_memory()[1])
            rhs(scale)

        return traced

    monkeypatch.setattr(pde, "_bind_rhs", traced_bind)
    dt = 5e-4
    tracemalloc.start()
    try:
        res = evolve(_soliton0, grid20, 3 * dt, dt=dt)
    finally:
        tracemalloc.stop()
    assert res.steps == 3 and len(seen) == 12
    assert max(seen[1:]) - seen[0] < 16 * grid20.size


def test_stepper_buffers_are_cache_line_aligned():
    # the padded state keeps two ghost nodes before its aligned interior;
    # each allocation may land at a different heap offset
    for size, lead in ((9, 0), (3201, 0), (3205, 2)):
        for _ in range(4):
            buf = _aligned_empty(size, lead)
            assert buf.shape == (size,) and buf.dtype == np.complex128
            assert buf[lead:].ctypes.data % 64 == 0


def test_blow_up_guard_catches_the_pole(grid20, monkeypatch):
    # with carrier phase pi the exact solution has a finite-time pole at
    # (x, t) = (0, pi); the magnitude guard must abort on approach
    monkeypatch.setattr(pde, "BLOW_UP_FACTOR", 3.0)
    monkeypatch.setattr(pde, "CHECK_EVERY", 5)
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


def test_singularity_aborts_instead_of_returning_nan():
    # on a grid fine enough to resolve the pole the field overflows to
    # inf and then NaN between magnitude checks; NaN compares false
    # against every threshold, so only a negated-form guard catches it --
    # a silent return full of NaN is the regression this pins down
    fine = symmetric_grid(16.0, 0.05)
    with pytest.raises(FieldBlowUpError, match="reached nan"):
        evolve(_soliton0, fine, 3.5)


def test_evolve_validation(grid20):
    with pytest.raises(ValueError):
        evolve(np.zeros(5, dtype=complex), grid20, 0.5)  # wrong shape
    with pytest.raises(ValueError):
        evolve(_soliton0, grid20, 0.0)  # no time span
    with pytest.raises(ValueError):
        evolve(_soliton0, grid20, 0.5, dt=STABLE_DT_FACTOR * 0.1**2 * 1.5)
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
    between = float(0.5 * (grid20.x[mid] + grid20.x[mid + 1]))
    want = 0.5 * (q[mid] + q[mid + 1])
    assert interpolate_field(grid20, q, between) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        interpolate_field(grid20, q, 21.0)


def test_snapshot_csv_round_trip(tmp_path, grid20):
    res = evolve(_soliton0, grid20, 0.2, snapshot_times=(0.1, 0.2))
    path = tmp_path / "snapshots.csv"
    write_snapshots_csv(res, path)
    text = path.read_text()
    assert text.startswith("# schema: t,x,re_q,im_q")
    back = read_snapshots_csv(path)
    assert sorted(back) == [0.1, 0.2]
    for snap in res.snapshots:
        x_back, q_back = back[snap.t]
        assert np.array_equal(x_back, grid20.x)
        assert np.array_equal(q_back, snap.q)
