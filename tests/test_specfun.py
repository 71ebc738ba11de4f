"""Oracle tests for the quadrature kernel, and for the reciprocal-gamma
identities the connection pair relies on.

Every expected value below is either an exact closed form (antiderivative
evaluated by hand, noted inline), an identity cross-checked against an
independent library implementation, or, for the batched adaptive loop, the
outcome of the sequential loop kept here as its reference.
"""

import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlswedge import specfun
from nnlswedge.specfun import (
    QuadratureError,
    QuadratureSpec,
    Singularity,
    quad,
)
from nnlswedge.wedge import _rgamma

LOG_LEFT = QuadratureSpec(singularity=Singularity.LOG_AT_LEFT_END)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_weights_sum_to_interval_length():
    from nnlswedge.specfun import _WEIGHTS_G, _WEIGHTS_K

    assert abs(_WEIGHTS_K.sum() - 2.0) < 1e-14
    assert abs(_WEIGHTS_G.sum() - 2.0) < 1e-14


def test_linear_moment():
    # integral of zeta on [0, 1] = 1/2
    res = quad(lambda z: z, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-14


def test_degree_five_polynomial_exact():
    # p = 3 - 2 z + 5 z^2 + z^3 - 4 z^4 + 2 z^5 on [-1, 2];
    # antiderivative P = 3z - z^2 + (5/3)z^3 + z^4/4 - (4/5)z^5 + z^6/3,
    # P(2) = 226/15, P(-1) = -257/60, so the integral is 1161/60 = 19.35.
    def p(z):
        return 3 - 2 * z + 5 * z**2 + z**3 - 4 * z**4 + 2 * z**5

    res = quad(p, -1.0, 2.0)
    assert abs(res.value - 19.35) < 1e-12


def test_log_singularity_left_end():
    # integral of ln(v) on [0, 1] = -1 (antiderivative v ln v - v)
    res = quad(np.log, 0.0, 1.0, LOG_LEFT)
    assert abs(res.value - (-1.0)) < 1e-10
    # integral of v ln(v) on [0, 1] = -1/4
    res = quad(lambda v: v * np.log(v), 0.0, 1.0, LOG_LEFT)
    assert abs(res.value - (-0.25)) < 1e-10


def test_log_singularity_written_in_native_variable():
    # integral of ln(-zeta) on [-1, 0] = -1, singular at the right end;
    # plain adaptive refinement must still converge within budget.
    res = quad(
        lambda z: np.log(np.maximum(-z, 1e-300)),
        -1.0,
        0.0,
        QuadratureSpec(atol=1e-8, rtol=1e-8, max_subdivisions=2000),
    )
    assert abs(res.value - (-1.0)) < 1e-7


def test_complex_integrand():
    # integral of exp(i v) on [0, pi/2] = sin + i(1 - cos) at pi/2 = 1 + i
    res = quad(lambda v: np.exp(1j * v), 0.0, math.pi / 2)
    assert abs(res.value - (1.0 + 1.0j)) < 1e-12


def test_nonintegrable_singularity_raises():
    with pytest.raises(QuadratureError):
        quad(lambda z: 1.0 / z, 0.0, 1.0, QuadratureSpec(max_subdivisions=60))


def test_infinite_endpoint_raises():
    for a, b in ((-np.inf, -1.0), (0.0, np.inf), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite interval"):
            quad(lambda z: z, a, b)


# ---------------------------------------------------------------------------
# the batched loop against a one-panel-per-call reference
# ---------------------------------------------------------------------------


def _reference_gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * specfun._NODES))
    val_k = half * np.sum(specfun._WEIGHTS_K * y)
    val_g = half * np.sum(specfun._WEIGHTS_G * y[specfun._GAUSS_IDX])
    return val_k, abs(val_k - val_g)


def _reference_adaptive(f, a, b, spec):
    """Sequential adaptive GK15: each popped panel's two children are
    evaluated in two integrand calls, in the order they are used."""
    val, err = _reference_gk15(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total, total_err, evals, next_id, splits = val, err, 15, 1, 0
    while True:
        tol = max(spec.atol, spec.rtol * abs(total))
        if total_err <= tol:
            return specfun.QuadResult(total, total_err, splits, evals)
        if splits >= spec.max_subdivisions:
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
        vl, el = _reference_gk15(f, pa, pm)
        vr, er = _reference_gk15(f, pm, pb)
        total += (vl + vr) - pval
        total_err += (el + er) - perr
        evals += 30
        splits += 1
        heapq.heappush(heap, (-el, next_id, pa, pm, vl, el))
        heapq.heappush(heap, (-er, next_id + 1, pm, pb, vr, er))
        next_id += 2


def _run(adaptive, f, a, b, spec):
    """(value, error, subdivisions) or the QuadratureError text, and the
    sizes of the arrays ``f`` was called on."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    with mock.patch.object(specfun, "_adaptive", adaptive):
        try:
            res = quad(counted, a, b, spec)
        except QuadratureError as exc:
            return str(exc), sizes
    assert res.evaluations == sum(sizes)
    return (res.value, res.error, res.subdivisions), sizes


def _assert_same_as_reference(f, a, b, spec):
    """The batched loop's outcome equals the reference's exactly; returns
    it, with both loops' integrand call counts."""
    got, sizes = _run(specfun._adaptive, f, a, b, spec)
    want, ref_sizes = _run(_reference_adaptive, f, a, b, spec)
    assert got == want
    return got, len(sizes), len(ref_sizes)


_TIGHT = QuadratureSpec(atol=1e-13, rtol=1e-12, max_subdivisions=2000)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.5, 10.0),
    where=st.floats(0.0, 1.0),
    d=st.floats(1e-3, 0.3),
)
def test_batched_loop_matches_reference_on_smooth_peaks(a, width, where, d):
    # a Lorentzian peak of width d somewhere in [a, a + width]
    c = a + where * width

    def f(z):
        return d / (d * d + (z - c) ** 2) + np.cos(z)

    _, calls, ref_calls = _assert_same_as_reference(f, a, a + width, _TIGHT)
    assert calls < ref_calls


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    a=st.floats(-10.0, 10.0),
    width=st.floats(1.0, 10.0),
    omega=st.floats(5.0, 300.0),
)
def test_batched_loop_matches_reference_on_oscillations(a, width, omega):
    def f(z):
        return np.exp(1j * omega * z) * (1.0 + z * z)

    _, calls, ref_calls = _assert_same_as_reference(f, a, a + width, _TIGHT)
    assert calls < ref_calls


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    a=st.just(0.0) | st.floats(0.0, 3.0),
    width=st.floats(0.01, 5.0),
    omega=st.floats(0.0, 20.0),
)
def test_batched_loop_matches_reference_with_a_log_endpoint(a, width, omega):
    # ln(v) is singular at a = 0 and smooth for a > 0
    spec = QuadratureSpec(
        atol=1e-13, rtol=1e-12, max_subdivisions=2000, singularity=Singularity.LOG_AT_LEFT_END
    )

    def f(v):
        return np.log(v) * np.exp(1j * omega * v)

    _, calls, ref_calls = _assert_same_as_reference(f, a, a + width, spec)
    assert calls < ref_calls


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(b=st.floats(1e-3, 10.0), budget=st.integers(1, 300))
@example(b=1.0, budget=60)
def test_batched_loop_matches_reference_when_the_budget_runs_out(b, budget):
    spec = QuadratureSpec(max_subdivisions=budget)
    got, *_ = _assert_same_as_reference(lambda z: 1.0 / z, 0.0, b, spec)
    assert got.startswith(f"quadrature did not converge after {budget} subdivisions")


def _step_on_three_ulps(a):
    """[a, a + 3 ulp] and an integrand that is 1 at its first two floats and
    0 at the last two: the first split leaves a one-ulp panel that cannot
    be bisected next to a two-ulp one that can, and has the larger error."""
    b = a
    for _ in range(3):
        b = math.nextafter(b, math.inf)
    cut = math.nextafter(a, math.inf)

    def f(z):
        return np.where(z <= cut, 1.0, 0.0)

    return f, a, b


_UNREACHABLE = QuadratureSpec(atol=1e-300, rtol=1e-300)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(a=st.floats(0.5, 1e6) | st.floats(-1e6, -0.5))
@example(a=1.0)
def test_batched_loop_matches_reference_when_a_panel_collapses(a):
    f, a, b = _step_on_three_ulps(a)
    got, *_ = _assert_same_as_reference(f, a, b, _UNREACHABLE)
    assert "collapsed below floating-point resolution" in got


def test_collapsing_heap_top_is_not_evaluated():
    # the second split's heap top is the one-ulp panel: it is left out of
    # that call, and raises only when it is popped
    f, a, b = _step_on_three_ulps(1.0)
    got, sizes = _run(specfun._adaptive, f, a, b, _UNREACHABLE)
    assert sizes == [15, 30, 30]
    assert got.startswith("panel [")


# ---------------------------------------------------------------------------
# reciprocal gamma of the parametrix pair (``wedge._rgamma``), whose product
# identity beta * gamma = nu rests on the reflection formula below
# ---------------------------------------------------------------------------


def test_gamma_of_i_modulus():
    # |Gamma(i)|^2 = Gamma(i) Gamma(-i) = pi / sinh(pi)
    target = math.sqrt(math.pi / math.sinh(math.pi))
    assert abs(1.0 / abs(_rgamma(1j)) - target) < 1e-12


@pytest.mark.parametrize("y", np.linspace(0.1, 10.0, 23).tolist())
def test_imaginary_axis_product_identity(y):
    # 1 / (Gamma(iy) Gamma(-iy)) = y sinh(pi y) / pi
    prod = _rgamma(1j * y) * _rgamma(-1j * y)
    target = y * math.sinh(math.pi * y) / math.pi
    assert abs(prod - target) < 1e-10 * max(1.0, abs(target))

