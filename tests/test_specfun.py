"""Oracle tests for the quadrature kernel, and for the reciprocal-gamma
identities the connection pair relies on.

Every expected value below is either an exact closed form (antiderivative
evaluated by hand, noted inline) or an identity cross-checked against an
independent library implementation.
"""

import math

import numpy as np
import pytest

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

