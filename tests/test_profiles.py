"""Tests for the initial-condition profiles and the exact soliton."""

import json
import math

import numpy as np
import pytest

from nnlswedge.profiles import (
    InitialProfile,
    ProfileKind,
    SolitonPoleError,
    fingerprint,
    soliton_exact,
)

ALL_KINDS = [
    InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0),
    InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=1.5, width=0.8),
    InitialProfile(ProfileKind.COMPACT_STEP, amplitude=1.0, width=3.0),
    InitialProfile(ProfileKind.SOLITON_SNAPSHOT, amplitude=1.0, phase=math.pi),
]


def test_defaults():
    p = InitialProfile(ProfileKind.SMOOTHED_STEP)
    assert p.amplitude == 1.0
    assert p.width == 1.0
    assert p.radius == 20.0
    assert p.bump_amplitude == 0


@pytest.mark.parametrize("p", ALL_KINDS, ids=lambda p: p.kind.value)
def test_exact_clamping(p):
    x = np.array([-1e6, -p.radius - 1.0, -p.radius, p.radius, p.radius + 1.0, 1e6])
    q = p.sample(x)
    assert np.all(q[:3] == 0.0)
    assert np.all(q[3:] == p.amplitude)


def test_pure_step_midpoint():
    p = InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0)
    assert p.sample(0.0) == 1.0
    assert p.sample(-0.5) == 0.0
    assert p.sample(0.5) == 2.0


def test_smoothed_step_value():
    # A(1 + tanh(x/w))/2 at x = w is A(1 + tanh 1)/2
    p = InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=2.0, width=0.7)
    expect = 1.0 + math.tanh(1.0)
    assert abs(p.sample(0.7) - expect) < 1e-14


def test_compact_step_midpoint_and_smoothness():
    p = InitialProfile(ProfileKind.COMPACT_STEP, amplitude=2.0, width=3.0)
    assert abs(p.sample(0.0) - 1.0) < 1e-14
    # C^1 at the junction x = width: one-sided slopes agree to O(h)
    h = 1e-7
    left = (p.sample(3.0) - p.sample(3.0 - h)) / h
    right = (p.sample(3.0 + h) - p.sample(3.0)) / h
    assert abs(left) < 1e-4
    assert abs(right) < 1e-14


def test_mirror_symmetry_of_plain_steps():
    # q(x) + q(-x) = A for the unperturbed step shapes
    x = np.linspace(-19.0, 19.0, 401)
    for kind in (ProfileKind.PURE_STEP, ProfileKind.SMOOTHED_STEP, ProfileKind.COMPACT_STEP):
        p = InitialProfile(kind, amplitude=1.3, width=2.0)
        q = p.sample(x)
        assert np.max(np.abs(q + q[::-1] - 1.3)) < 1e-12


def test_bump_breaks_mirror_symmetry():
    p = InitialProfile(
        ProfileKind.SMOOTHED_STEP,
        bump_amplitude=0.15 * np.exp(0.7j),
        bump_center=1.5,
        bump_width=1.2,
    )
    x = np.linspace(-19.0, 19.0, 401)
    q = p.sample(x)
    assert np.max(np.abs(q + q[::-1] - 1.0)) > 0.05
    # and the bump has the declared peak value on top of the step
    base = InitialProfile(ProfileKind.SMOOTHED_STEP)
    delta = p.sample(1.5) - base.sample(1.5)
    assert abs(delta - 0.15 * np.exp(0.7j)) < 1e-14


def test_validation_errors():
    with pytest.raises(ValueError):
        InitialProfile(ProfileKind.PURE_STEP, amplitude=0.0)
    with pytest.raises(ValueError):
        InitialProfile(ProfileKind.SMOOTHED_STEP, width=0.0)
    with pytest.raises(ValueError):
        InitialProfile(ProfileKind.COMPACT_STEP, width=30.0, radius=20.0)
    with pytest.raises(ValueError):
        InitialProfile(ProfileKind.PURE_STEP, radius=-1.0)
    with pytest.raises(SolitonPoleError):
        InitialProfile(ProfileKind.SOLITON_SNAPSHOT, phase=0.0)


# ---------------------------------------------------------------------------
# exact soliton
# ---------------------------------------------------------------------------


def test_soliton_simple_value():
    # A=1, phase=pi, x=0, t=0: q = 1/(1 - e^{i pi}) = 1/2
    assert abs(soliton_exact(1.0, math.pi, 0.0, 0.0) - 0.5) < 1e-15


def test_soliton_limits():
    assert abs(soliton_exact(1.0, math.pi, 40.0, 0.3) - 1.0) < 1e-15
    assert abs(soliton_exact(1.0, math.pi, -40.0, 0.3)) < 1e-15


def test_soliton_pole_guard():
    with pytest.raises(SolitonPoleError):
        soliton_exact(1.0, 0.0, 0.0, 0.0)
    # pole moves with t: at t = (2pi - phase)/A^2 the x=0 denominator vanishes
    with pytest.raises(SolitonPoleError):
        soliton_exact(1.0, math.pi, 0.0, math.pi)


def test_soliton_satisfies_equation():
    # Residual of i q_t + q_xx + 2 q^2 conj(q(-x, t)) via 6th-order
    # central differences; h = 0.02 puts the stencil error near 1e-12.
    A, phi = 1.0, math.pi
    x = np.linspace(-3.0, 3.0, 25)
    t0, h = 0.7, 0.02
    c1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    c2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    offs = np.arange(-3, 4)

    qt = sum(w * soliton_exact(A, phi, x, t0 + k * h) for w, k in zip(c1, offs)) / h
    qxx = sum(w * soliton_exact(A, phi, x + k * h, t0) for w, k in zip(c2, offs)) / h**2
    q = soliton_exact(A, phi, x, t0)
    qm = soliton_exact(A, phi, -x, t0)
    residual = 1j * qt + qxx + 2.0 * q * q * np.conj(qm)
    assert np.max(np.abs(residual)) < 1e-6


def test_profile_uses_soliton_at_time_zero():
    p = InitialProfile(ProfileKind.SOLITON_SNAPSHOT, amplitude=1.0, phase=math.pi)
    x = np.linspace(-5.0, 5.0, 11)
    assert np.max(np.abs(p.sample(x) - soliton_exact(1.0, math.pi, x, 0.0))) == 0.0


def test_fingerprint_stability_and_sensitivity():
    p1 = InitialProfile(ProfileKind.SMOOTHED_STEP)
    p2 = InitialProfile(ProfileKind.SMOOTHED_STEP)
    p3 = InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=1.0 + 1e-12)
    assert fingerprint(p1) == fingerprint(p2)
    assert fingerprint(p1) != fingerprint(p3)
    assert json.loads(fingerprint(p3)) == p3.describe()
