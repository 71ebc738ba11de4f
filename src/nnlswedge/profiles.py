"""Step-like initial conditions and the exact one-soliton reference.

All profiles interpolate between the zero background on the far left and
a constant positive level ``amplitude`` on the far right, and are clamped
to exactly ``0`` / ``amplitude`` outside ``[-radius, radius]`` so that
truncated-domain computations (Jost integration, finite-difference
evolution) see mathematically exact boundary saturation.

An optional localized complex Gaussian bump can be superimposed on the
transition region.  It is off by default; switching it on breaks the
mirror symmetry ``q(x) + q(-x) = amplitude`` of the plain profiles,
which is what generic-rate studies of the small-wavenumber behaviour
need.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "ProfileKind",
    "InitialProfile",
    "SolitonPoleError",
    "soliton_exact",
    "fingerprint",
]

# e-folds of an exponential tail that the finely stepped core of the Jost
# sweep resolves (InitialProfile.core_halfwidth)
_CORE_DECAY = 18.0


class ProfileKind(str, Enum):
    """Shape family of the initial condition."""

    PURE_STEP = "pure-step"
    SMOOTHED_STEP = "smoothed-step"
    COMPACT_STEP = "compact-step"
    SOLITON_SNAPSHOT = "soliton-snapshot"


class DomainError(Exception):
    """Base class of the package's domain errors: the data or the run left
    the range the mathematics covers (the CLI reports these as
    ``error: <Class>: <message>`` with exit code 3).  Each subclass also
    keeps its builtin base, so ``except ValueError`` and the like still
    catch it."""


class SolitonPoleError(DomainError, ValueError):
    """Raised when the soliton denominator vanishes on the requested set."""


@dataclass(frozen=True)
class InitialProfile:
    """A step-like initial condition ``q(x, 0)``.

    Parameters
    ----------
    kind:
        Shape family; see :class:`ProfileKind`.
    amplitude:
        Right background level ``A > 0``.
    width:
        Transition length scale: the ``tanh`` scale of the smoothed
        step, or the half-support of the compact ramp.  Ignored by the
        pure step and the soliton snapshot.
    radius:
        Clamp radius: the profile equals exactly ``0`` for
        ``x <= -radius`` and exactly ``amplitude`` for ``x >= radius``.
    phase:
        Soliton carrier phase (soliton snapshot only).
    bump_amplitude, bump_center, bump_width:
        Optional complex Gaussian perturbation
        ``bump_amplitude * exp(-((x - bump_center)/bump_width)**2)``
        added inside the clamp window.  Zero amplitude disables it.
    """

    kind: ProfileKind
    amplitude: float = 1.0
    width: float = 1.0
    radius: float = 20.0
    phase: float = 0.0
    bump_amplitude: complex = 0.0 + 0.0j
    bump_center: float = 1.5
    bump_width: float = 1.2

    def __post_init__(self) -> None:
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if self.bump_width <= 0:
            raise ValueError("bump_width must be positive")
        kind = ProfileKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bump_amplitude", complex(self.bump_amplitude))
        if kind is ProfileKind.SMOOTHED_STEP and not self.width > 0:
            raise ValueError("smoothed step requires width > 0")
        if kind is ProfileKind.COMPACT_STEP:
            if not self.width > 0:
                raise ValueError("compact step requires width > 0")
            if self.width > self.radius:
                raise ValueError("compact step support must fit inside the clamp radius")
        if kind is ProfileKind.SOLITON_SNAPSHOT:
            wrapped = np.angle(np.exp(1j * self.phase))
            if abs(wrapped) < 1e-6:
                raise SolitonPoleError(
                    "soliton snapshot with phase ~ 0 (mod 2 pi) has a pole at x = 0"
                )

    # -- evaluation ---------------------------------------------------------

    def sample(self, x) -> np.ndarray:
        """Profile values on ``x`` (scalar or array), complex dtype."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        a = self.amplitude
        if self.kind is ProfileKind.PURE_STEP:
            q = np.where(x > 0, a, 0.0).astype(complex)
            q[x == 0.0] = 0.5 * a
        elif self.kind is ProfileKind.SMOOTHED_STEP:
            q = (0.5 * a * (1.0 + np.tanh(x / self.width))).astype(complex)
        elif self.kind is ProfileKind.COMPACT_STEP:
            u = np.clip((x + self.width) / (2.0 * self.width), 0.0, 1.0)
            q = (a * u * u * (3.0 - 2.0 * u)).astype(complex)
        else:  # SOLITON_SNAPSHOT
            q = soliton_exact(a, self.phase, x, 0.0)
        if self.bump_amplitude != 0:
            arg = (x - self.bump_center) / self.bump_width
            q = q + self.bump_amplitude * np.exp(-arg * arg)
        q = np.where(x <= -self.radius, 0.0 + 0.0j, q)
        q = np.where(x >= self.radius, a + 0.0j, q)
        return q[0] if scalar else q

    @property
    def core_halfwidth(self) -> float:
        """Half-width of the region where the profile actually varies.

        The smoothed step approaches its levels like ``exp(-2 |x| / width)``
        and the soliton snapshot like ``exp(-A |x|)``, so both cores end at
        ``_CORE_DECAY / rate``: ``9 width`` and ``18 / A``, where the tails are
        down by ``e^{-18}`` (1.5e-8).  At phase pi the snapshot
        ``A / (1 + e^{-A x})`` is the smoothed step of width ``2 / A``.  The
        pure and compact steps are constant outside a known support.
        """
        if self.kind is ProfileKind.PURE_STEP:
            base = 1.0
        elif self.kind is ProfileKind.SMOOTHED_STEP:
            base = 0.5 * _CORE_DECAY * self.width
        elif self.kind is ProfileKind.COMPACT_STEP:
            base = self.width + 0.5
        else:
            base = _CORE_DECAY / self.amplitude
        if self.bump_amplitude != 0:
            base = max(base, abs(self.bump_center) + 7.0 * self.bump_width)
        return min(self.radius, base)

    # -- identity -----------------------------------------------------------

    def describe(self) -> dict:
        """Canonical, JSON-stable field dictionary."""
        return {
            "kind": self.kind.value,
            "amplitude": float(self.amplitude),
            "width": float(self.width),
            "radius": float(self.radius),
            "phase": float(self.phase),
            "bump_amplitude": [self.bump_amplitude.real, self.bump_amplitude.imag],
            "bump_center": float(self.bump_center),
            "bump_width": float(self.bump_width),
        }


def soliton_exact(amplitude: float, phase: float, x, t) -> np.ndarray:
    """Exact one-soliton solution on the step background.

    ``q(x, t) = A / (1 - exp(-A x - i A^2 t + i phase))``; it tends to
    ``0`` on the left, ``A`` on the right, and solves the mirror-coupled
    equation exactly.  Raises :class:`SolitonPoleError` when the
    denominator magnitude drops below ``1e-8`` anywhere on the requested
    set, since values there are dominated by the nearby pole.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    # clip the real exponent: beyond +-700 the denominator saturates anyway
    expo = np.clip(-amplitude * x, -745.0, 700.0)
    denom = 1.0 - np.exp(expo - 1j * amplitude**2 * t + 1j * phase)
    bad = np.abs(denom) < 1e-8
    if np.any(bad):
        raise SolitonPoleError(
            f"soliton denominator vanishes near x={x[bad][0]:.6g}, t={t:.6g}"
        )
    q = amplitude / denom
    return q[0] if scalar else q


def fingerprint(profile: InitialProfile) -> str:
    """Canonical JSON of ``profile.describe()`` identifying the profile
    (used for cache keys).  The description itself, not a digest of it:
    two profiles share a fingerprint only if they describe alike, and no
    hash library (OpenSSL) is loaded for it."""
    return json.dumps(profile.describe(), sort_keys=True, separators=(",", ":"))
