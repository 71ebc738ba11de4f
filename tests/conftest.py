"""Session-scoped spectral-data fixtures shared across test modules.

Each fixture runs the full direct-scattering pipeline once per session;
the heavier consumers (phase functionals, wedge predictions, acceptance
suite) all reuse the same objects.  An autouse check fails the session if
any test leaves a child process behind, running or unreaped.
"""

import math
import os

import numpy as np
import pytest

from nnlswedge.profiles import InitialProfile, ProfileKind
from nnlswedge.scattering import compute_spectral_data


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fail the session if a child process outlives it (the Jost sweep forks
    one per call and must reap it); a zombie found here is reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    state = "still running" if pid == 0 else f"left unreaped (pid {pid}, status {status})"
    pytest.fail(f"a test left a child process behind: {state}")


@pytest.fixture(scope="session")
def sd_pure_a1():
    return compute_spectral_data(InitialProfile(ProfileKind.PURE_STEP, amplitude=1.0))


@pytest.fixture(scope="session")
def sd_pure_a2():
    return compute_spectral_data(InitialProfile(ProfileKind.PURE_STEP, amplitude=2.0))


@pytest.fixture(scope="session")
def sd_smoothed():
    return compute_spectral_data(InitialProfile(ProfileKind.SMOOTHED_STEP))


@pytest.fixture(scope="session")
def sd_perturbed():
    """Smoothed step with the mirror-symmetry-breaking complex bump."""
    profile = InitialProfile(
        ProfileKind.SMOOTHED_STEP,
        bump_amplitude=0.15 * np.exp(0.7j),
        bump_center=1.5,
        bump_width=1.2,
    )
    return compute_spectral_data(profile)


@pytest.fixture(scope="session")
def sd_soliton():
    """Numerically scattered one-soliton snapshot (clamp widened so the
    truncation tail stays well below the reflection tolerance)."""
    profile = InitialProfile(
        ProfileKind.SOLITON_SNAPSHOT, amplitude=1.0, phase=math.pi, radius=26.0
    )
    return compute_spectral_data(profile)
