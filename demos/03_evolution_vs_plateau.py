"""
Direct evolution against the predicted plateau
==============================================

Integrate the field equation directly and compare against the two
anchors the solver is graded on: an exact one-soliton snapshot (machine
accuracy over a unit step of time) and the predicted plateau level on a
wedge ray for a smoothed step -- up to the finite-time pole that caps
how far step-like data can be evolved.
"""

import math

import numpy as np

from nnlswedge.pde import evolve, interpolate_field, symmetric_grid
from nnlswedge.profiles import InitialProfile, ProfileKind, soliton_exact
from nnlswedge.scattering import compute_spectral_data
from nnlswedge.wedge import amplitude_Q, wedge_point

# --- the solver against an exact solution -------------------------------
# The standing soliton on a unit background is exact and regular for
# phase pi, so the numerical error is pure discretization.
grid = symmetric_grid(40.0, 0.02)
res = evolve(lambda x: soliton_exact(1.0, math.pi, x, 0.0), grid, 1.0)
err = np.max(np.abs(res.final.q - soliton_exact(1.0, math.pi, grid.x, 1.0)))
print(f"soliton run: max error at t = 1 is {err:.2e}")

# --- a smoothed step toward its plateau ---------------------------------
# The plateau level Q comes from scattering, not from the evolution.
prof = InitialProfile(ProfileKind.SMOOTHED_STEP, amplitude=1.0, width=1.0)
level = amplitude_Q(compute_spectral_data(prof))
print(f"\nsmoothed step: predicted plateau level Q = {level:.6f}")

# Evolve as far as step-like data allows.  The continuum solution has a
# pole at t ~ 2.8 (its onset converges under grid refinement and scales
# like 1/A^2), so the reachable window ends just short of it.
grid = symmetric_grid(120.0, 0.08)
times = (1.2, 1.6, 2.0, 2.3, 2.6)
res = evolve(prof.sample(grid.x), grid, 2.6, snapshot_times=times)

# Sample |q| on the wedge ray x = (4 s t)^(1/(2 - alpha)) and print the
# distance from the plateau: the approach is oscillatory at these short
# times, passing through the plateau near t = 2 rather than settling.
alpha, s = 0.8, 1.0
print("distance from the plateau on the alpha = 0.8, s = 1 ray:")
for snap in res.snapshots:
    x = wedge_point(alpha, s, snap.t).x
    q_ray = interpolate_field(grid, snap.q, x)
    print(f"  t = {snap.t:3.1f}   x = {x:6.2f}   | |q| - Q | = "
          f"{abs(abs(q_ray) - level):.4f}")

print("\nboundary drift over the run: "
      f"left {res.final.left_drift:.1e}, right {res.final.right_drift:.1e}")
