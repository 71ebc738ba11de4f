"""
Matching the wedge onto straight rays
=====================================

As the wedge exponent approaches one the curved ray x^(2 - alpha) = 4st
straightens into x = 4st', and the wedge prediction must match the
known straight-ray asymptotics: the slow phase closes onto its limit,
the fast-oscillation coefficient tends to 4 s^2 exactly, and the
mirror-side magnitude dies like t^(-1/2).
"""

from nnlswedge.scattering import synthetic_case_i, synthetic_case_ii
from nnlswedge.wedge import matching_check, matching_ladder

# Hold x^(2 - alpha)/(4t) fixed while alpha -> 1; matching_ladder builds
# the rungs, each at the time that keeps (1 - alpha) ln t pinned, so the
# limit is approached along a controlled path, and matching_check runs them.
sd = synthetic_case_i()
mode, rungs = matching_ladder(1.0, [0.9, 0.99, 0.999], hold_product=1.0)
report = matching_check(sd, mode, rungs)
print(f"case {report.case}, s = {report.s}, mode = {report.mode}")
print("alpha      ln t      phase residual")
for row in report.rows:
    print(f"{row.alpha:<8} {row.ln_t:9.1f}   {row.phase_residual:.6f}")

# The coefficient of the fast phase is evaluated in the limit and
# against the closed form 4 s^2 -- an exact statement, not a fit.
print(f"\nfast coefficient, limit    {report.oscillation_coefficient_limit}")
print(f"fast coefficient, closed   {report.oscillation_coefficient_expected}")

# The mirror side of the same rays decays with a fitted exponent that
# should match the straight-ray value -1/2.
print(f"mirror-side fitted t-exponent  {report.mirror_exponent:.4f}")

# In the degenerate case the mirror-side amplitude also locks its sign:
# the ratio against the direct side tends to -1.
sd2 = synthetic_case_ii()
report2 = matching_check(sd2, mode, rungs)
print(f"degenerate-case mirror amplitude ratio "
      f"{report2.mirror_amplitude_ratio:.4f}")
