"""Long-time wedge asymptotics for the integrable nonlocal Schrodinger
equation with a one-sided step background.

Subpackage map:

* :mod:`nnlswedge.specfun` -- adaptive Gauss-Kronrod quadrature;
* :mod:`nnlswedge.profiles` -- step-like initial conditions and the exact
  soliton reference solution;
* :mod:`nnlswedge.scattering` -- direct scattering at time zero: Jost
  solutions, scattering matrix, small-k limits, case classification;
* :mod:`nnlswedge.phases` -- wedge-point geometry and the branch-tracked
  phase functionals of the reflection-coefficient product, by direct
  quadrature, with the constants of their large-time forms;
* :mod:`nnlswedge.wedge` -- the wedge ledger (the one large-time expansion
  of the phases) and the leading-order and first-correction predictions of
  the field inside the spreading wedge;
* :mod:`nnlswedge.pde` -- direct evolution of the mirror-coupled equation
  (ETDRK4 on a sine basis) for comparison against the predictions;
* :mod:`nnlswedge.harness` -- configuration-file driven command-line
  workflows (scatter / predict / compare / match).
"""

__version__ = "0.1.0"
