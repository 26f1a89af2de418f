"""Weak thresholds of l1 minimization: curves, certificates, solvers, experiments.

The package answers three questions about sparse recovery by l1 minimization
(basis pursuit) with Gaussian measurements:

- where is the asymptotic success/failure boundary?  (:mod:`l1weak.threshold`
  solves the weak-threshold characterization equations for the general and
  signed regimes);
- does a *concrete* matrix succeed or fail on a given support/sign pattern?
  (:mod:`l1weak.cert` computes the null-space certificate tau(A), classifies
  the instance, and constructs explicit counterexamples on failure);
- do finite-size experiments agree?  (:mod:`l1weak.recovery` solves basis
  pursuit, :mod:`l1weak.experiments` runs reproducible Monte Carlo phase
  grids and water-level estimates, :mod:`l1weak.cli` serializes everything).
"""

from . import cert, experiments, recovery, specfn, threshold
from .cert import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .linalg import RankDeficiencyError
from .recovery import *  # noqa: F401,F403
from .specfn import *  # noqa: F401,F403
from .threshold import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *specfn.__all__,
    "RankDeficiencyError",
    *threshold.__all__,
    *cert.__all__,
    *recovery.__all__,
    *experiments.__all__,
]
