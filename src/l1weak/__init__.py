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

from .cert import (
    CERTIFIED_FAILURE,
    CERTIFIED_SUCCESS,
    INCONCLUSIVE,
    CertificateCheck,
    NspVerdict,
    SupportPattern,
    TauCertificate,
    classify_nsp,
    construct_counterexample,
    nullspace_objective,
    tau_dual,
    tau_primal_oracle,
    verify_certificate,
)
from .experiments import (
    CounterStream,
    FrameworkResult,
    FrameworkSample,
    PhaseCell,
    PhaseGrid,
    TrialDiagnostics,
    draw_framework_sample,
    estimate_transition,
    framework_cw,
    run_framework,
    run_phase_grid,
    run_trial,
    split_stream_seed,
)
from .linalg import RankDeficiencyError
from .recovery import (
    BPProblem,
    BPSolution,
    InfeasibleError,
    check_recovery,
    simplex_reference,
    solve_bp,
)
from .specfn import DomainError, erfinv
from .threshold import (
    BracketError,
    EpsilonSet,
    Regime,
    ThresholdPoint,
    alpha_bound,
    alpha_w,
    char_residual,
    solve_theta,
    threshold_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfn
    "DomainError",
    "erfinv",
    # linalg
    "RankDeficiencyError",
    # threshold
    "Regime",
    "EpsilonSet",
    "ThresholdPoint",
    "BracketError",
    "char_residual",
    "solve_theta",
    "alpha_w",
    "alpha_bound",
    "threshold_curve",
    # cert
    "SupportPattern",
    "TauCertificate",
    "NspVerdict",
    "CertificateCheck",
    "CERTIFIED_FAILURE",
    "CERTIFIED_SUCCESS",
    "INCONCLUSIVE",
    "nullspace_objective",
    "tau_dual",
    "tau_primal_oracle",
    "classify_nsp",
    "construct_counterexample",
    "verify_certificate",
    # recovery
    "BPProblem",
    "BPSolution",
    "InfeasibleError",
    "solve_bp",
    "simplex_reference",
    "check_recovery",
    # experiments
    "CounterStream",
    "TrialDiagnostics",
    "PhaseGrid",
    "PhaseCell",
    "FrameworkSample",
    "FrameworkResult",
    "split_stream_seed",
    "run_trial",
    "run_phase_grid",
    "estimate_transition",
    "draw_framework_sample",
    "framework_cw",
    "run_framework",
]
