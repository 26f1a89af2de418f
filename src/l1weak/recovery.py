"""Basis-pursuit solvers: an operator-splitting workhorse and an exact LP oracle.

``solve_bp`` solves

    min ||x||_1  subject to  A x = y            (general regime)
    min sum(x)   subject to  A x = y, x >= 0    (signed regime)

by ADMM-style operator splitting: the x-step is the exact Euclidean
projection onto {A x = y}, v - W^T (W v - c) with W = L^{-1} A and
c = L^{-1} y factored once per solve from the Cholesky factor L of A A^T
(Boyd et al. 2011, section 4.2: factorization caching); the z-step
is the l1 prox (soft threshold) or the nonnegative shifted clip, with
over-relaxation 1.8 and fixed penalty rho = 1.  The returned iterate is the
z-iterate — exactly sparse after thresholding (general) or exactly
nonnegative (signed) — and convergence additionally requires the z-iterate's
own feasibility residual to be small, so the reported solution satisfies the
feasibility invariant directly rather than through an operator-norm bound.

Given the planted vector x0 of a Monte Carlo trial, ``solve_bp`` instead
stops on a witness.  ADMM's own scaled dual makes rho * u a subgradient of
the objective at z after every z-step; projected onto range(A^T) and
corrected onto the support equations it is a strict dual certificate
(Fuchs 2004) that x0 is the unique optimum.  A feasible point strictly
below ||x0||_1 proves the opposite.  A solve that finds neither within a
fixed budget returns undecided, and the caller decides exactly.

``simplex_reference`` is the exactness oracle: the HiGHS dual simplex
(``scipy.optimize.linprog(method="highs-ds")``) on the standard split
x = t+ - t- (general) or on the nonnegative variables directly (signed).
Its vertex solutions make the objective exact, which is what the
cross-validation tolerances lean on, and it shares no code with the ADMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq, solve_triangular
from scipy.optimize import linprog, nnls

from .cert import _dual_certificate_holds
from .linalg import RankDeficiencyError, _as_matrix, _as_vector, cholesky_spd, one_blas_thread
from .threshold import Regime

__all__ = [
    "BPProblem",
    "BPSolution",
    "InfeasibleError",
    "solve_bp",
    "simplex_reference",
    "check_recovery",
]

_ADMM_RHO = 1.0
_ADMM_RELAX = 1.8
_ADMM_TOL = 1e-9
_ADMM_MAX_ITERS = 50_000
#: Iteration budget of a solve given the planted vector; past it the caller
#: decides the trial exactly.
_PLANTED_BUDGET = 2_048
_DUAL_CHECK_PERIOD = 8
_CUTOFF_CHECK_PERIOD = 64
#: Round-off margin of the primal cut below ||x0||_1.
_CUTOFF_MARGIN = 1e-6
_CUTOFF_CONE_TOL = 1e-9


class InfeasibleError(ValueError):
    """The linear program has no feasible point."""


@dataclass(frozen=True)
class BPProblem:
    """A basis-pursuit instance: matrix, measurements, sign regime."""

    A: np.ndarray
    y: np.ndarray
    regime: Regime = Regime.GENERAL

    def __post_init__(self) -> None:
        a = _as_matrix("A", self.A)
        m, n = a.shape
        if m < 1 or n < 1:
            raise ValueError(f"A must be nonempty, got shape {a.shape}")
        if m > n:
            raise ValueError(f"A must have m <= n, got shape {a.shape}")
        y = _as_vector("y", self.y, m)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "regime", Regime.coerce(self.regime))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class BPSolution:
    """Solver output: recovered vector, objective, feasibility, iteration stats.

    ``converged`` means the residual test passed; a planted solve runs no
    residual test and reports False.  ``route`` says why the solve stopped:
    "converged" or "capped" (the 50,000-iteration cap) without a planted
    vector; "dual" (x0 certified optimal), "cut" (a feasible point strictly
    below ||x0||_1) or "undecided" with one; None from the exact LP oracle.
    """

    x_hat: np.ndarray
    objective: float
    feas_residual: float
    iterations: int
    converged: bool
    route: str | None = None


@one_blas_thread
def solve_bp(problem: BPProblem, planted: np.ndarray | None = None) -> BPSolution:
    """Operator-splitting solution of the basis-pursuit problem.

    Stops when the primal residual ||x - z||, the dual residual
    rho * ||z - z_prev||, and the feasibility residual ||A z - y|| all drop
    below 1e-9 times their natural scales, or after 5*10^4 iterations
    (converged=False).  Raises a rank-deficiency error when A A^T is
    singular.

    The affine projection is factored once per solve: with L the Cholesky
    factor of A A^T, W = L^{-1} A and c = L^{-1} y, the projection of v is
    v - W^T (W v - c), two matrix-vector products per iteration.

    ``planted`` (a finite vector x0 with A x0 = y) makes the solve decide
    whether basis pursuit returns x0, on the same iterates, with no residual
    test.  A ValueError rejects an x0 whose ||A x0 - y||^2 exceeds the
    feasibility bound 1e-18 max(1, ||y||^2), since a certificate for it
    would certify a vector the problem does not have:

    - every 8 iterations, if supp(z) is supp(x0) with its signs, rho * u
      (a subgradient of the objective at z) gives nu = L^{-T} W (rho u),
      which is corrected onto A_S^T nu = sign(x0_S) through the Cholesky
      factor of A_S^T A_S; every off-support correlation at most 1 - 5e-7
      (signed regime: from above) is a strict dual certificate that x0 is
      the unique optimum (route "dual");
    - every 64 iterations, a feasible candidate with objective below
      ||x0||_1 - 1e-6 proves that x0 is not optimal (route "cut"): a
      least-squares fit on the current support, or in the signed regime
      nonnegative least squares on that support joined with supp(x0) (see
      ``_cutoff_certified``); a check whose support equals the previous
      check's is skipped, since the candidates depend on the support alone;
    - a solve that finds neither witness within a budget of 2,048
      iterations is "undecided".

    A rank-deficient A_S is never certified.  The default None leaves the
    iteration, its stop rule and its cap untouched.
    """
    a, y = problem.A, problem.y
    n = problem.n
    lower = cholesky_spd(a @ a.T)
    w = solve_triangular(lower, a, lower=True)
    c = solve_triangular(lower, y, lower=True)

    inv_rho = 1.0 / _ADMM_RHO
    signed = problem.regime is Regime.SIGNED
    max_iters = _ADMM_MAX_ITERS
    tol_sq = _ADMM_TOL * _ADMM_TOL
    feas_tol_sq = tol_sq * max(1.0, float(y @ y))
    if planted is not None:
        planted = _as_vector("planted", planted, n)
        mismatch = a @ planted - y
        if not float(mismatch @ mismatch) <= feas_tol_sq:
            raise ValueError("planted does not solve A x = y to the solver's feasibility bound")
        max_iters = _PLANTED_BUDGET
        support = np.flatnonzero(planted)
        signs = np.sign(planted[support])
        cutoff = float(np.abs(planted).sum()) - _CUTOFF_MARGIN
        a_support = a[:, support]
        try:
            support_lower = cholesky_spd(a_support.T @ a_support)
        except RankDeficiencyError:
            support_lower = None
    z = np.zeros(n)
    u = np.zeros(n)
    # The empty support never certifies, so it doubles as "nothing checked".
    checked_support = np.empty(0, dtype=np.intp)
    iterations = 0
    route = "capped" if planted is None else "undecided"
    for iterations in range(1, max_iters + 1):
        v = z - u
        x = v - w.T @ (w @ v - c)
        x_relaxed = _ADMM_RELAX * x + (1.0 - _ADMM_RELAX) * z
        step = x_relaxed + u
        z_prev = z
        if signed:
            z = np.maximum(0.0, step - inv_rho)
        else:
            z = step - np.clip(step, -inv_rho, inv_rho)
        u = u + x_relaxed - z

        if planted is None:
            primal = x - z
            dual = z - z_prev
            scale_sq = tol_sq * max(1.0, float(x @ x), float(z @ z))
            if (
                float(primal @ primal) <= scale_sq
                and _ADMM_RHO * _ADMM_RHO * float(dual @ dual) <= scale_sq
            ):
                residual = a @ z - y
                if float(residual @ residual) <= feas_tol_sq:
                    route = "converged"
                    break
            continue
        if (
            iterations % _DUAL_CHECK_PERIOD == 0
            and support_lower is not None
            and np.count_nonzero(z) == support.size
            and np.all(z[support] * signs > 0.0)
        ):
            nu = solve_triangular(lower, w @ (_ADMM_RHO * u), lower=True, trans="T")
            if _dual_certificate_holds(a, support, support_lower, nu, signs, signed):
                route = "dual"
                break
        if iterations % _CUTOFF_CHECK_PERIOD == 0:
            current = np.flatnonzero(z)
            if not np.array_equal(current, checked_support):
                checked_support = current
                if _cutoff_certified(a, y, w, c, current, support, signed, cutoff):
                    route = "cut"
                    break

    feas = float(np.linalg.norm(a @ z - y))
    return BPSolution(
        x_hat=z,
        objective=float(np.abs(z).sum()),
        feas_residual=feas,
        iterations=iterations,
        converged=route == "converged",
        route=route,
    )


def _cutoff_certified(
    a: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    c: np.ndarray,
    support: np.ndarray,
    planted_support: np.ndarray,
    signed: bool,
    cutoff: float,
) -> bool:
    """True when a feasible point with objective strictly below ``cutoff`` exists.

    The z-iterate is exactly sparse after its prox step, so its support is a
    candidate optimal basis: least-squares fit y on those columns (QR with
    column pivoting), skipped when the support is wider than m.  In the
    signed regime a rejected fit, or a skipped one, gets a second candidate
    when supp(z) is not inside the planted support S: nonnegative least
    squares on the columns supp(z) | S.  Since x0 >= 0 lives on S, that
    problem has a zero-residual solution, and NNLS returns a nonnegative
    one that may also use the iterate's columns.  An NNLS that reaches its
    iteration limit gives no candidate.

    Each candidate is embedded and sent through one affine projection (the
    solver's W = L^{-1} A, c = L^{-1} y), which makes it feasible to machine
    precision.  One below the cutoff (nonnegative to 1e-9 in the signed
    regime) upper-bounds the optimum regardless of where the iterate
    eventually converges.
    """
    if 0 < support.size <= a.shape[0]:
        coeffs = lstsq(a[:, support], y, lapack_driver="gelsy", check_finite=False)[0]
        if _candidate_below(w, c, support, coeffs, signed, cutoff):
            return True
    if not signed:
        return False
    union = np.union1d(support, planted_support)
    if union.size == planted_support.size:
        return False
    try:
        coeffs = nnls(a[:, union], y)[0]
    except RuntimeError:
        return False
    return _candidate_below(w, c, union, coeffs, signed, cutoff)


def _candidate_below(
    w: np.ndarray,
    c: np.ndarray,
    columns: np.ndarray,
    coeffs: np.ndarray,
    signed: bool,
    cutoff: float,
) -> bool:
    """Embed ``coeffs`` on ``columns``, project onto A x = y, compare to ``cutoff``."""
    candidate = np.zeros(w.shape[1])
    candidate[columns] = coeffs
    candidate -= w.T @ (w @ candidate - c)
    if signed:
        if float(candidate.min()) < -_CUTOFF_CONE_TOL:
            return False
        return float(candidate.sum()) < cutoff
    return float(np.abs(candidate).sum()) < cutoff


def simplex_reference(problem: BPProblem) -> BPSolution:
    """Exact vertex solution of the basis-pursuit LP by the HiGHS dual simplex.

    General regime solves min 1^T (t+ + t-) s.t. A(t+ - t-) = y, t± >= 0 and
    returns x = t+ - t-; the signed regime solves min 1^T x, A x = y, x >= 0
    directly.  ``iterations`` is the simplex iteration count.  Raises
    :class:`InfeasibleError` when HiGHS proves the LP infeasible and
    ``RuntimeError`` on any other unsuccessful status.
    """
    a, y = problem.A, problem.y
    signed = problem.regime is Regime.SIGNED
    columns = a if signed else np.hstack([a, -a])
    result = linprog(
        np.ones(columns.shape[1]),
        A_eq=columns,
        b_eq=y,
        bounds=(0, None),
        method="highs-ds",
    )
    if result.status == 2:
        raise InfeasibleError(f"no feasible point: {result.message}")
    if result.status != 0:
        raise RuntimeError(f"simplex oracle failed: {result.message}")
    x = result.x if signed else result.x[: problem.n] - result.x[problem.n :]
    return BPSolution(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        feas_residual=float(np.linalg.norm(a @ x - y)),
        iterations=int(result.nit),
        converged=True,
    )


def check_recovery(x0, sol: BPSolution, tol: float = 1e-4) -> bool:
    """True iff the solution converged and matches x0 coordinatewise.

    The comparison scale is tol * max(1, ||x0||_inf); at desk sizes this
    separates the success and failure clusters by orders of magnitude.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    x_hat = np.asarray(sol.x_hat, dtype=float).ravel()
    if x0.size != x_hat.size:
        raise ValueError(f"dimension mismatch: x0 has {x0.size}, x_hat has {x_hat.size}")
    if not sol.converged:
        return False
    bound = tol * max(1.0, float(np.abs(x0).max()))
    return float(np.abs(x_hat - x0).max()) <= bound
