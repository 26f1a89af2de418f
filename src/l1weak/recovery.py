"""Basis-pursuit solvers: an operator-splitting workhorse and an exact LP oracle.

``solve_bp`` solves

    min ||x||_1  subject to  A x = y            (general regime)
    min sum(x)   subject to  A x = y, x >= 0    (signed regime)

by ADMM-style operator splitting: the x-step is the exact Euclidean
projection onto {A x = y}, v - W^T (W v - c) with W = L^{-1} A and
c = L^{-1} y factored once per solve from the Cholesky factor L of A A^T
(Boyd et al. 2011, section 4.2: factorization caching); the z-step
is the l1 prox (soft threshold) or the nonnegative shifted clip, with
over-relaxation 1.8 and a fixed penalty rho per regime, 0.75 (general) and
4 (signed).  Rho moves only the iteration at which a witness appears, never
which witness exists; on the n = 200 phase grids the signed regime reaches
its witnesses in about half the iterations at rho = 4 that it needs at
rho = 1 (Boyd et al. 2011, section 3.4.1, on the penalty's effect on
convergence).

Every solve has one stop rule: a witness, or its budget.  ADMM's own scaled
dual makes rho * u a subgradient of the objective at z after every z-step;
projected onto range(A^T) and corrected onto the equations of a support S it
is a strict dual certificate (Fuchs 2004) that the feasible point on S is
the unique optimum.  Without a planted vector, S is the iterate's support and
the point is the fit of y on those columns; a certified fit is returned as
an exact vertex, and a solve with no certificate within its budget returns
the exact LP oracle's vertex instead.  Given the planted vector x0 of a
Monte Carlo trial, S is x0's support, and a feasible point strictly below
||x0||_1 proves the opposite; a solve that finds neither witness within its
budget returns undecided, and the caller decides exactly.  No answer rests
on a residual tolerance or on where an iteration cap cut the iterate off.

``simplex_reference`` is the exactness oracle: the HiGHS dual simplex
(``scipy.optimize.linprog(method="highs-ds")``) on the standard split
x = t+ - t- (general) or on the nonnegative variables directly (signed).
Its vertex solutions make the objective exact, which is what the
cross-validation tolerances lean on, and it shares no solver code with the
ADMM.  Since ``solve_bp`` falls back on it, a cross-check of the two means
something only for a solve that ends on route "vertex".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve, lstsq, solve_triangular
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

#: Penalty per regime.  Rho moves only how fast a solve finds its witness,
#: never which witness exists; these values come from a sweep over the
#: seed-11 criterion-5 grids at n = 200.
_RHO = {Regime.GENERAL: 0.75, Regime.SIGNED: 4.0}
_ADMM_RELAX = 1.8
#: Relative feasibility tolerance of a certified point: ||A x - y||^2 is at
#: most its square times max(1, ||y||^2).
_FEAS_TOL = 1e-9
#: Iteration budget of every solve; past it the solve (or, given a planted
#: vector, its caller) decides exactly.
_BUDGET = 2_048
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
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "y", _as_vector("y", self.y, m))
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

    ``route`` says why the solve stopped.  Without a planted vector: "vertex"
    (a fit on supp(z) carries a strict dual certificate, so x_hat is the
    unique optimum) or "exact" (no certificate within the budget; x_hat is
    the HiGHS vertex and ``iterations`` counts the operator-splitting
    iterations spent).  With one: "dual" (x0 certified the unique optimum),
    "cut" (a feasible point strictly below ||x0||_1) or "undecided"; x_hat is
    then the z-iterate.  None from the exact LP oracle itself.
    ``converged``, read from the route, means x_hat is an optimum: True for
    "vertex", "exact" and the LP oracle, False for a planted solve.
    """

    x_hat: np.ndarray
    objective: float
    feas_residual: float
    iterations: int
    route: str | None = None

    @property
    def converged(self) -> bool:
        return self.route in (None, "vertex", "exact")


@one_blas_thread
def solve_bp(problem: BPProblem, planted: np.ndarray | None = None) -> BPSolution:
    """Operator-splitting solution of the basis-pursuit problem, stopped by a witness.

    The affine projection is factored once per solve: with L the Cholesky
    factor of A A^T, W = L^{-1} A and c = L^{-1} y, the projection of v is
    v - W^T (W v - c), two matrix-vector products per iteration.  The
    penalty is the regime's rho, 0.75 (general) or 4 (signed), and every
    solve has a budget of 2,048 iterations.  Raises a rank-deficiency error
    when A A^T is singular.

    A support S with signs s is a candidate when A_S is injective and the
    fit x_S of y on A_S, solved through the Cholesky factor of A_S^T A_S,
    meets the feasibility bound ||A_S x_S - y||^2 <= 1e-18 max(1, ||y||^2)
    with sign(x_S) = s.  Every 8 iterations while supp(z) is S with the
    signs s, rho * u (a subgradient of the objective at z) gives
    nu = L^{-T} W (rho u), which is corrected onto A_S^T nu = s; every
    off-support correlation at most 1 - 5e-7 (signed regime: from above) is
    a strict dual certificate (Fuchs 2004) that x_S is the unique optimum.

    Without ``planted``, S = supp(z) and s = sign(z_S), refitted only when
    supp(z) changes; s = sign(z_S) makes x_S > 0 in the signed regime.  A
    certificate returns x_S (route "vertex").  A solve with no certificate
    within the budget returns ``simplex_reference``'s exact vertex (route
    "exact", with the operator-splitting iterations spent), which raises
    :class:`InfeasibleError` on infeasible data.

    ``planted`` (a finite vector x0 within the feasibility bound, else a
    ValueError) makes the solve decide whether basis pursuit returns x0
    instead, on S = supp(x0) with its signs, where x_S is x0_S:

    - a dual certificate proves that x0 is the unique optimum (route "dual");
    - every 64 iterations, a feasible candidate with objective below
      ||x0||_1 - 1e-6 proves that x0 is not optimal (route "cut"): a
      least-squares fit on the current support, or in the signed regime
      nonnegative least squares on that support joined with supp(x0) (see
      ``_cutoff_certified``); a check whose support equals the previous
      check's is skipped, since the candidates depend on the support alone;
    - a solve that finds neither witness within the budget is "undecided",
      and the caller decides exactly.  It returns the z-iterate.
    """
    a, y = problem.A, problem.y
    n = problem.n
    lower = cholesky_spd(a @ a.T)
    w = solve_triangular(lower, a, lower=True)
    c = solve_triangular(lower, y, lower=True)

    rho = _RHO[problem.regime]
    signed = problem.regime is Regime.SIGNED
    feas_tol_sq = _FEAS_TOL * _FEAS_TOL * max(1.0, float(y @ y))
    support_lower = support = None
    if planted is not None:
        planted = _as_vector("planted", planted, n)
        mismatch = a @ planted - y
        if not float(mismatch @ mismatch) <= feas_tol_sq:
            raise ValueError("planted does not solve A x = y to the solver's feasibility bound")
        support = np.flatnonzero(planted)
        signs = np.sign(planted[support])
        cutoff = float(np.abs(planted).sum()) - _CUTOFF_MARGIN
        support_lower, _ = _vertex_fit(a, y, support, signs, feas_tol_sq)
    inv_rho = 1.0 / rho
    # Preallocated iterates: every step writes into its buffer with ``out=``
    # in the order of the plain expressions, so the iterates are bit-identical
    # to them; z and z_prev swap buffers instead of copying.
    z = np.zeros(n)
    z_prev = np.empty(n)
    u = np.zeros(n)
    v = np.empty(n)
    x = np.empty(n)
    x_relaxed = np.empty(n)
    step = np.empty(n)
    residual_m = np.empty(problem.m)
    w_t = w.T
    relax_rest = 1.0 - _ADMM_RELAX
    checked_support = None
    route = "exact" if planted is None else "undecided"
    for iterations in range(1, _BUDGET + 1):
        # v = z - u;  x = v - W^T (W v - c)
        np.subtract(z, u, out=v)
        np.matmul(w, v, out=residual_m)
        residual_m -= c
        np.matmul(w_t, residual_m, out=x)
        np.subtract(v, x, out=x)
        # x_relaxed = relax x + (1 - relax) z;  step = x_relaxed + u
        np.multiply(x, _ADMM_RELAX, out=x_relaxed)
        np.multiply(z, relax_rest, out=step)
        x_relaxed += step
        np.add(x_relaxed, u, out=step)
        z, z_prev = z_prev, z
        if signed:
            np.subtract(step, inv_rho, out=z)
            np.maximum(0.0, z, out=z)
        else:
            # np.clip(step, -inv_rho, inv_rho) as two ufuncs, without its
            # Python-level wrapper; the values are the same.
            np.maximum(step, -inv_rho, out=z)
            np.minimum(z, inv_rho, out=z)
            np.subtract(step, z, out=z)
        # u = u + x_relaxed - z
        u += x_relaxed
        u -= z

        if iterations % _DUAL_CHECK_PERIOD:
            continue
        if planted is None:
            current = np.flatnonzero(z)
            if not np.array_equal(current, support):
                support, signs = current, np.sign(z[current])
                support_lower, coeffs = _vertex_fit(a, y, support, signs, feas_tol_sq)
        if (
            support_lower is not None
            and np.count_nonzero(z) == support.size
            and np.all(z[support] * signs > 0.0)
        ):
            nu = solve_triangular(lower, w @ (rho * u), lower=True, trans="T")
            if _dual_certificate_holds(a, support, support_lower, nu, signs, signed):
                route = "dual" if planted is not None else "vertex"
                break
        if planted is not None and iterations % _CUTOFF_CHECK_PERIOD == 0:
            current = np.flatnonzero(z)
            if not np.array_equal(current, checked_support):
                checked_support = current
                if _cutoff_certified(a, y, w, c, current, support, signed, cutoff):
                    route = "cut"
                    break

    if route == "exact":
        return replace(simplex_reference(problem), iterations=iterations, route=route)
    if route == "vertex":
        z = np.zeros(n)
        z[support] = coeffs
    return _solution(problem, z, iterations, route)


def _solution(problem: BPProblem, x, iterations: int, route=None) -> BPSolution:
    """``x`` with its l1 norm and its feasibility residual ||A x - y||."""
    return BPSolution(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        feas_residual=float(np.linalg.norm(problem.A @ x - problem.y)),
        iterations=iterations,
        route=route,
    )


def _vertex_fit(
    a: np.ndarray, y: np.ndarray, support: np.ndarray, signs: np.ndarray, feas_tol_sq: float
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Cholesky factor of A_S^T A_S and the fit x_S of y on A_S, or (None, None).

    The fit solves the normal equations through that factor.  It is kept only
    when ||A_S x_S - y||^2 <= ``feas_tol_sq`` and sign(x_S) = ``signs``: a
    fit off A x = y, which a y outside range(A_S) gives, is no candidate
    however well its signs match.  A support wider than m, or a rank-deficient
    A_S, gives none.
    """
    if support.size <= a.shape[0]:
        a_support = a[:, support]
        try:
            support_lower = cholesky_spd(a_support.T @ a_support)
        except RankDeficiencyError:
            return None, None
        coeffs = cho_solve((support_lower, True), a_support.T @ y)
        residual = a_support @ coeffs - y
        if float(residual @ residual) <= feas_tol_sq and np.all(coeffs * signs > 0.0):
            return support_lower, coeffs
    return None, None


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
    return _solution(problem, x, int(result.nit))


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
