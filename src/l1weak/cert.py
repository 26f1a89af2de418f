"""Null-space certificates deciding l1 recovery for a concrete matrix.

For a measurement matrix A and a fixed support/sign pattern, exact recovery
of every sparse vector with that pattern by l1 minimization is equivalent to
a strict inequality holding over all nonzero null vectors of A.  The single
number

    tau(A) = min { phi(w) : w in null(A), ||w||_2 <= 1 }

decides it, where phi is the pattern's null-space functional (head = off
support, tail = support, after canonicalization):

- general regime:  phi(w) = sum(|w_head|) - sum(w_tail), w free;
- signed  regime:  phi(w) = sum(w_head) + sum(w_tail),   w_head >= 0.

tau < 0 exhibits a null vector that defeats recovery (and
:func:`construct_counterexample` turns it into a concrete sparse vector the
solver provably misses).  tau = 0 alone cannot separate strict success from
ties, so success is certified by a strict dual certificate (Fuchs 2004;
Foucart & Rauhut 2013, Thm 4.30): A_S is injective and some nu has
A_S^T nu = s and ||A_{S^c}^T nu||_inf < 1 (signed regime: the one-sided max
instead of the inf-norm).

The production solver :func:`tau_dual` uses the dual form of tau: minus the
Euclidean distance between range(A^T) and a box slice Z (head coordinates
box-constrained, tail coordinates pinned at the pattern signs), computed by
an exact bound-constrained least-squares solve in the box slacks, with
alternating projections only as the fallback when that solve does not reach
machine-level KKT residuals.  An independent primal oracle
(:func:`tau_primal_oracle`, exact conic projection when a descending null
direction exists, 0 otherwise) cross-checks it; :func:`classify_nsp`
combines tau with the strict dual certificate into a three-way verdict and
:func:`verify_certificate` re-checks every claim a certificate makes from
scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import lsq_linear as _lsq_linear
from scipy.optimize import nnls as _nnls

from .linalg import (
    RankDeficiencyError,
    RowspaceProjector,
    _as_matrix,
    _as_vector,
    cholesky_spd,
    nullspace_basis,
)
from .threshold import Regime

__all__ = [
    "SupportPattern",
    "Canonicalization",
    "TauCertificate",
    "NspVerdict",
    "CertificateCheck",
    "CERTIFIED_FAILURE",
    "CERTIFIED_SUCCESS",
    "INCONCLUSIVE",
    "canonicalize",
    "nullspace_objective",
    "tau_dual",
    "tau_primal_oracle",
    "classify_nsp",
    "construct_counterexample",
    "verify_certificate",
]

CERTIFIED_FAILURE = "certified_failure"
CERTIFIED_SUCCESS = "certified_success"
INCONCLUSIVE = "inconclusive"

_AP_TOL = 1e-12
_AP_MAX_ITERS = 10_000
_KKT_TOL = 1e-8
_KKT_ACTIVITY = 1e-7
#: Signed-regime head coordinates are unbounded below in the dual set; cap
#: them here and flag any active cap as non-convergence (non-attainment guard).
_SIGNED_HEAD_CAP = -1e6
#: Distance below which no unit witness direction is extracted.
_WITNESS_MIN_DISTANCE = 1e-9


@dataclass(frozen=True)
class SupportPattern:
    """Sparsity pattern: dimension n, support indices (0-based), entry signs.

    ``signs[j]`` is the sign of the nonzero entry at ``support[j]``; in the
    signed regime every sign must be +1.
    """

    n: int
    support: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = int(self.n)
        support = tuple(int(i) for i in self.support)
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "signs", signs)
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        k = len(support)
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        if len(set(support)) != k:
            raise ValueError(f"support indices must be distinct, got {support}")
        if any(not 0 <= i < n for i in support):
            raise ValueError(f"support indices must lie in [0, {n}), got {support}")
        if len(signs) != k:
            raise ValueError(f"signs must have length k={k}, got {len(signs)}")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be -1 or +1, got {signs}")

    @property
    def k(self) -> int:
        return len(self.support)

    @classmethod
    def from_indices(cls, n: int, support, signs=None) -> "SupportPattern":
        support = tuple(int(i) for i in support)
        if signs is None:
            signs = (1,) * len(support)
        return cls(n=n, support=support, signs=tuple(int(s) for s in signs))


def _check_pattern(pattern: SupportPattern, regime: Regime, n_cols: int) -> None:
    if pattern.n != n_cols:
        raise ValueError(
            f"pattern dimension n={pattern.n} does not match matrix columns {n_cols}"
        )
    if regime is Regime.SIGNED and any(s != 1 for s in pattern.signs):
        raise ValueError("signed regime requires all pattern signs to be +1")


@dataclass(frozen=True)
class Canonicalization:
    """Signed permutation to the canonical coordinate layout.

    Canonical coordinate ``j`` corresponds to original coordinate ``perm[j]``;
    the first ``head_size`` canonical coordinates are the sorted off-support
    (head) indices, the rest the sorted support (tail).  ``flips`` is indexed
    by ORIGINAL coordinate: column j of the canonical matrix is
    ``flips[perm[j]] * A[:, perm[j]]``, and vectors map the same way.  In the
    canonical layout the support entries are non-positive (general regime)
    or nonnegative (signed regime), so the null-space functional is always
    sum(|w_head|) - sum(w_tail) or sum(w_head) + sum(w_tail) respectively.
    """

    perm: np.ndarray
    flips: np.ndarray
    head_size: int

    def apply_matrix(self, a: np.ndarray) -> np.ndarray:
        return a[:, self.perm] * self.flips[self.perm][np.newaxis, :]

    def to_original(self, v_canon: np.ndarray) -> np.ndarray:
        out = np.empty_like(v_canon)
        out[self.perm] = self.flips[self.perm] * v_canon
        return out

    def to_canonical(self, v_orig: np.ndarray) -> np.ndarray:
        return self.flips[self.perm] * v_orig[self.perm]


def canonicalize(pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> Canonicalization:
    """Permutation + sign flips placing the pattern in the canonical layout.

    Applying the result to the columns of a matrix with i.i.d. symmetric
    entries preserves its distribution, so certificates computed before and
    after canonicalization agree (the tests assert this to 1e-10).
    """
    regime = Regime.coerce(regime)
    _check_pattern(pattern, regime, pattern.n)
    support_sorted = sorted(pattern.support)
    in_support = set(support_sorted)
    head = [i for i in range(pattern.n) if i not in in_support]
    perm = np.array(head + support_sorted, dtype=np.intp)
    flips = np.ones(pattern.n)
    if regime is Regime.GENERAL:
        for idx, sign in zip(pattern.support, pattern.signs):
            flips[idx] = -float(sign)
    return Canonicalization(perm=perm, flips=flips, head_size=pattern.n - pattern.k)


def nullspace_objective(w, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> float:
    """The pattern's null-space functional phi(w), in original coordinates.

    general: sum of |w_i| off support plus sum of sign_i * w_i on support;
    signed:  plain sum of all coordinates (the nonnegativity of the head is
    a constraint of the minimization, not part of the functional).
    """
    regime = Regime.coerce(regime)
    w = _as_vector("w", w, pattern.n)
    _check_pattern(pattern, regime, pattern.n)
    if regime is Regime.SIGNED:
        return float(np.sum(w))
    support = np.fromiter(pattern.support, dtype=np.intp, count=pattern.k)
    signs = np.fromiter(pattern.signs, dtype=float, count=pattern.k)
    head_mask = np.ones(pattern.n, dtype=bool)
    head_mask[support] = False
    return float(np.sum(np.abs(w[head_mask])) + np.sum(signs * w[support]))


@dataclass(frozen=True)
class TauCertificate:
    """tau(A) with its dual witnesses (z, nu), primal witness w, diagnostics.

    All witnesses are in ORIGINAL coordinates.  ``w_witness`` is a unit
    vector lying in null(A) to machine precision (it is constructed as the
    normalized displacement z -> projection(z), which is orthogonal to the
    row space by construction); it is None when the dual distance is below
    1e-9 (success-side instances have no failure direction to report).
    ``gap`` is |tau - phi(w_witness)| (|tau| when no witness exists).
    ``iterations`` counts the alternating-projection steps run: 0 when the
    exact slack solve decided z, which is the usual case.
    """

    tau: float
    z_witness: np.ndarray
    nu_witness: np.ndarray
    w_witness: np.ndarray | None
    iterations: int
    converged: bool
    gap: float

    def json_payload(self, verdict: str | None = None) -> dict:
        """Certificate as a plain dict with the fixed serialization names."""
        return {
            "tau": float(self.tau),
            "z": [float(v) for v in self.z_witness],
            "nu": [float(v) for v in self.nu_witness],
            "w": None if self.w_witness is None else [float(v) for v in self.w_witness],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "gap": float(self.gap),
            "verdict": verdict,
        }


@dataclass(frozen=True)
class NspVerdict:
    """Three-way recovery verdict for (A, pattern) at a given tolerance."""

    verdict: str
    tau: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.verdict not in (CERTIFIED_FAILURE, CERTIFIED_SUCCESS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def _clip_to_dual_set(u: np.ndarray, head_size: int, regime: Regime, tail_value: float) -> np.ndarray:
    z = u.copy()
    if regime is Regime.GENERAL:
        z[:head_size] = np.clip(z[:head_size], -1.0, 1.0)
    else:
        z[:head_size] = np.clip(z[:head_size], _SIGNED_HEAD_CAP, 1.0)
    z[head_size:] = tail_value
    return z


def _dual_slack_exact(
    projector: RowspaceProjector,
    head_size: int,
    regime: Regime,
    tail_value: float,
    n: int,
) -> np.ndarray | None:
    """Exact dual optimum via bound-constrained least squares on box slacks.

    Writing z = anchor - E s with the anchor's head coordinates at the upper
    box bound (+1) and slacks s in [0, 2] (general) or [0, inf) (signed),
    and eliminating nu exactly through the orthogonal complement Q = I - P
    of the row-space projector, the dual distance problem becomes
    min ||(Q E) s - Q anchor|| over the slack bounds; Q E and Q anchor come
    from one block solve with the projector's Cholesky factor.  A library
    solve seeds :func:`_box_lsq_refine`, which accepts only machine-level
    KKT residuals, so no iteration-change stall (alternating projections
    are arbitrarily slow when the box slice is nearly tangent to the row
    space) can leak into the reported tau.  Returns None if the refinement
    budget is exhausted.
    """
    anchor = np.ones(n)
    anchor[head_size:] = tail_value
    embed = np.zeros((n, head_size))
    embed[np.arange(head_size), np.arange(head_size)] = 1.0
    block = np.column_stack([embed, anchor])
    q_block = block - projector.project_columns(block)
    q_embed, q_anchor = q_block[:, :head_size], q_block[:, head_size]
    if regime is Regime.GENERAL:
        upper = 2.0
        try:
            seed = np.asarray(
                _lsq_linear(q_embed, q_anchor, bounds=(0.0, upper), method="bvls").x
            )
        except (ValueError, np.linalg.LinAlgError):
            seed = np.zeros(head_size)
    else:
        upper = math.inf
        try:
            seed, _ = _nnls(q_embed, q_anchor)
        except RuntimeError:
            seed = np.zeros(head_size)
    slack = _box_lsq_refine(q_embed, q_anchor, upper, seed)
    if slack is None:
        return None
    return anchor - embed @ slack


def _dual_stationary(z: np.ndarray, u: np.ndarray, head_size: int, regime: Regime) -> bool:
    """KKT test for the dual pair: is (z, u = P z) a distance minimizer?

    The distance problem is convex, so optimality is exactly: the residual
    z - u vanishes on head coordinates interior to the box, and points
    outward (beyond the bound) on head coordinates at the box bound.  Tail
    coordinates are pinned and carry no condition.  This is the honest
    meaning of convergence — unlike iteration-change rules, it cannot
    report success on a stalled iterate.
    """
    residual = z[:head_size] - u[:head_size]
    head = z[:head_size]
    at_upper = head >= 1.0 - _KKT_ACTIVITY
    if regime is Regime.GENERAL:
        at_lower = head <= -1.0 + _KKT_ACTIVITY
    else:
        at_lower = np.zeros(head.size, dtype=bool)
    interior = ~(at_upper | at_lower)
    if interior.any() and float(np.abs(residual[interior]).max()) > _KKT_TOL:
        return False
    if at_upper.any() and float(residual[at_upper].max()) > _KKT_TOL:
        return False
    if at_lower.any() and float(residual[at_lower].min()) < -_KKT_TOL:
        return False
    return True


def tau_dual(A, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> TauCertificate:
    """tau(A) via its dual form: minus the distance from a box slice to range(A^T).

    The exact slack-form solve (:func:`_dual_slack_exact`) gives the
    nearest point z of the box slice Z (head coordinates in [-1, 1] general
    / (-inf, 1] signed, tail pinned at the pattern sign).  Only when its
    refinement budget runs out do alternating projections between Z and
    range(A^T) take over, until the distance change drops below 1e-12 or
    10^4 iterations.  A final projection of z makes the reported pair
    (z, u = P z, nu) exactly consistent, so the witness
    w = (u - z)/||u - z|| lies in null(A) to machine precision.  The
    ``converged`` flag is the KKT stationarity of the final pair
    (:func:`_dual_stationary`), not an iteration-change rule.
    """
    regime = Regime.coerce(regime)
    a = _as_matrix("A", A)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"tau_dual requires m < n, got shape {a.shape}")
    _check_pattern(pattern, regime, n)

    canon = canonicalize(pattern, regime)
    b = canon.apply_matrix(a)
    projector = RowspaceProjector(b)
    head_size = canon.head_size
    tail_value = -1.0 if regime is Regime.GENERAL else 1.0

    z = _dual_slack_exact(projector, head_size, regime, tail_value, n)
    iterations = 0
    if z is None:
        z = np.zeros(n)
        z[head_size:] = tail_value
        d_prev = math.inf
        for iterations in range(1, _AP_MAX_ITERS + 1):
            u = projector(z)
            z = _clip_to_dual_set(u, head_size, regime, tail_value)
            d = float(np.linalg.norm(z - u))
            if abs(d_prev - d) < _AP_TOL:
                break
            d_prev = d

    u, nu = projector.project_with_coefficients(z)
    d = float(np.linalg.norm(z - u))
    tau = -d

    converged = _dual_stationary(z, u, head_size, regime)
    if regime is Regime.SIGNED and head_size and float(z[:head_size].min()) <= _SIGNED_HEAD_CAP + 1.0:
        converged = False

    w_orig: np.ndarray | None = None
    if d > _WITNESS_MIN_DISTANCE:
        w_orig = canon.to_original((u - z) / d)
    z_orig = canon.to_original(z)
    if w_orig is not None:
        gap = abs(tau - nullspace_objective(w_orig, pattern, regime))
    else:
        gap = abs(tau)
    return TauCertificate(
        tau=tau,
        z_witness=z_orig,
        nu_witness=np.asarray(nu, dtype=float),
        w_witness=w_orig,
        iterations=iterations,
        converged=converged,
        gap=gap,
    )


def _objective_canonical(w: np.ndarray, head_size: int, regime: Regime) -> float:
    if regime is Regime.GENERAL:
        return float(np.sum(np.abs(w[:head_size])) - np.sum(w[head_size:]))
    return float(np.sum(w))


def _box_lsq_refine(
    m_mat: np.ndarray,
    rhs: np.ndarray,
    upper: float,
    s: np.ndarray,
) -> np.ndarray | None:
    """Refine 0 <= s <= upper minimizing ||m_mat @ s - rhs|| to exact KKT.

    Active-set iteration in the Lawson-Hanson / BVLS style with exact
    least-squares subproblem solves on the free set: optimality is gradient
    zero on free variables (automatic from the subproblem), gradient >= 0 at
    the lower bound, and gradient <= 0 at the upper bound.  Library solver
    output seeds the sets but can stop short of full precision; this loop
    only accepts machine-level KKT residuals.  ``upper`` may be ``math.inf``
    (pure nonnegative least squares).  Returns None if the iteration budget
    is exhausted.
    """
    r = m_mat.shape[1]
    tol = 1e-12 * max(1.0, float(np.linalg.norm(rhs)))
    s = np.clip(s, 0.0, upper)
    at_lower = s <= 1e-14
    at_upper = s >= upper - 1e-14
    s = np.where(at_lower, 0.0, s)
    if math.isfinite(upper):
        s = np.where(at_upper, upper, s)
    free = ~(at_lower | at_upper)
    for _ in range(10 * r + 100):
        # Solve exactly on the free set, stepping back toward the previous
        # feasible point whenever the unconstrained solution leaves the box.
        while free.any():
            cols = np.where(free)[0]
            target = rhs - upper * m_mat[:, at_upper].sum(axis=1) if at_upper.any() else rhs
            sol = np.linalg.lstsq(m_mat[:, cols], target, rcond=None)[0]
            below = sol <= 0.0
            above = sol >= upper
            if not below.any() and not above.any():
                s[cols] = sol
                break
            delta = sol - s[cols]
            bound = np.where(above, upper, 0.0)
            crossing = below | above
            denom = np.where(np.abs(delta) > 0.0, delta, 1.0)
            steps = np.where(crossing, (bound - s[cols]) / denom, np.inf)
            steps = np.where(crossing & (np.abs(delta) == 0.0), 0.0, steps)
            alpha = float(steps.min())
            s[cols] = s[cols] + alpha * delta
            hit = steps <= alpha + 1e-15
            s[cols[hit & below]] = 0.0
            at_lower[cols[hit & below]] = True
            if math.isfinite(upper):
                s[cols[hit & above]] = upper
                at_upper[cols[hit & above]] = True
            free = ~(at_lower | at_upper)
        gradient = m_mat.T @ (m_mat @ s - rhs)
        viol_lower = at_lower & (gradient < -tol)
        viol_upper = at_upper & (gradient > tol)
        if not viol_lower.any() and not viol_upper.any():
            return s
        scores = np.where(viol_lower, -gradient, np.where(viol_upper, gradient, -np.inf))
        release = int(np.argmax(scores))
        at_lower[release] = False
        at_upper[release] = False
        free[release] = True
    return None


def _cone_linear_minimum(basis: np.ndarray, cone_rows: int, c: np.ndarray) -> np.ndarray | None:
    """Exact minimizer of c.x over {x = basis v : x[:cone_rows] >= 0, ||x|| <= 1}.

    The feasible set is a convex cone K intersected with the unit ball and
    the objective is linear, so the minimum equals -||P_K(-c)|| with P_K the
    Euclidean projection (Moreau decomposition: for x in K with ||x|| <= 1,
    <-c, x> <= <P_K(-c), x> <= ||P_K(-c)||, attained at the normalized
    projection).  In basis coordinates the projection QP dualizes to a
    nonnegative least-squares problem: library NNLS provides a warm start
    and :func:`_box_lsq_refine` drives it to machine-precision KKT
    residuals.  Returns the unit-norm minimizer, or None when the
    projection is (numerically) zero — the ball minimum is then 0 and the
    sphere minimum is nonnegative, which this route cannot evaluate.
    """
    q = -(basis.T @ c)
    if cone_rows:
        h_t = np.ascontiguousarray(basis[:cone_rows, :].T)
        try:
            seed, _ = _nnls(h_t, -q)
        except RuntimeError:
            seed = np.zeros(cone_rows)
        multipliers = _box_lsq_refine(h_t, -q, math.inf, seed)
        if multipliers is None:
            return None
        v_star = q + h_t @ multipliers
    else:
        v_star = q
    norm = float(np.linalg.norm(v_star))
    if norm <= 1e-9:
        return None
    x = basis @ (v_star / norm)
    if cone_rows and float(x[:cone_rows].min()) < -1e-8:
        return None
    return x


def _descent_minimum_exact(a_canon: np.ndarray, basis: np.ndarray, head_size: int, regime: Regime) -> float | None:
    """Exact sphere minimum of the functional when it is negative, else None.

    Both regimes restrict a convex problem to the unit ball: the signed
    functional is already linear on the cone null(A) ∩ {w_head >= 0}, and
    the general functional becomes linear after splitting each head
    coordinate into positive and negative parts p - q with p, q >= 0
    (shrinking any overlap min(p_i, q_i) > 0 strictly decreases both the
    objective and the norm, so optima are overlap-free and the lifted
    problem has the same value).  Either way the minimum is a cone-linear
    minimum handled by :func:`_cone_linear_minimum`; the returned value is
    the true functional honestly evaluated at the recovered null vector.
    """
    n = a_canon.shape[1]
    if regime is Regime.SIGNED:
        x = _cone_linear_minimum(basis, head_size, np.ones(n))
        if x is None:
            return None
        return _objective_canonical(x, head_size, regime)
    tail = n - head_size
    lifted = np.concatenate(
        [a_canon[:, :head_size], -a_canon[:, :head_size], a_canon[:, head_size:]], axis=1
    )
    lifted_basis = nullspace_basis(lifted).basis
    c = np.concatenate([np.ones(2 * head_size), -np.ones(tail)])
    x = _cone_linear_minimum(lifted_basis, 2 * head_size, c)
    if x is None:
        return None
    w = np.concatenate([x[:head_size] - x[head_size : 2 * head_size], x[2 * head_size :]])
    norm = float(np.linalg.norm(w))
    if norm < 1e-12:
        return None
    return _objective_canonical(w / norm, head_size, regime)


def tau_primal_oracle(A, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> float:
    """Independent primal evaluation of tau(A) over the unit ball.

    By 1-homogeneity the ball minimum is min(0, sphere minimum).  A negative
    sphere minimum is a convex problem over the ball, which
    :func:`_descent_minimum_exact` solves exactly over an orthonormal
    null-space basis; when it finds no descending null direction the ball
    minimum is 0.
    """
    regime = Regime.coerce(regime)
    a = _as_matrix("A", A)
    m, n = a.shape
    if m >= n:
        raise ValueError(f"tau_primal_oracle requires m < n, got shape {a.shape}")
    _check_pattern(pattern, regime, n)
    canon = canonicalize(pattern, regime)
    a_canon = canon.apply_matrix(a)
    basis = nullspace_basis(a_canon).basis
    value = _descent_minimum_exact(a_canon, basis, canon.head_size, regime)
    return 0.0 if value is None else min(0.0, value)


def _strict_dual_certificate(b: np.ndarray, head_size: int, regime: Regime, tol: float) -> bool:
    """Strict dual certificate of success, in canonical coordinates.

    The pattern is recovered for every vector on it iff the tail columns
    B_S are injective and some nu has B_S^T nu = tail value with head
    correlations B_{S^c}^T nu below 1 in absolute value (signed regime:
    from above).  range(B^T) is a subspace, so the head box shrunk to
    +-(1 - tol) meets it iff the slice with the tail scaled by 1/(1 - tol)
    does: the exact slack solve of that slice gives z, then
    nu = (1 - tol) coefficients(z) is corrected onto B_S^T nu = tail value
    through the Cholesky factor of B_S^T B_S.  Success is decided on that
    final nu, with margin tol/2 on the head, by :func:`_dual_certificate_holds`.
    """
    tail = slice(head_size, None)
    b_tail = b[:, tail]
    try:
        lower = cholesky_spd(b_tail.T @ b_tail)
    except RankDeficiencyError:
        return False
    tail_value = -1.0 if regime is Regime.GENERAL else 1.0
    projector = RowspaceProjector(b)
    z = _dual_slack_exact(projector, head_size, regime, tail_value / (1.0 - tol), b.shape[1])
    if z is None:
        return False
    nu = (1.0 - tol) * projector.coefficients(z)
    signed = regime is Regime.SIGNED
    return _dual_certificate_holds(b, tail, lower, nu, tail_value, signed, 1.0 - 0.5 * tol)


def _dual_certificate_holds(
    a: np.ndarray,
    support,
    lower: np.ndarray,
    nu: np.ndarray,
    target,
    signed: bool,
    bound: float,
) -> bool:
    """Correct ``nu`` onto A_S^T nu = target, then test the off-support peak.

    ``support`` indexes the columns of S (an index array or a slice) and
    ``lower`` is the Cholesky factor of A_S^T A_S.  The correction adds
    A_S (A_S^T A_S)^{-1} (target - A_S^T nu), the least-norm change that
    meets the support equations.  The certificate holds when every
    off-support correlation a_j^T nu is at most ``bound`` in absolute value
    (signed regime: from above).  This is the one place the strict dual
    certificate test lives: :func:`_strict_dual_certificate` and the
    planted-vector stop of ``recovery.solve_bp`` both call it.
    """
    a_support = a[:, support]
    nu = nu + a_support @ cho_solve((lower, True), target - a_support.T @ nu)
    correlations = a.T @ nu
    correlations[support] = 0.0
    peak = float(correlations.max()) if signed else float(np.abs(correlations).max())
    return peak <= bound


def classify_nsp(
    A,
    pattern: SupportPattern,
    regime: Regime = Regime.GENERAL,
    tol: float = 1e-6,
    certificate: TauCertificate | None = None,
) -> NspVerdict:
    """Three-way verdict: certified_failure / certified_success / inconclusive.

    failure requires tau < -tol from a converged certificate; success
    requires |tau| <= tol AND a strict dual certificate
    (:func:`_strict_dual_certificate`; tau = 0 alone cannot separate strict
    success from ties); everything else — including a non-converged dual
    solve or a non-injective A_S — is inconclusive.  A square nonsingular A
    (m = n, accepted by this operation only) has a trivial null space and is
    certified success outright.  ``certificate`` may pass a precomputed
    tau_dual result to avoid re-solving.
    """
    regime = Regime.coerce(regime)
    a = _as_matrix("A", A)
    m, n = a.shape
    if m > n:
        raise ValueError(f"classify_nsp requires m <= n, got shape {a.shape}")
    _check_pattern(pattern, regime, n)
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if m == n:
        cholesky_spd(a @ a.T)  # RankDeficiencyError if singular
        return NspVerdict(verdict=CERTIFIED_SUCCESS, tau=0.0, tolerance=tol)

    cert = certificate if certificate is not None else tau_dual(a, pattern, regime)
    if cert.tau < -tol and cert.converged:
        return NspVerdict(verdict=CERTIFIED_FAILURE, tau=cert.tau, tolerance=tol)
    if abs(cert.tau) <= tol:
        canon = canonicalize(pattern, regime)
        b = canon.apply_matrix(a)
        if _strict_dual_certificate(b, canon.head_size, regime, tol):
            return NspVerdict(verdict=CERTIFIED_SUCCESS, tau=cert.tau, tolerance=tol)
    return NspVerdict(verdict=INCONCLUSIVE, tau=cert.tau, tolerance=tol)


def construct_counterexample(
    w_witness,
    pattern: SupportPattern,
    regime: Regime = Regime.GENERAL,
    tol: float = 1e-9,
) -> np.ndarray:
    """Sparse x0 with the pattern's signs that l1 minimization provably misses.

    Requires a strict failure certificate: phi(w_witness) < -tol.  On the
    support, coordinates where sign_i * w_i < 0 are set to -w_i (so x0 + w
    cancels there); the remaining support coordinates get sign_i * c with
    c = max(1, 2 ||w||_inf), dominating ||w||_inf; off support x0 = 0.  Then
    ||x0 + w||_1 - ||x0||_1 = phi(w) < 0 independently of c: x0 + w is
    feasible for y = A x0 and strictly beats x0, so the solver cannot return
    x0.
    """
    regime = Regime.coerce(regime)
    w = _as_vector("w_witness", w_witness, pattern.n)
    _check_pattern(pattern, regime, pattern.n)
    value = nullspace_objective(w, pattern, regime)
    if not value < -tol:
        raise ValueError(
            f"witness is not a strict failure certificate: phi(w) = {value!r} >= {-tol!r}"
        )
    if regime is Regime.SIGNED:
        head_mask = np.ones(pattern.n, dtype=bool)
        head_mask[list(pattern.support)] = False
        if head_mask.any() and float(w[head_mask].min()) < -1e-10:
            raise ValueError("signed witness leaves the nonnegative cone off support")
    scale = max(1.0, 2.0 * float(np.abs(w).max()))
    x0 = np.zeros(pattern.n)
    for idx, sign in zip(pattern.support, pattern.signs):
        if sign * w[idx] < 0:
            x0[idx] = -w[idx]
        else:
            x0[idx] = sign * scale
    return x0


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of verify_certificate: truthy iff every check passed."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    A,
    pattern: SupportPattern,
    cert: TauCertificate,
    regime: Regime = Regime.GENERAL,
) -> CertificateCheck:
    """Re-check every claim of a converged certificate from the raw matrix.

    Checks, in order: w lies in null(A) (max residual 1e-8) and is unit norm
    (1e-10) and its functional value matches tau (1e-6); when no witness is
    present tau itself must be ~0; z lies in its box / pinned coordinates
    (1e-9); the dual distance ||z - A^T nu|| reproduces -tau (1e-6).
    """
    regime = Regime.coerce(regime)
    if not cert.converged:
        raise ValueError("certificate did not converge; nothing to verify")
    a = _as_matrix("A", A)
    m, n = a.shape
    _check_pattern(pattern, regime, n)
    z = _as_vector("z_witness", cert.z_witness, n)
    nu = np.asarray(cert.nu_witness, dtype=float).ravel()
    if nu.size != m:
        return CertificateCheck(False, "nu has wrong dimension")

    w = cert.w_witness
    if w is not None:
        w = _as_vector("w_witness", w, n)
        if m > 0 and float(np.abs(a @ w).max()) > 1e-8:
            return CertificateCheck(False, "w not in null space")
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-10:
            return CertificateCheck(False, "w not unit norm")
        if abs(nullspace_objective(w, pattern, regime) - cert.tau) > 1e-6:
            return CertificateCheck(False, "objective mismatch")
    elif abs(cert.tau) > 1e-6:
        return CertificateCheck(False, "tau nonzero without witness")

    support = list(pattern.support)
    head_mask = np.ones(n, dtype=bool)
    head_mask[support] = False
    box_tol = 1e-9
    if regime is Regime.GENERAL:
        head_ok = not head_mask.any() or float(np.abs(z[head_mask]).max()) <= 1.0 + box_tol
        signs = np.array(pattern.signs, dtype=float)
        tail_ok = float(np.abs(z[support] - signs).max()) <= box_tol
    else:
        head_ok = not head_mask.any() or float(z[head_mask].max()) <= 1.0 + box_tol
        tail_ok = float(np.abs(z[support] - 1.0).max()) <= box_tol
    if not (head_ok and tail_ok):
        return CertificateCheck(False, "z out of box")

    distance = float(np.linalg.norm(z - a.T @ nu))
    if abs(distance + cert.tau) > 1e-6:
        return CertificateCheck(False, "dual value mismatch")
    return CertificateCheck(True, None)
