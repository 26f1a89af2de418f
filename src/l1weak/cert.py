"""Null-space certificates deciding l1 recovery for a concrete matrix.

For a measurement matrix A and a fixed support/sign pattern, exact recovery
of every sparse vector with that pattern by l1 minimization is equivalent to
a strict inequality holding over all nonzero null vectors of A.  The single
number

    tau(A) = min { phi(w) : w in null(A), ||w||_2 <= 1 }

decides it, where phi is the pattern's null-space functional (head = off
support, tail = support, s = the pattern's signs):

- general regime:  phi(w) = sum(|w_head|) + sum(s * w_tail), w free;
- signed  regime:  phi(w) = sum(w_head) + sum(w_tail),       w_head >= 0.

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
one active-set bound-constrained least-squares solver, :func:`_box_lsq`,
in the box slacks over the null-space basis of one QR of A^T (seeded by
one compiled NNLS solve).  The solver's own KKT test is the only
acceptance test: when its active-set loop does not finish, the result is
reported unconverged and the verdict is inconclusive.  The strict dual
certificate solves the same problem with the tail scaled, on the same QR,
starting from the tau certificate's z, so it makes no NNLS call, and it
holds when the off-support peak is at most the fixed bound 1 - 5e-7.  The
tests cross-check tau against an independent primal evaluation in
``tests/oracles.py``.  :func:`verify_certificate` re-checks every claim a
certificate makes from scratch.
:func:`classify_nsp` solves for tau and returns a three-way verdict that
carries the certificate: failure only when :func:`verify_certificate`
accepts it, success only with the strict dual certificate.  Every
operation that solves for tau requires m < n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import nnls as _nnls

from .linalg import (
    RankDeficiencyError,
    RowspaceProjector,
    _as_matrix,
    _as_vector,
    cholesky_spd,
    # Unused here but stays bound: perfbench's tracer wraps cert.nullspace_basis by this name.
    nullspace_basis,  # noqa: F401
    one_blas_thread,
)
from .threshold import Regime

__all__ = [
    "SupportPattern",
    "TauCertificate",
    "NspVerdict",
    "CertificateCheck",
    "CERTIFIED_FAILURE",
    "CERTIFIED_SUCCESS",
    "INCONCLUSIVE",
    "nullspace_objective",
    "tau_dual",
    "classify_nsp",
    "construct_counterexample",
    "verify_certificate",
]

CERTIFIED_FAILURE = "certified_failure"
CERTIFIED_SUCCESS = "certified_success"
INCONCLUSIVE = "inconclusive"

#: Weight of the split rows gamma (s + t) = 2 gamma that turn the general
#: regime's slack box 0 <= s <= 2 into the nonnegative pair (s, t) for the
#: NNLS seed; the seed is only a starting active set, so gamma need not be exact.
_SPLIT_WEIGHT = 100.0
#: Singular values below this are roundoff in a block of rows of an
#: orthonormal basis, whose singular values are at most 1.
_BASIS_RCOND = 1e-12
#: Distance below which no unit witness direction is extracted.
_WITNESS_MIN_DISTANCE = 1e-9
#: A failure witness w lies in null(A) when ||A w|| <= this * ||A||_F ||w||.
_NULL_RTOL = 1e-8
#: Largest negative off-support entry a signed failure witness may carry.
_CONE_TOL = 1e-10
#: Verdict tolerance of :func:`classify_nsp`: failure needs tau < -this,
#: success |tau| <= this and a dual certificate with head margin this/2.
_VERDICT_TOL = 1e-6
#: :func:`construct_counterexample` needs phi(w) below -this.
_COUNTEREXAMPLE_TOL = 1e-9


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


def _off_support(pattern: SupportPattern) -> np.ndarray:
    """The off-support (head) indices of the pattern, ascending; never empty (k < n)."""
    return np.setdiff1d(np.arange(pattern.n), pattern.support)


def _canonical(
    A, pattern: SupportPattern, regime: Regime, operation: str
) -> tuple[Regime, np.ndarray, np.ndarray, np.ndarray]:
    """Validate (A, pattern, regime) for ``operation`` and order the columns head first.

    Returns the coerced regime, A as a float matrix, the column order (the
    off-support indices ascending, then the support as the pattern lists
    it) and B = A[:, order], whose tail columns carry the pattern's signs in
    order.  Every operation that solves for tau requires m < n, and the
    error names ``operation``.
    """
    regime = Regime.coerce(regime)
    a = _as_matrix("A", A)
    if a.shape[0] >= a.shape[1]:
        raise ValueError(f"{operation} requires m < n, got shape {a.shape}")
    _check_pattern(pattern, regime, a.shape[1])
    # The head comes first because the QR of B^T keeps this row order, and
    # the active set of _box_lsq responds to its roundoff: in A's own
    # column order 10 of 3,000 badly scaled instances changed verdict.
    order = np.concatenate([_off_support(pattern), pattern.support]).astype(np.intp)
    return regime, a, order, a[:, order]


def _in_a_order(order: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Map a vector indexed like the columns of B = A[:, order] back to A's columns."""
    out = np.empty_like(v)
    out[order] = v
    return out


def nullspace_objective(w, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> float:
    """The pattern's null-space functional phi(w), w indexed like A's columns.

    general: sum of |w_i| off support plus sum of sign_i * w_i on support;
    signed:  plain sum of all coordinates (the nonnegativity of the head is
    a constraint of the minimization, not part of the functional).
    """
    regime = Regime.coerce(regime)
    w = _as_vector("w", w, pattern.n)
    _check_pattern(pattern, regime, pattern.n)
    if regime is Regime.SIGNED:
        return float(np.sum(w))
    support = list(pattern.support)
    signs = np.array(pattern.signs, dtype=float)
    return float(np.sum(np.abs(w[_off_support(pattern)])) + np.sum(signs * w[support]))


def _leaves_signed_cone(w: np.ndarray, pattern: SupportPattern) -> bool:
    return float(w[_off_support(pattern)].min()) < -_CONE_TOL


@dataclass(frozen=True)
class TauCertificate:
    """tau(A) with its dual witnesses (z, nu), primal witness w, diagnostics.

    z and w are indexed like A's columns.  ``w_witness`` is a unit
    vector lying in null(A) to machine precision (it is the normalized
    displacement from z to its projection, expanded in the orthonormal
    null-space basis of the QR of A^T); it is None when the dual distance is below
    1e-9 (success-side instances have no failure direction to report).
    ``gap`` is |tau - phi(w_witness)| (|tau| when no witness exists).
    ``converged`` means the slack solve met :func:`_box_lsq`'s KKT test;
    when False, z is the anchor point and no verdict but inconclusive rests
    on the certificate.
    ``iterations`` is always 0: the exact slack solve is the only route
    (the field and its JSON key are kept for readers of the schema).
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
    """Three-way recovery verdict for (A, pattern), with the tau certificate it rests on."""

    verdict: str
    certificate: TauCertificate
    tolerance: float

    def __post_init__(self) -> None:
        if self.verdict not in (CERTIFIED_FAILURE, CERTIFIED_SUCCESS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def _dual_slack_exact(
    null: np.ndarray, tail: np.ndarray, regime: Regime, start: np.ndarray | None = None
) -> np.ndarray | None:
    """Exact dual optimum via bound-constrained least squares on box slacks.

    ``null`` is an orthonormal null-space basis N of B (its rows in B's
    column order) and ``tail`` the values the support coordinates are pinned
    at: the pattern's signs, or those scaled in :func:`_strict_dual_certificate`.
    Writing z = anchor - E s with the anchor's head coordinates at the upper
    box bound (+1), the tail at ``tail``, and slacks s in [0, 2] (general) or
    [0, inf) (signed), the distance from z to range(B^T) is ||N^T z||, so the
    dual distance problem is min ||N_head^T s - N^T anchor|| over the slack
    bounds, with N_head the head rows of N, which :func:`_box_lsq` solves.
    ``start``, a point in B's column order, seeds the slack at
    1 - start_head (:func:`_strict_dual_certificate` passes the tau
    certificate's z); without it one compiled NNLS solve seeds it.  The
    solver accepts only exact KKT points either way, so the seed sets the
    speed but never the answer.  Returns z, or None if the solver's
    iteration budget is exhausted.
    """
    head_size = null.shape[0] - tail.size
    anchor = np.concatenate([np.ones(head_size), tail])
    upper = 2.0 if regime is Regime.GENERAL else math.inf
    seed = None if start is None else 1.0 - start[:head_size]
    slack = _box_lsq(null[:head_size].T, null.T @ anchor, upper, seed)
    if slack is None:
        return None
    anchor[:head_size] -= slack
    return anchor


@one_blas_thread
def tau_dual(A, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> TauCertificate:
    """tau(A) via its dual form: minus the distance from a box slice to range(A^T).

    The solve works on B = A[:, order], the off-support (head) columns
    first (:func:`_canonical`).  One :class:`RowspaceProjector` of B, a
    complete QR of B^T = [Q1 | N] [R; 0], serves the whole solve.  The exact
    slack-form solve (:func:`_dual_slack_exact`) works over the null-space
    basis N and gives the nearest point z of the box slice Z (head
    coordinates in [-1, 1] general / (-inf, 1] signed, tail pinned at the
    pattern's signs).  The residual z - P z = N N^T z gives tau = -||N^T z||
    and the witness w = -N N^T z / ||N^T z||, which lies in null(A) by
    construction (in the signed regime a converged w has its head roundoff
    below 0 clipped and is renormalized), and R gives the row weights nu of
    P z = B^T nu.  ``converged`` says that the slack solve met its own KKT
    test (:func:`_box_lsq`); no second test follows.  When the solve runs
    out of its iteration budget, the anchor point (head at +1, tail at the
    signs) is reported with ``converged`` False, which :func:`classify_nsp`
    turns into an inconclusive verdict.  z and w are in A's column order.
    """
    regime, _, order, b = _canonical(A, pattern, regime, "tau_dual")
    return _tau(RowspaceProjector(b), order, pattern, regime)


def _tau(
    projector: RowspaceProjector, order: np.ndarray, pattern: SupportPattern, regime: Regime
) -> TauCertificate:
    """The solve of :func:`tau_dual` and :func:`classify_nsp`, on the projector of B.

    ``converged`` is exactly "the slack solve returned a point": its KKT
    test is the acceptance test, and a verdict needs a witness on top.
    """
    null = projector._null
    signs = np.array(pattern.signs, dtype=float)
    head_size = pattern.n - pattern.k

    z = _dual_slack_exact(null, signs, regime)
    converged = z is not None
    if not converged:
        z = np.concatenate([np.ones(head_size), signs])

    nu = projector.coefficients(z)
    residual = null @ (null.T @ z)
    d = float(np.linalg.norm(residual))
    tau = -d

    w_a: np.ndarray | None = None
    gap = abs(tau)
    if d > _WITNESS_MIN_DISTANCE:
        w = -residual / d
        if regime is Regime.SIGNED and converged:
            # The head is >= 0 by KKT: clip its roundoff (a real violation
            # moves w off null(A), which verify_certificate still rejects).
            np.maximum(w[:head_size], 0.0, out=w[:head_size])
            w /= np.linalg.norm(w)
        w_a = _in_a_order(order, w)
        gap = abs(tau - nullspace_objective(w_a, pattern, regime))
    return TauCertificate(
        tau=tau,
        z_witness=_in_a_order(order, z),
        nu_witness=nu,
        w_witness=w_a,
        iterations=0,
        converged=converged,
        gap=gap,
    )


def _basis_lstsq(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-norm least squares that treats singular values below _BASIS_RCOND as zero.

    ``matrix`` is a block of an orthonormal basis, so the cutoff is absolute:
    when a null space misses the head coordinates, every column is roundoff
    and a relative cutoff would follow them to a slack of 1/roundoff.
    LAPACK never drops the largest singular value, so a block whose norm is
    below the cutoff is answered here.
    """
    scale = float(np.linalg.norm(matrix))
    if scale <= _BASIS_RCOND:
        return np.zeros(matrix.shape[1])
    rcond = max(_BASIS_RCOND / scale, np.finfo(float).eps * max(matrix.shape))
    return np.linalg.lstsq(matrix, rhs, rcond=rcond)[0]


def _box_lsq(
    system: np.ndarray, target: np.ndarray, upper: float, seed: np.ndarray | None = None
) -> np.ndarray | None:
    """0 <= s <= upper minimizing ||system @ s - target||, to exact KKT, or None.

    Active-set iteration in the Lawson-Hanson / BVLS style (Lawson & Hanson,
    *Solving Least Squares Problems*, 1974) with exact least-squares solves
    on the free set.  The active set starts from ``seed``; without one, one
    compiled Lawson-Hanson NNLS solve gives it: with a finite ``upper`` it
    runs on the split box s, t >= 0 with the rows gamma (s + t) = gamma upper
    stacked under ``system``, i.e.
    [[system, 0], [gamma I, gamma I]] [s; t] ~ [target; gamma upper 1], and
    keeps s; when NNLS raises, the seed is zero.  The loop returns only a
    KKT point of the true box problem: gradient zero on free variables
    (automatic from the subproblem), gradient >= 0 at the lower bound and
    <= 0 at the upper bound, to 1e-12 max(1, ||target||).  So the seed sets
    the speed but never the answer, and this is the one acceptance test of
    every slack solve.  ``upper`` may be ``math.inf`` (pure nonnegative least
    squares).  ``system`` is a block of an orthonormal basis, transposed, as
    :func:`_basis_lstsq` requires.  Returns None if the iteration budget is
    exhausted.
    """
    size = system.shape[1]
    if seed is None:
        seed_system, seed_target = system, target
        if math.isfinite(upper):
            split = _SPLIT_WEIGHT * np.eye(size)
            seed_system = np.block([[system, np.zeros_like(system)], [split, split]])
            seed_target = np.concatenate([target, np.full(size, upper * _SPLIT_WEIGHT)])
        try:
            seed = _nnls(seed_system, seed_target)[0][:size]
        except RuntimeError:
            seed = np.zeros(size)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(target)))
    s = np.clip(seed, 0.0, upper)
    at_lower = s <= 1e-14
    at_upper = s >= upper - 1e-14
    s = np.where(at_lower, 0.0, s)
    s = np.where(at_upper, upper, s)
    free = ~(at_lower | at_upper)
    for _ in range(10 * size + 100):
        # Solve exactly on the free set, stepping back toward the previous
        # feasible point whenever the unconstrained solution leaves the box.
        while free.any():
            cols = np.where(free)[0]
            if at_upper.any():
                rhs = target - upper * system[:, at_upper].sum(axis=1)
            else:
                rhs = target
            sol = _basis_lstsq(system[:, cols], rhs)
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
            s[cols[hit & above]] = upper
            at_upper[cols[hit & above]] = True
            free = ~(at_lower | at_upper)
        gradient = system.T @ (system @ s - target)
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


def _strict_dual_certificate(
    b: np.ndarray,
    projector: RowspaceProjector,
    signs: np.ndarray,
    regime: Regime,
    start: np.ndarray,
) -> bool:
    """Strict dual certificate of success for B = A[:, order], head columns first.

    The pattern is recovered for every vector on it iff the tail columns
    B_S are injective and some nu has B_S^T nu = signs with head
    correlations B_{S^c}^T nu below 1 in absolute value (signed regime:
    from above).  range(B^T) is a subspace, so the head box shrunk to
    +-(1 - tol) meets it iff the slice with the tail pinned at
    signs / (1 - tol) does: the exact slack solve of that slice over the
    tau solve's ``projector`` of B, started from ``start`` (the tau
    certificate's z in B's column order, which solves the slice with the
    tail at signs), gives z, then nu = (1 - tol) coefficients(z) is
    corrected onto B_S^T nu = signs through the Cholesky factor of
    B_S^T B_S.  Success is decided on that final nu by
    :func:`_dual_certificate_holds`, whose fixed bound leaves margin tol/2
    on the head; tol is ``_VERDICT_TOL``.
    """
    tail = slice(b.shape[1] - signs.size, None)
    b_tail = b[:, tail]
    try:
        lower = cholesky_spd(b_tail.T @ b_tail)
    except RankDeficiencyError:
        return False
    z = _dual_slack_exact(projector._null, signs / (1.0 - _VERDICT_TOL), regime, start)
    if z is None:
        return False
    nu = (1.0 - _VERDICT_TOL) * projector.coefficients(z)
    return _dual_certificate_holds(b, tail, lower, nu, signs, regime is Regime.SIGNED)


def _dual_certificate_holds(
    a: np.ndarray,
    support,
    lower: np.ndarray,
    nu: np.ndarray,
    target,
    signed: bool,
) -> bool:
    """Correct ``nu`` onto A_S^T nu = target, then test the off-support peak.

    ``support`` indexes the columns of S (an index array or a slice) and
    ``lower`` is the Cholesky factor of A_S^T A_S.  The correction adds
    A_S (A_S^T A_S)^{-1} (target - A_S^T nu), the least-norm change that
    meets the support equations.  The certificate holds when every
    off-support correlation a_j^T nu is at most 1 - _VERDICT_TOL/2 = 1 - 5e-7
    in absolute value (signed regime: from above).  This is the one place
    the strict dual certificate test and its bound live:
    :func:`_strict_dual_certificate` and the witness stop of
    ``recovery.solve_bp`` (planted or not) both call it.
    """
    a_support = a[:, support]
    nu = nu + a_support @ cho_solve((lower, True), target - a_support.T @ nu)
    correlations = a.T @ nu
    correlations[support] = 0.0
    peak = float(correlations.max()) if signed else float(np.abs(correlations).max())
    return peak <= 1.0 - 0.5 * _VERDICT_TOL


@one_blas_thread
def classify_nsp(A, pattern: SupportPattern, regime: Regime = Regime.GENERAL) -> NspVerdict:
    """Three-way verdict: certified_failure / certified_success / inconclusive.

    One :class:`RowspaceProjector` of B = A[:, order] serves the tau solve
    and the strict dual certificate, and the verdict carries the tau
    certificate.  With tol = 1e-6 (``_VERDICT_TOL``), failure requires
    tau < -tol from a converged certificate that :func:`verify_certificate`
    accepts, with phi(w) < -tol.  Success requires |tau| <= tol AND a
    strict dual certificate (:func:`_strict_dual_certificate`, started from
    the certificate's z; tau = 0 alone cannot separate strict success from
    ties).  Everything else — a non-converged dual solve, a failure
    certificate that does not re-check, a non-injective A_S — is
    inconclusive.  Requires m < n, as :func:`tau_dual` does.
    """
    regime, a, order, b = _canonical(A, pattern, regime, "classify_nsp")
    projector = RowspaceProjector(b)
    cert = _tau(projector, order, pattern, regime)
    if (
        cert.tau < -_VERDICT_TOL
        and cert.converged
        and verify_certificate(a, pattern, cert, regime)
        and nullspace_objective(cert.w_witness, pattern, regime) < -_VERDICT_TOL
    ):
        return NspVerdict(verdict=CERTIFIED_FAILURE, certificate=cert, tolerance=_VERDICT_TOL)
    if abs(cert.tau) <= _VERDICT_TOL:
        signs = np.array(pattern.signs, dtype=float)
        if _strict_dual_certificate(b, projector, signs, regime, cert.z_witness[order]):
            return NspVerdict(verdict=CERTIFIED_SUCCESS, certificate=cert, tolerance=_VERDICT_TOL)
    return NspVerdict(verdict=INCONCLUSIVE, certificate=cert, tolerance=_VERDICT_TOL)


def construct_counterexample(
    w_witness,
    pattern: SupportPattern,
    regime: Regime = Regime.GENERAL,
) -> np.ndarray:
    """Sparse x0 with the pattern's signs that l1 minimization provably misses.

    Requires a strict failure certificate: phi(w_witness) < -1e-9.  On the
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
    if not value < -_COUNTEREXAMPLE_TOL:
        raise ValueError(
            "witness is not a strict failure certificate: "
            f"phi(w) = {value!r} >= {-_COUNTEREXAMPLE_TOL!r}"
        )
    if regime is Regime.SIGNED and _leaves_signed_cone(w, pattern):
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

    Checks, in order: nu is a finite length-m vector and tau is finite; w
    lies in null(A) (||A w|| at most 1e-8 ||A||_F ||w||, so the test does
    not depend on the scale of A or w), in the signed regime is nonnegative
    off the support (-1e-10, what :func:`construct_counterexample` needs),
    is unit norm (1e-10) and its functional value matches tau (1e-6); when
    no witness is present tau itself must be ~0; z lies in its box off the
    support and equals the pattern signs on it (1e-9, one test for both
    regimes, whose signed patterns are all +1); the dual distance
    ||z - A^T nu|| reproduces -tau (1e-6).  :func:`classify_nsp` certifies
    failure only on a certificate this accepts.  The returned
    :class:`CertificateCheck` names the first failed check.
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
    if not np.all(np.isfinite(nu)):
        return CertificateCheck(False, "nu not finite")
    if not math.isfinite(cert.tau):
        return CertificateCheck(False, "tau not finite")

    w = cert.w_witness
    if w is not None:
        w = _as_vector("w_witness", w, n)
        null_bound = _NULL_RTOL * float(np.linalg.norm(a)) * float(np.linalg.norm(w))
        if float(np.linalg.norm(a @ w)) > null_bound:
            return CertificateCheck(False, "w not in null space")
        if regime is Regime.SIGNED and _leaves_signed_cone(w, pattern):
            return CertificateCheck(False, "signed w negative off support")
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-10:
            return CertificateCheck(False, "w not unit norm")
        if abs(nullspace_objective(w, pattern, regime) - cert.tau) > 1e-6:
            return CertificateCheck(False, "objective mismatch")
    elif abs(cert.tau) > 1e-6:
        return CertificateCheck(False, "tau nonzero without witness")

    box_tol = 1e-9
    head = z[_off_support(pattern)]
    if regime is Regime.GENERAL:
        head = np.abs(head)
    tail_gap = np.abs(z[list(pattern.support)] - np.array(pattern.signs, dtype=float))
    if not (float(head.max()) <= 1.0 + box_tol and float(tail_gap.max()) <= box_tol):
        return CertificateCheck(False, "z out of box")

    distance = float(np.linalg.norm(z - a.T @ nu))
    if abs(distance + cert.tau) > 1e-6:
        return CertificateCheck(False, "dual value mismatch")
    return CertificateCheck(True, None)
