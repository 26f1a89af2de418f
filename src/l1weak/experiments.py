"""Monte Carlo phase-transition harness and finite-n framework estimators.

Every stochastic quantity here is driven by a counter-mode splitmix64
generator: the i-th draw of a stream is a pure function of (seed, i), and
per-task streams are derived by index (:func:`split_stream_seed`), never
shared or advanced across tasks.  That is what makes the reproducibility
contract possible — identical (seed, grid) inputs produce byte-identical
tables regardless of thread count, schedule, or evaluation order.

The harness (:func:`run_phase_grid`) samples Gaussian matrices and sparse
vectors per grid cell, solves basis pursuit, and tabulates success counts;
:func:`estimate_transition` locates the empirical 50% crossing.
:func:`framework_cw` and :func:`run_framework` evaluate, on sorted
Gaussian samples, the water-level index c_w and the critical-measurement
ratio whose large-n limits are the weak-threshold quantities (1 - theta_hat
and alpha_w respectively); the tests confirm both convergences numerically.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import isotonic_regression

from .cert import CERTIFIED_SUCCESS, INCONCLUSIVE, SupportPattern, classify_nsp
from .linalg import one_blas_thread
# check_recovery is unused here but stays bound: perfbench's tracer wraps it by this name.
from .recovery import BPProblem, check_recovery, solve_bp  # noqa: F401
from .threshold import Regime

__all__ = [
    "CounterStream",
    "TrialDiagnostics",
    "PhaseGrid",
    "PhaseCell",
    "FrameworkSample",
    "FrameworkResult",
    "splitmix64",
    "split_stream_seed",
    "run_trial",
    "run_phase_grid",
    "estimate_transition",
    "draw_framework_sample",
    "framework_cw",
    "run_framework",
]

_LOG = logging.getLogger(__name__)

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_TWO_POW_63 = 1 << 63
_INV_2_POW_53 = 2.0 ** -53


def splitmix64(state: int) -> int:
    """The splitmix64 finalizer: one 64-bit avalanche mix of ``state``."""
    z = state & _MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def split_stream_seed(seed: int, *path: int) -> int:
    """Derive a child seed from (seed, path indices), order-independent of use.

    Each path component folds in as mix(state + (index + 1) * golden), so
    split(seed, a, b) depends only on the values, never on when or where the
    child stream is consumed.
    """
    state = int(seed) & _MASK
    for index in path:
        if index < 0:
            raise ValueError(f"path indices must be nonnegative, got {index}")
        state = splitmix64((state + (int(index) + 1) * _GOLDEN) & _MASK)
    return state


class CounterStream:
    """Counter-mode splitmix64 stream: draw i is mix(seed + (i+1) * golden).

    Every draw comes from :meth:`u64_block`, vectorized uint64 arithmetic
    whose wraparound is the intended mod-2^64 behavior; the tests check it
    against a plain-integer splitmix64.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed) & _MASK
        self._index = 0

    @property
    def index(self) -> int:
        return self._index

    def u64_block(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        counters = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
        z = np.uint64(self._seed) + counters * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        return z ^ (z >> np.uint64(31))

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive u64 pairs.

        Pairs are consumed whole: an odd count still advances the stream by
        an even number of draws and discards the unused second variate.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        pairs = (count + 1) // 2
        raw = self.u64_block(2 * pairs)
        # 53-bit mantissas; u1 shifted into (0, 1] so log never sees 0.
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_POW_53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_POW_53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def choose_support(self, n: int, k: int) -> tuple[int, ...]:
        """k distinct indices from [0, n) by partial Fisher-Yates, sorted.

        Step i swaps position i with j = i + w_i mod (n - i), where w_i is
        word i of one k-word block; n << 2^64 keeps the modulo bias negligible.
        """
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        pool = list(range(n))
        for i, word in enumerate(self.u64_block(k).tolist()):
            j = i + word % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def sign_draws(self, count: int) -> tuple[int, ...]:
        """count fair signs: +1 when the draw's top bit is 0, else -1."""
        return tuple(1 if word < _TWO_POW_63 else -1 for word in self.u64_block(count).tolist())


@dataclass
class TrialDiagnostics:
    """How trials were decided: per-route counts and solver iterations.

    Every trial is decided by one route.  ``dual``: a strict dual
    certificate built from the solver's iterate proves that x0 is the unique
    l1 minimizer (success).  ``cut``: a feasible point strictly below
    ||x0||_1 proves it is not (failure).  ``exact``: neither came within the
    solver's budget and ``classify_nsp`` certified the verdict.  ``tie``:
    ``classify_nsp`` was inconclusive, and the trial counts as a failure.
    ``solver_nonconverged`` counts the tie-route trials, the only outcomes
    that rest on no witness; ``tie`` reads the same counter.
    ``iterations`` sums the solver iterations of all trials and
    ``max_iterations`` is the most any one trial used.  All counts are
    deterministic for a seed.
    """

    solver_nonconverged: int = 0
    dual: int = 0
    cut: int = 0
    exact: int = 0
    iterations: int = 0
    max_iterations: int = 0

    @property
    def tie(self) -> int:
        return self.solver_nonconverged

    def routes(self) -> dict[str, int]:
        return {"dual": self.dual, "cut": self.cut, "exact": self.exact, "tie": self.tie}

    def record(self, route: str, iterations: int) -> None:
        if route == "tie":
            self.solver_nonconverged += 1
        else:
            setattr(self, route, getattr(self, route) + 1)
        self.iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)

    def merge(self, other: "TrialDiagnostics") -> None:
        self.solver_nonconverged += other.solver_nonconverged
        self.dual += other.dual
        self.cut += other.cut
        self.exact += other.exact
        self.iterations += other.iterations
        self.max_iterations = max(self.max_iterations, other.max_iterations)


def run_trial(
    n: int,
    m: int,
    k: int,
    regime: Regime,
    stream: CounterStream,
    diagnostics: TrialDiagnostics | None = None,
) -> bool:
    """One Monte Carlo trial; True iff basis pursuit recovers the planted x0.

    Stream consumption order is frozen (changing it changes every seeded
    result): (1) the m*n matrix entries, row-major; (2) the support draw;
    (3) the sign draws (general regime only).  The planted vector has unit
    magnitudes — recovery success depends only on the pattern, and fixed
    magnitudes maximize reproducibility.  The outcome rests on a witness,
    never on an iteration cap: see :func:`_witnessed_outcome`.
    """
    regime = Regime.coerce(regime)
    if not 1 <= k < m < n:
        raise ValueError(f"need 1 <= k < m < n, got k={k}, m={m}, n={n}")
    a = stream.normals(m * n).reshape(m, n)
    support = stream.choose_support(n, k)
    if regime is Regime.GENERAL:
        signs = stream.sign_draws(k)
    else:
        signs = (1,) * k
    x0 = np.zeros(n)
    x0[list(support)] = np.array(signs, dtype=float)
    return _witnessed_outcome(a, x0, regime, diagnostics)


def _witnessed_outcome(
    a: np.ndarray, x0: np.ndarray, regime: Regime, diagnostics: TrialDiagnostics | None
) -> bool:
    """True iff x0 is the unique l1 minimizer for y = A x0, decided by a witness.

    ``solve_bp`` with the planted x0 stops on a strict dual certificate
    (success) or on a feasible point strictly below ||x0||_1 (failure).  A
    solve that reaches neither within its budget is decided by
    ``classify_nsp`` on x0's support/sign pattern: a certified verdict
    decides the trial, and an inconclusive one (a tie) counts as a failure.
    The route and the solver iterations go to ``diagnostics``.
    """
    solution = solve_bp(BPProblem(A=a, y=a @ x0, regime=regime), planted=x0)
    if solution.route == "undecided":
        support = np.flatnonzero(x0)
        pattern = SupportPattern(
            n=x0.size, support=tuple(support), signs=tuple(np.sign(x0[support]))
        )
        verdict = classify_nsp(a, pattern, regime).verdict
        recovered = verdict == CERTIFIED_SUCCESS
        route = "tie" if verdict == INCONCLUSIVE else "exact"
    else:
        recovered = solution.route == "dual"
        route = solution.route
    if diagnostics is not None:
        diagnostics.record(route, solution.iterations)
    return recovered


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _check_grid_values(name: str, values) -> tuple[float, ...]:
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"{name} grid must be non-empty")
    for v in values:
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} values must lie in (0, 1), got {v!r}")
    for left, right in zip(values, values[1:]):
        if not left < right:
            raise ValueError(f"{name} grid must be strictly increasing")
    return values


@dataclass(frozen=True)
class PhaseGrid:
    """A Monte Carlo experiment plan over an (alpha, beta) grid."""

    n: int
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    trials_per_cell: int
    seed: int
    regime: Regime = Regime.GENERAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alphas", _check_grid_values("alpha", self.alphas))
        object.__setattr__(self, "betas", _check_grid_values("beta", self.betas))
        object.__setattr__(self, "trials_per_cell", int(self.trials_per_cell))
        object.__setattr__(self, "seed", int(self.seed) & _MASK)
        object.__setattr__(self, "regime", Regime.coerce(self.regime))
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if self.trials_per_cell < 1:
            raise ValueError(f"trials_per_cell must be >= 1, got {self.trials_per_cell}")


@dataclass(frozen=True)
class PhaseCell:
    """Trial tally for one grid cell, with how its trials were decided."""

    alpha: float
    beta: float
    m: int
    k: int
    trials: int
    successes: int
    diagnostics: TrialDiagnostics = field(default_factory=TrialDiagnostics)

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.m:
            raise ValueError(f"need 1 <= k < m, got k={self.k}, m={self.m}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes must lie in [0, trials], got {self.successes}/{self.trials}"
            )

    @property
    def rate(self) -> float:
        return self.successes / self.trials


def _cell_tasks(grid: PhaseGrid) -> list[tuple[int, float, float, int, int]]:
    """Valid cells with their flat index (beta-major, alpha-minor).

    Skipped cells keep their index — the RNG derivation must not depend on
    which other cells are feasible.
    """
    tasks = []
    for bi, beta in enumerate(grid.betas):
        for ai, alpha in enumerate(grid.alphas):
            cell_index = bi * len(grid.alphas) + ai
            m = _round_half_up(alpha * grid.n)
            k = _round_half_up(beta * grid.n)
            if not 1 <= k < m < grid.n:
                _LOG.warning(
                    "skipping infeasible cell alpha=%r beta=%r (m=%d, k=%d, n=%d)",
                    alpha, beta, m, k, grid.n,
                )
                continue
            tasks.append((cell_index, alpha, beta, m, k))
    return tasks


def _run_cell(grid: PhaseGrid, task: tuple[int, float, float, int, int]):
    cell_index, alpha, beta, m, k = task
    diagnostics = TrialDiagnostics()
    successes = 0
    for trial in range(grid.trials_per_cell):
        stream = CounterStream(split_stream_seed(grid.seed, cell_index, trial))
        if run_trial(grid.n, m, k, grid.regime, stream, diagnostics):
            successes += 1
    return PhaseCell(
        alpha=alpha,
        beta=beta,
        m=m,
        k=k,
        trials=grid.trials_per_cell,
        successes=successes,
        diagnostics=diagnostics,
    )


@one_blas_thread
def run_phase_grid(
    grid: PhaseGrid,
    threads: int = 1,
    diagnostics: TrialDiagnostics | None = None,
) -> list[PhaseCell]:
    """All feasible cells of the grid, in (beta-major, alpha-minor) order.

    threads=1 runs inline, threads=0 uses a pool of one process per CPU this
    process may run on, threads=N uses a pool of N processes; no pool has
    more processes than there are feasible cells, and a pool of one runs
    inline.  Cell results are identical in all cases: each trial's stream is
    derived from (seed, cell index, trial index) alone, and the pool map
    preserves task order.  Each cell carries the diagnostics of its own
    trials; ``diagnostics`` also receives their sum.

    The whole grid runs on one BLAS thread, pool included.  The pool forks
    inside the ``one_blas_thread`` scope, so every worker inherits the pinned
    counts and an open scope: the solver scopes nested in it never reset the
    counts, and no worker starts a BLAS thread.  The caller's counts are
    restored once, when the grid returns or raises.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    tasks = _cell_tasks(grid)
    worker = functools.partial(_run_cell, grid)
    if threads == 0:
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    processes = min(threads, len(tasks))
    if processes <= 1:
        cells = [worker(task) for task in tasks]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            cells = pool.map(worker, tasks)
    if diagnostics is not None:
        for cell in cells:
            diagnostics.merge(cell.diagnostics)
    return cells


def estimate_transition(cells) -> float:
    """Empirical 50% crossing of the success rate along alpha, for one beta.

    Isotonic regression (trial-weighted, increasing) smooths the raw rates,
    then the crossing is linearly interpolated between the bracketing grid
    points.
    """
    cells = sorted(cells, key=lambda c: c.alpha)
    if len(cells) < 4:
        raise ValueError(f"need at least 4 cells, got {len(cells)}")
    betas = {c.beta for c in cells}
    if len(betas) != 1:
        raise ValueError(f"cells must share a single beta, got {sorted(betas)}")
    alphas = np.array([c.alpha for c in cells])
    if np.unique(alphas).size != alphas.size:
        raise ValueError("cells must have distinct alpha values")
    rates = np.array([c.rate for c in cells])
    weights = np.array([float(c.trials) for c in cells])
    if rates.min() >= 0.3 or rates.max() <= 0.7:
        raise ValueError(
            "success rates must span below 0.3 and above 0.7; widen the alpha grid"
        )
    fitted = np.asarray(isotonic_regression(rates, weights=weights, increasing=True).x)
    above = np.nonzero(fitted >= 0.5)[0]
    if above.size == 0:
        raise ValueError("isotonic fit never reaches 0.5; widen the alpha grid")
    j = int(above[0])
    if j == 0:
        return float(alphas[0])
    f0, f1 = float(fitted[j - 1]), float(fitted[j])
    a0, a1 = float(alphas[j - 1]), float(alphas[j])
    t = (0.5 - f0) / (f1 - f0)
    return a0 + t * (a1 - a0)


@dataclass(frozen=True)
class FrameworkSample:
    """One rearranged Gaussian sample with its water-level quantities.

    ``gbar`` holds the n-k head magnitudes sorted increasingly followed by
    the k raw tail entries; ``c_w`` is the smallest dropped-head count at
    which the residual average S(c)/(n-c) falls below the next head
    magnitude; ``f_value`` is the square root of the remaining energy after
    subtracting the mean term S(c_w)^2/(n-c_w).
    """

    g: np.ndarray
    gbar: np.ndarray
    c_w: int
    f_value: float


def framework_cw(gbar, n: int, k: int) -> int:
    """Water-level index: smallest c in {0..n-k-1} with S(c)/(n-c) <= gbar[c].

    S(c) sums the head magnitudes above the first c minus the raw tail sum.
    Returns n-k-1 when the inequality never holds.  k = 0 (no tail) is
    allowed — the quantity is defined by the head alone then.
    """
    gbar = np.asarray(gbar, dtype=float).ravel()
    n, k = int(n), int(k)
    if gbar.size != n:
        raise ValueError(f"gbar must have length n={n}, got {gbar.size}")
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    head = gbar[: n - k]
    if head.size and (float(head.min()) < 0.0 or np.any(np.diff(head) < 0.0)):
        raise ValueError("gbar head must be nonnegative and nondecreasing")
    tail_sum = float(gbar[n - k :].sum())
    prefix = np.concatenate([[0.0], np.cumsum(head)])
    s_values = (prefix[-1] - prefix[:-1]) - tail_sum
    denominators = n - np.arange(n - k)
    satisfied = s_values / denominators <= head
    if not satisfied.any():
        return n - k - 1
    return int(np.argmax(satisfied))


def draw_framework_sample(n: int, k: int, stream: CounterStream) -> FrameworkSample:
    """Sample g, rearrange to gbar, and evaluate (c_w, f_value)."""
    n, k = int(n), int(k)
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    g = stream.normals(n)
    gbar = np.concatenate([np.sort(np.abs(g[: n - k])), g[n - k :]])
    c_w = framework_cw(gbar, n, k)
    remaining = gbar[c_w:]
    s_c = float(gbar[c_w : n - k].sum()) - float(gbar[n - k :].sum())
    inner = float(np.sum(remaining * remaining)) - s_c * s_c / (n - c_w)
    return FrameworkSample(g=g, gbar=gbar, c_w=c_w, f_value=math.sqrt(max(inner, 0.0)))


@dataclass(frozen=True)
class FrameworkResult:
    """Aggregated framework estimates for one (n, beta)."""

    n: int
    beta: float
    samples: int
    alpha_estimate: float
    cw_over_n: float


def run_framework(n: int, beta: float, samples: int, seed: int) -> FrameworkResult:
    """Mean f_value^2 / n (the alpha estimate) and mean c_w/n over samples.

    k = round(beta * n); the alpha estimate converges to alpha_w(beta) and
    c_w/n to 1 - theta_hat.  Sample i uses the derived stream
    split(seed, i), so the result is reproducible and order-independent.
    """
    n, samples = int(n), int(samples)
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if n < 1000:
        raise ValueError(f"n must be >= 1000 for meaningful concentration, got {n}")
    if samples < 10:
        raise ValueError(f"samples must be >= 10, got {samples}")
    k = _round_half_up(beta * n)
    if not 1 <= k < n:
        raise ValueError(f"beta={beta!r} gives infeasible k={k} at n={n}")
    alpha_total = 0.0
    cw_total = 0.0
    for i in range(samples):
        sample = draw_framework_sample(n, k, CounterStream(split_stream_seed(seed, i)))
        alpha_total += sample.f_value**2 / n
        cw_total += sample.c_w / n
    return FrameworkResult(
        n=n,
        beta=beta,
        samples=samples,
        alpha_estimate=alpha_total / samples,
        cw_over_n=cw_total / samples,
    )
