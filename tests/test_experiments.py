"""Unit tests for the counter-mode RNG, the Monte Carlo harness, and the
finite-n framework estimators."""

import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1weak import experiments, linalg, recovery
from l1weak.cert import _dual_certificate_holds
from l1weak.experiments import (
    CounterStream,
    FrameworkSample,
    PhaseCell,
    PhaseGrid,
    Regime,
    TrialDiagnostics,
    _witnessed_outcome,
    draw_framework_sample,
    estimate_transition,
    framework_cw,
    run_framework,
    run_phase_grid,
    run_trial,
    split_stream_seed,
)
from l1weak.threshold import solve_theta

_MASK = 0xFFFFFFFFFFFFFFFF

# Published splitmix64 output sequence for seed 1234567 (the counter-mode
# draw i equals the sequential generator's i-th output by construction).
SPLITMIX_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def _reference_mix(state: int) -> int:
    """Pure-Python splitmix64 finalizer, independent of the implementation."""
    z = state & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


class TestSplitmix:
    def test_published_vectors(self):
        stream = CounterStream(1234567)
        assert tuple(stream.u64_block(3).tolist()) == SPLITMIX_1234567
        assert stream.index == 3

    @given(st.integers(min_value=0, max_value=_MASK), st.integers(min_value=0, max_value=200))
    @settings(max_examples=30)
    def test_matches_reference_mix(self, seed, index):
        golden = 0x9E3779B97F4A7C15
        state = (seed + (index + 1) * golden) & _MASK
        want = _reference_mix(state)
        assert split_stream_seed(seed, index) == want
        stream = CounterStream(seed)
        stream.u64_block(index)
        assert int(stream.u64_block(1)[0]) == want

    def test_split_stream_seed_is_deterministic_and_distinct(self):
        a = split_stream_seed(42, 3, 7)
        assert a == split_stream_seed(42, 3, 7)
        assert a != split_stream_seed(42, 3, 8)
        assert a != split_stream_seed(42, 4, 7)
        assert a != split_stream_seed(43, 3, 7)


class TestCounterStreamDraws:
    def test_normals_consume_whole_pairs(self):
        odd = CounterStream(9)
        odd.normals(3)
        assert odd.index == 4  # two Box-Muller pairs
        even = CounterStream(9)
        first_three = even.normals(4)[:3]
        np.testing.assert_array_equal(CounterStream(9).normals(3), first_three)
        empty = CounterStream(9)
        draws = empty.normals(0)
        assert draws.dtype == np.float64 and draws.shape == (0,)
        assert empty.index == 0  # no pair drawn

    def test_normals_match_scalar_box_muller(self):
        seed = 77
        raw = [int(v) for v in CounterStream(seed).u64_block(4)]
        want = []
        for u1_bits, u2_bits in ((raw[0], raw[1]), (raw[2], raw[3])):
            u1 = ((u1_bits >> 11) + 1) * 2.0**-53
            u2 = (u2_bits >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            want.extend([r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)])
        np.testing.assert_array_equal(CounterStream(seed).normals(4), want)

    def test_normals_distribution_sanity(self):
        draws = CounterStream(123).normals(20000)
        assert abs(float(draws.mean())) < 0.03
        assert abs(float(draws.std()) - 1.0) < 0.03

    def test_choose_support_properties(self):
        for seed in range(10):
            support = CounterStream(seed).choose_support(17, 6)
            assert len(support) == 6
            assert len(set(support)) == 6
            assert list(support) == sorted(support)
            assert all(0 <= i < 17 for i in support)

    def test_sign_draws_values(self):
        signs = CounterStream(4).sign_draws(50)
        assert set(signs) <= {-1, 1}
        assert len(signs) == 50


class TestRunTrial:
    def test_stream_order_is_frozen(self):
        # Mirror of the documented consumption order: matrix entries
        # (row-major), then support, then signs. If this test breaks, every
        # seeded result in every report changes.
        seed = split_stream_seed(2024, 0, 0)
        n, m, k = 10, 6, 2
        mirror = CounterStream(seed)
        a = mirror.normals(m * n).reshape(m, n)
        support = mirror.choose_support(n, k)
        signs = mirror.sign_draws(k)
        x0 = np.zeros(n)
        x0[list(support)] = signs
        from l1weak.recovery import BPProblem, check_recovery, solve_bp

        want = check_recovery(x0, solve_bp(BPProblem(A=a, y=a @ x0)))
        got = run_trial(n, m, k, Regime.GENERAL, CounterStream(seed))
        assert got == want

    def test_signed_draws_no_signs(self):
        # After a signed trial the stream index must equal matrix + support
        # consumption exactly (no sign draws).
        seed = 515
        stream = CounterStream(seed)
        n, m, k = 8, 5, 2
        run_trial(n, m, k, Regime.SIGNED, stream)
        mirror = CounterStream(seed)
        mirror.normals(m * n)
        mirror.choose_support(n, k)
        assert stream.index == mirror.index

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            run_trial(10, 10, 2, Regime.GENERAL, CounterStream(0))
        with pytest.raises(ValueError):
            run_trial(10, 4, 4, Regime.GENERAL, CounterStream(0))

    def test_easy_instance_succeeds(self):
        # m close to n: recovery is essentially certain.
        assert run_trial(20, 18, 1, Regime.GENERAL, CounterStream(5))

    def test_hard_instance_fails(self):
        # m barely above k: recovery is essentially impossible.
        assert not run_trial(40, 5, 4, Regime.GENERAL, CounterStream(6))


class TestWitnessedTrial:
    """Trial decisions rest on a witness: dual certificate, primal cut or cert verdict."""

    @pytest.mark.parametrize("regime", list(Regime))
    def test_exhausted_budget_decides_exactly(self, monkeypatch, regime):
        from l1weak import recovery
        from l1weak.recovery import BPProblem, simplex_reference

        monkeypatch.setattr(recovery, "_BUDGET", 1)
        n, m = 40, 20
        k = 8 if regime is Regime.GENERAL else 10
        outcomes = []
        for seed in range(6):
            mirror = CounterStream(seed)
            a = mirror.normals(m * n).reshape(m, n)
            support = mirror.choose_support(n, k)
            signs = mirror.sign_draws(k) if regime is Regime.GENERAL else (1,) * k
            x0 = np.zeros(n)
            x0[list(support)] = signs
            exact = simplex_reference(BPProblem(A=a, y=a @ x0, regime=regime))
            want = bool(np.allclose(exact.x_hat, x0, rtol=0.0, atol=1e-8))
            diagnostics = TrialDiagnostics()
            assert run_trial(n, m, k, regime, CounterStream(seed), diagnostics) == want
            assert diagnostics.routes() == {"dual": 0, "cut": 0, "exact": 1, "tie": 0}
            assert diagnostics.iterations == 1
            outcomes.append(want)
        assert True in outcomes and False in outcomes

    def test_tie_counts_as_failure(self):
        # The tie instance of tests/test_cert.py: null(A) = span{(1, 1)}, so
        # every point of the segment from (1, 0) to (0, -1) is optimal, and
        # no strict dual certificate exists for x0 = (1, 0).
        diagnostics = TrialDiagnostics()
        a = np.array([[1.0, -1.0]])
        assert not _witnessed_outcome(a, np.array([1.0, 0.0]), Regime.GENERAL, diagnostics)
        assert diagnostics.routes() == {"dual": 0, "cut": 0, "exact": 0, "tie": 1}
        assert diagnostics.tie == diagnostics.solver_nonconverged == 1

    @pytest.mark.parametrize("support", [np.array([0]), slice(0, 1)], ids=["indices", "slice"])
    def test_dual_certificate_helper(self, support):
        # Column 0 is the support.  Correcting nu = (5, c) onto a_0^T nu = 1
        # gives (1, c): off-support correlations c and -x, each just below
        # or just above the fixed bound 1 - 5e-7 in absolute value.
        below, above = 1.0 - 1e-6, 1.0 - 1e-7
        lower = np.array([[1.0]])
        target = np.ones(1)
        for c, x, general, signed in [
            (below, below, True, True),
            (above, below, False, False),
            (below, above, False, True),
        ]:
            a = np.array([[1.0, 0.0, -x], [0.0, 1.0, 0.0]])
            nu = np.array([5.0, c])
            assert _dual_certificate_holds(a, support, lower, nu, target, False) is general
            assert _dual_certificate_holds(a, support, lower, nu, target, True) is signed
            np.testing.assert_array_equal(nu, [5.0, c])


class TestPhaseGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseGrid(n=2, alphas=(0.5,), betas=(0.2,), trials_per_cell=1, seed=0)
        with pytest.raises(ValueError):
            PhaseGrid(n=10, alphas=(0.5, 0.4), betas=(0.2,), trials_per_cell=1, seed=0)
        with pytest.raises(ValueError):
            PhaseGrid(n=10, alphas=(1.5,), betas=(0.2,), trials_per_cell=1, seed=0)
        with pytest.raises(ValueError):
            PhaseGrid(n=10, alphas=(0.5,), betas=(0.2,), trials_per_cell=0, seed=0)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            PhaseCell(alpha=0.5, beta=0.2, m=3, k=3, trials=5, successes=0)
        with pytest.raises(ValueError):
            PhaseCell(alpha=0.5, beta=0.2, m=5, k=2, trials=5, successes=6)
        cell = PhaseCell(alpha=0.5, beta=0.2, m=5, k=2, trials=8, successes=6)
        assert cell.rate == 0.75

    def test_infeasible_cells_are_skipped(self, caplog):
        # alpha = 0.05 at n = 20 gives m = 1 <= k: skipped with a warning.
        grid = PhaseGrid(
            n=20, alphas=(0.05, 0.9), betas=(0.1,), trials_per_cell=2, seed=3
        )
        cells = run_phase_grid(grid)
        assert [c.m for c in cells] == [18]
        assert "skipping infeasible cell" in caplog.text

    def test_rounding_of_m_and_k(self):
        grid = PhaseGrid(
            n=21, alphas=(0.5,), betas=(0.12,), trials_per_cell=1, seed=0
        )
        cells = run_phase_grid(grid)
        # m = floor(0.5*21 + 0.5) = 11, k = floor(0.12*21 + 0.5) = 3.
        assert (cells[0].m, cells[0].k) == (11, 3)

    def test_threads_do_not_change_results(self):
        grid = PhaseGrid(
            n=22,
            alphas=(0.45, 0.75),
            betas=(0.1, 0.2),
            trials_per_cell=4,
            seed=90125,
        )
        inline = run_phase_grid(grid, threads=1)
        pooled = run_phase_grid(grid, threads=2)
        assert inline == pooled

    @pytest.mark.parametrize(
        "threads, cpus, expected",
        [(0, 64, 5), (0, 3, 3), (64, 1, 5), (2, 64, 2), (0, 1, None), (7, 64, 5)],
    )
    def test_pool_size_is_capped_by_cells(self, monkeypatch, threads, cpus, expected):
        requested = []

        class _RecordingPool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, func, tasks):
                return [func(task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        # cpu_count counts CPUs this process may not be allowed to run on.
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        monkeypatch.setattr(experiments, "run_trial", lambda *args: True)
        grid = PhaseGrid(
            n=40, alphas=(0.3, 0.4, 0.5, 0.6, 0.7), betas=(0.1,), trials_per_cell=2, seed=1
        )
        cells = run_phase_grid(grid, threads=threads)
        assert len(cells) == 5 and all(c.successes == 2 for c in cells)
        assert requested == ([] if expected is None else [expected])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_trial_solves_run_on_one_blas_thread(self, blas_outer_counts, monkeypatch, threads):
        # Each stubbed trial makes one tiny solve through the solver binding
        # run_trial uses and reports whether its body saw one BLAS thread per
        # runtime.  Forked pool workers inherit both patches and the outer
        # thread count.
        a = np.random.default_rng(3).standard_normal((4, 6))
        x0 = np.zeros(6)
        x0[2] = 1.0
        counts = []

        def recording_cholesky(matrix):
            counts.append([rt.get_num_threads() for rt in linalg._blas_runtimes()])
            return linalg.cholesky_spd(matrix)

        def trial(n, m, k, regime, stream, diagnostics=None):
            counts.clear()
            experiments.solve_bp(recovery.BPProblem(A=a, y=a @ x0), planted=x0)
            return bool(counts) and all(c == [1] * len(blas_outer_counts) for c in counts)

        monkeypatch.setattr(recovery, "cholesky_spd", recording_cholesky)
        monkeypatch.setattr(experiments, "run_trial", trial)
        grid = PhaseGrid(
            n=20, alphas=(0.4, 0.6, 0.8), betas=(0.1,), trials_per_cell=3, seed=5
        )
        cells = run_phase_grid(grid, threads=threads)
        assert len(cells) == 3 and all(c.successes == c.trials for c in cells)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pin_lasts_for_the_whole_worker(self, blas_outer_counts, monkeypatch, threads):
        # Each stubbed trial makes one tiny solve, then reads the BLAS thread
        # counts outside it: a solver scope that reset the counts on exit
        # would show here.  In a pool worker it also counts the process's OS
        # threads, which would include any BLAS thread the worker started.
        # Failures raise in the worker and reach the caller through the map.
        a = np.random.default_rng(3).standard_normal((4, 6))
        x0 = np.zeros(6)
        x0[2] = 1.0
        caller = os.getpid()
        tasks_dir = "/proc/self/task"

        def thread_counts():
            return [rt.get_num_threads() for rt in linalg._blas_runtimes()]

        def trial(n, m, k, regime, stream, diagnostics=None):
            experiments.solve_bp(recovery.BPProblem(A=a, y=a @ x0), planted=x0)
            assert thread_counts() == [1] * len(blas_outer_counts), thread_counts()
            if os.getpid() != caller and os.path.isdir(tasks_dir):
                assert len(os.listdir(tasks_dir)) == 1, os.listdir(tasks_dir)
            return True

        def failing_trial(*args):
            raise RuntimeError("trial failed")

        grid = PhaseGrid(
            n=20, alphas=(0.4, 0.6, 0.8), betas=(0.1,), trials_per_cell=3, seed=5
        )
        monkeypatch.setattr(experiments, "run_trial", trial)
        cells = run_phase_grid(grid, threads=threads)
        assert len(cells) == 3 and all(c.successes == c.trials for c in cells)
        assert thread_counts() == blas_outer_counts
        monkeypatch.setattr(experiments, "run_trial", failing_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_phase_grid(grid, threads=threads)
        assert thread_counts() == blas_outer_counts

    def test_rerun_is_identical(self):
        grid = PhaseGrid(
            n=18, alphas=(0.6,), betas=(0.15,), trials_per_cell=5, seed=11
        )
        assert run_phase_grid(grid) == run_phase_grid(grid)

    def test_diagnostics_merge(self):
        d1 = TrialDiagnostics(tie=2, dual=1)
        d1.merge(TrialDiagnostics(tie=3, cut=4))
        assert (d1.tie, d1.dual, d1.cut, d1.exact) == (5, 1, 4, 0)
        assert d1.solver_nonconverged == 5

    def test_cells_carry_route_counts(self):
        grid = PhaseGrid(
            n=24, alphas=(0.4, 0.8), betas=(0.1,), trials_per_cell=4, seed=77
        )
        total = TrialDiagnostics(dual=1, iterations=5, max_iterations=5)
        cells = run_phase_grid(grid, diagnostics=total)
        for cell in cells:
            assert sum(cell.diagnostics.routes().values()) == cell.trials
            assert cell.diagnostics.dual + cell.diagnostics.exact >= cell.successes
            assert 0 < cell.diagnostics.max_iterations <= cell.diagnostics.iterations
        assert total.dual == 1 + sum(c.diagnostics.dual for c in cells)
        assert total.iterations == 5 + sum(c.diagnostics.iterations for c in cells)
        assert total.max_iterations == max(c.diagnostics.max_iterations for c in cells)


class TestEstimateTransition:
    @staticmethod
    def _cell(alpha, rate, trials=10, beta=0.2):
        return PhaseCell(
            alpha=alpha,
            beta=beta,
            m=max(2, int(alpha * 100)),
            k=1,
            trials=trials,
            successes=int(round(rate * trials)),
        )

    def test_step_profile_midpoint(self):
        cells = [self._cell(a, r) for a, r in [(0.1, 0.0), (0.2, 0.0), (0.3, 1.0), (0.4, 1.0)]]
        assert abs(estimate_transition(cells) - 0.25) <= 1e-12

    def test_order_independent(self):
        cells = [self._cell(a, r) for a, r in [(0.4, 1.0), (0.1, 0.0), (0.3, 0.8), (0.2, 0.1)]]
        assert estimate_transition(cells) == estimate_transition(list(reversed(cells)))

    def test_non_monotone_rates_are_smoothed(self):
        cells = [
            self._cell(a, r)
            for a, r in [(0.1, 0.0), (0.2, 0.3), (0.25, 0.1), (0.3, 0.9), (0.4, 1.0)]
        ]
        crossing = estimate_transition(cells)
        assert 0.2 < crossing < 0.35

    def test_rejects_too_few_cells(self):
        cells = [self._cell(a, r) for a, r in [(0.1, 0.0), (0.2, 0.0), (0.3, 1.0)]]
        with pytest.raises(ValueError):
            estimate_transition(cells)

    def test_rejects_mixed_betas(self):
        cells = [self._cell(a, r) for a, r in [(0.1, 0.0), (0.2, 0.0), (0.3, 1.0)]]
        cells.append(self._cell(0.4, 1.0, beta=0.3))
        with pytest.raises(ValueError):
            estimate_transition(cells)

    def test_rejects_missing_span(self):
        flat = [self._cell(a, 0.6) for a in (0.1, 0.2, 0.3, 0.4)]
        with pytest.raises(ValueError):
            estimate_transition(flat)

    def test_rejects_duplicate_alphas(self):
        cells = [self._cell(a, r) for a, r in [(0.1, 0.0), (0.1, 0.0), (0.3, 1.0), (0.4, 1.0)]]
        with pytest.raises(ValueError):
            estimate_transition(cells)


class TestFramework:
    def test_cw_hand_case(self):
        # head [0.1, 0.2, 3.0], tail [0.5]: S(c)/(4-c) = 0.7, 0.9, 1.25 and
        # only c = 2 satisfies S(c)/(n-c) <= head[c].
        assert framework_cw([0.1, 0.2, 3.0, 0.5], n=4, k=1) == 2

    def test_cw_never_satisfied_returns_last(self):
        # Large negative tail keeps S(c) big: falls through to n - k - 1.
        assert framework_cw([0.1, 0.2, -5.0], n=3, k=1) == 1

    def test_cw_with_empty_tail(self):
        # k = 0: S(2)/1 = 3.0 <= head[2] = 3.0 is the first satisfied index.
        assert framework_cw([1.0, 2.0, 3.0], n=3, k=0) == 2

    def test_cw_validation(self):
        with pytest.raises(ValueError):
            framework_cw([1.0, 2.0], n=3, k=1)  # wrong length
        with pytest.raises(ValueError):
            framework_cw([2.0, 1.0, 0.5], n=3, k=1)  # head not sorted
        with pytest.raises(ValueError):
            framework_cw([-1.0, 2.0, 0.5], n=3, k=1)  # negative head
        with pytest.raises(ValueError):
            framework_cw([1.0, 2.0, 3.0], n=3, k=3)  # k = n

    def test_sample_hand_values(self):
        # Crafted gbar hitting c_w = 0: f^2 = sum(gbar^2) - S(0)^2 / n.
        gbar = np.array([1.0, 1.1, 1.2, 1.3, 4.0])
        assert framework_cw(gbar, n=5, k=1) == 0
        s0 = float(gbar[:4].sum() - gbar[4:].sum())
        want = math.sqrt(float((gbar**2).sum()) - s0 * s0 / 5.0)
        # Package the same numbers through a degenerate one-draw "stream".

        class _Fixed:
            def normals(self, count):
                assert count == 5
                return np.array([1.3, -1.0, 1.1, -1.2, 4.0])

        sample = draw_framework_sample(5, 1, _Fixed())
        np.testing.assert_array_equal(sample.gbar, gbar)
        assert sample.c_w == 0
        assert abs(sample.f_value - want) <= 1e-12

    def test_sample_structure(self):
        sample = draw_framework_sample(50, 10, CounterStream(31))
        assert isinstance(sample, FrameworkSample)
        head = sample.gbar[:40]
        assert (head >= 0).all() and (np.diff(head) >= 0).all()
        np.testing.assert_array_equal(sample.gbar[40:], sample.g[40:])
        assert sample.f_value >= 0.0
        assert 0 <= sample.c_w <= 39

    def test_estimate_approaches_threshold(self):
        est = run_framework(1000, 0.3, 12, 2024).alpha_estimate
        target = solve_theta(Regime.GENERAL, 0.3)
        assert abs(est - target) <= 0.03

    def test_run_framework_aggregates(self):
        res = run_framework(2000, 0.3, 10, 7)
        assert res.n == 2000 and res.samples == 10
        target = solve_theta(Regime.GENERAL, 0.3)
        assert abs(res.alpha_estimate - target) <= 0.03
        # c_w / n estimates the head fraction 1 - theta_hat.
        assert abs(res.cw_over_n - (1.0 - target)) <= 0.03

    def test_estimate_is_deterministic(self):
        a = run_framework(1000, 0.1, 10, 5)
        b = run_framework(1000, 0.1, 10, 5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            run_framework(500, 0.1, 10, 5)  # n too small
        with pytest.raises(ValueError):
            run_framework(1000, 0.1, 5, 5)  # too few samples
        with pytest.raises(ValueError):
            run_framework(2000, 1.2, 10, 5)  # beta out of range
