"""Unit tests for the basis-pursuit solvers (operator splitting + HiGHS simplex)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1weak import recovery
from l1weak.experiments import (
    CounterStream,
    TrialDiagnostics,
    _round_half_up,
    _witnessed_outcome,
    run_trial,
    split_stream_seed,
)
from l1weak.recovery import (
    BPProblem,
    InfeasibleError,
    Regime,
    check_recovery,
    simplex_reference,
    solve_bp,
)
from l1weak.threshold import alpha_w

import oracles


def _sparse_instance(seed: int, n: int, m: int, k: int, regime: Regime):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    if regime is Regime.SIGNED:
        x0[support] = rng.uniform(0.5, 2.0, size=k)
    else:
        x0[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    return a, x0, a @ x0


class TestBPProblem:
    def test_rejects_wide_shape_violation(self):
        with pytest.raises(ValueError):
            BPProblem(A=np.zeros((3, 2)), y=np.zeros(3))

    def test_rejects_bad_rhs_length(self):
        with pytest.raises(ValueError):
            BPProblem(A=np.zeros((2, 4)), y=np.zeros(3))

    def test_rejects_non_finite(self):
        a = np.zeros((1, 3))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            BPProblem(A=a, y=np.zeros(1))

    @pytest.mark.parametrize(
        ("a", "y", "message"),
        [
            (np.zeros(3), np.zeros(1), "A must be a 2-d array"),
            # Non-finiteness is reported before a wrong length.
            (np.ones((2, 4)), [np.nan, 0.0, 0.0], "y contains non-finite"),
        ],
    )
    def test_error_names_the_argument(self, a, y, message):
        with pytest.raises(ValueError, match=message):
            BPProblem(A=a, y=y)


class TestSolveBP:
    def test_identity_echoes_input(self):
        x = np.array([1.5, -2.0, 0.0, 3.0])
        sol = solve_bp(BPProblem(A=np.eye(4), y=x))
        assert (sol.route, sol.converged) == ("vertex", True)
        np.testing.assert_allclose(sol.x_hat, x, atol=1e-6)

    def test_prefers_large_coefficient_column(self):
        # min |x1| + |x2| s.t. 2 x1 + x2 = 2: the vertex (1, 0) has l1 norm
        # 1, the vertex (0, 2) has 2.
        sol = solve_bp(BPProblem(A=np.array([[2.0, 1.0]]), y=np.array([2.0])))
        assert sol.converged
        np.testing.assert_allclose(sol.x_hat, [1.0, 0.0], atol=1e-6)

    def test_feasibility_invariant(self):
        a, x0, y = _sparse_instance(7, 30, 18, 4, Regime.GENERAL)
        sol = solve_bp(BPProblem(A=a, y=y))
        assert sol.converged
        assert sol.feas_residual <= 1e-8 * max(1.0, float(np.linalg.norm(y)))
        assert abs(sol.objective - float(np.abs(sol.x_hat).sum())) <= 1e-12

    def test_recovers_sparse_vector_with_enough_rows(self):
        a, x0, y = _sparse_instance(8, 40, 30, 3, Regime.GENERAL)
        sol = solve_bp(BPProblem(A=a, y=y))
        assert check_recovery(x0, sol)

    def test_signed_iterates_stay_nonnegative(self):
        a, x0, y = _sparse_instance(9, 30, 20, 4, Regime.SIGNED)
        sol = solve_bp(BPProblem(A=a, y=y, regime=Regime.SIGNED))
        assert sol.converged
        assert float(sol.x_hat.min()) >= 0.0
        assert check_recovery(x0, sol)

    def test_positive_scale_equivariance(self):
        # l1 minimization is positively homogeneous in y.
        a, x0, y = _sparse_instance(10, 20, 14, 3, Regime.GENERAL)
        sol1 = solve_bp(BPProblem(A=a, y=y))
        sol2 = solve_bp(BPProblem(A=a, y=3.0 * y))
        np.testing.assert_allclose(sol2.x_hat, 3.0 * sol1.x_hat, atol=1e-5)

    def test_zero_rhs_gives_zero(self):
        a = np.random.default_rng(3).standard_normal((4, 9))
        sol = solve_bp(BPProblem(A=a, y=np.zeros(4)))
        assert (sol.route, sol.converged) == ("vertex", True)
        np.testing.assert_allclose(sol.x_hat, np.zeros(9), atol=1e-8)

    @pytest.mark.parametrize(
        ("regime", "iterations"), [(Regime.GENERAL, 24), (Regime.SIGNED, 16)], ids=["general", "signed"]
    )
    def test_unplanted_stops_are_pinned(self, regime, iterations):
        # A solve without a planted vector stops on a vertex certificate at a
        # dual check (every 8 iterations), and the certified fit is the LP
        # optimum that HiGHS finds.
        a, x0, y = _sparse_instance(5, 120, 60, 20, regime)
        problem = BPProblem(A=a, y=y, regime=regime)
        sol = solve_bp(problem)
        assert (sol.route, sol.iterations) == ("vertex", iterations)
        assert sol.converged
        np.testing.assert_allclose(sol.x_hat, simplex_reference(problem).x_hat, rtol=0.0, atol=1e-9)

    def test_tie_falls_back_to_the_exact_vertex(self):
        # A = [1, -1], y = [1] is optimal on a whole segment, so no strict
        # certificate exists: the budget runs out and HiGHS answers.
        problem = BPProblem(A=np.array([[1.0, -1.0]]), y=np.array([1.0]))
        sol = solve_bp(problem)
        assert (sol.route, sol.iterations) == ("exact", recovery._BUDGET)
        assert sol.converged
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.feas_residual <= 1e-12

    def test_signed_infeasible_raises(self):
        a = np.array([[1.0, 2.0, 0.5]])
        with pytest.raises(InfeasibleError):
            solve_bp(BPProblem(A=a, y=np.array([-1.0]), regime=Regime.SIGNED))

    def test_vertex_objectives_agree_with_highs_at_n200(self):
        # Draws on both sides of the weak threshold at n = 200, in the rows
        # where a residual-stopped solve used to run to its iteration cap:
        # every certified vertex is the LP optimum.  The reference is HiGHS at
        # 1e-10 feasibility tolerances: at its 1e-7 defaults the l1 norm of
        # its vertex strays by up to 5.2e-9, half the bound.
        rng = np.random.default_rng(2031)
        n, draws = 200, 16
        for regime, beta in ((Regime.GENERAL, 0.25), (Regime.SIGNED, 0.15)):
            k = _round_half_up(beta * n)
            for offset in (-0.035, 0.035):
                m = _round_half_up((alpha_w(regime, beta).alpha + offset) * n)
                fallbacks, worst = 0, 0.0
                for _ in range(draws):
                    a = rng.standard_normal((m, n))
                    x0 = np.zeros(n)
                    support = rng.choice(n, size=k, replace=False)
                    x0[support] = 1.0 if regime is Regime.SIGNED else rng.choice([-1.0, 1.0], k)
                    problem = BPProblem(A=a, y=a @ x0, regime=regime)
                    sol = solve_bp(problem)
                    assert sol.route in ("vertex", "exact")
                    if sol.route == "exact":
                        fallbacks += 1
                        continue
                    optimum = oracles.basis_pursuit_optimum(a, problem.y, regime is Regime.SIGNED)
                    worst = max(worst, abs(sol.objective - optimum))
                # The certificate, not the fallback, decides most draws.
                assert fallbacks <= draws // 4
                print(
                    f"{regime.value} beta={beta} alpha_w{offset:+.3f} (m={m}, k={k}): "
                    f"{fallbacks}/{draws} exact fallbacks, max vertex gap {worst:.1e}"
                )
                assert worst <= 1e-8


class TestSimplexReference:
    def test_matches_hand_lp(self):
        sol = simplex_reference(BPProblem(A=np.array([[2.0, 1.0]]), y=np.array([2.0])))
        np.testing.assert_allclose(sol.x_hat, [1.0, 0.0], atol=1e-12)
        assert sol.converged
        assert sol.feas_residual <= 1e-12

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_operator_splitting(self, regime, seed):
        a, x0, y = _sparse_instance(seed, 24, 16, 4, regime)
        problem = BPProblem(A=a, y=y, regime=regime)
        admm = solve_bp(problem)
        exact = simplex_reference(problem)
        # A fallback would return HiGHS's own vertex and pass vacuously.
        assert admm.route == "vertex" and exact.converged
        assert abs(admm.objective - exact.objective) <= 1e-6

    def test_signed_infeasible_raises(self):
        # A x = y with x >= 0 is impossible when a row of A is nonnegative
        # but the corresponding y entry is negative.
        a = np.array([[1.0, 2.0, 0.5]])
        y = np.array([-1.0])
        with pytest.raises(InfeasibleError):
            simplex_reference(BPProblem(A=a, y=y, regime=Regime.SIGNED))

    def test_negative_rhs_rows_handled(self):
        # Row orientation must not change the optimum.
        a = np.array([[2.0, 1.0]])
        plus = simplex_reference(BPProblem(A=a, y=np.array([2.0])))
        minus = simplex_reference(BPProblem(A=a, y=np.array([-2.0])))
        np.testing.assert_allclose(minus.x_hat, -plus.x_hat, atol=1e-12)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_agrees_above_former_size_cap(self, regime):
        # n = 200: the HiGHS oracle has no size cap.
        a, x0, y = _sparse_instance(31, 200, 120, 20, regime)
        problem = BPProblem(A=a, y=y, regime=regime)
        admm = solve_bp(problem)
        exact = simplex_reference(problem)
        # A fallback would return HiGHS's own vertex and pass vacuously.
        assert admm.route == "vertex" and exact.converged
        assert abs(admm.objective - exact.objective) <= 1e-6
        np.testing.assert_allclose(exact.x_hat, x0, rtol=0.0, atol=1e-8)


class TestCheckRecovery:
    def test_accepts_exact_match(self):
        a, x0, y = _sparse_instance(14, 30, 22, 3, Regime.GENERAL)
        sol = solve_bp(BPProblem(A=a, y=y))
        assert check_recovery(x0, sol)

    def test_rejects_mismatch(self):
        a, x0, y = _sparse_instance(15, 30, 22, 3, Regime.GENERAL)
        sol = solve_bp(BPProblem(A=a, y=y))
        wrong = x0.copy()
        wrong[0] += 1.0
        assert not check_recovery(wrong, sol)

    def test_rejects_unconverged(self):
        from l1weak.recovery import BPSolution

        sol = BPSolution(
            x_hat=np.zeros(3), objective=0.0, feas_residual=0.0, iterations=1, route="undecided"
        )
        assert not check_recovery(np.zeros(3), sol)

    def test_rejects_dimension_mismatch(self):
        from l1weak.recovery import BPSolution

        sol = BPSolution(
            x_hat=np.zeros(3), objective=0.0, feas_residual=0.0, iterations=1, route="vertex"
        )
        with pytest.raises(ValueError):
            check_recovery(np.zeros(4), sol)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=10)
    def test_tolerance_scales_with_magnitude(self, scale):
        from l1weak.recovery import BPSolution

        x0 = np.array([scale * 10.0, 0.0])
        sol = BPSolution(
            x_hat=x0 + np.array([2e-4 * scale * 10.0, 0.0]),
            objective=0.0,
            feas_residual=0.0,
            iterations=1,
            route="vertex",
        )
        # Error 2e-4 * max relative to scale: below the default 1e-4 *
        # max(1, ||x0||_inf) exactly when measured against the max norm.
        assert check_recovery(x0, sol, tol=3e-4)
        assert not check_recovery(x0, sol, tol=1e-4)


class TestObjectiveCutoff:
    """Planted-vector stops: a primal cut on failures, a dual certificate on successes."""

    @staticmethod
    def _failing_instance(regime: Regime):
        # Far below the recovery threshold for beta = 0.25 at n = 120, so the
        # planted vector is essentially never the l1 minimizer.
        rng = np.random.default_rng(99)
        n, m, k = 120, 40, 30
        a = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        if regime is Regime.SIGNED:
            x0[support] = 1.0
        else:
            x0[support] = rng.choice([-1.0, 1.0], size=k)
        return a, x0, a @ x0

    @pytest.mark.parametrize("regime", [Regime.GENERAL, Regime.SIGNED])
    def test_fires_on_failing_instance(self, regime):
        a, x0, y = self._failing_instance(regime)
        sol = solve_bp(BPProblem(A=a, y=y, regime=regime), planted=x0)
        assert sol.route == "cut"
        assert not sol.converged
        assert sol.iterations < recovery._BUDGET
        # The cut is honest: an exact solve confirms the optimum really does
        # lie strictly below ||x0||_1.
        exact = simplex_reference(BPProblem(A=a, y=y, regime=regime))
        assert exact.objective < float(np.abs(x0).sum()) - recovery._CUTOFF_MARGIN

    @pytest.mark.parametrize("index", [262, 375])
    def test_fires_just_below_planted_norm(self, index):
        # Near-ties (general, then signed): the optimum lies 1.2e-3 and
        # 1.05e-2 below ||x0||_1, inside any margin wider than round-off.
        problem, x0 = _trial_instance(index)
        gap = float(np.abs(x0).sum()) - simplex_reference(problem).objective
        assert 1e-5 < gap < 0.05
        assert solve_bp(problem, planted=x0).route == "cut"

    @pytest.mark.parametrize("regime", [Regime.GENERAL, Regime.SIGNED])
    def test_never_fires_on_recoverable_instance(self, regime):
        a, x0, y = _sparse_instance(21, 30, 22, 3, regime)
        problem = BPProblem(A=a, y=y, regime=regime)
        armed = solve_bp(problem, planted=x0)
        plain = solve_bp(problem)
        assert armed.route == "dual"
        assert plain.route == "vertex"
        assert armed.iterations <= plain.iterations
        assert check_recovery(x0, plain)

    def test_tie_runs_the_whole_budget(self):
        # A = [1, -1] ties x0 = (1, 0) with every point of the segment to
        # (0, -1): no strict dual certificate and no point below ||x0||_1
        # exists, so only the budget stops the solve, however early its
        # iterates settle.
        a = np.array([[1.0, -1.0]])
        x0 = np.array([1.0, 0.0])
        sol = solve_bp(BPProblem(A=a, y=a @ x0), planted=x0)
        assert (sol.iterations, sol.route) == (recovery._BUDGET, "undecided")
        assert not sol.converged

    def test_rejects_planted_vector_off_the_measurements(self):
        # 3 x0 has the support and signs of x0 but A (3 x0) != y, so a
        # "dual" route would certify a vector that is not feasible; a NaN
        # entry would run the whole budget.
        a, x0, y = _sparse_instance(21, 30, 22, 3, Regime.GENERAL)
        problem = BPProblem(A=a, y=y)
        assert solve_bp(problem, planted=x0).route == "dual"
        with pytest.raises(ValueError, match="planted does not solve"):
            solve_bp(problem, planted=3.0 * x0)
        x0[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_bp(problem, planted=x0)

    def test_unplanted_solve_decides_failing_instance(self):
        # Without a planted vector the same instance stops on a vertex
        # certificate long before the budget, at the optimum HiGHS finds.
        a, x0, y = self._failing_instance(Regime.GENERAL)
        problem = BPProblem(A=a, y=y)
        sol = solve_bp(problem)
        assert sol.route == "vertex"
        assert sol.iterations < 1_000
        assert abs(sol.objective - simplex_reference(problem).objective) <= 1e-9


def _trial_instance(index: int):
    """A ``run_trial``-style instance at n = 60 with unit magnitudes."""
    regime = Regime.GENERAL if index % 2 == 0 else Regime.SIGNED
    n, m, k = 60, 24 + 3 * (index % 5), 12 + index % 3
    stream = CounterStream(split_stream_seed(2024, index))
    a = stream.normals(m * n).reshape(m, n)
    support = stream.choose_support(n, k)
    signs = stream.sign_draws(k) if regime is Regime.GENERAL else (1,) * k
    x0 = np.zeros(n)
    x0[list(support)] = signs
    return BPProblem(A=a, y=a @ x0, regime=regime), x0


#: (iterations, route, recovered) per ``_trial_instance`` index, as the
#: witnessed trial decision reaches them.
_FROZEN_TRIAL_OUTCOMES = [
    (64, "cut", False), (48, "dual", True), (64, "cut", False), (16, "dual", True),
    (832, "cut", False), (24, "dual", True), (32, "dual", True), (24, "dual", True),
    (64, "cut", False), (8, "dual", True), (128, "cut", False), (64, "cut", False),
    (64, "cut", False), (24, "dual", True), (8, "dual", True), (128, "dual", True),
    (64, "cut", False), (64, "cut", False), (16, "dual", True), (8, "dual", True),
]


def _trial_outcome(index: int):
    problem, x0 = _trial_instance(index)
    diagnostics = TrialDiagnostics()
    recovered = _witnessed_outcome(problem.A, x0, problem.regime, diagnostics)
    (route,) = [name for name, count in diagnostics.routes().items() if count]
    return diagnostics.iterations, route, recovered


class TestHotPath:
    """The witnessed stops on the 20 frozen trial instances."""

    def test_trial_outcomes_frozen(self):
        outcomes = [_trial_outcome(i) for i in range(len(_FROZEN_TRIAL_OUTCOMES))]
        assert outcomes == _FROZEN_TRIAL_OUTCOMES

    def test_witnessed_stops_agree_with_highs(self):
        routes = set()
        for index in range(len(_FROZEN_TRIAL_OUTCOMES)):
            problem, x0 = _trial_instance(index)
            sol = solve_bp(problem, planted=x0)
            exact = simplex_reference(problem)
            routes.add(sol.route)
            if sol.route == "dual":
                np.testing.assert_allclose(exact.x_hat, x0, rtol=0.0, atol=1e-8)
            elif sol.route == "cut":
                assert exact.objective < float(np.abs(x0).sum())
        assert {"dual", "cut"} <= routes

    def test_cutoff_resolves_only_on_support_change(self, monkeypatch):
        # Index 5 is a success; with the dual certificate switched off its
        # cut checks never fire, and its support settles over dozens of
        # checks before the budget runs out.
        problem, x0 = _trial_instance(5)
        monkeypatch.setattr(recovery, "_dual_certificate_holds", lambda *args: False)
        seen, solved_at = [], []
        flatnonzero = np.flatnonzero

        def recording_flatnonzero(v):
            support = flatnonzero(v)
            seen.append(tuple(support))
            return support

        def counting(solver):
            # Records which check (its index in ``seen``) made each candidate solve.
            def wrapper(*args, **kwargs):
                solved_at.append(len(seen) - 1)
                return solver(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "flatnonzero", recording_flatnonzero)
        monkeypatch.setattr(recovery, "lstsq", counting(recovery.lstsq))
        monkeypatch.setattr(recovery, "nnls", counting(recovery.nnls))
        sol = solve_bp(problem, planted=x0)

        assert (sol.iterations, sol.route) == (recovery._BUDGET, "undecided")
        # One call finds the planted support, then one per 64-iteration check.
        assert len(seen) == 1 + sol.iterations // recovery._CUTOFF_CHECK_PERIOD
        checks = sorted(set(solved_at))
        assert 0 < len(checks) <= len(set(seen)) < len(seen)
        # A check solves only when its support differs from the previous check's.
        assert all(i == 1 or seen[i] != seen[i - 1] for i in checks)


def _signed_grid_trial(n: int, beta: float, offset: float, seed: int, cell: int, trial: int):
    """A signed phase-grid trial drawn as ``run_trial`` draws it, at alpha_w(beta) + offset."""
    m = _round_half_up((alpha_w(Regime.SIGNED, beta).alpha + offset) * n)
    k = _round_half_up(beta * n)
    stream = CounterStream(split_stream_seed(seed, cell, trial))
    a = stream.normals(m * n).reshape(m, n)
    x0 = np.zeros(n)
    x0[list(stream.choose_support(n, k))] = 1.0
    return BPProblem(A=a, y=a @ x0, regime=Regime.SIGNED), x0


def _found_trial(trial: int):
    # phase-near signed beta = 0.15, cell 1 (alpha_w - 0.035): m = 62, k = 30.
    return _signed_grid_trial(200, 0.15, -0.035, 11, 1, trial)


#: 60 signed trials at n = 80 around alpha_w: beta 0.15 and 0.25, offsets
#: -0.06, -0.03 and 0, ten trials per cell.
_SIGNED_CORPUS = [
    (80, beta, offset, 13, 3 * bi + oi, trial)
    for bi, beta in enumerate((0.15, 0.25))
    for oi, offset in enumerate((-0.06, -0.03, 0.0))
    for trial in range(10)
]


def _raising_nnls(calls: list):
    def nnls(*args, **kwargs):
        calls.append(args[0].shape)
        raise RuntimeError("Maximum number of iterations reached.")

    return nnls


class TestSignedCut:
    """The signed regime's NNLS candidate on supp(z) | S."""

    def test_nnls_never_sees_an_empty_shape(self, monkeypatch):
        # SciPy's nnls aborts the process on an m x 0 matrix and returns
        # uninitialized memory on a 0 x n one; the union U contains the
        # nonempty support S and m >= 1, which keeps both out of reach.
        shapes = []
        nnls = recovery.nnls

        def guarded(matrix, rhs, *args, **kwargs):
            assert min(matrix.shape) > 0, matrix.shape
            shapes.append(matrix.shape)
            return nnls(matrix, rhs, *args, **kwargs)

        monkeypatch.setattr(recovery, "nnls", guarded)
        for seed, n in itertools.product(range(3), range(2, 7)):
            for m, k in itertools.product(range(1, n), range(1, n)):
                rng = np.random.default_rng([seed, n, m, k])
                a = rng.standard_normal((m, n))
                x0 = np.zeros(n)
                x0[rng.choice(n, size=k, replace=False)] = 1.0
                solve_bp(BPProblem(A=a, y=a @ x0, regime=Regime.SIGNED), planted=x0)
        assert shapes

    @pytest.mark.parametrize("trial", [6, 7])
    def test_cuts_trials_the_support_fit_missed(self, trial):
        # The least-squares candidates on supp(z) alone are rejected here
        # (a residual, or a slightly negative coefficient), and the solve
        # used to run its 2,048-iteration budget.
        problem, x0 = _found_trial(trial)
        assert (problem.m, int(x0.sum())) == (62, 30)
        sol = solve_bp(problem, planted=x0)
        assert sol.route == "cut"
        assert sol.iterations <= 1_024
        assert simplex_reference(problem).objective < 30.0
        # The same draw through ``run_trial``.
        diagnostics = TrialDiagnostics()
        stream = CounterStream(split_stream_seed(11, 1, trial))
        assert not run_trial(200, 62, 30, Regime.SIGNED, stream, diagnostics)
        assert (diagnostics.cut, diagnostics.iterations) == (1, sol.iterations)

    def test_witnesses_agree_with_highs(self, monkeypatch):
        trials = [_signed_grid_trial(*args) for args in _SIGNED_CORPUS]
        routes = []
        for problem, x0 in trials:
            sol = solve_bp(problem, planted=x0)
            optimum = simplex_reference(problem).objective
            planted_norm = float(x0.sum())
            routes.append(sol.route)
            if sol.route == "cut":
                assert optimum < planted_norm - recovery._CUTOFF_MARGIN
            elif sol.route == "dual":
                assert abs(optimum - planted_norm) <= 1e-6
        assert routes.count("cut") > 10 and routes.count("dual") > 10
        # Some of those cuts come from the NNLS candidate.
        monkeypatch.setattr(recovery, "nnls", _raising_nnls([]))
        without_nnls = [solve_bp(problem, planted=x0).route for problem, x0 in trials]
        assert without_nnls.count("cut") < routes.count("cut")

    @pytest.mark.parametrize(("trial", "route"), [(6, "exact"), (7, "exact"), (11, "dual")])
    def test_nnls_failure_never_decides(self, monkeypatch, trial, route):
        # Without NNLS, trial 6's support fit cuts at iteration 1,536 and
        # trial 7 finds no cut; a 1,024 budget keeps both on the exact route.
        monkeypatch.setattr(recovery, "_BUDGET", 1_024)
        problem, x0 = _found_trial(trial)
        plain = _witnessed_outcome(problem.A, x0, problem.regime, TrialDiagnostics())
        calls = []
        monkeypatch.setattr(recovery, "nnls", _raising_nnls(calls))
        diagnostics = TrialDiagnostics()
        recovered = _witnessed_outcome(problem.A, x0, problem.regime, diagnostics)
        assert calls
        assert recovered == plain == (route == "dual")
        assert diagnostics.routes()[route] == 1


def test_planted_penalty_moves_no_outcome(monkeypatch):
    # The planted penalty changes where and when a solve stops, never the
    # trial's decision: every dual or cut stop is a witness that HiGHS
    # confirms.  Both witnesses must still fire at every rho, which a dual
    # check that forms nu from a stale rho would not.
    instances = [_trial_instance(i) for i in range(len(_FROZEN_TRIAL_OUTCOMES))]
    instances += [_signed_grid_trial(*args) for args in _SIGNED_CORPUS]
    optima = [simplex_reference(problem).objective for problem, _ in instances]
    decisions = []
    for rho in (0.5, 1.0, 4.0, 8.0):
        monkeypatch.setattr(recovery, "_RHO", {regime: rho for regime in Regime})
        recovered, routes = [], set()
        for (problem, x0), optimum in zip(instances, optima):
            diagnostics = TrialDiagnostics()
            recovered.append(_witnessed_outcome(problem.A, x0, problem.regime, diagnostics))
            (route,) = [name for name, count in diagnostics.routes().items() if count]
            routes.add(route)
            planted_norm = float(np.abs(x0).sum())
            if route == "dual":
                assert abs(optimum - planted_norm) <= 1e-6, (rho, route)
            elif route == "cut":
                assert optimum < planted_norm - recovery._CUTOFF_MARGIN, (rho, route)
        assert {"dual", "cut"} <= routes, rho
        decisions.append(recovered)
    assert all(d == decisions[0] for d in decisions)
