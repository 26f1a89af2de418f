"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints `PASS|FAIL criterion N: <measured vs bound>` (pytest runs
with -s, so the lines land in the captured run log) and then asserts, so a
red run still shows the measured numbers for all criteria that executed.
Runtime ceilings are asserted where a guarantee states one.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from l1weak.cert import (
    CERTIFIED_FAILURE,
    CERTIFIED_SUCCESS,
    SupportPattern,
    classify_nsp,
    construct_counterexample,
    tau_dual,
    verify_certificate,
)
from l1weak.cli import dispatch
from l1weak.experiments import PhaseGrid, estimate_transition, run_framework, run_phase_grid
from l1weak.recovery import BPProblem, check_recovery, simplex_reference, solve_bp
from l1weak.threshold import Regime, alpha_bound, alpha_w, char_residual, solve_theta

import oracles

BETA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
REGIMES = (Regime.GENERAL, Regime.SIGNED)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def _random_pattern(rng: np.random.Generator, n: int, k: int, regime: Regime) -> SupportPattern:
    support = tuple(int(i) for i in sorted(rng.choice(n, size=k, replace=False)))
    if regime is Regime.GENERAL:
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
    else:
        signs = (1,) * k
    return SupportPattern(n=n, support=support, signs=signs)


def test_criterion_1_bound_coincidence():
    start = time.perf_counter()
    spread = 0.0
    deviation = 0.0
    for regime in REGIMES:
        for beta in BETA_GRID:
            theta = solve_theta(regime, beta)
            lower = alpha_bound(regime, "lower", beta, theta)
            upper = alpha_bound(regime, "upper", beta, theta)
            spread = max(spread, abs(lower - upper))
            deviation = max(deviation, abs(lower - theta), abs(upper - theta))
    elapsed = time.perf_counter() - start
    ok = spread <= 1e-9 and deviation <= 1e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        f"max |lower-upper| = {spread:.3e}, max |bound-theta_hat| = {deviation:.3e} "
        f"(bound 1e-9); {elapsed:.2f}s < 1s",
    )
    assert ok


def test_criterion_2_characterization_residual():
    worst = 0.0
    curves = {}
    for regime in REGIMES:
        alphas = []
        for beta in BETA_GRID:
            point = alpha_w(regime, beta)
            worst = max(worst, abs(char_residual(regime, point.theta_hat, beta)))
            alphas.append(point.alpha)
        curves[regime] = alphas
    increasing = all(
        b > a for alphas in curves.values() for a, b in zip(alphas, alphas[1:])
    )
    ordered = all(
        s <= g for s, g in zip(curves[Regime.SIGNED], curves[Regime.GENERAL])
    )
    ok = worst <= 1e-10 and increasing and ordered
    _report(
        2,
        ok,
        f"max |residual at root| = {worst:.3e} (bound 1e-10); "
        f"strictly increasing = {increasing}, signed <= general = {ordered}",
    )
    assert ok


def test_criterion_3_certificate_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    nonconverged = 0
    unverified = 0
    for regime in REGIMES:
        for _ in range(50):
            n = int(rng.integers(6, 41))
            m = int(rng.integers(2, n))
            k = int(rng.integers(1, n))
            a = rng.standard_normal((m, n))
            pattern = _random_pattern(rng, n, k, regime)
            cert = tau_dual(a, pattern, regime)
            primal = oracles.tau_primal(a, pattern.support, pattern.signs, regime.value)
            worst = max(worst, abs(cert.tau - primal))
            if not cert.converged:
                nonconverged += 1
            elif not verify_certificate(a, pattern, cert, regime).ok:
                unverified += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and nonconverged == 0 and unverified == 0 and elapsed < 30.0
    _report(
        3,
        ok,
        f"100 instances: max |tau_dual - tau_primal| = {worst:.3e} (bound 1e-6), "
        f"{nonconverged} non-converged, {unverified} failed verification; "
        f"{elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_4_theorem_end_to_end():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)

    failures = []
    attempts = 0
    while len(failures) < 30 and attempts < 300:
        attempts += 1
        regime = REGIMES[attempts % 2]
        n = int(rng.integers(16, 37))
        m = max(2, int(0.3 * n) + int(rng.integers(0, 3)))
        k = max(1, int(0.3 * n))
        a = rng.standard_normal((m, n))
        pattern = _random_pattern(rng, n, k, regime)
        verdict = classify_nsp(a, pattern, regime)
        cert = verdict.certificate
        if verdict.verdict == CERTIFIED_FAILURE and cert.tau < -1e-3:
            failures.append((a, pattern, regime, cert))

    successes = []
    attempts = 0
    while len(successes) < 30 and attempts < 300:
        attempts += 1
        regime = REGIMES[attempts % 2]
        n = int(rng.integers(16, 37))
        m = min(n - 1, max(3, int(0.8 * n)))
        k = max(1, int(rng.integers(1, max(2, int(0.08 * n) + 1))))
        a = rng.standard_normal((m, n))
        pattern = _random_pattern(rng, n, k, regime)
        verdict = classify_nsp(a, pattern, regime)
        if verdict.verdict == CERTIFIED_SUCCESS:
            successes.append((a, pattern, regime))

    failure_bad = 0
    for a, pattern, regime, cert in failures:
        x_bad = construct_counterexample(cert.w_witness, pattern, regime)
        sol = solve_bp(BPProblem(A=a, y=a @ x_bad, regime=regime))
        l1_planted = float(np.abs(x_bad).sum())
        moved = float(np.abs(sol.x_hat - x_bad).max())
        if sol.objective > l1_planted + 1e-8 * max(1.0, l1_planted) or moved <= 1e-6:
            failure_bad += 1

    success_bad = 0
    for a, pattern, regime in successes:
        for _ in range(20):
            x0 = np.zeros(pattern.n)
            magnitudes = rng.uniform(0.5, 2.0, size=len(pattern.support))
            x0[list(pattern.support)] = np.array(pattern.signs, dtype=float) * magnitudes
            sol = solve_bp(BPProblem(A=a, y=a @ x0, regime=regime))
            if not check_recovery(x0, sol):
                success_bad += 1

    elapsed = time.perf_counter() - start
    ok = (
        len(failures) >= 30
        and len(successes) >= 30
        and failure_bad == 0
        and success_bad == 0
        and elapsed < 120.0
    )
    _report(
        4,
        ok,
        f"{len(failures)} certified failures: {failure_bad} counterexamples not confirmed; "
        f"{len(successes)} certified successes x 20 draws: {success_bad} recoveries missed; "
        f"{elapsed:.1f}s < 120s",
    )
    assert ok


#: Seed-11 criterion-5 outcomes per (regime, beta): successes per alpha cell,
#: trials per route, and solver iterations summed over the grid.  Routes and
#: iterations move with solver changes that cannot move a tally (the ADMM
#: penalty, the check periods); such a change re-freezes them here.
CRITERION_5_OUTCOMES = {
    (Regime.GENERAL, 0.15): (
        [3, 29, 112, 184, 199], {"dual": 526, "cut": 472, "exact": 2, "tie": 0}, 54496
    ),
    (Regime.GENERAL, 0.25): (
        [8, 47, 100, 174, 199], {"dual": 528, "cut": 471, "exact": 1, "tie": 0}, 55712
    ),
    (Regime.SIGNED, 0.15): (
        [0, 35, 115, 185, 200], {"dual": 534, "cut": 454, "exact": 12, "tie": 0}, 151672
    ),
    (Regime.SIGNED, 0.25): (
        [2, 40, 111, 190, 199], {"dual": 542, "cut": 447, "exact": 11, "tie": 0}, 156592
    ),
}


@pytest.fixture(scope="module")
def criterion_5_grids():
    """The four seed-11 n = 200 grids around alpha_w, run once for the module.

    Returns ({(regime, beta): (alpha_w, cells)}, seconds taken).
    """
    start = time.perf_counter()
    offsets = (-0.07, -0.035, 0.0, 0.035, 0.07)
    grids = {}
    for regime in REGIMES:
        for beta in (0.15, 0.25):
            target = alpha_w(regime, beta).alpha
            grid = PhaseGrid(
                n=200,
                alphas=tuple(target + off for off in offsets),
                betas=(beta,),
                trials_per_cell=200,
                seed=11,
                regime=regime,
            )
            grids[regime, beta] = (target, run_phase_grid(grid, threads=0))
    return grids, time.perf_counter() - start


def test_criterion_5_phase_transition(criterion_5_grids):
    grids, elapsed = criterion_5_grids
    lowest_hi = 1.0
    highest_lo = 0.0
    worst_est = 0.0
    details = []
    for (regime, beta), (target, cells) in grids.items():
        rate_lo, rate_hi = cells[0].rate, cells[-1].rate
        estimate = estimate_transition(cells)
        lowest_hi = min(lowest_hi, rate_hi)
        highest_lo = max(highest_lo, rate_lo)
        worst_est = max(worst_est, abs(estimate - target))
        details.append(
            f"{regime.value}/beta={beta}: rates {rate_lo:.3f}->{rate_hi:.3f}, "
            f"|est-alpha_w|={abs(estimate - target):.4f}"
        )
    ok = (
        lowest_hi >= 0.85
        and highest_lo <= 0.15
        and worst_est <= 0.05
        and elapsed < 1200.0
    )
    _report(
        5,
        ok,
        f"min rate at +0.07 = {lowest_hi:.3f} (>= 0.85), "
        f"max rate at -0.07 = {highest_lo:.3f} (<= 0.15), "
        f"max |estimate - alpha_w| = {worst_est:.4f} (<= 0.05); "
        f"{elapsed:.0f}s < 1200s [" + "; ".join(details) + "]",
    )
    assert ok


@pytest.mark.parametrize(
    "key", list(CRITERION_5_OUTCOMES), ids=lambda key: f"{key[0].value}-{key[1]}"
)
def test_criterion_5_seed_11_outcomes_are_pinned(criterion_5_grids, key):
    # The same grids as criterion 5: a change that claims the same outcomes
    # must reproduce every tally, route count and iteration total exactly.
    _, cells = criterion_5_grids[0][key]
    routes = Counter()
    for cell in cells:
        routes.update(cell.diagnostics.routes())
    tallies = [cell.successes for cell in cells]
    iterations = sum(cell.diagnostics.iterations for cell in cells)
    assert (tallies, dict(routes), iterations) == CRITERION_5_OUTCOMES[key]


def test_criterion_6_framework_consistency():
    start = time.perf_counter()
    result = run_framework(n=20000, beta=0.3, samples=50, seed=606)
    target = alpha_w(Regime.GENERAL, 0.3).alpha
    alpha_err = abs(result.alpha_estimate - target)
    cw_err = abs(result.cw_over_n - (1.0 - target))
    elapsed = time.perf_counter() - start
    ok = alpha_err <= 0.02 and cw_err <= 0.02 and elapsed < 60.0
    _report(
        6,
        ok,
        f"|alpha_estimate - alpha_w| = {alpha_err:.4f}, "
        f"|mean(c_w)/n - (1 - alpha_w)| = {cw_err:.4f} (both <= 0.02); "
        f"{elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_7_solver_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    nonconverged = 0
    for i in range(30):
        regime = REGIMES[i % 2]
        n = int(rng.integers(30, 101))
        m = int(rng.integers(n // 2, int(0.8 * n) + 1))
        k = int(rng.integers(1, max(2, m // 3)))
        a = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        magnitudes = rng.uniform(0.5, 2.0, size=k)
        if regime is Regime.GENERAL:
            magnitudes *= rng.choice([-1.0, 1.0], size=k)
        x0[support] = magnitudes
        problem = BPProblem(A=a, y=a @ x0, regime=regime)
        splitting = solve_bp(problem)
        exact = simplex_reference(problem)
        if not splitting.converged:
            nonconverged += 1
        worst = max(worst, abs(splitting.objective - exact.objective))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and nonconverged == 0
    _report(
        7,
        ok,
        f"30 instances: max |splitting - simplex| objective gap = {worst:.3e} "
        f"(bound 1e-6), {nonconverged} non-converged; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_reproducibility(tmp_path):
    def run_phase(tag: str, threads: str) -> tuple[bytes, str]:
        out = tmp_path / f"phase_{tag}.csv"
        code, bundle = dispatch(
            [
                "phase",
                "--n", "40",
                "--alpha-grid", "0.45:0.65:2",
                "--beta-grid", "0.15:0.15:1",
                "--trials", "10",
                "--seed", "101",
                "--threads", threads,
                "--out", str(out),
            ]
        )
        assert code == 0
        return out.read_bytes(), bundle.json

    def run_framework_cli(tag: str) -> tuple[bytes, str]:
        out = tmp_path / f"framework_{tag}.csv"
        code, bundle = dispatch(
            [
                "framework",
                "--n", "1200",
                "--beta", "0.3",
                "--samples", "12",
                "--seed", "55",
                "--out", str(out),
            ]
        )
        assert code == 0
        return out.read_bytes(), bundle.json

    phase_runs = [run_phase(tag, threads) for tag, threads in
                  (("t1", "1"), ("t2", "2"), ("t1_again", "1"), ("t3", "3"))]
    phase_ok = all(run == phase_runs[0] for run in phase_runs[1:])
    framework_runs = [run_framework_cli("a"), run_framework_cli("b")]
    framework_ok = framework_runs[0] == framework_runs[1]
    json_ok = all(json.loads(bundle) for _, bundle in phase_runs + framework_runs)
    ok = phase_ok and framework_ok and bool(json_ok)
    _report(
        8,
        ok,
        f"phase CSV/JSON byte-identical across --threads 1/2/3 and rerun = {phase_ok}; "
        f"framework rerun byte-identical = {framework_ok}",
    )
    assert ok
