"""The benchmark's workloads: fixed instance sets and one timed pass over each.

Every workload is a fixed, finite set of operations whose exact reference
outcomes are frozen in ``reference.json`` (see ``reference.py``).  The
benchmark seed only sets the order in which a pass issues the operations, so
the same seed replays the same calls and every run does the same work.  Why
each workload exists is written down in README.md beside this file.

A pass returns the wall time of every timed call, how many operations it
attempted, how many answers were wrong against the reference (``failed``) and
how many hit an iteration cap.  Checking happens outside the timed calls.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the traced run's patches apply.
from l1weak import cert as cert_mod
from l1weak import cli, experiments, threshold
from l1weak.cert import SupportPattern, TauCertificate
from l1weak.experiments import PhaseGrid, TrialDiagnostics
from l1weak.threshold import EpsilonSet, Regime, alpha_w

#: Iteration cap of ``solve_bp`` and of the alternating-projection loop of
#: ``tau_dual``, as their docstrings state them.
BP_ITERATION_CAP = 50_000
AP_ITERATION_CAP = 10_000

PHASE_SEED = 11
REGIMES = (Regime.GENERAL, Regime.SIGNED)
PHASE_BETAS = (0.15, 0.25)


@dataclass
class PassResult:
    """One pass over a workload's operations; ``calls`` holds (call name, wall seconds)."""

    calls: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    capped: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(wall for _, wall in self.calls)


def _order(count: int, rng: random.Random) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


@dataclass(frozen=True)
class PhaseWorkload:
    """One ``run_phase_grid`` call per (regime, beta), alpha cells around alpha_w.

    ``threads`` is passed through unchanged: 0 means one pool worker per CPU.
    The reference holds one outcome per trial; a pass compares cell tallies
    (per-trial outcomes are not public), and traced runs compare each trial.
    ``min_passes`` is the fewest passes an untraced run makes.
    """

    name: str
    n: int
    offsets: tuple[float, ...]
    trials: int
    threads: int
    min_passes: int = 1

    def pool_workers(self) -> int:
        if self.threads == 1:
            return 0
        return os.cpu_count() if self.threads == 0 else self.threads

    def grids(self) -> list[tuple[str, PhaseGrid]]:
        out = []
        for regime in REGIMES:
            for beta in PHASE_BETAS:
                target = alpha_w(regime, beta).alpha
                grid = PhaseGrid(
                    n=self.n,
                    alphas=tuple(target + off for off in self.offsets),
                    betas=(beta,),
                    trials_per_cell=self.trials,
                    seed=PHASE_SEED,
                    regime=regime,
                )
                out.append((f"{regime.value}/{beta}", grid))
        return out

    def prepare(self, out_dir: Path) -> list[tuple[str, PhaseGrid]]:
        return self.grids()

    def run_pass(self, prepared, reference: dict, rng: random.Random, on_call=None) -> PassResult:
        result = PassResult()
        for index in _order(len(prepared), rng):
            key, grid = prepared[index]
            if on_call is not None:
                on_call(key)
            diagnostics = TrialDiagnostics()
            start = time.perf_counter()
            cells = experiments.run_phase_grid(grid, threads=self.threads, diagnostics=diagnostics)
            result.calls.append((key, time.perf_counter() - start))
            expected = reference[key]
            result.capped += diagnostics.solver_nonconverged
            if len(cells) != len(expected["m"]):
                result.problems.append(f"{key}: {len(cells)} cells, reference has {len(expected['m'])}")
                result.attempted += sum(c.trials for c in cells)
                result.failed += sum(c.trials for c in cells)
                continue
            for cell, m, outcomes in zip(cells, expected["m"], expected["outcomes"]):
                result.attempted += cell.trials
                want = sum(outcomes[: cell.trials])
                if cell.m != m or cell.successes != want:
                    result.failed += max(1, abs(cell.successes - want))
                    result.problems.append(
                        f"{key} m={cell.m}: {cell.successes} successes, reference {want}"
                    )
        return result


@dataclass(frozen=True)
class CertInstance:
    regime: Regime
    matrix: np.ndarray
    pattern: SupportPattern


@dataclass(frozen=True)
class CertWorkload:
    """``l1weak tau`` through ``cli.dispatch`` on matrix files written in preparation.

    n = 200 (the primal oracle's size cap), beta = 0.25, m = round(alpha_w n),
    ``per_regime`` random support/sign patterns per regime from ``seed``.
    """

    name: str
    n: int
    beta: float
    per_regime: int
    seed: int
    min_passes: int = 1

    def pool_workers(self) -> int:
        return 0

    def instances(self) -> list[CertInstance]:
        out = []
        k = int(round(self.beta * self.n))
        for r, regime in enumerate(REGIMES):
            m = int(round(alpha_w(regime, self.beta).alpha * self.n))
            for i in range(self.per_regime):
                rng = np.random.default_rng([self.seed, r, i])
                matrix = rng.standard_normal((m, self.n))
                support = tuple(int(j) for j in sorted(rng.choice(self.n, size=k, replace=False)))
                if regime is Regime.GENERAL:
                    signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
                else:
                    signs = (1,) * k
                out.append(CertInstance(regime, matrix, SupportPattern(self.n, support, signs)))
        return out

    def prepare(self, out_dir: Path) -> list[tuple[CertInstance, list[str], Path]]:
        out_dir.mkdir(parents=True, exist_ok=True)
        prepared = []
        for i, inst in enumerate(self.instances()):
            matrix_path = out_dir / f"cert-{i}.csv"
            matrix_path.write_text(
                "\n".join(",".join(repr(float(v)) for v in row) for row in inst.matrix) + "\n"
            )
            result_path = out_dir / f"cert-{i}.json"
            argv = ["tau", "--matrix", str(matrix_path), "--support",
                    ",".join(str(j) for j in inst.pattern.support), "--out", str(result_path)]
            if inst.regime is Regime.SIGNED:
                argv.append("--signed")
            else:
                # One token: a list starting with "-1" would read as a flag.
                argv.append("--signs=" + ",".join(str(s) for s in inst.pattern.signs))
            prepared.append((inst, argv, result_path))
        return prepared

    def run_pass(self, prepared, reference: dict, rng: random.Random, on_call=None) -> PassResult:
        result = PassResult()
        expected = reference["verdicts"]
        for index in _order(len(prepared), rng):
            inst, argv, result_path = prepared[index]
            if on_call is not None:
                on_call(f"cert-{index}")
            result_path.unlink(missing_ok=True)
            start = time.perf_counter()
            code, _ = cli.dispatch(argv)
            result.calls.append((f"cert-{index}", time.perf_counter() - start))
            result.attempted += 1
            problem = _check_certificate(inst, code, result_path, expected[index])
            if problem is not None:
                result.failed += 1
                result.problems.append(f"cert-{index}: {problem}")
        return result


def _check_certificate(inst: CertInstance, code: int, path: Path, want: str) -> str | None:
    """None when the emitted certificate is conclusive, verifies and matches the reference."""
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(path.read_text())
    verdict = payload["verdict"]
    if verdict == cert_mod.INCONCLUSIVE:
        return "inconclusive"
    if verdict != want:
        return f"verdict {verdict}, reference {want}"
    certificate = TauCertificate(
        tau=payload["tau"],
        z_witness=np.array(payload["z"]),
        nu_witness=np.array(payload["nu"]),
        w_witness=None if payload["w"] is None else np.array(payload["w"]),
        iterations=payload["iterations"],
        converged=payload["converged"],
        gap=payload["gap"],
    )
    if not certificate.converged:
        return "certificate not converged"
    check = cert_mod.verify_certificate(inst.matrix, inst.pattern, certificate, inst.regime)
    if not check:
        return f"verify_certificate: {check.reason}"
    return None


@dataclass(frozen=True)
class CurveWorkload:
    """``solve_theta`` + ``alpha_bound`` per (regime, side, beta) at a nonzero EpsilonSet.

    One timed call is one curve, (regime, side) over every beta, as one
    ``l1weak threshold`` invocation computes it; an operation is one point.
    """

    name: str
    betas: tuple[float, ...]
    eps: float
    min_passes: int = 1

    def pool_workers(self) -> int:
        return 0

    def epsilon_set(self) -> EpsilonSet:
        e = self.eps
        return EpsilonSet(eps1_c=e, eps2_c=e, eps1_m=e, eps3_m=e, eps1_g=e, eps3_g=e, eps5_g=e)

    def points(self) -> list[tuple[Regime, str, float]]:
        return [(regime, side, beta) for regime in REGIMES for side in ("lower", "upper")
                for beta in self.betas]

    def prepare(self, out_dir: Path):
        return self.points(), self.epsilon_set()

    def run_pass(self, prepared, reference: dict, rng: random.Random, on_call=None) -> PassResult:
        points, eps = prepared
        per_curve = len(self.betas)
        result = PassResult()
        answers = {}
        for curve in _order(len(points) // per_curve, rng):
            if on_call is not None:
                on_call(f"curve-{curve}")
            indices = [curve * per_curve + i for i in _order(per_curve, rng)]
            start = time.perf_counter()
            for index in indices:
                regime, side, beta = points[index]
                theta = threshold.solve_theta(regime, beta, eps, side=side)
                answers[index] = (theta, threshold.alpha_bound(regime, side, beta, theta, eps))
            result.calls.append((f"curve-{curve}", time.perf_counter() - start))
        for index, (theta, alpha) in answers.items():
            want_theta, want_alpha = reference["theta"][index], reference["alpha"][index]
            result.attempted += 1
            if not (abs(theta - want_theta) <= CURVE_TOL and abs(alpha - want_alpha) <= CURVE_TOL):
                result.failed += 1
                result.problems.append(
                    f"point-{index}: theta {theta!r} alpha {alpha!r},"
                    f" reference {want_theta!r} {want_alpha!r}"
                )
        return result


#: Agreement required between a curve point and its independent reference
#: (the package promises residuals below 1e-11; roots move far less than this).
CURVE_TOL = 1e-9

WORKLOADS = {
    w.name: w
    for w in (
        PhaseWorkload("phase-near", n=200, offsets=(-0.07, -0.035, 0.0, 0.035, 0.07),
                      trials=8, threads=0, min_passes=2),
        PhaseWorkload("phase-large", n=500, offsets=(-0.12, 0.12), trials=5, threads=1),
        CertWorkload("cert", n=200, beta=0.25, per_regime=12, seed=2013),
        CurveWorkload("curve", betas=tuple(round(0.01 * i, 2) for i in range(1, 100)), eps=0.01),
    )
}
