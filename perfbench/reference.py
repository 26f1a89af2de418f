#!/usr/bin/env python3
"""Freeze the exact reference outcome of every benchmark operation.

    python3 perfbench/reference.py            # rewrites perfbench/reference.json

The references come from solvers independent of the package under test:

- phase trials: the basis-pursuit LP solved exactly by HiGHS
  (``scipy.optimize.linprog(method="highs")``) on the trial's own inputs,
  regenerated from the package's counter streams in ``run_trial``'s frozen
  draw order; recovered means max |x - x0| <= 1e-4 max(1, |x0|_inf), the
  package's own definition;
- certificates: the strict dual-certificate LP, also by HiGHS.  A pattern
  (S, s) is recovered for every x0 on it iff A_S is injective and
  t* = min ||A_{S^c}^T nu||_inf subject to A_S^T nu = s is below 1 (Fuchs
  2004); the signed regime uses max_j (A_{S^c}^T nu)_j instead (Mangasarian
  1979);
- curve points: the characterization equation transcribed with
  ``scipy.special.erfinv`` and solved by ``scipy.optimize.brentq`` from the
  first sign change of a 1024-point scan.

Takes a few minutes; run it again only when a workload's instances change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import erfinv

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from l1weak.experiments import CounterStream, split_stream_seed  # noqa: E402
from l1weak.threshold import Regime  # noqa: E402

from workloads import WORKLOADS, CertWorkload, CurveWorkload, PhaseWorkload  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"
#: Trials frozen per phase cell: more than the workloads run, so the trial
#: count can grow without a new reference.
PHASE_REFERENCE_TRIALS = {"phase-near": 40, "phase-large": 8}


def bp_recovers(a: np.ndarray, x0: np.ndarray, regime: Regime) -> bool:
    """Exact basis pursuit by HiGHS; True iff its optimum is x0."""
    m, n = a.shape
    y = a @ x0
    if regime is Regime.SIGNED:
        res = linprog(np.ones(n), A_eq=a, b_eq=y, bounds=(0, None), method="highs")
        x = res.x
    else:
        res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y,
                      bounds=(0, None), method="highs")
        x = res.x[:n] - res.x[n:]
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(np.abs(x - x0).max()) <= 1e-4 * max(1.0, float(np.abs(x0).max()))


def phase_reference(workload: PhaseWorkload, trials: int) -> dict:
    out = {}
    for key, grid in workload.grids():
        ms, outcomes = [], []
        for ai, alpha in enumerate(grid.alphas):
            m = int(math.floor(alpha * grid.n + 0.5))
            k = int(math.floor(grid.betas[0] * grid.n + 0.5))
            cell = []
            for trial in range(trials):
                stream = CounterStream(split_stream_seed(grid.seed, ai, trial))
                a = stream.normals(m * grid.n).reshape(m, grid.n)
                support = stream.choose_support(grid.n, k)
                signs = stream.sign_draws(k) if grid.regime is Regime.GENERAL else (1,) * k
                x0 = np.zeros(grid.n)
                x0[list(support)] = signs
                cell.append(int(bp_recovers(a, x0, grid.regime)))
            ms.append(m)
            outcomes.append(cell)
            print(f"{workload.name} {key} m={m}: {sum(cell)}/{trials}", file=sys.stderr)
        out[key] = {"m": ms, "outcomes": outcomes}
    return out


def dual_certificate_value(a: np.ndarray, support, signs, regime: Regime) -> float:
    """t* of the strict dual-certificate LP; the pattern is recovered iff t* < 1."""
    m, n = a.shape
    s_idx = list(support)
    off = [j for j in range(n) if j not in set(s_idx)]
    if np.linalg.matrix_rank(a[:, s_idx]) < len(s_idx):
        return math.inf
    a_off = a[:, off].T
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    rows = [np.hstack([a_off, -np.ones((len(off), 1))])]
    if regime is Regime.GENERAL:
        rows.append(np.hstack([-a_off, -np.ones((len(off), 1))]))
    a_ub = np.vstack(rows)
    a_eq = np.hstack([a[:, s_idx].T, np.zeros((len(s_idx), 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                  b_eq=np.asarray(signs, dtype=float), bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def cert_reference(workload: CertWorkload) -> dict:
    verdicts, values = [], []
    for i, inst in enumerate(workload.instances()):
        t_star = dual_certificate_value(inst.matrix, inst.pattern.support,
                                        inst.pattern.signs, inst.regime)
        if abs(t_star - 1.0) <= 1e-6:
            raise RuntimeError(f"cert-{i}: t* = {t_star!r} is too close to 1 to decide")
        verdicts.append("certified_success" if t_star < 1.0 else "certified_failure")
        values.append(t_star)
        print(f"cert-{i} {inst.regime.value}: t*={t_star:.6f} {verdicts[-1]}", file=sys.stderr)
    return {"verdicts": verdicts, "t_star": values}


def _residual(regime: Regime, side: str, theta: float, beta: float, eps: float) -> float:
    density_factor, erfinv_factor = (1.0 - eps, 1.0 + eps) if side == "lower" else (1.0 + eps, 1.0 - eps)
    ratio = (1.0 - theta) / (1.0 - beta)
    if regime is Regime.GENERAL:
        e0, standalone = erfinv(ratio), erfinv(erfinv_factor * ratio)
        density = math.sqrt(2.0 / math.pi)
    else:
        e0, standalone = erfinv(2.0 * ratio - 1.0), erfinv(2.0 * erfinv_factor * ratio - 1.0)
        density = math.sqrt(1.0 / (2.0 * math.pi))
    return (density_factor * (1.0 - beta) * density * math.exp(-e0 * e0) / theta
            - math.sqrt(2.0) * standalone)


def _root(regime: Regime, side: str, beta: float, eps: float) -> float:
    factor = 1.0 + eps if side == "lower" else 1.0 - eps
    lo = max(beta, 1.0 - (1.0 - beta) / factor) + 1e-9
    hi = 1.0 - 1e-9
    grid = np.linspace(lo, hi, 1024)
    values = [_residual(regime, side, t, beta, eps) for t in grid]
    for (t0, f0), (t1, f1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if f0 == 0.0:
            return float(t0)
        if (f0 < 0.0) != (f1 < 0.0):
            return brentq(lambda t: _residual(regime, side, t, beta, eps), t0, t1,
                          xtol=1e-16, maxiter=500)
    raise RuntimeError(f"no sign change for {regime.value} {side} beta={beta}")


def _bound(regime: Regime, side: str, beta: float, theta: float, eps: float) -> float:
    ratio = (1.0 - theta) / (1.0 - beta)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    if regime is Regime.GENERAL:
        e = erfinv(ratio)
        density = (1.0 - beta) * math.sqrt(2.0 / math.pi) * math.exp(-e * e)
        head_mass = 2.0 * (1.0 - beta) / sqrt_2pi
    else:
        e = erfinv(2.0 * ratio - 1.0)
        density = (1.0 - beta) * math.sqrt(1.0 / (2.0 * math.pi)) * math.exp(-e * e)
        head_mass = (1.0 - beta) / sqrt_2pi
    sq2e_exp = math.sqrt(2.0) * abs(e) * math.exp(-e * e)
    mean_sq = density * density / theta
    if side == "lower":
        if regime is Regime.GENERAL:
            return ((1.0 - beta) / sqrt_2pi * (sqrt_2pi + 2.0 * sq2e_exp - sqrt_2pi * ratio)
                    + beta - mean_sq)
        return (1.0 - beta) / sqrt_2pi * sq2e_exp + theta - mean_sq
    return (1.0 / (1.0 + eps) ** 2) * ((1.0 - eps) * (theta + head_mass * sq2e_exp)
                                       - (1.0 + eps) ** 2 * mean_sq)


def curve_reference(workload: CurveWorkload) -> dict:
    thetas, alphas = [], []
    for regime, side, beta in workload.points():
        theta = _root(regime, side, beta, workload.eps)
        thetas.append(theta)
        alphas.append(_bound(regime, side, beta, theta, workload.eps))
    return {"theta": thetas, "alpha": alphas}


def build(workloads, phase_trials: dict) -> dict:
    out = {}
    for w in workloads:
        if isinstance(w, PhaseWorkload):
            out[w.name] = phase_reference(w, phase_trials[w.name])
        elif isinstance(w, CertWorkload):
            out[w.name] = cert_reference(w)
        else:
            out[w.name] = curve_reference(w)
    return out


def main() -> int:
    reference = build(WORKLOADS.values(), PHASE_REFERENCE_TRIALS)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
