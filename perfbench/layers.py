"""Per-layer metrics from the spans of a traced run.

The layers are the package's modules.  Timings pool every traced pass;
counts are taken per pass, and the counts that must repeat exactly
(``DETERMINISTIC``) are compared between passes by the caller.  Routes and
iteration counts come only from public return values: ``BPSolution``'s
``converged`` and ``iterations``, ``TauCertificate.iterations`` and
``NspVerdict.verdict``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import ATTR, END, ID, NAME, OP, PARENT, PID, START
from workloads import AP_ITERATION_CAP, BP_ITERATION_CAP

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("recovery.us_per_iter", "us"),
    ("recovery.route.converged", "count"),
    ("recovery.route.cutoff", "count"),
    ("recovery.route.capped", "count"),
    ("recovery.capped_time_share", "share"),
    ("recovery.iters.total", "count"),
    ("recovery.iters.p50", "count"),
    ("recovery.iters.max", "count"),
    ("recovery.solve_ms.p50", "ms"),
    ("recovery.solve_ms.tail", "ms"),
    ("recovery.solve_ms.max", "ms"),
    ("experiments.sample_ms.p50", "ms"),
    ("experiments.trial_ms.p50", "ms"),
    ("experiments.trial_ms.max", "ms"),
    ("experiments.worker_busy_share", "share"),
    ("experiments.grid_overhead_s", "s"),
    ("linalg.cholesky.calls", "count"),
    ("linalg.cholesky_ms.p50", "ms"),
    ("linalg.projector.calls", "count"),
    ("linalg.projector_us.p50", "us"),
    ("linalg.nullspace_ms.p50", "ms"),
    ("cert.tau_dual_ms.p50", "ms"),
    ("cert.tau_dual_ms.max", "ms"),
    ("cert.ap_iters.p50", "count"),
    ("cert.ap_iters.max", "count"),
    ("cert.ap_capped", "count"),
    ("cert.classify_ms.p50", "ms"),
    ("cert.classify_ms.max", "ms"),
    ("cert.verdict.failure", "count"),
    ("cert.verdict.success", "count"),
    ("cert.verdict.inconclusive", "count"),
    ("cli.overhead_ms.p50", "ms"),
    ("threshold.solve_theta_us.p50", "us"),
    ("threshold.residual_evals_per_root", "evals/root"),
    ("threshold.alpha_bound_us.p50", "us"),
    ("specfn.erfinv.calls_per_root", "calls/root"),
    ("bench.trace_overhead_share", "share"),
)

#: Per-pass counts that must be identical in every pass of a run.
DETERMINISTIC = (
    "recovery.iters.total",
    "recovery.route.converged",
    "recovery.route.cutoff",
    "recovery.route.capped",
    "cert.ap_iters",
    "cert.ap_capped",
    "cert.verdicts",
    "threshold.residual_evals_per_root",
    "specfn.erfinv.calls_per_root",
    "linalg.cholesky.calls",
    "linalg.projector.calls",
)


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile.

    Below twenty samples that percentile would fall under the median; the
    highest value with one sample above it stands in, so that no single call
    sets the tail alone (the maximum when there is one sample).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 100.0
    above = 10 if count >= 20 else min(1, count - 1)
    return ordered[count - 1 - above], 100.0 * (count - above) / count


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _max(values) -> float:
    return max(values) if values else 0.0


def _pass_of(op: str | None) -> str:
    return (op or "").split("/", 1)[0]


def _ms(span) -> float:
    return (span[END] - span[START]) / 1e6


def _index(spans) -> tuple[dict, dict]:
    """Spans grouped by name, and the name of every span by its (pid, id)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    return by_name, {(s[PID], s[ID]): s[NAME] for s in spans}


def _outer_projector_calls(by_name, names) -> list:
    """Projector calls not made from inside another projector call."""
    return [s for s in by_name["linalg.projector"]
            if s[PARENT] is None or names.get(s[PARENT]) != "linalg.projector"]


def pass_counts(spans) -> dict:
    """Deterministic counts of one pass's spans."""
    by_name, names = _index(spans)
    solves = by_name["recovery.solve_bp"]
    converged = sum(1 for s in solves if s[ATTR][1])
    capped = sum(1 for s in solves if not s[ATTR][1] and s[ATTR][0] >= BP_ITERATION_CAP)
    taus = sorted(by_name["cert.tau_dual"], key=lambda s: s[OP])
    roots = len(by_name["threshold.solve_theta"])
    return {
        "recovery.iters.total": sum(s[ATTR][0] for s in solves),
        "recovery.route.converged": converged,
        "recovery.route.cutoff": len(solves) - converged - capped,
        "recovery.route.capped": capped,
        "cert.ap_iters": [s[ATTR] for s in taus],
        "cert.ap_capped": sum(1 for s in taus if s[ATTR] >= AP_ITERATION_CAP),
        "cert.verdicts": sorted(s[ATTR] for s in by_name["cert.classify_nsp"]),
        "threshold.residual_evals_per_root":
            len(by_name["threshold.char_residual"]) / roots if roots else 0.0,
        "specfn.erfinv.calls_per_root": len(by_name["specfn.erfinv"]) / roots if roots else 0.0,
        "linalg.cholesky.calls": len(by_name["linalg.cholesky_spd"]),
        "linalg.projector.calls": len(_outer_projector_calls(by_name, names)),
    }


def split_passes(spans) -> dict[str, list]:
    passes = defaultdict(list)
    for span in spans:
        passes[_pass_of(span[OP])].append(span)
    return passes


def layer_metrics(spans, workers: int, first_pass_counts: dict) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead."""
    by_name, names = _index(spans)
    counts = first_pass_counts
    out: dict[str, float] = {}

    solves = by_name["recovery.solve_bp"]
    solve_ms = [_ms(s) for s in solves]
    iters = [s[ATTR][0] for s in solves]
    capped_ms = sum(_ms(s) for s in solves if not s[ATTR][1] and s[ATTR][0] >= BP_ITERATION_CAP)
    out["recovery.us_per_iter"] = 1e3 * sum(solve_ms) / sum(iters) if iters else 0.0
    for route in ("converged", "cutoff", "capped"):
        out[f"recovery.route.{route}"] = counts[f"recovery.route.{route}"]
    out["recovery.capped_time_share"] = capped_ms / sum(solve_ms) if solve_ms else 0.0
    out["recovery.iters.total"] = counts["recovery.iters.total"]
    out["recovery.iters.p50"] = _p50(iters)
    out["recovery.iters.max"] = _max(iters)
    out["recovery.solve_ms.p50"] = _p50(solve_ms)
    out["recovery.solve_ms.tail"] = tail(solve_ms)[0]
    out["recovery.solve_ms.max"] = _max(solve_ms)

    draws = defaultdict(float)
    for s in by_name["experiments.draw"]:
        draws[s[OP]] += _ms(s)
    trials = by_name["experiments.run_trial"]
    out["experiments.sample_ms.p50"] = _p50(list(draws.values()))
    out["experiments.trial_ms.p50"] = _p50([_ms(s) for s in trials])
    out["experiments.trial_ms.max"] = _max([_ms(s) for s in trials])
    grids = by_name["experiments.run_phase_grid"]
    grid_s = sum(_ms(s) for s in grids) / 1e3
    busy_s = sum(_ms(s) for s in trials) / 1e3
    out["experiments.worker_busy_share"] = busy_s / (workers * grid_s) if grid_s else 0.0
    overheads = []
    for grid in grids:
        per_worker = defaultdict(float)
        for s in trials:
            if (s[OP] or "").split("#", 1)[0] == grid[OP]:
                per_worker[s[PID]] += _ms(s) / 1e3
        overheads.append(_ms(grid) / 1e3 - max(per_worker.values(), default=0.0))
    out["experiments.grid_overhead_s"] = _p50(overheads)

    out["linalg.cholesky.calls"] = counts["linalg.cholesky.calls"]
    out["linalg.cholesky_ms.p50"] = _p50([_ms(s) for s in by_name["linalg.cholesky_spd"]])
    outer = _outer_projector_calls(by_name, names)
    out["linalg.projector.calls"] = counts["linalg.projector.calls"]
    out["linalg.projector_us.p50"] = 1e3 * _p50([_ms(s) for s in outer])
    out["linalg.nullspace_ms.p50"] = _p50([_ms(s) for s in by_name["linalg.nullspace_basis"]])

    taus = by_name["cert.tau_dual"]
    out["cert.tau_dual_ms.p50"] = _p50([_ms(s) for s in taus])
    out["cert.tau_dual_ms.max"] = _max([_ms(s) for s in taus])
    out["cert.ap_iters.p50"] = _p50([s[ATTR] for s in taus])
    out["cert.ap_iters.max"] = _max([s[ATTR] for s in taus])
    out["cert.ap_capped"] = counts["cert.ap_capped"]
    classify = by_name["cert.classify_nsp"]
    out["cert.classify_ms.p50"] = _p50([_ms(s) for s in classify])
    out["cert.classify_ms.max"] = _max([_ms(s) for s in classify])
    verdicts = counts["cert.verdicts"]
    for short in ("failure", "success"):
        out[f"cert.verdict.{short}"] = verdicts.count(f"certified_{short}")
    out["cert.verdict.inconclusive"] = verdicts.count("inconclusive")

    children = defaultdict(float)
    for s in taus + classify:
        if s[PARENT] is not None and names.get(s[PARENT]) == "cli.dispatch":
            children[s[PARENT]] += _ms(s)
    out["cli.overhead_ms.p50"] = _p50(
        [_ms(s) - children[(s[PID], s[ID])] for s in by_name["cli.dispatch"]]
    )

    out["threshold.solve_theta_us.p50"] = 1e3 * _p50([_ms(s) for s in by_name["threshold.solve_theta"]])
    out["threshold.residual_evals_per_root"] = counts["threshold.residual_evals_per_root"]
    out["threshold.alpha_bound_us.p50"] = 1e3 * _p50([_ms(s) for s in by_name["threshold.alpha_bound"]])
    out["specfn.erfinv.calls_per_root"] = counts["specfn.erfinv.calls_per_root"]
    return out
