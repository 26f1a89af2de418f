#!/usr/bin/env python3
"""Benchmark of the l1weak package: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload phase-near --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory and nowhere else.  A run repeats whole passes over the
workload's fixed operations until ``--seconds`` would be exceeded (at least
the workload's ``min_passes``); ``--seed`` sets the order of the operations.
Every answer is checked against the frozen exact references in
``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the separate
traced run: untraced passes for half the time, then two traced passes whose
spans give the per-layer metrics; its deterministic counts must repeat
exactly between the traced passes.  Spans are written to ``perfbench/out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import l1weak
except ImportError as exc:
    raise SystemExit(f"cannot import l1weak from {SRC}: {exc}") from None
if Path(l1weak.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"l1weak was imported from {l1weak.__file__}, not from {SRC}")

import layers  # noqa: E402
from spans import ATTR, NAME, OP, Tracer  # noqa: E402
from workloads import WORKLOADS, PhaseWorkload  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("certified_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)
SETUP_RUNS = 3
SETUP_TOY = "import l1weak; l1weak.alpha_w('general', 0.5)"
#: Traced passes per traced run: two, so that deterministic counts can be compared.
TRACED_PASSES = 2


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import the package and make one toy call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_TOY], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def peak_rss_mb(pool_workers: int) -> float:
    """Own peak resident set plus, per pool worker, the largest worker peak.

    Read before any other child process is started.  Pages a forked worker
    shares with its parent count once per process, so this is an upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def run_passes(workload, prepared, reference, rng, seconds, min_passes=1):
    """Whole passes, at least ``min_passes``, until another would pass ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(prepared, reference, rng))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def call_latencies(passes) -> list[float]:
    """Each call's median wall time over the passes, so the sample count is the call count."""
    walls = defaultdict(list)
    for p in passes:
        for key, wall in p.calls:
            walls[key].append(wall)
    return [statistics.median(w) for w in walls.values()]


def end_to_end(passes, pool_workers: int) -> tuple[dict, list[str]]:
    latencies = call_latencies(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    capped = sum(p.capped for p in passes)
    tail_s, tail_pct = layers.tail(latencies)
    values = {
        "ops_per_s": attempted / sum(p.seconds for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "certified_share": (attempted - failed - capped) / attempted,
        "peak_rss_mb": peak_rss_mb(pool_workers),
        "setup_s": setup_seconds(),
    }
    notes = [
        f"passes {len(passes)}, operations {attempted}, capped {capped}, wrong {failed}",
        f"op_tail_ms is the p{tail_pct:.1f} of {len(latencies)} calls' median latencies",
    ]
    return values, notes


def trial_mismatches(spans, reference: dict) -> int:
    """Traced phase runs: trials whose own outcome differs from the reference."""
    wrong = 0
    for span in spans:
        if span[NAME] != "experiments.run_trial" or "#" not in (span[OP] or ""):
            continue
        call, trial_id = span[OP].split("#")
        key = call.split("/", 1)[1]
        cell, trial = (int(v) for v in trial_id.split("/"))
        if bool(reference[key]["outcomes"][cell][trial]) != span[ATTR]:
            wrong += 1
    return wrong


def traced_run(workload, prepared, reference, rng, seconds, seed) -> tuple[dict, list, list[str]]:
    baseline = run_passes(workload, prepared, reference, rng, seconds / 2)
    tracer = Tracer(OUT / "spill")
    tracer.install()
    passes = []
    try:
        for i in range(TRACED_PASSES):
            on_call = lambda key, i=i: tracer.begin_call(f"p{i}/{key}")  # noqa: E731
            passes.append(workload.run_pass(prepared, reference, rng, on_call))
            tracer.collect()
    finally:
        tracer.uninstall()
    per_pass = layers.split_passes(tracer.spans)
    counts = [layers.pass_counts(per_pass[f"p{i}"]) for i in range(TRACED_PASSES)]
    for name in layers.DETERMINISTIC:
        seen = [c[name] for c in counts]
        if any(value != seen[0] for value in seen):
            passes[0].problems.append(f"deterministic count {name} differs between passes: {seen}")
    if isinstance(workload, PhaseWorkload):
        for i, p in enumerate(passes):
            wrong = trial_mismatches(per_pass[f"p{i}"], reference)
            if wrong > p.failed:
                p.failed = wrong
                p.problems.append(f"{wrong} trials differ from their reference outcome")
    values = layers.layer_metrics(tracer.spans, max(1, workload.pool_workers()), counts[0])
    untraced = statistics.median(p.seconds for p in baseline)
    values["bench.trace_overhead_share"] = statistics.median(p.seconds for p in passes) / untraced - 1
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans_path)
    notes = [f"traced passes {len(passes)} after {len(baseline)} untraced; spans in {spans_path}"]
    return values, passes, notes


def report(name: str, passes, values: dict, units: dict, notes: list[str]) -> dict:
    """Print the notes, one line per metric, then the JSON result as the last line."""
    problems = [problem for p in passes for problem in p.problems]
    for line in notes:
        print(f"note {name}: {line}")
    for problem in problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    for metric, unit in units.items():
        print(f"metric {metric} = {values[metric]!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    print("env " + json.dumps(environment()))
    prepared = workload.prepare(OUT / workload.name)
    rng = random.Random(args.seed)
    if args.trace:
        values, passes, notes = traced_run(workload, prepared, reference, rng, args.seconds,
                                           args.seed)
        units = dict(layers.METRICS)
    else:
        passes = run_passes(workload, prepared, reference, rng, args.seconds,
                            workload.min_passes)
        values, notes = end_to_end(passes, workload.pool_workers())
        units = dict(END_TO_END)
    report(workload.name, passes, values, units, notes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
