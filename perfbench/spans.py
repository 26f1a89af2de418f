"""Spans around the package's public functions, for the traced run.

Tracing is installed from the benchmark's own files.  The package imports
with ``from .x import y``, so each function is patched in every module that
bound it.  A span records process, span id, parent span, name, start and end
(``perf_counter_ns``), operation id and, for a few functions, a small value
taken from the public return value (iterations, converged flag, verdict).

Spans stay in memory and are written out when the run ends.  Pool workers
are forked with the patches in place; each writes its spans to a file of its
own after every trial, because ``Pool.__exit__`` terminates the workers and
no exit hook runs in them.  The parent collects those files after each call.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from l1weak import cert, cli, experiments, linalg, recovery, specfn, threshold


def _solve_attr(solution):
    return [int(solution.iterations), bool(solution.converged)]


#: (owner, attribute, span name, attribute taken from the return value).
#: The same function bound in several modules gets one wrapper and one name.
TARGETS = (
    (experiments, "run_phase_grid", "experiments.run_phase_grid", None),
    (experiments, "run_trial", "experiments.run_trial", bool),
    (experiments.CounterStream, "normals", "experiments.draw", None),
    (experiments.CounterStream, "choose_support", "experiments.draw", None),
    (experiments.CounterStream, "sign_draws", "experiments.draw", None),
    (experiments, "solve_bp", "recovery.solve_bp", _solve_attr),
    (experiments, "check_recovery", "recovery.check_recovery", None),
    (recovery, "cholesky_spd", "linalg.cholesky_spd", None),
    (linalg, "cholesky_spd", "linalg.cholesky_spd", None),
    (cert, "cholesky_spd", "linalg.cholesky_spd", None),
    (linalg.RowspaceProjector, "__call__", "linalg.projector", None),
    (linalg.RowspaceProjector, "project_with_coefficients", "linalg.projector", None),
    (linalg.RowspaceProjector, "coefficients", "linalg.projector", None),
    (linalg, "nullspace_basis", "linalg.nullspace_basis", None),
    (cert, "nullspace_basis", "linalg.nullspace_basis", None),
    (cert, "tau_dual", "cert.tau_dual", lambda c: int(c.iterations)),
    (cli, "tau_dual", "cert.tau_dual", lambda c: int(c.iterations)),
    (cert, "classify_nsp", "cert.classify_nsp", lambda v: v.verdict),
    (cli, "classify_nsp", "cert.classify_nsp", lambda v: v.verdict),
    (cert, "verify_certificate", "cert.verify_certificate", None),
    (cli, "dispatch", "cli.dispatch", None),
    (threshold, "solve_theta", "threshold.solve_theta", None),
    (cli, "solve_theta", "threshold.solve_theta", None),
    (threshold, "char_residual", "threshold.char_residual", None),
    (threshold, "alpha_bound", "threshold.alpha_bound", None),
    (cli, "alpha_bound", "threshold.alpha_bound", None),
    (threshold, "erfinv", "specfn.erfinv", None),
    (specfn, "erfinv", "specfn.erfinv", None),
)

# Span tuple fields.
PID, ID, PARENT, NAME, START, END, OP, ATTR = range(8)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.next_id = 0
        self.call_op: str | None = None
        self.op: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def begin_call(self, op: str) -> None:
        """Name the operation the benchmark is about to issue."""
        self.call_op = op
        self.op = op

    def install(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        wrappers = {}
        for owner, attr, name, take in TARGETS:
            original = getattr(owner, attr)
            if original not in wrappers:
                wrappers[original] = self._wrap(name, original, take)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[original])
        seed_fn = experiments.split_stream_seed
        self._saved.append((experiments, "split_stream_seed", seed_fn))
        setattr(experiments, "split_stream_seed", self._trial_id(seed_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _trial_id(self, fn):
        """Per-trial streams are derived as split(seed, cell, trial): name the trial."""
        tracer = self

        @functools.wraps(fn)
        def traced(seed, *path):
            tracer.op = f"{tracer.call_op}#{'/'.join(str(int(p)) for p in path)}"
            return fn(seed, *path)

        return traced

    def _wrap(self, name: str, fn, take):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:
                # First call in a forked worker: drop the parent's spans, keep
                # its open-span stack so parents link across processes.
                tracer.pid = pid
                tracer.spans = []
                tracer.next_id = 0
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            op = tracer.op
            tracer.stack.append((pid, span_id))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
            attr = take(result) if take is not None else None
            tracer.spans.append((pid, span_id, parent, name, start, end, op, attr))
            if pid != tracer.root_pid and (parent is None or parent[0] != pid):
                tracer._spill()
            return result

        return traced

    def _spill(self) -> None:
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge the spans that pool workers wrote, then remove their files."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                span = json.loads(line)
                span[PARENT] = tuple(span[PARENT]) if span[PARENT] is not None else None
                self.spans.append(tuple(span))
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
