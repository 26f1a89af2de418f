"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Builds toy versions of the three workload kinds with references computed on
the spot by the same exact-LP code that froze ``reference.json``, and checks
that every metric prints with its unit, that traced runs report every
per-layer metric, and that a corrupted reference outcome is reported as a
failure.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

import run  # first: puts the checkout's src/ on the import path

import layers  # noqa: E402
import reference as reference_mod  # noqa: E402
from workloads import CertWorkload, CurveWorkload, PhaseWorkload  # noqa: E402

TOYS = (
    PhaseWorkload("toy-phase", n=30, offsets=(-0.1, 0.1), trials=2, threads=1),
    PhaseWorkload("toy-pool", n=30, offsets=(-0.1, 0.1), trials=2, threads=2),
    CertWorkload("toy-cert", n=20, beta=0.25, per_regime=1, seed=5),
    CurveWorkload("toy-curve", betas=(0.3, 0.6), eps=0.01),
)


@pytest.fixture(scope="module")
def references():
    return reference_mod.build(TOYS, {"toy-phase": 2, "toy-pool": 2})


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _result(capsys, workload, passes, values, units, notes):
    run.report(workload.name, passes, values, units, notes)
    lines = capsys.readouterr().out.strip().splitlines()
    for name, unit in units.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    return result


def _untraced(capsys, workload, reference, tmp_path):
    prepared = workload.prepare(tmp_path / workload.name)
    passes = run.run_passes(workload, prepared, reference, random.Random(0), 0)
    values, notes = run.end_to_end(passes, workload.pool_workers())
    return _result(capsys, workload, passes, values, dict(run.END_TO_END), notes)


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_every_end_to_end_metric_prints_with_its_unit(capsys, tmp_path, references, workload):
    result = _untraced(capsys, workload, references[workload.name], tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_traced_run_reports_every_layer_metric(capsys, tmp_path, references, workload):
    prepared = workload.prepare(tmp_path / workload.name)
    values, passes, notes = run.traced_run(
        workload, prepared, references[workload.name], random.Random(0), 0, seed=0
    )
    result = _result(capsys, workload, passes, values, dict(layers.METRICS), notes)
    assert result["correct"], notes
    if isinstance(workload, PhaseWorkload):
        # Spans from pool workers came back: every trial of a pass has a route.
        routes = sum(values[f"recovery.route.{r}"] for r in ("converged", "cutoff", "capped"))
        assert routes == passes[0].attempted
        assert values["experiments.trial_ms.p50"] > 0


def _corrupt(name: str, reference: dict) -> dict:
    bad = copy.deepcopy(reference)
    if name in ("toy-phase", "toy-pool"):
        outcomes = bad["general/0.15"]["outcomes"][0]
        outcomes[0] = 1 - outcomes[0]
    elif name == "toy-cert":
        bad["verdicts"][0] = ("certified_success" if bad["verdicts"][0] == "certified_failure"
                              else "certified_failure")
    else:
        bad["theta"][0] += 1e-6
    return bad


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_corrupted_reference_is_reported_as_failure(capsys, tmp_path, references, workload):
    bad = _corrupt(workload.name, references[workload.name])
    result = _untraced(capsys, workload, bad, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["certified_share"]["value"] < 1.0
