"""Smoke tests for the scripts: each runs at toy size and writes a CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold_curves.py", "--points", "3"],
        ["phase_experiment.py", "--n", "30", "--betas", "0.2", "--trials", "2", "--cells", "4"],
        ["framework_convergence.py", "--sizes", "1000", "--samples", "10"],
    ],
    ids=lambda argv: argv[0].removesuffix(".py"),
)
def test_script_writes_csv(tmp_path, argv):
    out = tmp_path / "table.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script, *args = argv
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 2, out.read_text()
