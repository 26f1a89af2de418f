"""Smoke tests for the scripts and the README quick start.

Each script runs at toy size and writes a CSV; the README's first two
quick-start blocks run as written and must print what their comments say.
"""

import contextlib
import io
import os
import re
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


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("index", [0, 1], ids=["threshold", "certificate"])
def test_readme_quick_start_prints_its_comments(index):
    # The third block is a 500-trial grid whose comment gives "~0.83", not
    # the printed value, so it stays out.
    block = _readme_python_blocks()[index]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), {})
    printed = stdout.getvalue().splitlines()
    comments = re.findall(r"# (.*)$", block, flags=re.MULTILINE)
    assert printed
    for line in printed:
        assert any(comment.startswith(line) for comment in comments), (line, comments)
