"""The oracles in tests/oracles.py stay independent of the package they check.

A comparison against an oracle that reuses the package's code cannot catch
a fault in that code, so the oracle file may not import ``l1weak`` at all.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_do_not_import_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "no imports parsed"
    assert not [name for name in imported if name.split(".")[0] == "l1weak"], imported
