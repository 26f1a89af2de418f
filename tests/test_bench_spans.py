"""The traced benchmark run patches package functions by name: every name must resolve.

``perfbench/spans.py`` lists (owner, attribute) pairs in ``TARGETS`` and
replaces each attribute with a timing wrapper when ``perfbench/run.py
--trace 1`` runs.  A renamed or deleted function breaks that run only, so
this test loads the file read-only and checks the names against the package.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    ("owner", "attribute"),
    [(owner, attribute) for owner, attribute, _, _ in _targets()],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_traced_target_resolves(owner, attribute):
    assert callable(getattr(owner, attribute, None)), f"{owner.__name__}.{attribute}"
