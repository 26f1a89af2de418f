"""Shared test configuration: deterministic hypothesis profile, BLAS fixture."""

import hypothesis
import pytest

from l1weak import linalg

hypothesis.settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    deadline=None,
)
hypothesis.settings.load_profile("deterministic")


@pytest.fixture
def blas_outer_counts():
    """Set every loaded OpenBLAS runtime to 3 threads for the test.

    Yields the counts set.  No runtime starts at 3, so a restore cannot pass
    by resetting to the default.
    """
    runtimes = linalg._blas_runtimes()
    if not runtimes:
        pytest.skip("no OpenBLAS runtime is loaded")
    saved = [rt.get_num_threads() for rt in runtimes]
    for rt in runtimes:
        rt.set_num_threads(3)
    yield [3] * len(runtimes)
    for rt, count in zip(runtimes, saved):
        rt.set_num_threads(count)
