import tracemalloc

import hypothesis
import pytest

pytest_plugins = ["pytester"]

hypothesis.settings.register_profile(
    "coreaug",
    deadline=None,
    derandomize=True,
    max_examples=100,
)
hypothesis.settings.load_profile("coreaug")


@pytest.fixture
def traced_peak_bytes():
    """Returns a function giving the peak bytes allocated while a callable
    runs, numpy buffers included (numpy reports its allocations to
    tracemalloc)."""
    def measure(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return measure
