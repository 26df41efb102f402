"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Call ``f()`` under tracemalloc; return its result and its peak bytes.

    The peak counts only what is allocated after the call starts, whether or
    not it is freed again before the call returns.
    """
    def measure(f):
        tracemalloc.start()
        try:
            result = f()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
