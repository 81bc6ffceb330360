"""Shared test configuration: one hypothesis profile for every property
test, and the ``peak_bytes`` fixture for memory bounds.

Examples are derived from each test's source (no random seed, no example
database) and carry no per-example deadline, so a run is reproducible and
does not fail on a slow host. Tests set only ``max_examples``.
"""

import contextlib
import tracemalloc
import types

import pytest
from hypothesis import settings

settings.register_profile("gridloss", deadline=None, database=None, derandomize=True)
settings.load_profile("gridloss")


@contextlib.contextmanager
def _traced_peak():
    peak = types.SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """``with peak_bytes() as peak:`` traces the allocations of its block;
    after the block, ``peak.bytes`` is their peak in bytes (tracemalloc,
    which numpy's array buffers report to)."""
    return _traced_peak
