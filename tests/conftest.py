"""Shared test configuration: one hypothesis profile for every property test.

Examples are derived from each test's source (no random seed, no example
database) and carry no per-example deadline, so a run is reproducible and
does not fail on a slow host. Tests set only ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("gridloss", deadline=None, database=None, derandomize=True)
settings.load_profile("gridloss")
