"""Test-wide settings: one hypothesis profile for every property test.

Examples are derived from each test's source rather than drawn at random,
so a run is reproducible, and there is no per-example deadline, since a
shared machine can stall any single example. Each test sets only its own
``max_examples``. The ``pytester`` plugin is loaded for the test of the
project's own pytest settings.
"""

from hypothesis import settings

settings.register_profile("covert-setcover", deadline=None, derandomize=True)
settings.load_profile("covert-setcover")

pytest_plugins = ["pytester"]
