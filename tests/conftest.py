"""Test-wide settings: one hypothesis profile for every property test.

Examples are derived from each test's source rather than drawn at random,
so a run is reproducible, and there is no per-example deadline, since a
shared machine can stall any single example. Each test sets only its own
``max_examples``. The ``pytester`` plugin is loaded for the test of the
project's own pytest settings. The ``bounded_memory`` fixture is for tests
that hand a way in an absurd size.
"""

import pytest
from hypothesis import settings

settings.register_profile("covert-setcover", deadline=None, derandomize=True)
settings.load_profile("covert-setcover")

pytest_plugins = ["pytester"]


@pytest.fixture
def bounded_memory():
    """Cap this process's address space at its current size plus 512 MiB for one test.

    A test that feeds a way in a size of 10**9 then ends in ``MemoryError``
    if the size check is missing, instead of trying to allocate gigabytes.
    Linux only (it reads ``/proc/self/statm``); elsewhere the test is skipped.
    """
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as statm:
            current = int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("no /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = current + 512 * 2**20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
