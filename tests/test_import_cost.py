"""The core package must load without numpy.

Every process that imports ``covert_setcover`` pays for what the import
loads, the benchmark workloads included. A prototype ``greedy_cover`` on
``np.bincount`` cut the explicit-greedy trial on a sparse n = m = 1024
family from 0.021 s to 0.0125 s, but importing numpy raised that process's
peak RSS from 32.0 to 45.6 MiB (+13.6 MiB, +42%); importing numpy alone
takes a fresh interpreter with the package loaded from 15.6 to 27.9 MiB.
Only ``harness`` (the experiment runner, which the package import does not
load) may use numpy.
"""

import os
import subprocess
import sys

import covert_setcover

SRC = os.path.dirname(os.path.dirname(os.path.abspath(covert_setcover.__file__)))


def test_core_import_loads_no_numpy():
    code = (
        "import sys\n"
        "import covert_setcover, covert_setcover.generators\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
