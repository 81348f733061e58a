"""The package, its experiment runner and its CLI must run without numpy.

Every process that imports ``covert_setcover`` pays for what the import
loads, the benchmark workloads included. A prototype ``greedy_cover`` on
``np.bincount`` cut the explicit-greedy trial on a sparse n = m = 1024
family from 0.021 s to 0.0125 s, but importing numpy raised that process's
peak RSS from 32.0 to 45.6 MiB (+13.6 MiB, +42%); importing numpy alone
takes a fresh interpreter with the package loaded from 15.6 to 27.9 MiB.
The pure-Python ``greedy_cover``, which resumes its scans while the largest
count holds, takes the same trial to 0.0091 s (benchmark ``trial_s_p50``,
median of 10 runs at 20 s on 2 shared cores, against 0.0218 s before it).
The package has no runtime dependency: no module of it, ``harness`` and
``cli`` included, may import numpy.
"""

import json
import os
import subprocess
import sys

import pytest

import covert_setcover

SRC = os.path.dirname(os.path.dirname(os.path.abspath(covert_setcover.__file__)))


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout


def _loaded_numpy_modules(modules: str) -> str:
    code = (
        "import sys\n"
        f"import {modules}\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))\n"
    )
    return _run(code).strip()


def test_core_import_loads_no_numpy():
    assert _loaded_numpy_modules("covert_setcover, covert_setcover.generators") == "[]"


@pytest.mark.parametrize("module", ["covert_setcover.harness", "covert_setcover.cli"])
def test_runner_import_loads_no_numpy(module):
    assert _loaded_numpy_modules(module) == "[]"


@pytest.mark.parametrize(
    "argv",
    [["lemma-test"], ["bench", "--k", "1,2", "--n", "64", "--m", "16", "--trials", "2"]],
    ids=["lemma-test", "bench"],
)
def test_cli_runs_with_numpy_blocked(argv):
    # A None entry in sys.modules makes every `import numpy` raise ImportError,
    # as on a machine without numpy.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from covert_setcover.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    assert json.loads(_run(code))
