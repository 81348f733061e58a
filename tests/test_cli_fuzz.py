"""Child-process fuzz of the ``covertsc`` command line.

Each example writes a small file, runs the command line in a fresh
interpreter under an address-space cap and a wall timeout, and accepts only
three outcomes: exit 0 with the output (JSON, or CSV under ``--format
csv``), exit 1 with one JSON error line on stderr, or exit 2 with argparse's
usage. A traceback, a hang or any other exit fails the example.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover.generators import GRAPH_MODELS, SET_MODELS

pytest.importorskip("resource")

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADDRESS_SPACE = 512 * 2**20
TIMEOUT_S = 60
# The child caps its own address space before it imports the package, so a size
# check that is missing ends in MemoryError instead of gigabytes.
CHILD = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    "from covert_setcover.cli import main\n"
    "sys.exit(main())\n"
)

INTS = ["-1", "0", "1", "2", "3", "8", "30", "1048577", "1000000000"]
FLOATS = ["-1", "0", "0.5", "1", "2", "1e-300", "1e300", "nan", "inf"]
JUNK = ["", "x", "1,2", "2,,8", "--", "1.5"]
FILE = "input.json"
OUT = ["out.json", ".", "missing/out.json"]

# The flags of each subcommand and the values each one is given; the required
# ones come first, and every argv holds them.
REQUIRED = {"gen-graph": 1, "gen-sets": 3, "setcover": 2, "discover": 1, "verify": 1}
COMMANDS = {
    "gen-graph": {"--model": list(GRAPH_MODELS), "--n": INTS, "--p": FLOATS,
                  "--rows": INTS, "--cols": INTS, "--seed": INTS, "--out": OUT},
    "gen-sets": {"--model": list(SET_MODELS), "--n": INTS, "--m": INTS, "--k": INTS,
                 "--density": FLOATS, "--seed": INTS, "--out": OUT},
    "setcover": {"--algo": ["pseudo-greedy", "epsnet", "greedy", "bruteforce"],
                 "--instance": [FILE, "absent.json", "."], "--alpha": FLOATS,
                 "--theta": FLOATS, "--alpha-net": FLOATS, "--seed": INTS, "--trials": INTS,
                 "--with-opt": None, "--format": ["json", "csv"], "--out": OUT},
    "discover": {"--graph": [FILE, "absent.json"], "--alpha": FLOATS, "--seed": INTS,
                 "--trials": INTS, "--format": ["json", "csv"], "--out": OUT},
    "verify": {"--graph": [FILE], "--mode": ["exact", "greedy"], "--out": OUT},
    "lemma-test": {"--alpha": FLOATS, "--log2-n": FLOATS, "--s": INTS, "--out": OUT},
    "bench": {"--k": ["1,2", "1,2,4", "3", "0,1"] + INTS, "--n": INTS, "--m": INTS,
              "--trials": INTS, "--seed": INTS, "--alpha": FLOATS, "--alpha-net": FLOATS,
              "--out": OUT},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    flags = COMMANDS.get(command, {})
    names = list(flags)
    required = names[:REQUIRED.get(command, 0)]
    optional = draw(st.lists(st.sampled_from(names), max_size=6)) if names else []
    argv = [command]
    for flag in required + optional:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag]) | st.sampled_from(INTS + JUNK)))
    return argv


small_ints = st.integers(-1, 9)
scalars = st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "universe_size", "sets", "meta"]),
                      inner, max_size=4),
    max_leaves=12,
)
sizes = st.sampled_from([-1, 0, 1, 3, 8, 1048577, 10**9, 2.0, True, "3"])
set_docs = st.fixed_dictionaries(
    {"universe_size": sizes,
     "sets": st.lists(st.lists(small_ints | scalars, max_size=5), max_size=6)}
)
graph_docs = st.fixed_dictionaries(
    {"n": sizes, "edges": st.lists(st.lists(small_ints | scalars, max_size=3), max_size=8)}
)
# 5000 levels is past the recursion limit of json.load, and short enough for
# hypothesis to print.
raw_texts = st.sampled_from([b"", b"{", b"[1,", b"\xff\xfe", b"[" * 5000 + b"]" * 5000])
files = (set_docs | graph_docs | json_values).map(lambda doc: json.dumps(doc).encode()) | raw_texts


def _last(argv, flag):
    values = [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == flag]
    return values[-1] if values else None


@settings(max_examples=30)
@given(argv=argvs(), content=files)
def test_cli_ends_in_output_json_error_or_usage(argv, content):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with tempfile.TemporaryDirectory() as work:
        Path(work, FILE).write_bytes(content)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *argv], cwd=work, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        if proc.returncode == 0:
            out = _last(argv, "--out")
            text = Path(work, out).read_text() if out else proc.stdout
            if _last(argv, "--format") == "csv":
                assert next(csv.reader(io.StringIO(text)))
            else:
                json.loads(text)
        elif proc.returncode == 1:
            error = json.loads(proc.stderr)
            assert proc.stdout == "" and set(error) == {"error", "kind"}
        else:
            assert proc.returncode == 2 and proc.stderr.startswith("usage: covertsc"), proc
