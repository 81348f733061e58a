"""Command-line front end.

Subcommands: gen-graph, gen-sets, setcover, discover, verify, lemma-test,
bench. ``setcover`` and ``discover`` share one handler: each prints the
``harness.run_experiment`` report of its file source (``--instance`` or
``--graph``). Output goes to stdout or --out as JSON, or for those two as
CSV with one row per trial (``--format csv``); failures print a
machine-readable JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .discovery import offline_verification
from .epsnet import DEFAULT_ALPHA_NET
from .errors import CovertSetCoverError, require_size
from .generators import GRAPH_MODELS, SET_MODELS, gen_graph, gen_set_system
from .graphs import graph_to_json_dict
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    bench_planted_family,
    resolve_graph,
    resolve_system,
    run_experiment,
    sampling_concentration_test,
)
from .pseudo_greedy import DEFAULT_ALPHA
from .setsystem import to_json_dict


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertsc",
        description="Covert set cover and layered-graph network discovery toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="generate a graph fixture")
    g.add_argument("--model", required=True, choices=GRAPH_MODELS)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--p", type=float, default=0.25, help="edge probability (er-connected)")
    g.add_argument("--rows", type=int, default=0)
    g.add_argument("--cols", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    _output_flags(g)
    g.set_defaults(func=_cmd_gen_graph)

    s = sub.add_parser("gen-sets", help="generate a set-system instance")
    s.add_argument("--model", required=True, choices=SET_MODELS)
    s.add_argument("--n", type=int, required=True, help="universe size")
    s.add_argument("--m", type=int, required=True, help="number of sets")
    s.add_argument("--k", type=int, default=0, help="planted cover size")
    s.add_argument("--density", type=float, default=0.3)
    s.add_argument("--seed", type=int, default=0)
    _output_flags(s)
    s.set_defaults(func=_cmd_gen_sets)

    c = sub.add_parser("setcover", help="run a cover algorithm on an instance file")
    c.add_argument("--algo", required=True, choices=[
        name for name, (resolve, _, _) in ALGORITHMS.items() if resolve is resolve_system
    ])
    c.add_argument("--instance", required=True, help="set-system JSON file")
    c.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    c.add_argument("--theta", type=float, default=1.0)
    c.add_argument("--alpha-net", type=float, default=DEFAULT_ALPHA_NET)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=int, default=1)
    c.add_argument("--with-opt", action="store_true",
                   help="also brute-force the optimum for ratios (small instances)")
    _output_flags(c)
    c.set_defaults(func=_cmd_experiment)

    d = sub.add_parser("discover", help="online network discovery on a graph file")
    d.add_argument("--graph", required=True, dest="instance", metavar="GRAPH")
    d.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--trials", type=int, default=1)
    _output_flags(d)
    # The constants discovery does not read keep their config defaults.
    d.set_defaults(func=_cmd_experiment, algo="discover", theta=1.0,
                   alpha_net=DEFAULT_ALPHA_NET, with_opt=True)
    for p in (c, d):  # only a trial report flattens to CSV rows
        p.add_argument("--format", choices=("json", "csv"), default="json")

    v = sub.add_parser("verify", help="offline verification query set for a known graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    _output_flags(v)
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("lemma-test", help="exact threshold-crossing rates of the round sampling")
    t.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    t.add_argument("--log2-n", type=float, default=20.0, help="log2 of the scale parameter N")
    t.add_argument("--s", type=int, default=1024, help="round scale s_i")
    _output_flags(t)
    t.set_defaults(func=_cmd_lemma_test)

    b = sub.add_parser("bench", help="pseudo-greedy vs epsnet query growth on planted families")
    b.add_argument("--k", default="1,2,4,8", help="comma-separated planted cover sizes")
    b.add_argument("--n", type=int, default=512)
    b.add_argument("--m", type=int, default=512)
    b.add_argument("--trials", type=int, default=5)
    b.add_argument("--seed", type=int, default=0, help="first seed; trials use seed..seed+trials-1")
    b.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    b.add_argument("--alpha-net", type=float, default=DEFAULT_ALPHA_NET)
    _output_flags(b)
    b.set_defaults(func=_cmd_bench)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _cmd_gen_graph(args) -> dict:
    graph = gen_graph(args.model, n=args.n, seed=args.seed, p=args.p,
                      rows=args.rows, cols=args.cols)
    return graph_to_json_dict(graph)


def _cmd_gen_sets(args) -> dict:
    system, meta = gen_set_system(args.model, n=args.n, m=args.m,
                                  seed=args.seed, k=args.k, density=args.density)
    return to_json_dict(system, meta=meta)


def _cmd_experiment(args) -> dict:
    """The ``run_experiment`` report of ``setcover`` or ``discover`` over the file source."""
    config = ExperimentConfig(
        algorithm=args.algo,
        seeds=_seeds(args),
        source={"kind": "file", "path": args.instance},
        alpha=args.alpha,
        theta=args.theta,
        alpha_net=args.alpha_net,
        compute_opt=args.with_opt,
    )
    return run_experiment(config)


def _seeds(args) -> list[int]:
    """seed, ..., seed + trials - 1; the trial count is checked before the list is made."""
    require_size("trials", args.trials)
    return list(range(args.seed, args.seed + args.trials))


def _cmd_verify(args) -> dict:
    graph = resolve_graph({"kind": "file", "path": args.graph})
    vertices, size = offline_verification(graph, mode=args.mode)
    return {"mode": args.mode, "query_set": vertices, "size": size}


def _cmd_lemma_test(args) -> dict:
    return sampling_concentration_test(alpha=args.alpha, log2_n_total=args.log2_n, s_i=args.s)


def _cmd_bench(args) -> dict:
    k_values = [int(x) for x in args.k.split(",") if x.strip()]
    return bench_planted_family(
        k_values, _seeds(args), n=args.n, m=args.m,
        alpha=args.alpha, alpha_net=args.alpha_net,
    )


def _emit(payload: dict, args) -> None:
    # Serialized in either format, so a NaN or an infinity is an error, never output.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    flat_rows = [_flatten(row) for row in payload["trials"]]
    sorted_fields = sorted({k for row in flat_rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted_fields)
    writer.writeheader()
    for row in flat_rows:
        writer.writerow(row)
    return buf.getvalue()


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        _emit(payload, args)
    except (CovertSetCoverError, ValueError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
