"""Command line access to the labeling toolkit.

Subcommands: gen writes a graph file, label runs the constructive plane
labeler, exact runs the small-instance optimizer, verify checks a labeling
file, audit runs the structural scan and charge bookkeeping, bench times
the labeler over many files.  Machine output is JSON with "schema": 1.

Exit status: 0 for a successful affirmative result, 1 for a clean negative
determination (invalid labeling, unknown optimum, contradiction candidate,
failed bench entries), 2 for bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .discharge import AuditError, audit
from .exact import lambda_exact
from .families import FAMILIES, generate
from .graphs import GraphError, PlaneGraph
from .io import (
    parse_graph,
    parse_labeling,
    serialize_graph,
    serialize_labeling,
)
from .labeling import ColorInterval, validate
from .reduction import ExtensionError, IrreducibleError, degree_bound, label_planar

SCHEMA = 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, path: Optional[str] = None) -> None:
    payload = {"schema": SCHEMA, **payload}
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _plane(path: str) -> PlaneGraph:
    g = parse_graph(_read(path))
    if not isinstance(g, PlaneGraph):
        raise GraphError(
            "%s has no rotation lines; this command needs a plane graph"
            % path
        )
    return g


def _cmd_gen(args) -> int:
    g = generate(args.family, args.n, args.seed, args.max_degree)
    _write(args.output, serialize_graph(g))
    return 0


def _cmd_label(args) -> int:
    g = _plane(args.graph)
    try:
        phi, trace = label_planar(g, args.bound)
    except (IrreducibleError, ExtensionError) as exc:
        print("labeling failed: %s" % exc, file=sys.stderr)
        return 1
    _write(args.output, serialize_labeling(phi))
    if args.report is not None:
        _emit_json(
            {
                "bound": trace.max_degree_bound,
                "max_color": phi.max_color(),
                "elements": len(phi),
                "reductions": trace.kind_counts(),
                "base_cases": trace.base_cases,
                "splits": trace.splits,
                "steps": sum(1 for _ in trace.steps()),
                "slack_ok": trace.ok(),
            },
            args.report,
        )
    return 0


def _cmd_exact(args) -> int:
    g = parse_graph(_read(args.graph))
    result = lambda_exact(g, d=args.gap, budget=args.budget)
    _emit_json(
        {
            "gap": args.gap,
            "status": result.status,
            "value": result.value,
            "nodes": result.nodes,
            "level_nodes": list(result.level_nodes),
        }
    )
    if result.solved and args.witness is not None:
        _write(args.witness, serialize_labeling(result.witness))
    return 0 if result.solved else 1


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    phi = parse_labeling(_read(args.labeling), g)
    span = args.span
    if span is None:
        span = max(phi.max_color() or 0, 0)  # largest color used, at least 0
    interval = ColorInterval(k=span, d=args.gap)
    violations = validate(g, phi, interval)
    complete = len(phi) == g.n + g.m  # parse_labeling keeps only g's elements
    _emit_json(
        {
            "gap": args.gap,
            "span": span,
            "complete": complete,
            "valid": not violations,
            "violations": [
                {
                    "rule": v.rule,
                    "elements": [
                        list(e) if isinstance(e, tuple) else e
                        for e in v.elements
                    ],
                    "colors": list(v.colors),
                }
                for v in violations
            ],
        }
    )
    return 0 if complete and not violations else 1


def _cmd_audit(args) -> int:
    g = _plane(args.graph)
    report = audit(g, args.bound)
    _emit_json(report.to_dict())
    return 0 if report.status == "reducible" else 1


def _bench_one(path: str, bound: Optional[int]) -> dict:
    out: dict = {"path": path}
    try:
        g = _plane(path)
        start = time.perf_counter()
        phi, trace = label_planar(g, bound)
        out.update(
            n=g.n,
            m=g.m,
            bound=trace.max_degree_bound,
            seconds=round(time.perf_counter() - start, 4),
            max_color=phi.max_color(),
            slack_ok=trace.ok(),
            ok=True,
        )
    except Exception as exc:  # report per-file failures, keep going
        out.update(ok=False, error="%s: %s" % (type(exc).__name__, exc))
    return out


def _cmd_bench(args) -> int:
    degree_bound(args.bound)  # a bad bound is bad input, not a failed file
    results = [_bench_one(path, args.bound) for path in sorted(args.graphs)]
    failures = sum(1 for r in results if not r["ok"])
    _emit_json({"results": results, "failures": failures})
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlabel",
        description="Construct, optimize, verify, and audit gap-constrained "
        "total labelings of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated plane graph")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="label a plane graph constructively")
    p.add_argument("graph")
    p.add_argument("--bound", type=int, default=None,
                   help="degree bound M; colors run over 0..M+2")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None,
                   help="also write a JSON trace summary to this path "
                   "('-' for stdout)")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("exact", help="optimal span by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--gap", type=int, default=2,
                   help="required vertex-edge separation (default 2)")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the whole search, over every span "
                        "level and component; exceeding it reports unknown")
    p.add_argument("--witness", default=None,
                   help="write an optimal labeling to this path")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="check a labeling file against a graph")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.add_argument("--gap", type=int, default=2)
    p.add_argument("--span", type=int, default=None,
                   help="largest allowed color (default: largest used)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="scan for reducible structure and "
                       "run the charge bookkeeping")
    p.add_argument("graph")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="time the labeler over graph files")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


_PARSER = build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AuditError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
