"""Command-line front end.

Line-oriented key=value output on stdout; structured reports go to files via
--format csv/json. No color, no TTY detection, byte-stable across runs.

Exit codes: 0 success, 1 audit engine invariant violation, 2 usage or input
error (bad flags, malformed files, invalid vertex ids) or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .fileio import read_graph_file, write_graph_file
from .graphs import Digraph, EditOp, apply_edit
from .irregularity import irr_digraph, irr_graph
from .transforms import edge_joint, edge_transformation

if TYPE_CHECKING:
    from .audit import AuditRow


def _parse_seed(text: str) -> int:
    # base 0 accepts 0x... hex spellings
    seed = int(text, 0)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} outside 0..2**64-1")
    return seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _cmd_compute(args: argparse.Namespace) -> int:
    g = read_graph_file(args.input)
    if isinstance(g, Digraph):
        pair = irr_digraph(g)
        print(f"irr_in={pair.irr_in} irr_out={pair.irr_out}")
    else:
        print(f"irr_t={irr_graph(g)}")
    return 0


def _print_report(row: AuditRow, before_key: str) -> None:
    print(f"{before_key}={row.irr_before}")
    print(f"oracle_irr={row.irr_after_oracle}")
    print(f"engine_delta={row.engine_delta}")
    for p in row.predictions:
        print(f"formula={p.formula_id} predicted={p.predicted} agrees={_flag(p.agrees)}")


def _cmd_joint(args: argparse.Namespace) -> int:
    g1 = read_graph_file(args.left)
    g2 = read_graph_file(args.right)
    if isinstance(g1, Digraph) or isinstance(g2, Digraph):
        raise ValueError("joint expects undirected inputs")
    joined = edge_joint(g1, g2, args.u, args.v)
    if args.out is not None:
        write_graph_file(args.out, joined)
    if args.report:
        from .audit import joint_row

        _print_report(joint_row(0, 0, (g1, args.left, g2, args.right, args.u, args.v), joined), "union_irr")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    g = read_graph_file(args.input)
    a, b = args.cut
    if isinstance(g, Digraph):
        op = (EditOp.retarget_tail if args.end == "tail" else EditOp.retarget_head)(a, b, args.target)
        edited = apply_edit(g, op)
    else:
        if args.end is not None:
            raise ValueError("--end only applies to directed inputs")
        op, edited = EditOp.retarget_edge(a, b, args.target), edge_transformation(g, a, b, args.target)
    if args.out is not None:
        write_graph_file(args.out, edited)
    if args.report:
        from .audit import transform_row

        _print_report(transform_row(0, 0, (g, args.input, op), edited), "irr_before")
    return 0


# suite -> (default --instances, runner of (audit module, instances, seed)); the audit module
# is imported when a suite runs, and each runner looks its suite function up in it then
_SUITES = {
    "edge-joint": (1000, lambda audit, n, seed: audit.run_edge_joint_suite(n, seed)),
    "edge-transform": (1000, lambda audit, n, seed: audit.run_edge_transform_suite(n, seed)),
    "arc-transform": (1000, lambda audit, n, seed: audit.run_arc_transform_suite(n, seed)),
    "closed-forms": (64, lambda audit, max_n, seed: audit.run_closed_form_suite(max_n)),
    "lemma34": (1000, lambda audit, n, seed: audit.lemma34_suite(n, seed)),
}


def _cmd_audit(args: argparse.Namespace) -> int:
    from . import audit

    default, run = _SUITES[args.suite]
    report = run(audit, args.instances if args.instances is not None else default, args.seed)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    for stat in report.formula_stats:
        print(f"formula={stat.formula_id} agree={stat.agree} total={stat.total} pct={stat.pct}")
    print(f"engine_ok={_flag(report.engine_ok)}")
    return 0 if report.engine_ok else 1


# family -> (parameter count, builder of the graph from the generators module, the parameters and
# the parsed flags, vertex pairs a quadratic family examines for nonnegative parameters, or None for
# a linear one); generate refuses more than _MAX_PAIRS pairs before building anything
_FAMILIES = {
    "path": (1, lambda gen, p, args: gen.path(*p), None),
    "cycle": (1, lambda gen, p, args: gen.cycle(*p), None),
    "complete": (1, lambda gen, p, args: gen.complete(*p), lambda n: n * (n - 1) // 2),
    "star": (1, lambda gen, p, args: gen.star(*p), None),
    "complete-bipartite": (2, lambda gen, p, args: gen.complete_bipartite(*p), lambda m, n: m * n),
    "empty": (1, lambda gen, p, args: gen.empty_graph(*p), None),
    "matching": (1, lambda gen, p, args: gen.matching(*p), None),
    "random": (1, lambda gen, p, args: gen.random_graph(*p, args.p_index, args.seed), lambda n: n * (n - 1) // 2),
    "tree": (1, lambda gen, p, args: gen.random_tree(*p, args.seed), None),
    "connected": (
        1,
        lambda gen, p, args: gen.random_connected(*p, args.p_index, args.seed),
        lambda n: n * (n - 1) // 2,
    ),
    "random-digraph": (1, lambda gen, p, args: gen.random_digraph(*p, args.p_index, args.seed), lambda n: n * (n - 1)),
}
_MAX_PAIRS = 2_000_000


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import generators

    family, params = args.family, args.params
    arity, build, pair_count = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family} takes {arity} parameter(s), got {len(params)}")
    if family == "random-digraph" and args.orient != "none":
        raise ValueError("random-digraph is already directed")
    pairs = pair_count(*(max(x, 0) for x in params)) if pair_count else 0
    if pairs > _MAX_PAIRS:
        raise ValueError(f"family {family} would examine {pairs} vertex pairs, more than {_MAX_PAIRS}")
    if args.orient == "left-right":
        if family != "complete-bipartite":
            raise ValueError("left-right orientation only applies to complete-bipartite")
        out = generators.orient_left_right(*params)
    else:
        out = build(generators, params, args)
        if args.orient == "labeling":
            out = generators.orient_by_labeling(out, tuple(range(out.vertex_count)))
    write_graph_file(args.out, out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totirr",
        description="Total irregularity toolkit: compute, transform, generate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print total irregularity of a graph file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("joint", help="join two graphs by a fresh edge")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("transform", help="retarget a cut edge or an arc end")
    p.add_argument("--input", required=True)
    p.add_argument("--cut", type=int, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--end", choices=("head", "tail"))
    p.add_argument("--out")
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("audit", help="run a differential audit suite")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p.add_argument("--instances", type=_positive_int, help="instance count; vertex cap for closed-forms")
    p.add_argument("--seed", type=_parse_seed, default=0xC0FFEE, help="decimal or 0x-prefixed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("generate", help="write a generated graph in edge-list format")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--params", type=int, nargs="+", required=True)
    p.add_argument("--orient", choices=("none", "labeling", "left-right"), default="none")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--p-index", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 stays reserved for an engine invariant failure
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
