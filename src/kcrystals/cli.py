"""
Command line interface: polynomial evaluation, enumeration streams,
crystal graph export, and the verification suites.
"""

from __future__ import annotations

import argparse
import json
import sys

from .crystal import crystal_table
from .kohnert import closure_table
from .polynomials import lascoux, lascoux_atom
from .skyline import skyline_table
from .tableaux import _heights, _partition
from .verify import SUITES, Bounds, run_suite


def _composition(text: str) -> tuple[int, ...]:
    try:
        return _heights(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad composition {text!r}: parts must be nonnegative integers") from exc


def cmd_lascoux(args) -> int:
    poly = (lascoux_atom if args.atom else lascoux)(args.weight, args.n)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "weight": list(args.weight),
                    "n": args.n,
                    "atom": bool(args.atom),
                    "polynomial": poly.to_text(),
                },
                sort_keys=True,
            )
        )
    else:
        print(poly.to_text())
    return 0


def cmd_enumerate(args) -> int:
    if args.kind in ("svt", "skyline") and (args.n is None or args.n < 1):
        problem = "is required" if args.n is None else "must be a positive integer"
        print(f"error: --n {problem} for svt and skyline", file=sys.stderr)
        return 2
    if args.kind == "kohnert" and args.n is not None:
        print("error: enumerate kohnert does not read --n; --shape alone sets the diagrams", file=sys.stderr)
        return 2
    if args.kind != "svt" and args.format is not None:
        print(f"error: enumerate {args.kind} prints JSON lines only and does not read --format", file=sys.stderr)
        return 2
    if args.kind == "svt":  # codes, positions or filling indices, decoded only to print
        table = crystal_table(args.n, _partition(args.shape))
        found, decode = table.codes, table.decode
    elif args.kind == "kohnert":
        graph, found = closure_table(args.shape)
        decode = graph.diagram
    else:
        record = skyline_table(tuple(sorted(args.shape)), args.n)
        found, decode = record.skylines(args.shape), lambda indices: record.skyline(args.shape, indices)
    if args.count:
        print(len(found))
        return 0
    for obj in map(decode, found):
        if args.kind != "svt":
            print(json.dumps(obj.to_json_dict(), sort_keys=True))
        elif args.format == "json":
            payload = {"tableau": obj.to_text(), "weight": list(obj.weight()), "excess": obj.excess()}
            print(json.dumps(payload, sort_keys=True))
        else:
            print(obj.to_text())
    return 0


def cmd_graph(args) -> int:
    if args.n < 1:
        print("error: graph needs --n >= 1", file=sys.stderr)
        return 2
    table = crystal_table(args.n, _partition(args.shape))
    texts = [table.decode(code).to_text() for code in table.codes]
    lines = ["digraph crystal {", "  rankdir=TB;", *(f'  "{text}";' for text in texts)]
    ops = ("f", "fK") if args.with_k_ops else ("f",)
    edges = [
        (text, i, texts[image], op == "fK")
        for i in range(1, args.n)
        for op, images in zip(ops, table.maps(i, *ops))
        for text, image in zip(texts, images)
        if image >= 0
    ]
    for src, i, dst, dashed in sorted(edges):
        style = ", style=dashed" if dashed else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{i}"{style}];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    bounds = Bounds(args.max_n, args.max_side, args.max_cells, args.shape, args.n)
    failures = 0
    for result in run_suite(args.suite, bounds, args.jobs):
        line = (
            result.to_json(args.timings)
            if args.format == "json"
            else result.to_text(args.timings)
        )
        print(line)
        failures += result.status == "fail"
    if failures:
        print(f"{failures} case(s) failed", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcrystals",
        description="Exact combinatorics of K-crystals on set-valued tableaux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lascoux", help="print a Lascoux polynomial or atom")
    p.add_argument("--weight", type=_composition, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--atom", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lascoux)

    p = sub.add_parser("enumerate", help="stream tableaux, diagrams, or skylines")
    p.add_argument("kind", choices=("svt", "kohnert", "skyline"))
    p.add_argument("--shape", type=_composition, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default=None)  # svt prints text unless given
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="crystal graph as DOT")
    p.add_argument("--shape", type=_composition, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-k-ops", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-n", type=int, default=Bounds.max_n)
    p.add_argument("--max-side", type=int, default=Bounds.max_side)
    p.add_argument("--max-cells", type=int, default=Bounds.max_cells)
    p.add_argument("--shape", type=_composition, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


_PARSER = build_parser()  # built once at import; each parse_args returns a fresh Namespace


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # the library rejects bad input with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
