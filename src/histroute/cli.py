"""Command line entry point.

Subcommands: gen (random polygon), validate (check a polygon file),
build (polygon -> scheme dump), route (one source/target pair), and
verify (all or sampled pairs against BFS). Exit codes: 0 on success,
1 when validation, building, routing, or verification fails, 2 on
usage errors.
"""

import argparse
import re
import sys

from . import dump
from . import engine
from . import polygon
from . import scheme_double
from . import scheme_simple
from . import visibility

# kind -> (preprocess, scheme class)
_KINDS = {
    "simple": (scheme_simple.preprocess_simple, scheme_simple.SimpleScheme),
    "double": (scheme_double.preprocess_double, scheme_double.DoubleScheme),
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _prepare(text: str, kind: str):
    """Polygon text -> (graph, scheme) for the given kind."""
    h = polygon.parse_polygon(text)
    if h.kind != kind:
        raise polygon.PolygonError(
            "syntax", f"file holds a {h.kind} histogram, not {kind}")
    if h.kind == "double":
        h = polygon.normalize(h)
    g = visibility.build_graph(h)
    return g, _KINDS[kind][0](h, g)


def _cmd_gen(args) -> int:
    try:
        h = polygon.generate(args.kind, args.n, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = polygon.to_text(h)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    try:
        h = polygon.parse_polygon(_read(args.file))
    except polygon.PolygonError as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid: kind={h.kind} n={h.n}")
    return 0


def _cmd_build(args) -> int:
    try:
        _, scheme = _prepare(_read(args.file), args.scheme)
    except (polygon.PolygonError, engine.SchemeBuildError) as exc:
        return _fail(str(exc))
    text = dump.write(scheme)
    summary = [f"labBits={scheme.max_label_bits}",
               f"tabBits={scheme.max_table_bits}",
               f"hdrBits={scheme.max_header_bits}"]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("\n".join(summary))
    else:
        sys.stdout.write(text)
        print("\n".join(summary), file=sys.stderr)
    return 0


def _load_for_route(text: str, kind: str):
    """Accept either a polygon file or a scheme dump (self-contained):
    the first word of a dump's first line that is neither blank nor a
    ``#`` comment is ``scheme``."""
    head = re.search(r"^[^\S\n]*([^#\s]\S*)", text, re.MULTILINE)
    if head and head[1] == "scheme":
        return dump.read(text, _KINDS[kind][1])
    return _prepare(text, kind)[1]


def _cmd_route(args) -> int:
    try:
        scheme = _load_for_route(_read(args.file), args.scheme)
    except (polygon.PolygonError, engine.SchemeBuildError,
            ValueError) as exc:
        return _fail(str(exc))
    n = scheme.n
    if not (0 <= args.src < n and 0 <= args.dst < n):
        print(f"error: vertex ids must be in [0, {n})", file=sys.stderr)
        return 2
    try:
        trace = engine.run_route(scheme, args.src, args.dst)
    except engine.RoutingError as exc:
        return _fail(str(exc))
    bfs = int(engine.distances(scheme.indptr, scheme.indices,
                               [args.src])[0, args.dst])
    if args.trace:
        print(" ".join(str(v) for v in trace))
    print(f"routed={max(len(trace) - 1, 0)} bfs={bfs}")
    return 0


def _cmd_verify(args) -> int:
    if args.pairs != "all":
        try:
            pairs = int(args.pairs)
            if pairs <= 0:
                raise ValueError
        except ValueError:
            print("error: --pairs takes 'all' or a positive integer",
                  file=sys.stderr)
            return 2
    else:
        pairs = "all"
    try:
        g, scheme = _prepare(_read(args.file), args.scheme)
    except (polygon.PolygonError, engine.SchemeBuildError) as exc:
        return _fail(str(exc))
    try:
        report = engine.verify_all_pairs(scheme, g, pairs=pairs,
                                         seed=args.seed,
                                         report_path=args.report)
    except engine.SampleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if not report.ok:
        for rec in report.failures[:10]:
            print(f"failure: s={rec['s']} t={rec['t']} "
                  f"reason={rec['reason']}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="histroute",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a random histogram polygon")
    g.add_argument("--kind", required=True, choices=("simple", "double"))
    g.add_argument("--n", required=True, type=int,
                   help="vertex count (even; >= 4 simple, >= 8 double)")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", help="output file (default stdout)")
    g.set_defaults(fn=_cmd_gen)

    v = sub.add_parser("validate", help="check a polygon file")
    v.add_argument("file")
    v.set_defaults(fn=_cmd_validate)

    b = sub.add_parser("build", help="preprocess a polygon into a scheme dump")
    b.add_argument("file")
    b.add_argument("--scheme", required=True, choices=("simple", "double"))
    b.add_argument("--out", help="dump file (default stdout)")
    b.set_defaults(fn=_cmd_build)

    r = sub.add_parser("route", help="route one pair and compare with BFS")
    r.add_argument("file", help="polygon file or scheme dump")
    r.add_argument("--scheme", required=True, choices=("simple", "double"))
    r.add_argument("--from", dest="src", required=True, type=int)
    r.add_argument("--to", dest="dst", required=True, type=int)
    r.add_argument("--trace", action="store_true",
                   help="print the hop sequence")
    r.set_defaults(fn=_cmd_route)

    w = sub.add_parser("verify", help="route many pairs against BFS")
    w.add_argument("file", help="polygon file")
    w.add_argument("--scheme", required=True, choices=("simple", "double"))
    w.add_argument("--pairs", default="all",
                   help="'all' or a sample size (default all)")
    w.add_argument("--report", help="write per-pair CSV here")
    w.add_argument("--seed", type=_seed, default=0)
    w.set_defaults(fn=_cmd_verify)
    return p


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(str(exc))


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
