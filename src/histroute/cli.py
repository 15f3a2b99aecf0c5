"""Command line entry point.

Subcommands: gen (random polygon), validate (check a polygon file),
build (polygon -> scheme dump), route (one source/target pair), and
verify (all or sampled pairs against BFS). Every input names its own
kind: a polygon file in its ``simple N`` or ``double N`` header, a
dump in its container header (see dump). Exit codes: 0 on success,
1 when reading, validation, building, routing, or verification fails,
2 on usage errors; cli_main maps each error class to its code.
"""

import argparse
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


# The exit-code table of cli_main: these errors end a subcommand in one
# "error:" line, a sample that cannot be drawn (bad usage) with exit code
# 2, the rest, a size too large to allocate too, with 1. Any other
# exception, a plain ValueError too, is a defect and propagates.
_ERRORS = (engine.SampleSizeError, OSError, UnicodeDecodeError,
           polygon.PolygonError, dump.DumpError, engine.SchemeBuildError,
           engine.RoutingError, MemoryError)


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _pairs(text: str):
    """argparse type of --pairs: 'all' or a positive integer."""
    if text != "all" and not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"must be 'all' or a positive integer, got {text!r}")
    return text if text == "all" else int(text)


def _read(path: str) -> str:
    """A polygon file's text, decoded as UTF-8; a scheme dump, a file
    that starts with dump.MAGIC, is a PolygonError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(dump.MAGIC):
        raise polygon.PolygonError(
            "syntax", f"{path} is a scheme dump, not a polygon file")
    return data.decode("utf-8")


def _prepare(text: str):
    """Polygon text -> (graph, scheme) of the kind its header names."""
    h = polygon.parse_polygon(text)
    g = visibility.build_graph(h)
    return g, _KINDS[h.kind][0](h, g)


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
    _, scheme = _prepare(_read(args.file))
    data = dump.write(scheme)
    summary = [f"labBits={scheme.max_label_bits}",
               f"tabBits={scheme.max_table_bits}",
               f"hdrBits={scheme.max_header_bits}"]
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print("\n".join(summary))
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        print("\n".join(summary), file=sys.stderr)
    return 0


def _load_for_route(path: str):
    """Accept either a scheme dump (self-contained), a file that starts
    with dump.MAGIC, or a polygon file, decoded as UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(dump.MAGIC):
        return dump.read(data, *(cls for _, cls in _KINDS.values()))
    return _prepare(data.decode("utf-8"))[1]


def _cmd_route(args) -> int:
    scheme = _load_for_route(args.file)
    n = scheme.n
    if not (0 <= args.src < n and 0 <= args.dst < n):
        print(f"error: vertex ids must be in [0, {n})", file=sys.stderr)
        return 2
    trace = engine.run_route(scheme, args.src, args.dst)
    bfs = engine.bfs_distances(scheme.indptr, scheme.indices, args.src,
                               args.dst)[args.dst].item()
    if args.trace:
        print(" ".join(str(v) for v in trace))
    print(f"routed={max(len(trace) - 1, 0)} bfs={bfs}")
    return 0


def _cmd_verify(args) -> int:
    g, scheme = _prepare(_read(args.file))
    report = engine.verify_all_pairs(scheme, g, pairs=args.pairs,
                                     seed=args.seed, report_path=args.report)
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
    b.add_argument("--out", help="dump file (default stdout)")
    b.set_defaults(fn=_cmd_build)

    r = sub.add_parser("route", help="route one pair and compare with BFS")
    r.add_argument("file", help="polygon file or scheme dump")
    r.add_argument("--from", dest="src", required=True, type=int)
    r.add_argument("--to", dest="dst", required=True, type=int)
    r.add_argument("--trace", action="store_true",
                   help="print the hop sequence")
    r.set_defaults(fn=_cmd_route)

    w = sub.add_parser("verify", help="route many pairs against BFS")
    w.add_argument("file", help="polygon file")
    w.add_argument("--pairs", type=_pairs, default="all",
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
    except _ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, engine.SampleSizeError) else 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
