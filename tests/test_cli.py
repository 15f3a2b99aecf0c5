import contextlib
import csv
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import histroute
from histroute import cli, dump, engine, polygon, scheme_double, \
    scheme_simple, visibility

import oracles
from conftest import DOUBLE2, H_DBL_TEXT, H_STEPS_TEXT, SIMPLE2, \
    dump_arrays, pack, with_rows


@pytest.fixture()
def steps_file(tmp_path):
    p = tmp_path / "steps.poly"
    p.write_text(H_STEPS_TEXT + "\n")
    return str(p)


@pytest.fixture()
def dbl_file(tmp_path):
    p = tmp_path / "dbl.poly"
    p.write_text(H_DBL_TEXT + "\n")
    return str(p)


def run(capsys, *argv):
    code = cli.cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "--kind", "simple", "--n", "8",
                         "--seed", "3")
    assert code == 0
    h = polygon.parse_polygon(out)
    assert h.kind == "simple" and h.n == 8


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "h.poly"
    code, out, err = run(capsys, "gen", "--kind", "double", "--n", "12",
                         "--seed", "7", "--out", str(target))
    assert code == 0
    h = polygon.parse_polygon(target.read_text())
    assert h.kind == "double" and h.n == 12


def test_gen_bad_n(capsys):
    code, out, err = run(capsys, "gen", "--kind", "simple", "--n", "7")
    assert code == 2
    assert "error" in err


def test_validate_ok(capsys, steps_file):
    code, out, err = run(capsys, "validate", steps_file)
    assert code == 0
    assert out.strip() == "valid: kind=simple n=8"


def test_validate_rejects_broken(capsys, tmp_path):
    p = tmp_path / "bad.poly"
    p.write_text("simple 4\n0 0\n3 0\n3 3\n0 3\n")
    code, out, err = run(capsys, "validate", str(p))
    assert code == 1
    assert out.startswith("invalid:")
    assert "numbering" in out


@pytest.mark.parametrize("cmd,line", [
    ("validate", "invalid: syntax: vertex 2: coordinate "
                 "99999999999999999999999 is out of range, "
                 "|c| must be below 2**62"),
    ("build", "error: syntax: vertex 2: coordinate "
              "99999999999999999999999 is out of range, "
              "|c| must be below 2**62"),
])
def test_coordinate_out_of_range(capsys, tmp_path, cmd, line):
    p = tmp_path / "huge.poly"
    p.write_text("simple 4\n0 3\n0 0\n99999999999999999999999 0\n"
                 "99999999999999999999999 3\n")
    code, out, err = run(capsys, cmd, str(p))
    assert code == 1
    assert (out + err).splitlines() == [line]


def test_build_summary(capsys, steps_file, tmp_path):
    dump = tmp_path / "steps.scheme"
    code, out, err = run(capsys, "build", steps_file, "--out", str(dump))
    assert code == 0
    assert "labBits=" in out and "tabBits=1" in out and "hdrBits=0" in out
    assert dump.read_bytes().startswith(b"histroute-dump 1 simple 8\n")


def test_build_writes_the_same_bytes_to_stdout_and_out(capsysbinary,
                                                       dbl_file, tmp_path):
    # the dump goes to stdout's binary buffer, the summary to stderr
    out = tmp_path / "dbl.scheme"
    assert cli.cli_main(["build", dbl_file, "--out", str(out)]) == 0
    summary = capsysbinary.readouterr().out
    assert cli.cli_main(["build", dbl_file]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == out.read_bytes()
    assert captured.out.startswith(b"histroute-dump 1 double 12\n")
    assert captured.err == summary


def test_route_with_trace(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file,
                         "--from", "2", "--to", "6", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 0 7 6"
    assert lines[1] == "routed=3 bfs=3"


def test_route_without_trace(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file,
                         "--from", "2", "--to", "6")
    assert code == 0
    assert out.strip() == "routed=3 bfs=3"


def test_route_self(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file,
                         "--from", "3", "--to", "3")
    assert code == 0
    assert out.strip() == "routed=0 bfs=0"


def test_route_distance_builds_no_bfs_plan(capsys, steps_file,
                                           monkeypatch):
    # the one distance comes from a one-source BFS, not the pair query
    def refused(*args):
        raise AssertionError("a BFS plan was built")

    monkeypatch.setattr(engine, "_bfs_plan", refused)
    code, out, err = run(capsys, "route", steps_file,
                         "--from", "2", "--to", "6")
    assert (code, out.strip()) == (0, "routed=3 bfs=3")


def test_route_double(capsys, dbl_file):
    code, out, err = run(capsys, "route", dbl_file, "--from", "0", "--to", "6")
    assert code == 0
    assert out.startswith("routed=")


def test_route_bad_ids(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file,
                         "--from", "2", "--to", "99")
    assert code == 2
    assert "vertex ids" in err


def test_route_from_dump_after_deleting_polygon(capsys, steps_file,
                                                tmp_path):
    # the dump alone must be enough to route
    dump = tmp_path / "steps.scheme"
    run(capsys, "build", steps_file, "--out", str(dump))
    import os
    os.remove(steps_file)
    code, out, err = run(capsys, "route", str(dump),
                         "--from", "2", "--to", "6", "--trace")
    assert code == 0
    assert out.strip().splitlines()[0] == "2 0 7 6"


def test_route_takes_comment_lines_as_the_readers_do(capsys, steps_file,
                                                     tmp_path):
    # str.splitlines() ends a line at a form feed, so the polygon reader
    # takes this file's second line as its header, and so does route
    fed = tmp_path / "ff.poly"
    fed.write_text("# built\x0c" + H_STEPS_TEXT)
    assert polygon.parse_polygon(fed.read_text()).n == 8
    dump = tmp_path / "steps.scheme"
    run(capsys, "build", steps_file, "--out", str(dump))
    args = ("--from", "0", "--to", "5", "--trace")
    want = run(capsys, "route", str(dump), *args)
    assert want[0] == 0
    assert run(capsys, "route", str(fed), *args) == want
    assert run(capsys, "route", steps_file, *args) == want


def test_route_reads_a_dump_only_when_it_starts_with_the_magic(
        capsys, dbl_file, tmp_path):
    # polygon text may start with a comment; a dump behind one is no
    # longer a dump, and the polygon parser rejects it in one line
    dump = tmp_path / "dbl.scheme"
    run(capsys, "build", dbl_file, "--out", str(dump))
    commented = tmp_path / "commented.poly"
    commented.write_text("# a comment\n\n" + H_DBL_TEXT)
    args = ("--from", "0", "--to", "6", "--trace")
    want = run(capsys, "route", str(dump), *args)
    assert want[0] == 0 and len(want[1].splitlines()) == 2
    assert run(capsys, "route", str(commented), *args) == want
    hidden = tmp_path / "hidden.scheme"
    hidden.write_bytes(b"# built from dbl.poly\n" + dump.read_bytes())
    code, out, err = run(capsys, "route", str(hidden), *args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_verify_simple(capsys, steps_file):
    code, out, err = run(capsys, "verify", steps_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pairs=56"
    assert lines[1] == "maxStretch=1.000"
    assert lines[-1] == "failures=0"


def test_verify_double_with_report(capsys, dbl_file, tmp_path):
    report = tmp_path / "pairs.csv"
    code, out, err = run(capsys, "verify", dbl_file, "--pairs", "40",
                         "--seed", "2", "--report", str(report))
    assert code == 0
    assert "pairs=40" in out
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "t", "bfs", "routed", "stretch"]
    assert len(rows) == 41


@pytest.mark.parametrize("pairs", ["-3", "0", "x"])
def test_verify_bad_pairs_arg(capsys, steps_file, pairs):
    code, out, err = run(capsys, "verify", steps_file, "--pairs", pairs)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--pairs" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "simple", "--n", "8", "--seed", "-5"),
    ("verify", "FILE", "--seed", "-1"),
    ("verify", "FILE", "--seed", "one"),
])
def test_negative_seed(capsys, steps_file, argv):
    argv = [steps_file if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed" in errors[0]
    assert "Traceback" not in err


def test_verify_oversized_pairs(capsys, tmp_path):
    p = tmp_path / "s12.poly"
    p.write_text(polygon.to_text(polygon.generate("simple", 12, seed=1)))
    code, out, err = run(capsys, "verify", str(p), "--pairs", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "'all'" in err


def test_verify_internal_value_error_is_not_a_usage_error(
        monkeypatch, steps_file):
    def broken(*args):
        raise ValueError("internal defect")

    monkeypatch.setattr(scheme_simple.SimpleScheme, "step", broken)
    with pytest.raises(ValueError, match="internal defect"):
        cli.cli_main(["verify", steps_file])


@pytest.mark.parametrize("failing,k", [(lambda s, t: s == 1, 7),
                                       (lambda s, t: s in (1, 2, 5), 21)],
                         ids=["7-failures", "21-failures"])
def test_verify_prints_its_first_ten_failures(monkeypatch, capsys,
                                              steps_file, failing, k):
    # the step refuses at the failing sources; the steps polygon routes
    # no pair through vertex 1, 2 or 5, so exactly the pairs from them
    # fail
    real = scheme_simple.SimpleScheme.step

    def hop_limited(scheme, link, table, target, header):
        s, t = link.own_vid, target.vid
        if failing(s, t):
            raise engine.HopLimitExceeded(f"no arrival routing {s} -> {t}")
        return real(scheme, link, table, target, header)

    h = polygon.parse_polygon(H_STEPS_TEXT)
    sch = scheme_simple.preprocess_simple(h, visibility.build_graph(h))
    assert not {1, 2, 5} & {v for s in range(8) for t in range(8) if s != t
                            for v in engine.run_route(sch, s, t)[1:-1]}
    monkeypatch.setattr(scheme_simple.SimpleScheme, "step", hop_limited)
    code, out, err = run(capsys, "verify", steps_file)
    assert code == 1
    assert f"failures={k}" in out.splitlines()
    lines = err.splitlines()
    assert len(lines) == min(k, 10)
    for line in lines:
        s, t = map(int, re.fullmatch(r"failure: s=(\d+) t=(\d+) reason=.*",
                                     line).groups())
        assert failing(s, t)
        assert line.endswith(f" reason=HopLimitExceeded: no arrival routing "
                             f"{s} -> {t}")


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


def _no_landmark(mp):
    mp.setitem(cli._KINDS, "simple", (
        _raise(engine.SchemeBuildError("no landmark")),
        scheme_simple.SimpleScheme))


def _edgeless(mp):
    # the polygon's scheme, verified against a graph with no edges
    prepare = cli._prepare

    def edgeless(text):
        _, scheme = prepare(text)
        return types.SimpleNamespace(
            indptr=np.zeros(scheme.n + 1, np.int64),
            indices=np.zeros(0, np.int64)), scheme

    mp.setattr(cli, "_prepare", edgeless)


@pytest.mark.parametrize("cmd,dumped,patch,message", [
    ("build", False, _no_landmark, "no landmark"),
    ("route", False, _no_landmark, "no landmark"),
    ("route", True,
     lambda mp: mp.setattr(dump, "read",
                           _raise(dump.DumpError("bad table"))), "bad table"),
    ("route", True,
     lambda mp: mp.setattr(engine, "run_route",
                           _raise(engine.FirewallError("left the interval"))),
     "left the interval"),
    ("verify", False, _no_landmark, "no landmark"),
    ("verify", False, _edgeless, "visibility graph is not connected"),
    ("verify", False,
     lambda mp: mp.setattr(engine, "verify_all_pairs", _raise(MemoryError(
         "Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type int64"))),
     "Unable to allocate 7.28 TiB for an array with shape "
     "(1000000000000,) and data type int64"),
    ("gen", False,
     lambda mp: mp.setattr(polygon, "generate", _raise(MemoryError())),
     "MemoryError"),
], ids=["build-scheme", "route-scheme", "route-dump", "route-routing",
        "verify-scheme", "verify-disconnected", "verify-memory",
        "gen-memory"])
def test_library_errors_end_in_one_error_line(capsys, monkeypatch, tmp_path,
                                              steps_file, cmd, dumped, patch,
                                              message):
    # cli_main's exit-code table: each error a library call raises ends
    # the subcommand in exit code 1 and one "error:" line; a size too
    # large to allocate, as gen --n 10^12 once raised from numpy, too
    path = steps_file
    if dumped:
        path = str(tmp_path / "steps.scheme")
        assert run(capsys, "build", steps_file, "--out", path)[0] == 0
    patch(monkeypatch)
    args = {"route": [path, "--from", "0", "--to", "3"],
            "gen": ["--kind", "simple", "--n", "1000000000000"]}
    code, out, err = run(capsys, cmd, *args.get(cmd, [path]))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/file.poly")
    assert code != 0


@pytest.mark.parametrize("cmd,args", [
    ("validate", []),
    ("build", []),
    ("route", ["--from", "0", "--to", "1"]),
    ("verify", []),
])
def test_non_utf8_file(capsys, tmp_path, cmd, args):
    # these used to end in a UnicodeDecodeError traceback, route aside
    p = tmp_path / "bin.poly"
    p.write_bytes(b"simple 4\n0 3\n\xd0\x00\xff 0\n3 0\n3 3\n")
    code, out, err = run(capsys, cmd, str(p), *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "can't decode" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cmd", ["validate", "build", "verify"])
def test_dump_given_as_a_polygon_file(capsys, dbl_file, tmp_path, cmd):
    # these used to end in "error: 'utf-8' codec can't decode byte ..."
    dumped = tmp_path / "dbl.scheme"
    assert run(capsys, "build", dbl_file, "--out", str(dumped))[0] == 0
    code, out, err = run(capsys, cmd, str(dumped))
    line = f"syntax: {dumped} is a scheme dump, not a polygon file\n"
    assert code == 1
    assert (out, err) == (("invalid: " + line, "") if cmd == "validate"
                          else ("", "error: " + line))


def test_gen_validate_build_route_pipeline(capsys, tmp_path):
    poly = tmp_path / "g.poly"
    dump = tmp_path / "g.scheme"
    assert run(capsys, "gen", "--kind", "double", "--n", "20", "--seed",
               "11", "--out", str(poly))[0] == 0
    assert run(capsys, "validate", str(poly))[0] == 0
    assert run(capsys, "build", str(poly), "--out", str(dump))[0] == 0
    code, out, err = run(capsys, "route", str(dump),
                         "--from", "0", "--to", "19")
    assert code == 0
    routed, bfs = (int(part.split("=")[1]) for part in out.split())
    assert routed <= 2 * bfs


def double12_dump(nbrs, seed=5):
    """The dump of generate("double", 12, seed), with the neighbor lists
    of the rows in nbrs replaced."""
    h = polygon.normalize(polygon.generate("double", 12, seed=seed))
    scheme = scheme_double.preprocess_double(h, visibility.build_graph(h))
    return pack("double", 12, with_rows(dump_arrays(scheme), nbrs))


GOOD = pack("simple", 2, SIMPLE2)
TEXT_ROW = "0 | 0 1 | 0 1 | 0 1 0 1 0 1 | 1 | 1\n"


@pytest.mark.parametrize("data,reason", [
    (pack("simple", 2, {**SIMPLE2, "indices": [7, 0]}),
     "row 0: neighbor id outside [0, 2)"),
    (pack("simple", 0, {"indptr": [0], "indices": [], "br": [], "bit": []}),
     "at least one vertex"),
    (double12_dump({8: [0, 2, 7, 11]}),
     "row 8 lists 2 more often than row 2 lists 8"),
    (pack("simple", 2, {**SIMPLE2, "indptr": [0, 2, 4],
                        "indices": [0, 1, 0, 1]}),
     "row 0 lists itself"),
    (pack("simple", 2, {**SIMPLE2, "indptr": [0, 2, 4],
                        "indices": [1, 1, 0, 0]}),
     "row 0 lists 1 twice"),
    (pack("simple", 2, {**SIMPLE2, "br": [5, -1]}),
     "row 0: breakpoint 5 is outside [0, 2)"),
    (pack("double", 2, {**DOUBLE2, "ihi": [1, 2**62]}),
     f"row 1: interval bound {2**62} is out of range"),
    (pack("triple", 2, SIMPLE2), "not a simple or double scheme dump"),
    # 2 and 8 do not see each other: x(8) = 5 lies outside I(2) = [0, 4]
    (double12_dump({2: [0, 1, 3, 4, 5, 6, 7, 8, 11], 8: [0, 2, 7, 9, 10, 11]}),
     "row 2 lists 8, outside its interval"),
    # no magic: polygon text, which this is not
    (b"histroute-dumb" + GOOD[len(b"histroute-dump"):], "can't decode"),
    (GOOD.replace(b"simple 2\n", b"simple two\n", 1),
     "malformed dump header 'histroute-dump 1 simple two'"),
    (pack("simple", 2, SIMPLE2, version=2),
     "unknown dump version '2', this reader reads version 1"),
    (GOOD[:-1], "dump holds 8 bytes of arrays, its table names 9"),
    (GOOD[:30], "dump truncated in its header or table"),
    (GOOD.replace(b"indices 1 2", b"indices 2 2"),
     "dump holds 9 bytes of arrays, its table names 11"),
    (GOOD.replace(b"indices 1 2", b"indices 1 3"),
     "dump holds 9 bytes of arrays, its table names 10"),
    (pack("simple", 3, {"indptr": [0, 2, 3, 4], "indices": [2, 1, 0, 0],
                        "br": [-1] * 3, "bit": [0] * 3}),
     "row 0 is out of order: 2 before 1"),
    # dumps in the text format that the container replaced are polygon
    # text to route, and not polygons
    ("scheme simple 2\n0 | 0 | 0 | 1\n0 | 0 | 0 | 1\n".encode(),
     "line 1: expected '<kind> <n>', got 'scheme simple 2'"),
    (f"scheme double 2\n{TEXT_ROW}{TEXT_ROW}".encode(),
     "line 1: expected '<kind> <n>', got 'scheme double 2'"),
    (f"scheme double 2\n{TEXT_ROW}"
     f"1 | 1 -1 | 0 {2**63} | 0 1 0 1 0 1 | 0 | 0\n".encode(),
     "line 1: expected '<kind> <n>', got 'scheme double 2'"),
    (f"scheme double 2\n{TEXT_ROW}"
     f"1 | 1 -1 | 0 1 | 0 1 0 1 0 1 | 0 | {2**64}\n".encode(),
     "line 1: expected '<kind> <n>', got 'scheme double 2'"),
], ids=["simple-neighbor-out-of-range", "simple-no-vertices",
        "double-asymmetric", "simple-self-entry", "simple-repeated-neighbor",
        "simple-breakpoint-out-of-range", "double-field-out-of-range",
        "unknown-kind", "double-link-outside-interval", "bad-magic",
        "malformed-header", "unknown-version", "truncated-arrays",
        "truncated-table", "width-disagrees", "length-disagrees",
        "row-out-of-order", "simple-duplicate-row", "double-duplicate-row",
        "double-field-beyond-int64", "double-neighbor-beyond-int64"])
def test_route_rejects_malformed_dump(capsys, tmp_path, data, reason):
    # each ends in one error line, never a traceback
    dump = tmp_path / "bad.scheme"
    dump.write_bytes(data)
    code, out, err = run(capsys, "route", str(dump), "--from", "0",
                         "--to", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


def test_route_rejects_dump_with_vertex_on_base_line(capsys, tmp_path):
    # this dump used to end in a TypeError: no link entry lay off the
    # base line, so the vertical dominators came out None
    dump = tmp_path / "bad.dump"
    dump.write_bytes(pack("double", 2, {**DOUBLE2, "y": [1, 0], "ilo": [0, 5],
                                        "ihi": [1, 6]}))
    code, out, err = run(capsys, "route", str(dump),
                         "--from", "1", "--to", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "base line" in err
    assert len(err.strip().splitlines()) == 1


def test_route_on_dump_missing_an_edge(capsys, tmp_path):
    # both rows drop the edge 8-9, so the dump reads; 9 shares 8's x and
    # 8's link holds nothing beyond it
    dump = tmp_path / "cut.scheme"
    dump.write_bytes(double12_dump({8: [0, 7, 10, 11], 9: [7, 10, 11]}))
    code, out, err = run(capsys, "route", str(dump),
                         "--from", "8", "--to", "9")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_route_on_dump_with_no_neighbor_toward_the_target(capsys, tmp_path):
    # both rows drop the edge 2-3, so the dump reads; 3 shares 2's x,
    # and 2's link holds no vertex at or beyond that x
    data = double12_dump({2: [0, 1], 3: [0, 1, 4, 5]}, seed=0)
    with pytest.raises(engine.RoutingError,
                       match="^no neighbor of 2 lies toward x=1$"):
        engine.run_route(scheme_double.parse_dump(data), 2, 3)
    dump = tmp_path / "cut.scheme"
    dump.write_bytes(data)
    code, out, err = run(capsys, "route", str(dump),
                         "--from", "2", "--to", "3")
    assert (code, out) == (1, "")
    assert err == "error: no neighbor of 2 lies toward x=1\n"


def test_route_on_dump_missing_a_breakpoint(capsys, tmp_path):
    # the reader accepts a reflex vertex's row without its breakpoint,
    # so the step that reads it as the near neighbor has to fail
    h = polygon.parse_polygon(H_STEPS_TEXT)
    g = visibility.build_graph(h)
    arrays = dump_arrays(scheme_simple.preprocess_simple(h, g))
    u = int(np.flatnonzero(~h.convex)[0])
    assert arrays["br"][u] >= 0
    arrays["br"][u] = -1
    data = pack("simple", h.n, arrays)

    def near(s, t):
        # the near neighbor a first step from s to t reads: the last id
        # of s's closed row before t, or the first after it
        ids = sorted([s, *oracles.neighbor_lists(g)[s]])
        if t in ids or not ids[0] < t < ids[-1]:
            return None
        return max(w for w in ids if w < t) if t > s else \
            min(w for w in ids if w > t)
    s, t = next((s, t) for s in range(h.n) for t in range(h.n)
                if near(s, t) == u)
    with pytest.raises(engine.RoutingError,
                       match=f"^neighbor {u} lacks a breakpoint id$"):
        engine.run_route(scheme_simple.parse_dump(data), s, t)
    dump = tmp_path / "nobr.scheme"
    dump.write_bytes(data)
    code, out, err = run(capsys, "route", str(dump),
                         "--from", str(s), "--to", str(t))
    assert (code, out) == (1, "")
    assert err == f"error: neighbor {u} lacks a breakpoint id\n"


# file contents for the fuzz below: small polygons and their dumps
FUZZ_FILES = []
for _kind, _n, _seed in (("simple", 4, 0), ("simple", 10, 3),
                         ("double", 8, 1), ("double", 12, 5)):
    _h = polygon.normalize(polygon.generate(_kind, _n, _seed))
    _g = visibility.build_graph(_h)
    _module = scheme_double if _kind == "double" else scheme_simple
    FUZZ_FILES += [polygon.to_text(_h).encode(),
                   _module.dump_scheme(cli._KINDS[_kind][0](_h, _g))]


@st.composite
def fuzz_files(draw):
    """Bytes of a fuzz file: a polygon or dump as it is, with one line
    replaced, dropped or repeated, cut short, or raw bytes."""
    how = draw(st.sampled_from(["as is", "replace", "drop", "repeat", "cut",
                                "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    data = draw(st.sampled_from(FUZZ_FILES))
    if how == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if how == "replace":
        lines[i] = draw(st.text(max_size=16)).encode("utf-8", "surrogatepass")
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    return b"\n".join(lines)


@st.composite
def fuzz_argvs(draw, path, out):
    """The argv of one call of any subcommand on the file at path, with
    options drawn from small choices, now and then one left out."""
    cmd = draw(st.sampled_from(["gen", "validate", "build", "route",
                                "verify"]))
    kind = draw(st.sampled_from(["simple", "double", "triple"]))
    ids = st.sampled_from(["0", "1", "3", "7", "11", "-1", "99", "x"])
    opts = {
        "gen": [["--kind", kind], ["--n", draw(st.sampled_from(
            ["4", "8", "10", "3", "-2", "x"]))], ["--seed", draw(ids)],
            ["--out", out]],
        "validate": [],
        "build": [["--out", out]],
        "route": [["--from", draw(ids)], ["--to", draw(ids)], ["--trace"]],
        "verify": [["--pairs", draw(st.sampled_from(
            ["all", "5", "0", "x", "99999"]))], ["--seed", draw(ids)],
            ["--report", out]],
    }[cmd]
    argv = [cmd] + ([] if cmd == "gen" else [path])
    for opt in opts:
        if draw(st.integers(0, 4)):
            argv += opt
    return argv


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly(data):
    # whatever the file and options, every call ends in exit code 0, 1
    # or 2 and never raises
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "in"), os.path.join(d, "out")
        with open(path, "wb") as fh:
            fh.write(data.draw(fuzz_files()))
        argv = data.draw(fuzz_argvs(path, out))
        # build writes a dump to the binary buffer under sys.stdout
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.cli_main(argv) in (0, 1, 2)


REPO = pathlib.Path(__file__).resolve().parents[1]


def test_console_script_names_main():
    # the entry point pip installs as the histroute command
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"histroute": "histroute.cli:main"}


def test_console_script_commands_run(tmp_path):
    # the workflow's console-script step, run by bash as the runner runs
    # it and with its warnings setting, with histroute going through
    # __main__ and main() in fresh processes: every command must succeed
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"name: Run the installed console script\n"
                     r"(?:\s+#.*\n)*\s+run: \|\n((?: {10}.*\n)+)"
                     r" {8}env:\n {10}PYTHONWARNINGS: (\S+)\n", workflow)
    assert step[2] == "error"
    script = "".join(line[10:] + "\n" for line in step[1].splitlines())
    assert len(re.findall(r"^histroute ", script, re.MULTILINE)) == 8
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "histroute"
    wrapper.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m histroute "$@"\n')
    wrapper.chmod(0o755)
    src = os.path.dirname(os.path.dirname(histroute.__file__))
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "RUNNER_TEMP": str(tmp_path),
             "PYTHONWARNINGS": step[2],
             "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"})
    assert done.returncode == 0, (done.stdout, done.stderr)
    assert (tmp_path / "cut.err").read_text().startswith("error: ")
