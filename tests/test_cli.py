import contextlib
import csv
import io
import os
import tempfile

import hypothesis
import hypothesis.strategies as st
import pytest

from histroute import cli, engine, polygon, scheme_double, scheme_simple, \
    visibility

from conftest import H_DBL_TEXT, H_STEPS_TEXT


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
    code, out, err = run(capsys, cmd, str(p), *(["--scheme", "simple"]
                                                 if cmd == "build" else []))
    assert code == 1
    assert (out + err).splitlines() == [line]


def test_build_summary(capsys, steps_file, tmp_path):
    dump = tmp_path / "steps.scheme"
    code, out, err = run(capsys, "build", steps_file, "--scheme", "simple",
                         "--out", str(dump))
    assert code == 0
    assert "labBits=" in out and "tabBits=1" in out and "hdrBits=0" in out
    assert dump.read_text().startswith("scheme simple 8")


def test_build_kind_mismatch(capsys, steps_file):
    code, out, err = run(capsys, "build", steps_file, "--scheme", "double")
    assert code == 1
    assert "error" in err


def test_route_with_trace(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file, "--scheme", "simple",
                         "--from", "2", "--to", "6", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 0 7 6"
    assert lines[1] == "routed=3 bfs=3"


def test_route_without_trace(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file, "--scheme", "simple",
                         "--from", "2", "--to", "6")
    assert code == 0
    assert out.strip() == "routed=3 bfs=3"


def test_route_self(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file, "--scheme", "simple",
                         "--from", "3", "--to", "3")
    assert code == 0
    assert out.strip() == "routed=0 bfs=0"


def test_route_double(capsys, dbl_file):
    code, out, err = run(capsys, "route", dbl_file, "--scheme", "double",
                         "--from", "0", "--to", "6")
    assert code == 0
    assert out.startswith("routed=")


def test_route_bad_ids(capsys, steps_file):
    code, out, err = run(capsys, "route", steps_file, "--scheme", "simple",
                         "--from", "2", "--to", "99")
    assert code == 2
    assert "vertex ids" in err


def test_route_from_dump_after_deleting_polygon(capsys, steps_file,
                                                tmp_path):
    # the dump alone must be enough to route
    dump = tmp_path / "steps.scheme"
    run(capsys, "build", steps_file, "--scheme", "simple",
        "--out", str(dump))
    import os
    os.remove(steps_file)
    code, out, err = run(capsys, "route", str(dump), "--scheme", "simple",
                         "--from", "2", "--to", "6", "--trace")
    assert code == 0
    assert out.strip().splitlines()[0] == "2 0 7 6"


def test_route_from_commented_dump(capsys, dbl_file, tmp_path):
    # a leading comment and a blank line, which the dump reader skips,
    # used to send the dump to the polygon parser
    plain = tmp_path / "dbl.scheme"
    run(capsys, "build", dbl_file, "--scheme", "double", "--out", str(plain))
    commented = tmp_path / "commented.scheme"
    commented.write_text("# built from dbl.poly\n\n" + plain.read_text())
    args = ("--scheme", "double", "--from", "0", "--to", "6", "--trace")
    want = run(capsys, "route", str(plain), *args)
    assert want[0] == 0 and len(want[1].splitlines()) == 2
    assert run(capsys, "route", str(commented), *args) == want


def test_route_dump_kind_mismatch(capsys, steps_file, tmp_path):
    dump = tmp_path / "steps.scheme"
    run(capsys, "build", steps_file, "--scheme", "simple",
        "--out", str(dump))
    code, out, err = run(capsys, "route", str(dump), "--scheme", "double",
                         "--from", "0", "--to", "3")
    assert code == 1


def test_verify_simple(capsys, steps_file):
    code, out, err = run(capsys, "verify", steps_file, "--scheme", "simple")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pairs=56"
    assert lines[1] == "maxStretch=1.000"
    assert lines[-1] == "failures=0"


def test_verify_double_with_report(capsys, dbl_file, tmp_path):
    report = tmp_path / "pairs.csv"
    code, out, err = run(capsys, "verify", dbl_file, "--scheme", "double",
                         "--pairs", "40", "--seed", "2",
                         "--report", str(report))
    assert code == 0
    assert "pairs=40" in out
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "t", "bfs", "routed", "stretch"]
    assert len(rows) == 41


def test_verify_bad_pairs_arg(capsys, steps_file):
    code, out, err = run(capsys, "verify", steps_file, "--scheme", "simple",
                         "--pairs", "-3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "simple", "--n", "8", "--seed", "-5"),
    ("verify", "FILE", "--scheme", "simple", "--seed", "-1"),
    ("verify", "FILE", "--scheme", "simple", "--seed", "one"),
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
    code, out, err = run(capsys, "verify", str(p), "--scheme", "simple",
                         "--pairs", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "'all'" in err


def test_verify_internal_value_error_is_not_a_usage_error(
        monkeypatch, steps_file):
    def broken(scheme, s, t):
        raise ValueError("internal defect")

    monkeypatch.setattr(engine, "run_route", broken)
    with pytest.raises(ValueError, match="internal defect"):
        cli.cli_main(["verify", steps_file, "--scheme", "simple"])


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/file.poly")
    assert code != 0


@pytest.mark.parametrize("cmd,args", [
    ("validate", []),
    ("build", ["--scheme", "simple"]),
    ("route", ["--scheme", "double", "--from", "0", "--to", "1"]),
    ("verify", ["--scheme", "simple"]),
])
def test_non_utf8_file(capsys, tmp_path, cmd, args):
    # these used to end in a UnicodeDecodeError traceback, route aside
    p = tmp_path / "bin.poly"
    p.write_bytes(b"simple 4\n0 3\n\xd0\x00\xff 0\n3 0\n3 3\n")
    code, out, err = run(capsys, cmd, str(p), *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "can't decode" in err
    assert len(err.strip().splitlines()) == 1


def test_gen_validate_build_route_pipeline(capsys, tmp_path):
    poly = tmp_path / "g.poly"
    dump = tmp_path / "g.scheme"
    assert run(capsys, "gen", "--kind", "double", "--n", "20", "--seed",
               "11", "--out", str(poly))[0] == 0
    assert run(capsys, "validate", str(poly))[0] == 0
    assert run(capsys, "build", str(poly), "--scheme", "double",
               "--out", str(dump))[0] == 0
    code, out, err = run(capsys, "route", str(dump), "--scheme", "double",
                         "--from", "0", "--to", "19")
    assert code == 0
    routed, bfs = (int(part.split("=")[1]) for part in out.split())
    assert routed <= 2 * bfs


DOUBLE_ROW = "0 | 0 1 | 0 1 | 0 1 0 1 0 1 | 1 | 1\n"


def double12_dump(nbrs):
    """The dump of generate("double", 12, seed=5), with the neighbor
    lists of the rows in nbrs replaced."""
    h = polygon.normalize(polygon.generate("double", 12, seed=5))
    scheme = scheme_double.preprocess_double(h, visibility.build_graph(h))
    rows = scheme_double.dump_scheme(scheme).splitlines()
    for v, ids in nbrs.items():
        rows[v + 1] = rows[v + 1].rsplit("| ", 1)[0] + "| " + ids
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("kind,text,reason", [
    ("simple", "scheme simple 2\n0 | 0 | 0 | 1\n0 | 0 | 0 | 1\n",
     "duplicate row id 0"),
    ("simple", "scheme simple 2\n0 | 0 | 0 | 7\n1 | 1 | 0 | 0\n",
     "neighbor id outside [0, 2)"),
    ("double", "scheme double 2\n" + DOUBLE_ROW + DOUBLE_ROW,
     "duplicate row id 0"),
    ("simple", "scheme simple 0\n", "at least one vertex"),
    ("double", double12_dump({8: "0 2 7 11"}),
     "row 8 lists 2 more often than row 2 lists 8"),
    ("simple", "scheme simple 2\n0 | 0 | 0 | 0 1\n1 | 1 | 0 | 0 1\n",
     "row 0 lists itself"),
    ("simple", "scheme simple 2\n0 | 0 | 0 | 1 1\n1 | 1 | 0 | 0 0\n",
     "row 0 lists 1 twice"),
    ("simple", "scheme simple 2\n0 | 0 5 | 0 | 1\n1 | 1 | 0 | 0\n",
     "row 0: breakpoint 5 is outside [0, 2)"),
    ("double", f"scheme double 2\n{DOUBLE_ROW}"
     f"1 | 1 -1 | 0 {2**63} | 0 1 0 1 0 1 | 0 | 0\n",
     f"row 1: interval bound {2**63} is out of range"),
    ("double", f"scheme double 2\n{DOUBLE_ROW}"
     f"1 | 1 -1 | 0 1 | 0 1 0 1 0 1 | 0 | {2**64}\n",
     "row 1: neighbor id outside [0, 2)"),
], ids=["simple-duplicate-row", "simple-neighbor-out-of-range",
        "double-duplicate-row", "simple-no-vertices", "double-asymmetric",
        "simple-self-entry", "simple-repeated-neighbor",
        "simple-breakpoint-out-of-range", "double-field-beyond-int64",
        "double-neighbor-beyond-int64"])
def test_route_rejects_malformed_dump(capsys, tmp_path, kind, text, reason):
    # each of these used to end in a traceback or an unrelated message
    dump = tmp_path / "bad.scheme"
    dump.write_text(text)
    code, out, err = run(capsys, "route", str(dump), "--scheme", kind,
                         "--from", "0", "--to", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1


def test_route_rejects_dump_with_vertex_on_base_line(capsys, tmp_path):
    # this dump used to end in a TypeError: no link entry lay off the
    # base line, so the vertical dominators came out None
    dump = tmp_path / "bad.dump"
    dump.write_text("scheme double 2\n"
                    "0 | 0 1 | 0 1 | 0 1 0 1 0 1 | 1 |\n"
                    "1 | 1 0 | 5 6 | 0 1 0 1 0 1 | 1 |\n")
    code, out, err = run(capsys, "route", str(dump), "--scheme", "double",
                         "--from", "1", "--to", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "base line" in err
    assert len(err.strip().splitlines()) == 1


def test_route_on_dump_missing_an_edge(capsys, tmp_path):
    # both rows drop the edge 8-9, so the dump reads; 9 shares 8's x and
    # 8's link holds nothing beyond it
    dump = tmp_path / "cut.scheme"
    dump.write_text(double12_dump({8: "0 7 10 11", 9: "7 10 11"}))
    code, out, err = run(capsys, "route", str(dump), "--scheme", "double",
                         "--from", "8", "--to", "9")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


# file contents for the fuzz below: small polygons, their dumps, and
# both as text with one line changed
FUZZ_TEXTS = []
for _kind, _n, _seed in (("simple", 4, 0), ("simple", 10, 3),
                         ("double", 8, 1), ("double", 12, 5)):
    _h = polygon.normalize(polygon.generate(_kind, _n, _seed))
    _g = visibility.build_graph(_h)
    _module = scheme_double if _kind == "double" else scheme_simple
    FUZZ_TEXTS += [polygon.to_text(_h),
                   _module.dump_scheme(cli._KINDS[_kind][0](_h, _g))]


@st.composite
def fuzz_files(draw):
    """Bytes of a fuzz file: a polygon or dump as it is, with one line
    replaced, dropped or repeated, or raw bytes."""
    how = draw(st.sampled_from(["as is", "replace", "drop", "repeat",
                                "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    lines = draw(st.sampled_from(FUZZ_TEXTS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if how == "replace":
        lines[i] = draw(st.text(max_size=16))
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


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
        "build": [["--scheme", kind], ["--out", out]],
        "route": [["--scheme", kind], ["--from", draw(ids)],
                  ["--to", draw(ids)], ["--trace"]],
        "verify": [["--scheme", kind], ["--pairs", draw(st.sampled_from(
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
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.cli_main(argv) in (0, 1, 2)
