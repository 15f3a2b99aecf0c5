import csv

import pytest

from histroute import cli, polygon

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


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/file.poly")
    assert code != 0


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


@pytest.mark.parametrize("kind,text,reason", [
    ("simple", "scheme simple 2\n0 | 0 | 0 | 1\n0 | 0 | 0 | 1\n",
     "duplicate row id 0"),
    ("simple", "scheme simple 2\n0 | 0 | 0 | 7\n1 | 1 | 0 | 0\n",
     "neighbor id outside [0, 2)"),
    ("double", "scheme double 2\n" + DOUBLE_ROW + DOUBLE_ROW,
     "duplicate row id 0"),
    ("simple", "scheme simple 0\n", "at least one vertex"),
], ids=["simple-duplicate-row", "simple-neighbor-out-of-range",
        "double-duplicate-row", "simple-no-vertices"])
def test_route_rejects_malformed_dump(capsys, tmp_path, kind, text, reason):
    # each of these used to end in a traceback or an unrelated message
    dump = tmp_path / "bad.scheme"
    dump.write_text(text)
    code, out, err = run(capsys, "route", str(dump), "--scheme", kind,
                         "--from", "0", "--to", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1
