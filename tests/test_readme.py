"""The examples of README.md: its commands run through the CLI, and its
library block run as Python, as shown."""

import builtins
import pathlib
import re
import shlex

from histroute import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```\w*\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def block(start: str) -> str:
    """The one fenced block of README.md that starts with start."""
    found = [b for b in BLOCKS if b.startswith(start)]
    assert len(found) == 1, f"{len(found)} blocks start with {start!r}"
    return found[0]


def test_readme_commands_run_as_shown(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "steps.poly").write_text(block("simple 8"))
    out = {}
    for line in block("histroute ").splitlines():
        argv = shlex.split(line, comments=True)[1:]
        assert cli.cli_main(argv) == 0, line
        out[argv[0]] = capsys.readouterr().out
        if "#" in line:     # the output shown in a comment
            assert out[argv[0]].strip() == line.split("#", 1)[1].strip()
    assert out["verify"] == block("pairs=")
    command, *shown = block("$ histroute route").splitlines()
    assert cli.cli_main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_library_block_runs_as_shown():
    names = {}
    exec(block("from histroute import"), names)
    assert names["trace"][0] == 0 and names["trace"][-1] == 27
    assert names["report"].ok


def test_readme_names_only_callables_that_exist():
    # every `name( and `mod.name( of README.md is a builtin, or a def or
    # class of the package
    source = "".join(p.read_text(encoding="utf-8")
                     for p in (ROOT / "src" / "histroute").glob("*.py"))
    defined = set(re.findall(r"^\s*(?:def|class) (\w+)", source,
                             re.MULTILINE))
    shown = {name.rpartition(".")[2]
             for name in re.findall(r"`((?:\w+\.)*\w+)\(", README)}
    assert len(shown) >= 10
    assert sorted(shown - defined - set(dir(builtins))) == []


def test_readme_names_only_private_names_that_exist():
    # every `_name` of README.md is a def, a class or a module-level
    # assignment of the package, so no mention outlives its helper
    source = "".join(p.read_text(encoding="utf-8")
                     for p in (ROOT / "src" / "histroute").glob("*.py"))
    defined = set(re.findall(r"^\s*(?:def|class) (_\w+)", source,
                             re.MULTILINE))
    defined |= set(re.findall(r"^(_\w+)\s*(?::[^=\n]*)?=", source,
                              re.MULTILINE))
    shown = set(re.findall(r"`(_\w+)`", README))
    assert len(shown) >= 4
    assert sorted(shown - defined) == []
