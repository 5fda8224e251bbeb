import argparse
import json
import re
import shlex
from pathlib import Path

from vdmfit.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(after: str, language: str) -> str:
    """The first ``language`` code block of README.md after the text
    ``after``."""
    section = README.read_text(encoding="utf-8").split(after, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_command_table_lists_every_flag_each_command_takes():
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|$", README.read_text(encoding="utf-8"), re.M)
    table = {command: set(flags.split()) for command, flags in rows}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert len(rows) == len(table) == 7
    assert table == parsed


def test_library_use_block_runs(capsys):
    code = readme_block("## Library use", "python")
    exec(compile(code, str(README), "exec"), {})
    # params dict, classification, p-value
    printed = capsys.readouterr().out.split()
    assert printed[-2] in ("GoodFit", "Inconclusive", "NotFit")
    assert 0.0 <= float(printed[-1]) <= 1.0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_complete_session_block_runs(tmp_path, monkeypatch):
    # the session as a user types it: one command a line once the
    # continuations are joined, each run in the directory it writes to
    script = readme_block("A complete synthetic session", "sh").replace("\\\n", " ")
    commands = [argv for argv in (shlex.split(line, comments=True) for line in script.splitlines())
                if argv]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "vdmfit"
        assert main(argv[1:]) == 0, argv
    # every summary is strict JSON: no NaN or Infinity token
    written = {path.relative_to(tmp_path).as_posix(): json.loads(
        path.read_text(), parse_constant=_reject_constant) for path in tmp_path.rglob("*.json")}
    # the world ends where the session's cutoff says it does
    as_of = {argv[argv.index("--as-of") + 1] for argv in commands if "--as-of" in argv}
    assert as_of == {written["world/manifest.json"]["as_of"]}
    # the paper's conclusion: AML fits better than each of the other five models
    tests = written["results/quality_compare/compare.json"]["pairwise_mann_whitney"]
    assert {(t["a"], t["b"]): t["null_hypothesis"] for t in tests} == {
        ("AML", other): "reject" for other in ("AT", "LN", "LP", "RE", "RQ")
    }
