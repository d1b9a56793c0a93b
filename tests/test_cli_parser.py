"""The CLI parser's structure, its usage errors, and its reuse within one process.

``cli_parser.json`` pins every subcommand's arguments as argparse holds
them: option strings, dest, default, required, choices, nargs, help, type
and action class, in order. The pin is structural, so it does not depend
on how a Python version words or wraps ``--help``. Regenerate it with
``PYTHONPATH=src python tests/test_cli_parser.py > tests/cli_parser.json``
only when a change to the command line is intended.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holdscan import cli

from conftest import count_reads

PIN = Path(__file__).parent / "cli_parser.json"


def _actions(parser) -> list[dict]:
    out = []
    for action in parser._actions:
        # a dict of choices is the subcommands' parsers: only their names here
        choices = None if action.choices is None else list(action.choices)
        out.append({
            "class": type(action).__name__,
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "required": action.required,
            "choices": choices,
            "nargs": action.nargs,
            "help": action.help,
            "type": getattr(action.type, "__name__", None),
        })
    return out


def structure(parser) -> dict:
    """The parser's subcommands in order, each with its help, handler and actions."""
    (sub,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "actions": _actions(parser),
        "subcommands": [
            {
                "name": name,
                "help": helps[name],
                "handler": subparser._defaults["func"].__name__,
                "actions": _actions(subparser),
            }
            for name, subparser in sub.choices.items()
        ],
    }


def test_parser_matches_pin():
    assert structure(cli.build_parser()) == json.loads(PIN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["shock", "@"], "the following arguments are required: --shocks"),
        (["decompose", "@", "--seed", "1"], "unrecognized arguments: --seed 1"),
    ],
    ids=["unknown-subcommand", "shock-without-shocks", "decompose-with-seed"],
)
def test_usage_errors_exit_2(golden_csv, capsys, argv, message):
    argv = [str(golden_csv) if arg == "@" else arg for arg in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.startswith("usage: holdscan")


def fresh_process(argv: list[str]) -> str:
    """Stdout of ``cli.main(argv)`` in a new interpreter."""
    code = "import sys; from holdscan import cli; sys.exit(cli.main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env
    )
    return done.stdout


def test_psi_flag_does_not_carry_over(golden_csv, capsys, monkeypatch):
    # nor through the book the first call kept, which the second is served
    reads = count_reads(monkeypatch)
    plain = ["dashboard", str(golden_csv), "--format", "json"]
    assert cli.main([*plain, "--no-psi"]) == 0
    assert '"Psi_omitted": "disabled"' in capsys.readouterr().out
    assert cli.main(plain) == 0
    assert reads == [str(golden_csv)]
    out = capsys.readouterr().out
    assert '"psi": null' in out
    assert out == fresh_process(plain)


def test_usage_error_leaves_parser_usable(golden_csv, capsys):
    assert cli.main(["psi", str(golden_csv), "--max-budget", "many"]) == 2
    assert "invalid int value: 'many'" in capsys.readouterr().err
    assert cli.main(["psi", str(golden_csv), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def test_parser_is_built_once(golden_csv, capsys, monkeypatch, reads_afresh):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["decompose", str(golden_csv)], ["frobnicate"], ["psi", str(golden_csv)]) * 3:
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == 1


def _dumps(obj, indent: str = "") -> str:
    """JSON with one line per action."""
    inner = indent + " "
    if isinstance(obj, dict) and "class" not in obj:
        items = [f"{inner}{json.dumps(key)}: {_dumps(val, inner)}" for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return "[\n" + ",\n".join(inner + _dumps(val, inner) for val in obj) + f"\n{indent}]"
    return json.dumps(obj)


if __name__ == "__main__":
    print(_dumps(structure(cli.build_parser())))
