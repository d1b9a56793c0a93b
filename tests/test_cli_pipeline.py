"""``cli.main`` is the one place that reads a command's book and renders its report.

Each subcommand's handler takes the book ``main`` read for it. So one call
reads the holdings file once, ``family`` reads none, and a holdings file
that fails to parse is reported before any other file the command names
is opened. The command lines are ``test_cli_bytes``' cases, one per
subcommand.
"""

import pytest

from holdscan import cli

from conftest import count_reads
from test_cli_bytes import CASES, run

#: One command line per subcommand, by name.
COMMANDS = {argv[0]: argv for _, argv in CASES}

BOOK_COMMANDS = [name for name in COMMANDS if name != "family"]


def test_cases_cover_every_subcommand():
    assert sorted(COMMANDS) == sorted(row[0] for row in cli._SUBCOMMANDS)


def reads_of(tmp_path, capsys, monkeypatch, argv, fmt) -> list[str]:
    """The holdings files one ``main`` call reads, each ``ingest`` reading afresh.

    Needs the ``reads_afresh`` fixture, so that a second ``ingest`` of the
    same file is not served the book the first one kept.
    """
    reads = count_reads(monkeypatch)
    run(tmp_path, argv, fmt, capsys)
    return [path[len(str(tmp_path)) + 1:] for path in reads]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_main_reads_the_book_once(tmp_path, capsys, monkeypatch, reads_afresh, command, fmt):
    argv = COMMANDS[command]
    book = [] if command == "family" else [argv[1][1:]]
    assert reads_of(tmp_path, capsys, monkeypatch, argv, fmt) == book


@pytest.mark.parametrize("command", BOOK_COMMANDS)
def test_a_handler_that_rereads_its_book_is_seen(tmp_path, capsys, monkeypatch, reads_afresh,
                                                  command):
    # the read-once test above fails on a handler that reads its book again
    def rereading(handler):
        def reread(book, args):
            return handler(cli.ingest(args.file, args.input_format, args.signed), args)
        return reread

    rows = [(name, text, rereading(handler), book, arguments)
            for name, text, handler, book, arguments in cli._SUBCOMMANDS]
    monkeypatch.setattr(cli, "_SUBCOMMANDS", tuple(rows))
    monkeypatch.setattr(cli, "_parser", None)
    argv = COMMANDS[command]
    assert reads_of(tmp_path, capsys, monkeypatch, argv, "json") == [argv[1][1:]] * 2


@pytest.mark.parametrize("command", BOOK_COMMANDS)
def test_a_book_that_fails_to_parse_exits_2_before_other_files_open(tmp_path, capsys, command):
    # every other file the command names is missing, so a command that opened
    # one first would word that fault instead of the book's
    bad = tmp_path / "bad.csv"
    bad.write_text("investor,stock,amount\ninv1,stk1,30\ninv2,stk2,many\n", encoding="utf-8")
    _, _, *rest = COMMANDS[command]
    argv = [command, str(bad), *[str(tmp_path / arg[1:]) if arg.startswith("@") else arg
                                 for arg in rest]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:3: amount 'many' is not a number\n"
