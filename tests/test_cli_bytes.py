"""Byte-for-byte pins of every subcommand's report on the golden book and its variants.

Each case runs one command line in both ``--format text`` and
``--format json`` and compares stdout with the file of the same name in
``tests/cli_bytes/``. The files are the reports as the serializer writes
them; a change to any of them is a change to the wire format.
"""

from pathlib import Path

import pytest

import holdscan as hs
from holdscan import cli

from conftest import count_reads

PINS = Path(__file__).parent / "cli_bytes"

INPUTS = {
    "golden.csv": (
        "investor,stock,amount\n"
        "inv1,stk1,30\ninv1,stk2,10\ninv2,stk1,5\ninv2,stk2,25\ninv3,stk1,15\ninv3,stk2,15\n"
    ),
    # the golden book plus an investor whose only holding is in stk3
    "golden_inv4.csv": (
        "investor,stock,amount\n"
        "inv1,stk1,30\ninv1,stk2,10\ninv2,stk1,5\ninv2,stk2,25\ninv3,stk1,15\ninv3,stk2,15\n"
        "inv4,stk3,20\n"
    ),
    "signed.csv": (
        "investor,stock,amount,sign\n"
        "h1,s1,0.4,+\nh1,s2,0.1,-\nh2,s1,0.1,-\nh2,s2,0.4,+\n"
    ),
    "shocks.csv": "label,value\ninv1,0.5\ninv2,-0.2\ninv3,0.1\n",
    "returns.csv": "label,value\nstk1,1.5\nstk2,-1.5\n",
    "groups.txt": "inv1,inv3\ninv2\n",
}

#: (pin name, command line); ``@name`` stands for the path of input file ``name``.
CASES = [
    ("dashboard", ["dashboard", "@golden.csv"]),
    ("decompose", ["decompose", "@golden.csv"]),
    ("psi", ["psi", "@golden.csv"]),
    ("shock", ["shock", "@golden.csv", "--shocks", "@shocks.csv"]),
    ("alpha", ["alpha", "@golden.csv", "--returns", "@returns.csv"]),
    (
        "alpha_dispersion",
        ["alpha", "@golden.csv", "--returns", "@returns.csv", "--project-returns",
         "--dispersion", "2"],
    ),
    ("merge", ["merge", "@golden.csv", "--pair", "inv1,inv3"]),
    ("drop_stock", ["drop-stock", "@golden.csv", "--stock", "stk2"]),
    ("drop_stock_investor", ["drop-stock", "@golden_inv4.csv", "--stock", "stk3"]),
    ("dilute", ["dilute", "@golden.csv", "--mass", "0.5"]),
    ("aggregate", ["aggregate", "@golden.csv", "--groups", "@groups.txt"]),
    ("renyi", ["renyi", "@golden.csv", "--alpha", "2"]),
    ("family_2x2", ["family", "2x2", "--a", "0.9", "--b", "0.7"]),
    ("family_nonid", ["family", "nonid", "--t", "0.1"]),
    ("signed", ["signed", "@signed.csv"]),
]


def run(tmp_path: Path, argv: list[str], fmt: str, capsys) -> str:
    """Stdout of one command line, with its input files written to ``tmp_path``."""
    paths = {}
    for name, text in INPUTS.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    args = [str(paths[arg[1:]]) if arg.startswith("@") else arg for arg in argv]
    assert cli.main([*args, "--format", fmt]) == 0
    return capsys.readouterr().out


def refuse_dense_book(matrix):
    raise AssertionError("a report built the dense book")


def refuse_dense_residual(res):
    raise AssertionError("a report built the dense residual")


def refuse_dense_whitened(res):
    raise AssertionError("a report built the dense whitened matrix")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, name, argv, fmt):
    # every report but family nonid's, which prints the matrix, is made from
    # the held cells and the residual operator, never from the dense book;
    # no report builds the dense residual or the dense whitened matrix
    monkeypatch.setattr(hs.SpectralResidual, "residual", property(refuse_dense_residual))
    monkeypatch.setattr(hs.SpectralResidual, "whitened", property(refuse_dense_whitened))
    if name != "family_nonid":
        monkeypatch.setattr(hs.OwnershipMatrix, "entries", property(refuse_dense_book))
    suffix = "json" if fmt == "json" else "txt"
    expected = (PINS / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert run(tmp_path, argv, fmt, capsys) == expected


def test_report_bytes_repeat_within_one_process(tmp_path, capsys, monkeypatch):
    # every call of main parses with the same parser; no call may leak into
    # the next, and the repeat is served the book the first call kept
    reads = count_reads(monkeypatch)
    for _, argv in CASES:
        for fmt in ("text", "json"):
            monkeypatch.setattr(cli, "_kept", None)  # the first call reads its book
            first = run(tmp_path, argv, fmt, capsys)
            read = len(reads)
            assert run(tmp_path, argv, fmt, capsys) == first
            assert len(reads) == read
    assert len(reads) == 2 * sum(argv[0] != "family" for _, argv in CASES)
