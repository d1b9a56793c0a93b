import csv
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan import _fork, cli
from holdscan.core import held_cells
from holdscan.errors import (
    AllZeroMatrix,
    HoldscanError,
    InternalConsistencyError,
    MixedSignWithoutFlag,
    NonFiniteResult,
    OutOfRange,
    ParseError,
    ValidationError,
)

from conftest import GOLDEN_CSV, count_forks, no_child_left, refuse_fork, use_workers


def test_ingest_golden_csv(golden_csv):
    matrix = cli.ingest(golden_csv)
    assert matrix.investor_labels == ("inv1", "inv2", "inv3")
    assert matrix.stock_labels == ("stk1", "stk2")
    nptest.assert_allclose(
        matrix.entries, [[0.30, 0.10], [0.05, 0.25], [0.15, 0.15]], atol=1e-15
    )


def test_ingest_sums_duplicate_rows(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "investor,stock,amount\ninv1,stk1,10\ninv1,stk1,10\ninv2,stk1,20\n",
        encoding="utf-8",
    )
    matrix = cli.ingest(path)
    nptest.assert_allclose(matrix.entries, [[0.5], [0.5]], atol=1e-15)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        cli.ingest(path)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("investor,stock,amount\ninv1,stk1,abc\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        cli.ingest(path)


def test_ingest_rejects_negative_amount(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("investor,stock,amount\ninv1,stk1,-3\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        cli.ingest(path)


def test_ingest_sign_column_needs_flag(tmp_path):
    path = tmp_path / "signed.csv"
    path.write_text(
        "investor,stock,amount,sign\nh1,s1,4,+\nh1,s2,1,-\n", encoding="utf-8"
    )
    with pytest.raises(MixedSignWithoutFlag):
        cli.ingest(path)
    book = cli.ingest(path, signed=True)
    assert isinstance(book, hs.SignedOwnership)
    assert book.net_exposure == pytest.approx(0.6, abs=1e-12)


def test_ingest_json_records(tmp_path):
    path = tmp_path / "records.json"
    path.write_text(
        json.dumps(
            [
                {"investor": "a", "stock": "x", "amount": 3},
                {"investor": "b", "stock": "x", "amount": 1},
                {"investor": 123, "stock": 4.5, "amount": 4},
            ]
        ),
        encoding="utf-8",
    )
    matrix = cli.ingest(path, fmt="json")
    # number labels read as their text; null, bool, array and object labels
    # are parse errors (PARSE_ERROR_CASES)
    assert matrix.investor_labels == ("123", "a", "b")
    assert matrix.stock_labels == ("4.5", "x")
    nptest.assert_allclose(matrix.entries, [[0.5, 0.0], [0.0, 0.375], [0.0, 0.125]], atol=1e-15)


def test_ingest_scale_invariance(tmp_path, golden_csv):
    scaled = tmp_path / "scaled.csv"
    lines = GOLDEN_CSV.strip().splitlines()
    scaled_rows = [lines[0]] + [
        ",".join(parts[:2] + [str(float(parts[2]) * 977.0)])
        for parts in (line.split(",") for line in lines[1:])
    ]
    scaled.write_text("\n".join(scaled_rows) + "\n", encoding="utf-8")
    base = cli.dashboard(cli.ingest(golden_csv))
    other = cli.dashboard(cli.ingest(scaled))
    assert base == other


def test_dashboard_golden_values(golden_csv):
    dash = cli.dashboard(cli.ingest(golden_csv))
    assert dash.H_I == pytest.approx(0.34, abs=1e-15)
    assert dash.H_S == 0.50
    assert dash.M == pytest.approx(0.21, abs=1e-15)
    assert dash.Psi == pytest.approx(0.04 / 0.13, abs=1e-9)
    assert dash.X == pytest.approx(7 / 30, abs=1e-10)
    assert dash.rho == pytest.approx(np.sqrt(7 / 30), abs=1e-10)
    assert dash.psi_certified is True
    assert dash.psi_reason is None


def test_dashboard_psi_disabled():
    matrix = hs.OwnershipMatrix(np.full((2, 2), 0.25))
    dash = cli.dashboard(matrix, compute_psi=False)
    assert dash.Psi is None
    assert dash.psi_reason == "disabled"


def test_dashboard_psi_degenerate_single_stock():
    matrix = hs.OwnershipMatrix(np.array([[0.4], [0.6]]))
    dash = cli.dashboard(matrix)
    assert dash.Psi is None
    assert dash.psi_reason is not None
    assert dash.rho == 0.0
    assert dash.X == pytest.approx(0.0, abs=1e-12)


def test_report_json_schema_and_rounding(golden_csv):
    matrix = cli.ingest(golden_csv)
    dash = cli.dashboard(matrix)
    dep = hs.dependence_index(matrix)
    payload = json.loads(cli.report(matrix, dash, dep, fmt="json", seed=0))
    assert payload["schema_version"] == 1
    assert set(payload) == {
        "schema_version",
        "labels",
        "marginals",
        "dashboard",
        "contributions",
        "certification",
        "provenance",
    }
    assert payload["dashboard"]["X"] == 0.233333
    assert str(payload["dashboard"]["rho"]).startswith("0.483046")
    assert payload["certification"]["psi_certified"] is True
    assert payload["provenance"]["seed"] == 0
    # the most tilted investor carries the largest contribution
    contributions = payload["contributions"]["investor"]
    assert max(contributions) == contributions[1]


def test_report_text_is_fixed_width(golden_csv):
    matrix = cli.ingest(golden_csv)
    dash = cli.dashboard(matrix)
    dep = hs.dependence_index(matrix)
    text = cli.report(matrix, dash, dep, fmt="text")
    lines = text.splitlines()
    assert lines[0] == "metric  value"
    assert any(line.startswith("H_I") and "0.34" in line for line in lines)
    assert any(line.startswith("rho") and "0.483046" in line for line in lines)


def test_main_dashboard_determinism(golden_csv, capsys):
    argv = ["dashboard", str(golden_csv), "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["dashboard"]["M"] == 0.21


def test_round_trip_reingestion(tmp_path, golden_csv):
    matrix = cli.ingest(golden_csv)
    exported = tmp_path / "export.csv"
    cli.write_csv(matrix, exported)
    again = cli.ingest(exported)
    nptest.assert_array_equal(matrix.entries, again.entries)
    assert cli.dashboard(matrix) == cli.dashboard(again)


# labels with commas, quotes, and inner spaces and line breaks of every kind
# that str.splitlines() knows; ingest strips outer whitespace
_label_edge = st.sampled_from('ab,"')
_label_inner = st.text(alphabet='ab ,"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029', max_size=4)
label_sets = st.lists(
    st.one_of(
        _label_edge,
        st.builds(lambda a, mid, b: a + mid + b, _label_edge, _label_inner, _label_edge),
    ),
    min_size=1,
    max_size=4,
    unique=True,
).map(sorted)


@given(label_sets, label_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_write_csv_round_trip(investors, stocks, seed):
    raw = np.random.default_rng(seed).random((len(investors), len(stocks))) + 1e-3
    matrix = hs.normalize(raw, investors, stocks)
    with tempfile.TemporaryDirectory() as tmp:
        exported = Path(tmp) / "export.csv"
        cli.write_csv(matrix, exported)
        again = cli.ingest(exported)
    assert again.investor_labels == matrix.investor_labels
    assert again.stock_labels == matrix.stock_labels
    nptest.assert_allclose(again.entries, matrix.entries, rtol=1e-14, atol=0)


def grid_write_csv(matrix, path):
    """The export as a loop over all n*m cells, skipping the empty ones."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["investor", "stock", "amount"])
        for i, inv in enumerate(matrix.investor_labels):
            for j, stk in enumerate(matrix.stock_labels):
                value = float(matrix.entries[i, j])
                if value > 0:
                    row = [inv, stk, repr(value)]
                    (quoted if "\r" in inv + stk else writer).writerow(row)


@given(label_sets, label_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_write_csv_matches_grid_loop(investors, stocks, seed):
    rng = np.random.default_rng(seed)
    shape = (len(investors), len(stocks))
    raw = rng.random(shape) * (rng.random(shape) < 0.6)  # about 40% empty cells
    raw[rng.integers(len(investors)), rng.integers(len(stocks))] = 1.0
    matrix = hs.normalize(raw, investors, stocks)
    with tempfile.TemporaryDirectory() as tmp:
        got, expect = Path(tmp) / "got.csv", Path(tmp) / "expect.csv"
        cli.write_csv(matrix, got)
        grid_write_csv(matrix, expect)
        assert got.read_bytes() == expect.read_bytes()


def test_write_csv_skips_empty_cells_and_quotes_labels(tmp_path):
    investors = ["Acme, Inc.", 'say "hi"', "cr\rbreak", "plain"]
    stocks = ["x", "crlf\r\nbreak", "w,v"]
    raw = [[3.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.5, 4.0, 0.0], [0.0, 1.5, 0.0]]
    matrix = hs.normalize(raw, investors, stocks)
    got, expect = tmp_path / "got.csv", tmp_path / "expect.csv"
    cli.write_csv(matrix, got)
    grid_write_csv(matrix, expect)
    assert got.read_bytes() == expect.read_bytes()
    with open(got, encoding="utf-8", newline="") as handle:
        assert len(list(csv.reader(handle))) == 1 + 6  # header and the held cells



@pytest.mark.parametrize(
    "investors,stocks,label",
    [([" a", "a"], ["x"], " a"), (["a"], ["x", "y "], "y "), (["a", "b\n"], ["x"], "b\n"),
     (["a"], ["", "x"], "")],
)
def test_write_csv_rejects_labels_that_read_back_changed(tmp_path, investors, stocks, label):
    # ingest strips labels: " a" and "a" would read back as one investor
    shape = (len(investors), len(stocks))
    matrix = hs.OwnershipMatrix(np.full(shape, 1.0 / np.prod(shape)), investors, stocks)
    path = tmp_path / "export.csv"
    with pytest.raises(ValidationError) as caught:
        cli.write_csv(matrix, path)
    assert str(caught.value) == f"label {label!r} would not read back as written"
    assert not path.exists()

def test_main_exit_codes(tmp_path, golden_csv, capsys, monkeypatch):
    missing = tmp_path / "missing.csv"
    assert cli.main(["dashboard", str(missing)]) == 2
    capsys.readouterr()
    assert cli.main(["dashboard", str(golden_csv)]) == 0
    capsys.readouterr()

    def explode(*args, **kwargs):
        raise InternalConsistencyError("synthetic failure")

    monkeypatch.setattr("holdscan.dependence.dependence_index", explode)
    assert cli.main(["dashboard", str(golden_csv)]) == 3
    capsys.readouterr()


def test_overflowing_results_exit_3(tmp_path, golden_csv, capsys):
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("label,value\ninv1,1e200\ninv2,-1e200\ninv3,0\n", encoding="utf-8")
    rets = tmp_path / "rets.csv"
    rets.write_text("label,value\nstk1,1.5\nstk2,-1.5\n", encoding="utf-8")
    commands = [
        ["shock", str(golden_csv), "--shocks", str(shocks)],
        ["alpha", str(golden_csv), "--returns", str(rets), "--dispersion", "1e200"],
    ]
    for argv in commands:
        for fmt in ("text", "json"):
            with np.errstate(over="ignore"):
                assert cli.main([*argv, "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err


def test_nan_dependence_exits_3_in_both_formats(tmp_path, capsys):
    # p2 * s2 underflows to 0, so every form of X is nan; at one time text
    # printed "X nan" with exit 0 and JSON failed only when rendering
    book = tmp_path / "underflow.csv"
    book.write_text("investor,stock,amount\ni1,s1,1e170\ni2,s2,1\n", encoding="utf-8")
    for argv in (["dashboard", str(book), "--no-psi"], ["decompose", str(book)]):
        for fmt in ("text", "json"):
            with np.errstate(divide="ignore", invalid="ignore"):
                assert cli.main([*argv, "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: dependence forms disagree beyond tolerance\n"


def test_render_rounds_every_float_and_puts_schema_version_first():
    payload = {
        "a": np.float64(1 / 3),
        "b": (np.float32(0.1), 2, True, None, "x", np.bool_(False)),
        "c": {"d": np.array([[2 / 3, 1.0]]), "e": np.int64(7), "f": [-0.0, 1e-300]},
    }
    text = cli._render(payload, "json")
    assert text.startswith('{\n  "schema_version": 1,\n  "a": 0.333333,\n')
    assert json.loads(text) == {
        "schema_version": 1,
        "a": 0.333333,
        "b": [0.1, 2, True, None, "x", False],
        "c": {"d": [[0.666667, 1.0]], "e": 7, "f": [-0.0, 1e-300]},
    }
    assert cli._render(payload, "text") == (
        "schema_version               1\n"
        "a                            0.333333\n"
        "b                            0.1 2 true undefined x false\n"
        "c.d                          [0.666667, 1.0]\n"
        "c.e                          7\n"
        "c.f                          -0 1e-300\n"
    )
    for bad in (np.inf, -np.inf, np.nan, np.array([1.0, np.nan]), np.float32("inf")):
        for fmt in ("text", "json"):
            with pytest.raises(NonFiniteResult):
                cli._render({"x": {"y": [bad]}}, fmt)


def test_ingest_drops_labels_without_mass(tmp_path, golden_csv, capsys):
    padded = tmp_path / "padded.csv"
    zero_lots = "a,stk1,0\na,zz,0\ninv1,zz,0.0\ninv2,stk1,-0\n"
    padded.write_text(GOLDEN_CSV + zero_lots, encoding="utf-8")
    matrix = cli.ingest(padded)
    assert matrix.investor_labels == ("inv1", "inv2", "inv3")
    assert matrix.stock_labels == ("stk1", "stk2")
    nptest.assert_array_equal(matrix.entries, cli.ingest(golden_csv).entries)
    for command in ("dashboard", "decompose", "psi"):
        outputs = []
        for path in (golden_csv, padded):
            assert cli.main([command, str(path), "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("label,value\ninv1,0.5\ninv2,-0.2\ninv3,0.1\n", encoding="utf-8")
    assert cli.main(["shock", str(padded), "--shocks", str(shocks)]) == 0
    assert capsys.readouterr().out.startswith("schema_version")
    signed = tmp_path / "signed.csv"
    signed.write_text(
        "investor,stock,amount,sign\nh1,s1,1,+\nh2,s1,0,-\nh1,s2,1,-\n", encoding="utf-8"
    )
    assert cli.ingest(signed, signed=True).investor_labels == ("h1",)


def test_main_rejects_unknown_subcommand(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_shock_subcommand(tmp_path, golden_csv, capsys):
    shocks = tmp_path / "shocks.csv"
    shocks.write_text(
        "label,value\ninv1,1.0\ninv2,-1.0\ninv3,-0.3333333333333333\n", encoding="utf-8"
    )
    assert cli.main(
        ["shock", str(golden_csv), "--shocks", str(shocks), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["severity"] == 0.16
    assert payload["impact"]["stk1"] == 0.4


def test_alpha_subcommand_with_projection(tmp_path, golden_csv, capsys):
    rets = tmp_path / "rets.csv"
    rets.write_text("label,value\nstk1,1.5\nstk2,-0.5\n", encoding="utf-8")
    code = cli.main(
        [
            "alpha",
            str(golden_csv),
            "--returns",
            str(rets),
            "--project-returns",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variance"] == pytest.approx(7 / 30, rel=1e-4)


def count_work(monkeypatch):
    """Count the spectra and dependence reports built, and keep each ingested book.

    Every whitening runs one ``np.linalg.svd``, and every dependence build
    makes one ``DependenceReport``; calls answered from a book's memo do neither.
    """
    import holdscan.dependence as dependence

    work = {"svd": 0, "dependence": 0, "books": []}
    svd, build_report, ingest = np.linalg.svd, dependence.DependenceReport, cli.ingest

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def kept(*args, **kwargs):
        work["books"].append(ingest(*args, **kwargs))
        return work["books"][-1]

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(dependence, "DependenceReport", counted("dependence", build_report))
    monkeypatch.setattr(cli, "ingest", kept)
    return work


def assert_built_once(work):
    """One book, one spectrum and one dependence report, both kept on the book."""
    assert (work["svd"], work["dependence"], len(work["books"])) == (1, 1, 1)
    book = work["books"][0]
    assert hs.whiten(book) is hs.whiten(book)
    assert hs.dependence_index(book) is hs.dependence_index(book)
    assert (work["svd"], work["dependence"]) == (1, 1)


def test_alpha_with_dispersion_whitens_once(tmp_path, golden_csv, capsys, monkeypatch):
    rets = tmp_path / "rets.csv"
    rets.write_text("label,value\nstk1,1.5\nstk2,-0.5\n", encoding="utf-8")
    work = count_work(monkeypatch)
    argv = ["alpha", str(golden_csv), "--returns", str(rets), "--project-returns",
            "--dispersion", "2", "--format", "json"]
    assert cli.main(argv) == 0
    assert_built_once(work)
    payload = json.loads(capsys.readouterr().out)
    assert payload["isotropic_capacity"] == pytest.approx(4.0 * 7.0 / 30.0, rel=1e-5)


def test_negative_dispersion_is_rejected_before_whitening(tmp_path, golden_csv, capsys,
                                                          monkeypatch):
    rets = tmp_path / "rets.csv"
    rets.write_text("label,value\nstk1,1.5\nstk2,-1.5\n", encoding="utf-8")
    work = count_work(monkeypatch)
    message = "dispersion must be a nonnegative scalar, got -1.0"
    # each call gets a fresh book, so a spectrum kept by an earlier one cannot hide a whitening
    with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
        hs.active_variance(cli.ingest(golden_csv), np.array([1.0, -1.0]), dispersion=-1.0)
    with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
        hs.isotropic_capacity(cli.ingest(golden_csv), -1.0)
    assert cli.main(["alpha", str(golden_csv), "--returns", str(rets), "--dispersion", "-1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert (work["svd"], len(work["books"])) == (0, 3)


def test_vector_file_validation(tmp_path, golden_csv, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,value\ninv1,1.0\n", encoding="utf-8")
    assert cli.main(["shock", str(golden_csv), "--shocks", str(bad)]) == 2
    capsys.readouterr()


def test_aggregate_subcommand(tmp_path, golden_csv, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("inv1,inv2\ninv3\n", encoding="utf-8")
    assert cli.main(
        ["aggregate", str(golden_csv), "--groups", str(groups), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["between"] + payload["within"] == pytest.approx(0.233333, abs=1e-5)


def test_merge_subcommand(golden_csv, capsys):
    assert cli.main(
        ["merge", str(golden_csv), "--pair", "inv1,inv2", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["after"]["H_I"] == pytest.approx(0.58, abs=1e-9)
    assert payload["predicted_after"]["M"] == pytest.approx(0.29, abs=1e-9)


def test_drop_stock_subcommand(golden_csv, capsys):
    assert cli.main(
        ["drop-stock", str(golden_csv), "--stock", "stk2", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["after"]["M"] == 0.46


def test_dilute_subcommand(golden_csv, capsys):
    assert cli.main(
        ["dilute", str(golden_csv), "--mass", "0.5", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["after"]["X"] == pytest.approx(0.116667, abs=1e-6)


def test_family_subcommands(capsys):
    assert cli.main(["family", "2x2", "--a", "0.9", "--b", "0.9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_min"] == 0.66
    assert cli.main(["family", "nonid", "--t", "0.1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["M"] == 0.34
    assert payload["X"] == 0.36


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "2x2", "--a", "0.3"], "family 2x2 needs --a and --b"),
        (["family", "nonid"], "family nonid needs --t"),
    ],
)
def test_family_needs_its_parameters(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_renyi_subcommand(golden_csv, capsys):
    assert cli.main(["renyi", str(golden_csv), "--alpha", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["M_alpha"] == 0.21


def test_signed_subcommand(tmp_path, capsys):
    path = tmp_path / "book.csv"
    path.write_text(
        "investor,stock,amount,sign\nh1,s1,0.4,+\nh1,s2,0.1,-\nh2,s1,0.1,-\nh2,s2,0.4,+\n",
        encoding="utf-8",
    )
    assert cli.main(["signed", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta"] == 0.6
    assert payload["X_signed"] == 1.0


def test_psi_subcommand(golden_csv, capsys):
    assert cli.main(["psi", str(golden_csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psi"] == pytest.approx(0.307692, abs=1e-6)
    assert payload["certified"] is True


def test_decompose_subcommand(golden_csv, capsys):
    assert cli.main(["decompose", str(golden_csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    contributions = [row["dependence_contribution"] for row in payload["investors"]]
    assert max(contributions) == contributions[1]
    assert cli.main(["decompose", str(golden_csv)]) == 0
    assert capsys.readouterr().out == (
        "side     label        mass     conc     dependence\n"
        "investor inv1         0.4      0.625    0.1\n"
        "investor inv2         0.3      0.722222 0.133333\n"
        "investor inv3         0.3      0.5      0\n"
        "stock    stk1         0.5      0.46     0.116667\n"
        "stock    stk2         0.5      0.38     0.116667\n"
    )


# (case, reader, file text or None for a missing file, error type, message);
# "{path}" in the message stands for the file's path. Reader "csv"/"json"
# ingests an unsigned book, "signed" a signed CSV book, and "vector" reads
# a label,value file for investors ("a", "b").
PARSE_ERROR_CASES = [
    ("csv-bad-header", "csv", "investor,stock,value\na,x,1\n", ParseError,
     "{path}:1: header must be investor,stock,amount[,sign], "
     "got ['investor', 'stock', 'value']"),
    ("csv-extra-header-column", "csv", "investor,stock,amount,side\n", ParseError,
     "{path}:1: header must be investor,stock,amount[,sign], "
     "got ['investor', 'stock', 'amount', 'side']"),
    ("csv-column-count", "csv", "investor,stock,amount\na,x,1\nb,y,2,3\n", ParseError,
     "{path}:3: expected 3 columns, got 4"),
    ("csv-blank-rows-skipped", "csv", "investor,stock,amount\n\n , ,\na,x,1\nb,y,abc\n",
     ParseError, "{path}:5: amount 'abc' is not a number"),
    ("csv-empty-label", "csv", "investor,stock,amount\n ,x,1\n", ParseError,
     "{path}:2: empty investor or stock label"),
    ("csv-non-numeric", "csv", "investor,stock,amount\na,x,12a\n", ParseError,
     "{path}:2: amount '12a' is not a number"),
    ("csv-nan", "csv", "investor,stock,amount\na,x,nan\n", ParseError,
     "{path}:2: amount must be finite and nonnegative, got 'nan'"),
    ("csv-inf", "csv", "investor,stock,amount\na,x,1\na,y, inf\n", ParseError,
     "{path}:3: amount must be finite and nonnegative, got ' inf'"),
    ("csv-negative", "csv", "investor,stock,amount\na,x,-3\n", ParseError,
     "{path}:2: amount must be finite and nonnegative, got '-3'"),
    ("csv-bad-sign", "signed", "investor,stock,amount,sign\na,x,1,+\na,y,1,*\n", ParseError,
     "{path}:3: sign must be + or -, got '*'"),
    ("csv-empty-file", "csv", "", ParseError, "{path}: empty file, expected a header line"),
    ("csv-header-only", "csv", "investor,stock,amount\n\n", ParseError,
     "{path}: no holdings records found"),
    ("csv-missing-file", "csv", None, ParseError,
     "{path}: [Errno 2] No such file or directory: '{path}'"),
    ("csv-all-zero", "csv", "investor,stock,amount\na,x,0\n", AllZeroMatrix,
     "raw holdings sum to zero"),
    ("json-invalid", "json", '[\n{"investor": "a"\n', ParseError,
     "{path}:3: invalid JSON: Expecting ',' delimiter"),
    ("json-not-array", "json", '{"investor": "a"}', ParseError,
     "{path}: expected a JSON array of holdings records"),
    ("json-missing-keys", "json",
     '[{"investor": "a", "stock": "x", "amount": 1}, {"investor": "b", "amount": 1}]',
     ParseError, "{path}: record 2 must carry investor, stock, and amount"),
    ("json-bad-amount", "json", '[{"investor": "a", "stock": "x", "amount": "x1"}]',
     ParseError, "{path}: record 1: amount 'x1' is not a number"),
    ("json-null-label", "json", '[{"investor": null, "stock": "x", "amount": 1}]', ParseError,
     "{path}: record 1: investor and stock labels must be strings or numbers"),
    ("json-bool-label", "json", '[{"investor": "a", "stock": true, "amount": 1}]', ParseError,
     "{path}: record 1: investor and stock labels must be strings or numbers"),
    ("json-array-label", "json", '[{"investor": ["a"], "stock": "x", "amount": 1}]', ParseError,
     "{path}: record 1: investor and stock labels must be strings or numbers"),
    ("json-object-label", "json", '[{"investor": "a", "stock": {"s": 1}, "amount": 1}]', ParseError,
     "{path}: record 1: investor and stock labels must be strings or numbers"),
    ("json-bad-sign", "json",
     '[{"investor": "a", "stock": "x", "amount": 1, "sign": "long"}]',
     ParseError, "{path}: record 1: sign must be + or -, got 'long'"),
    ("signed-long-and-short", "signed",
     "investor,stock,amount,sign\nh2,s1,1,+\nh1,s2,1,-\nh2,s1,2,-\nh1,s2,1,+\n", ParseError,
     "{path}: investor 'h1' is both long and short stock 's2'; net the book before ingestion"),
    ("signed-all-zero", "signed", "investor,stock,amount,sign\nh1,s1,0,+\nh1,s2,0,-\n",
     AllZeroMatrix, "{path}: all amounts are zero"),
    ("vector-bad-header", "vector", "label,amount\na,1\nb,2\n", ParseError,
     "{path}:1: header must be label,value"),
    ("vector-empty-file", "vector", "", ParseError, "{path}:1: header must be label,value"),
    ("vector-column-count", "vector", "label,value\na,1\n\nb,2,3\n", ParseError,
     "{path}:4: expected 2 columns, got 3"),
    ("vector-duplicate-label", "vector", "label,value\na,1\n , \n a ,2\n", ParseError,
     "{path}:4: duplicate label 'a'"),
    ("vector-non-numeric", "vector", "label,value\na,1\nb,two\n", ParseError,
     "{path}:3: value 'two' is not a number"),
    ("vector-missing-label", "vector", "label,value\na,1\n", ParseError,
     "{path}: missing investor value for 'b'"),
    ("vector-unknown-label", "vector", "label,value\na,1\nc,3\nb,2\n", ParseError,
     "{path}:3: unknown investor label 'c'"),
    ("vector-missing-file", "vector", None, ParseError,
     "{path}: [Errno 2] No such file or directory: '{path}'"),
    ("csv-field-too-large", "csv", "investor,stock,amount\na,x,1\n\nb," + "y" * 131073 + ",1\n",
     ParseError, "{path}:4: field larger than field limit (131072)"),
    ("csv-header-field-too-large", "csv", "investor,stock," + "a" * 131073 + "\n", ParseError,
     "{path}:1: field larger than field limit (131072)"),
    ("groups-blank-lines", "groups", "\n  \n\n", ParseError, "{path}: no groups found"),
    ("vector-field-too-large", "vector", "label,value\na,1\nb," + "9" * 131073 + "\n",
     ParseError, "{path}:3: field larger than field limit (131072)"),
    ("vector-bad-value-before-field-limit", "vector",
     "label,value\na,oops\nb," + "9" * 131073 + "\n",
     ParseError, "{path}:2: value 'oops' is not a number"),
]


@pytest.mark.parametrize(
    "reader,text,error,message",
    [case[1:] for case in PARSE_ERROR_CASES],
    ids=[case[0] for case in PARSE_ERROR_CASES],
)
def test_parse_error_messages(tmp_path, golden, reader, text, error, message):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as caught:
        if reader == "vector":
            cli._read_vector(path, ("a", "b"), "investor")
        elif reader == "groups":
            cli._read_partition(path, golden)
        else:
            cli.ingest(path, fmt="json" if reader == "json" else "csv", signed=reader == "signed")
    assert type(caught.value) is error
    assert str(caught.value) == message.format(path=path)


# Amounts written as repr() of a float or as another spelling float() accepts.
amount_spellings = st.floats(0.0, 1e6, allow_nan=False).map(repr) | st.sampled_from(
    ["0.1", "0.2", "0.3", "1e-300", " 1.5 ", "1_000", "+2e-3", "-0.0", "\t7\t", "1E3", ".5",
     "5.", "0_0.2_5"]
)

# lots with repeated (investor, stock) pairs; a cell's leg is fixed by its labels.
lot_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b,c", 'd"e', "a b"]),
        st.sampled_from(["x", "y, z", '"q"']),
        amount_spellings,
    ),
    min_size=1,
    max_size=40,
)


@given(lot_rows, st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_ingest_sums_lots_in_file_order(rows, with_sign, seed):
    investors = sorted({row[0] for row in rows})
    stocks = sorted({row[1] for row in rows})
    short = np.random.default_rng(seed).random((len(investors), len(stocks))) < 0.5
    raw = np.zeros((2, len(investors), len(stocks)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lots.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["investor", "stock", "amount"] + ["sign"] * with_sign)
            for inv, stk, amount in rows:
                i, j = investors.index(inv), stocks.index(stk)
                leg = int(with_sign and short[i, j])
                raw[leg, i, j] += float(amount)
                writer.writerow([inv, stk, amount] + ["+-"[leg]] * with_sign)
        total = float(raw[0].sum() + raw[1].sum())
        if total <= 0.0:
            with pytest.raises(AllZeroMatrix):
                cli.ingest(path, signed=with_sign)
            return
        # a label whose lots are all zero is not ingested, nor summed into the total
        held_i, held_j = raw.sum(axis=(0, 2)) > 0, raw.sum(axis=(0, 1)) > 0
        investors = [lab for lab, held in zip(investors, held_i) if held]
        stocks = [lab for lab, held in zip(stocks, held_j) if held]
        raw = raw[:, held_i][:, :, held_j].copy()  # row-major, so its sum adds as ingest's does
        if with_sign:
            total = float(raw[0].sum() + raw[1].sum())
            book = cli.ingest(path, signed=True)
            assert book.investor_labels == tuple(investors)
            assert book.stock_labels == tuple(stocks)
            assert np.array_equal(book.plus, raw[0] / total)
            assert np.array_equal(book.minus, raw[1] / total)
        else:
            # an unsigned book's total adds its nonzero cells in row-major order
            total = float(raw[0][raw[0] != 0].sum())
            matrix = cli.ingest(path)
            assert matrix.investor_labels == tuple(investors)
            assert matrix.stock_labels == tuple(stocks)
            assert np.array_equal(matrix.entries, raw[0] / total)


def test_search_flags_only_on_search_commands(golden_csv, capsys):
    assert cli.main(["decompose", str(golden_csv), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert cli.main(["renyi", str(golden_csv), "--alpha", "2", "--max-budget", "8"]) == 2
    capsys.readouterr()
    argv = ["psi", str(golden_csv), "--seed", "1", "--max-budget", "8", "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


def search_book():
    """A 12 x 10 book whose maximum is searched, not enumerated."""
    entries = np.random.default_rng(4).random((12, 10)) + 0.01
    return hs.OwnershipMatrix(entries / entries.sum(), [f"i{k}" for k in range(12)],
                              [f"s{k}" for k in range(10)])


@pytest.mark.parametrize("command", ["psi", "dashboard"])
def test_negative_seed_exits_2(tmp_path, golden_csv, capsys, monkeypatch, command):
    # the golden book's maximum is certified; the 12 x 10 book's is searched
    search_csv = tmp_path / "search.csv"
    cli.write_csv(search_book(), search_csv)
    bad = [
        (["--seed", "-1"], "error: seed must be nonnegative, got -1\n"),
        (["--max-budget", "-3"], "error: budget must be positive, got -3\n"),
    ]
    # a dashboard checks the search flags also when Psi is off
    psi_flags = [[], ["--no-psi"]] if command == "dashboard" else [[]]
    for path in (golden_csv, search_csv):
        for extra in psi_flags:
            for flags, message in bad:
                assert cli.main([command, str(path), *extra, *flags]) == 2
                assert capsys.readouterr() == ("", message)
    # above PSI_AUTO_LIMIT a dashboard turns Psi off itself
    monkeypatch.setattr(cli, "PSI_AUTO_LIMIT", 0)
    for flags, message in bad:
        assert cli.main([command, str(golden_csv), *flags]) == 2
        assert capsys.readouterr() == ("", message)


def test_psi_checks_its_search_arguments_before_solving(golden, golden_csv, capsys, monkeypatch):
    def unreached(*args):
        pytest.fail("solved the minimum for a search that cannot run")

    monkeypatch.setattr("holdscan.transport._dual_newton_min", unreached)
    cases = [
        ({"budget": 0}, ["--max-budget", "0"], "budget must be positive, got 0"),
        ({"seed": -1}, ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ({"budget": 2.5}, None, "budget must be an integer, got 2.5"),
    ]
    for search, flags, message in cases:
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            hs.sparsity_score(golden, **search)
        if flags:
            assert cli.main(["psi", str(golden_csv), *flags]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("compute_psi", [None, True, False])
@pytest.mark.parametrize("search", [{"seed": 1.5}, {"max_budget": 2.5}])
def test_dashboard_rejects_non_integer_search_arguments(golden, compute_psi, search):
    (key, value), = search.items()
    name = "budget" if key == "max_budget" else "seed"
    for matrix in (golden, search_book()):
        with pytest.raises(OutOfRange, match=f"^{name} must be an integer, got {value}$"):
            cli.dashboard(matrix, compute_psi=compute_psi, **search)


def test_search_does_not_load_numpy_random(tmp_path):
    # the restart orders are drawn in the library; numpy's random module
    # would add about 6 MB to every process that searches
    path = tmp_path / "search.csv"
    cli.write_csv(search_book(), path)
    code = (
        "import io, json, sys, contextlib\n"
        "from holdscan import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    codes = [cli.main(['psi', sys.argv[1], '--format', 'json']),\n"
        "             cli.main(['dashboard', sys.argv[1], '--psi', '--format', 'json'])]\n"
        "print(json.dumps([codes, out.getvalue(), 'numpy.random' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, check=True, env=env, timeout=120)
    codes, out, loaded = json.loads(done.stdout)
    assert codes == [0, 0]
    assert json.JSONDecoder().raw_decode(out)[0]["certified"] is False
    assert not loaded


def test_commands_load_only_the_modules_they_run(tmp_path, golden_csv):
    # every library module loads on first use, so the command line's set-up
    # compiles only cli, core and errors, and a subcommand adds only its layers
    files = {"shocks.csv": "label,value\ninv1,0.5\ninv2,-0.25\ninv3,0\n",
             "rets.csv": "label,value\nstk1,1.5\nstk2,-0.5\n",
             "groups.txt": "inv1,inv2\ninv3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    book = str(golden_csv)
    groups = [
        [["decompose", book], ["merge", book, "--pair", "inv1,inv2"],
         ["drop-stock", book, "--stock", "stk1"], ["dilute", book, "--mass", "0.25"],
         ["aggregate", book, "--groups", str(tmp_path / "groups.txt")],
         ["renyi", book, "--alpha", "3"]],
        [["dashboard", book, "--no-psi"], ["shock", book, "--shocks", str(tmp_path / "shocks.csv")],
         ["alpha", book, "--returns", str(tmp_path / "rets.csv"), "--project-returns",
          "--dispersion", "2"]],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import holdscan\n"
        "from holdscan import cli\n"
        "cli.build_parser()\n"
        "loaded = lambda: sorted(name for name in sys.modules if name.startswith('holdscan'))\n"
        "seen, codes = [loaded()], []\n"
        "for group in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes += [cli.main(argv) for argv in group]\n"
        "    seen.append(loaded())\n"
        "print(json.dumps([codes, seen]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(groups)], capture_output=True,
                          text=True, check=True, env=env, timeout=120)
    codes, (setup, after_ingest_large, after_dashboard) = json.loads(done.stdout)
    assert codes == [0] * 9
    assert setup == ["holdscan", "holdscan.cli", "holdscan.core", "holdscan.errors"]
    skipped = {f"holdscan.{name}" for name in ("transport", "_pcg", "spectral", "dynamics")}
    assert not skipped & set(after_ingest_large)
    assert not {"holdscan.transport", "holdscan._pcg"} & set(after_dashboard)
    assert "holdscan._fork" not in after_dashboard  # a one-block book is scanned here


# (case, file text, message): one file with several bad rows; the first in
# file order is reported. "{path}" stands for the file's path.
FIRST_BAD_ROW_CASES = [
    ("width-after-bad-amount", "investor,stock,amount\na,x,1\nb,y,zz\nc,z,1,2\n",
     "{path}:3: amount 'zz' is not a number"),
    ("width-before-bad-amount", "investor,stock,amount\na,x,1\nc,z,1,2\nb,y,zz\n",
     "{path}:3: expected 3 columns, got 4"),
    ("empty-label-after-bad-sign", "investor,stock,amount,sign\na,x,1,+\nb,y,1,*\n ,z,1,-\n",
     "{path}:3: sign must be + or -, got '*'"),
    ("bad-sign-after-empty-label", "investor,stock,amount,sign\na,x,1,+\nb, ,1,-\nb,y,1,*\n",
     "{path}:3: empty investor or stock label"),
    ("nan-after-non-numeric", "investor,stock,amount\na,x,1\nb,y,1.2.3\nc,z,nan\n",
     "{path}:3: amount '1.2.3' is not a number"),
    ("non-numeric-after-nan", "investor,stock,amount\na,x,NaN\nb,y,abc\n",
     "{path}:2: amount must be finite and nonnegative, got 'NaN'"),
    ("label-before-amount-in-one-row", "investor,stock,amount\na,x,1\n ,y,abc\n",
     "{path}:3: empty investor or stock label"),
    ("blank-rows-between", "investor,stock,amount\na,x,1\n\n , ,\n,,,,\nb,y,-2\n\t, ,\nc,z,1,2\n",
     "{path}:6: amount must be finite and nonnegative, got '-2'"),
    ("blank-rows-before-width", "investor,stock,amount\na,x,1\n\n , , \nc,z\nb,y,-2\n",
     "{path}:5: expected 3 columns, got 2"),
    ("bad-amount-before-field-limit", "investor,stock,amount\na,x,oops\nb," + "y" * 131073 + ",1\n",
     "{path}:2: amount 'oops' is not a number"),
]


@pytest.mark.parametrize(
    "text,message",
    [case[1:] for case in FIRST_BAD_ROW_CASES],
    ids=[case[0] for case in FIRST_BAD_ROW_CASES],
)
def test_first_bad_row_in_file_order(tmp_path, text, message):
    path = tmp_path / "lots.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        cli.ingest(path, signed=text.startswith("investor,stock,amount,sign"))
    assert str(caught.value) == message.format(path=path)


def test_main_csv_field_limit_exits_2(tmp_path, golden_csv, capsys):
    big = tmp_path / "big.csv"
    big.write_text("investor,stock,amount\na," + "x" * 131073 + ",1\n", encoding="utf-8")
    assert cli.main(["decompose", str(big)]) == 2
    assert capsys.readouterr().err == f"error: {big}:2: field larger than field limit (131072)\n"
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("label,value\n" + "i" * 131073 + ",1\n", encoding="utf-8")
    assert cli.main(["shock", str(golden_csv), "--shocks", str(shocks)]) == 2
    assert "field larger than field limit" in capsys.readouterr().err
    groups = tmp_path / "groups.txt"
    groups.write_text("inv1\n\ninv2," + "i" * 131073 + "\n", encoding="utf-8")
    assert cli.main(["aggregate", str(golden_csv), "--groups", str(groups)]) == 2
    assert capsys.readouterr().err == f"error: {groups}:3: field larger than field limit (131072)\n"


def test_aggregate_names_file_and_line_of_unknown_label(tmp_path, golden_csv, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("inv2,inv3\ninv1,zzz\n", encoding="utf-8")
    assert cli.main(["aggregate", str(golden_csv), "--groups", str(groups)]) == 2
    assert capsys.readouterr().err == f"error: {groups}:2: unknown investor label 'zzz'\n"


def test_aggregate_rejects_repeated_investor(tmp_path, golden_csv, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("inv1,inv1,inv2\ninv3\n", encoding="utf-8")
    assert cli.main(["aggregate", str(golden_csv), "--groups", str(groups)]) == 2
    assert capsys.readouterr().err == "error: investor 0 appears twice in one group\n"


def test_comma_labels_named_on_command_line(tmp_path, capsys):
    def run(argv):
        assert cli.main(argv + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    raw = [[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    cli.write_csv(hs.normalize(raw, ["A", "b", "c"], ["x", "y"]), plain)
    cli.write_csv(hs.normalize(raw, ["Acme, Inc.", "b", "c"], ["x", "y"]), quoted)
    assert '"Acme, Inc."' in quoted.read_text(encoding="utf-8")

    plain_groups = tmp_path / "plain_groups.txt"
    plain_groups.write_text("A,c\nb\n", encoding="utf-8")
    quoted_groups = tmp_path / "quoted_groups.txt"
    quoted_groups.write_text('"Acme, Inc.", c\n\nb\n', encoding="utf-8")
    expected = run(["aggregate", str(plain), "--groups", str(plain_groups)])
    got = run(["aggregate", str(quoted), "--groups", str(quoted_groups)])
    assert got["groups"] == ["Acme, Inc.+c", "b"]
    assert {k: got[k] for k in ("between", "within", "total")} == {
        k: expected[k] for k in ("between", "within", "total")
    }

    assert run(["merge", str(quoted), "--pair", '"Acme, Inc.",b']) == run(
        ["merge", str(plain), "--pair", "A,b"]
    )
    assert cli.main(["merge", str(quoted), "--pair", "Acme, Inc.,b"]) == 2
    assert "--pair expects two comma-separated labels" in capsys.readouterr().err


def _row_by_row_first_error(path, has_sign):
    """The first row error of a holdings CSV, checking one row at a time, or None."""
    reader = csv.reader(path.read_text(encoding="utf-8").splitlines())
    width = len(next(reader))
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            return f"{path}:{lineno}: expected {width} columns, got {len(row)}"
        try:
            cli._parse_row(row, has_sign, f"{path}:{lineno}")
        except ParseError as exc:
            return str(exc)
    return None


messy_fields = st.sampled_from(
    ["a", "b", " a ", "c,d", "", " ", "\t", "1", "0", " 2.5 ", "1_0", "-1", "-0.0", "nan",
     "inf", "x1", "1e400", "+", "-", "*"]
)


@given(st.lists(st.lists(messy_fields, max_size=5), min_size=1, max_size=12), st.booleans())
@settings(max_examples=150, deadline=None)
def test_csv_errors_match_row_by_row_check(rows, with_sign):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lots.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["investor", "stock", "amount"] + ["sign"] * with_sign)
            writer.writerows(rows)
        expected = _row_by_row_first_error(path, with_sign)
        try:
            cli.ingest(path, signed=with_sign)
            got = None
        except (ParseError, AllZeroMatrix) as exc:
            # errors found after the rows are read carry no line number
            got = str(exc) if re.match(rf"{re.escape(str(path))}:\d", str(exc)) else None
        assert got == expected


# (case, reader, file text, message): a quoted line break makes one record
# span several lines, and an error names the physical line on which the
# bad record starts. Reader "groups" reads a --groups file for the golden
# book. "{path}" stands for the file's path.
QUOTED_BREAK_CASES = [
    ("csv-after-break", "csv", 'investor,stock,amount\n"a\nb",x,1\nc,y,oops\n',
     "{path}:4: amount 'oops' is not a number"),
    ("csv-after-crlf-break", "csv", 'investor,stock,amount\r\n"a\r\nb",x,1\r\nc,y,oops\r\n',
     "{path}:4: amount 'oops' is not a number"),
    ("csv-after-cr-break", "csv", 'investor,stock,amount\n"a\rb",x,1\nc,y,-1\n',
     "{path}:4: amount must be finite and nonnegative, got '-1'"),
    ("csv-in-broken-row", "csv", 'investor,stock,amount\na,x,1\n"a\n\nb",x,oops\n',
     "{path}:3: amount 'oops' is not a number"),
    ("csv-blank-then-break", "csv", 'investor,stock,amount\n\n"a\nb",x,1\n\n ,y,1\n',
     "{path}:6: empty investor or stock label"),
    ("csv-width-after-break", "csv", 'investor,stock,amount\n"a\nb",x,1\n\nc,y\n',
     "{path}:5: expected 3 columns, got 2"),
    ("csv-field-limit-after-break", "csv",
     'investor,stock,amount\n"a\nb",x,1\nc,' + "y" * 131073 + ",1\n",
     "{path}:4: field larger than field limit (131072)"),
    ("vector-after-break", "vector", 'label,value\n"a\nx",1\nb,two\n',
     "{path}:4: value 'two' is not a number"),
    ("vector-duplicate-after-break", "vector", 'label,value\n"a\n\nb",1\nb,2\nb,3\n',
     "{path}:6: duplicate label 'b'"),
    ("vector-width-after-break", "vector", 'label,value\n"a\nx",1\nb,2,3\n',
     "{path}:4: expected 2 columns, got 3"),
    ("vector-unknown-after-break", "vector", 'label,value\na,"1\n"\nb,2\n\nzzz,3\n',
     "{path}:6: unknown investor label 'zzz'"),
    ("groups-after-break", "groups", 'inv1\n"\n"\ninv2,\n',
     "{path}:4: empty label in group"),
    ("groups-field-limit-after-break", "groups", 'inv1\n"\n"\ninv2,' + "i" * 131073 + "\n",
     "{path}:4: field larger than field limit (131072)"),
    ("groups-unknown-after-break", "groups", 'inv1\n"\n"\ninv2,zzz\n',
     "{path}:4: unknown investor label 'zzz'"),
    ("groups-unknown-in-broken-record", "groups", 'inv1\n"inv\n2",inv3\n',
     "{path}:2: unknown investor label 'inv\\n2'"),
]


@pytest.mark.parametrize(
    "reader,text,message",
    [case[1:] for case in QUOTED_BREAK_CASES],
    ids=[case[0] for case in QUOTED_BREAK_CASES],
)
def test_error_lines_after_quoted_break(tmp_path, golden, reader, text, message):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as caught:
        if reader == "vector":
            cli._read_vector(path, ("a", "b"), "investor")
        elif reader == "groups":
            cli._read_partition(path, golden)
        else:
            cli.ingest(path)
    assert str(caught.value) == message.format(path=path)


def test_non_utf8_input_exits_2(tmp_path, golden_csv, capsys):
    def fails_on(path, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "can't decode byte 0xff" in err

    holdings = tmp_path / "holdings.csv"
    holdings.write_bytes(b"investor,stock,amount\n\xff\xfe,x,1\nb,y,2\n")
    fails_on(holdings, ["decompose", str(holdings)])
    records = tmp_path / "holdings.json"
    records.write_bytes(b'[{"investor": "\xff\xfe", "stock": "x", "amount": 1}]')
    fails_on(records, ["decompose", str(records), "--input-format", "json"])
    shocks = tmp_path / "shocks.csv"
    shocks.write_bytes(b"label,value\ninv1,1\ninv2,\xff\xfe\ninv3,0\n")
    fails_on(shocks, ["shock", str(golden_csv), "--shocks", str(shocks)])
    groups = tmp_path / "groups.txt"
    groups.write_bytes(b"inv1,inv2\n\xff\xfe\n")
    fails_on(groups, ["aggregate", str(golden_csv), "--groups", str(groups)])


def test_dashboard_computes_dependence_once(golden_csv, capsys, monkeypatch):
    for fmt in ("text", "json"):
        with monkeypatch.context() as patch:
            work = count_work(patch)
            assert cli.main(["dashboard", str(golden_csv), "--format", fmt]) == 0
            assert_built_once(work)
        matrix = cli.ingest(golden_csv)
        flags = {"psi": None, "max_budget": 64, "format": fmt, "input_format": "csv"}
        expect = cli.report(
            matrix, cli.dashboard(matrix), hs.dependence_index(matrix), fmt, 0, flags
        )
        assert capsys.readouterr().out == expect


def test_shock_whitens_once(tmp_path, golden_csv, monkeypatch):
    shocks = tmp_path / "shocks.csv"
    shocks.write_text("label,value\ninv1,0.5\ninv2,-0.25\ninv3,0\n", encoding="utf-8")
    work = count_work(monkeypatch)
    assert cli.main(["shock", str(golden_csv), "--shocks", str(shocks)]) == 0
    assert_built_once(work)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["dashboard", "--no-psi"], ["decompose"]])
@pytest.mark.parametrize("amounts", [
    ("1e170", "1"),  # the benchmark mass p * s of the second cell underflows to zero
    ("1e300", "1e-20"),  # and its profile ratios overflow as well
])
def test_extreme_book_fails_without_warnings(tmp_path, capsys, amounts, command, fmt):
    path = tmp_path / "extreme.csv"
    text = "investor,stock,amount\ni1,s1,{}\ni2,s2,{}\n".format(*amounts)
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command[0], str(path), *command[1:], "--format", fmt]) == 3
    assert capsys.readouterr().err == "error: dependence forms disagree beyond tolerance\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_signed_book_beyond_the_float_range_matches_its_scaled_copy(tmp_path, capsys, fmt):
    # finite legs whose gross total, and one cell's lot sum, overflow
    lots = [("i1", "s1", 1e308, "+"), ("i1", "s1", 1e308, "+"),
            ("i2", "s2", 1e308, "-"), ("i1", "s2", 1e307, "+")]
    outputs = []
    for name, scale in (("huge", 1.0), ("scaled", 2.0**-1020)):
        path = tmp_path / f"{name}.csv"
        rows = [f"{i},{s},{amount * scale!r},{sign}" for i, s, amount, sign in lots]
        path.write_text("investor,stock,amount,sign\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["signed", str(path), "--format", fmt]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out


def reference_coded(path):
    """The coded columns of a holdings CSV as read by ``csv.reader``."""
    return cli._read_csv(path)


def assert_same_coded(got, expected):
    """Equal labels, and codes, amounts and legs equal to the bit."""
    assert got[1] == expected[1]
    for column, want in zip(got[0], expected[0]):
        if isinstance(want, list):
            assert column == want
        else:
            assert (column.dtype, column.shape) == (want.dtype, want.shape)
            assert column.tobytes() == want.tobytes()


def ingest_outcome(path, signed):
    """Labels and the bytes of every cell ``ingest`` gives, or the error it raises."""
    try:
        book = cli.ingest(path, signed=signed)
    except HoldscanError as exc:
        return type(exc), str(exc)
    if signed:
        return book.investor_labels, book.stock_labels, book.plus.tobytes(), book.minus.tobytes()
    cells = tuple(array.tobytes() for array in held_cells(book))
    return book.investor_labels, book.stock_labels, cells, book.entries.tobytes()


def assert_scan_matches_reference(path, signed, accepted=None):
    """The scanner, where it accepts, reads what ``csv.reader`` reads; ``ingest`` agrees either way."""
    scanned = cli._scan_csv(path)
    if accepted is not None:
        assert (scanned is not None) == accepted
    if scanned is not None:
        assert_same_coded(scanned, reference_coded(path))
    with mock.patch.object(cli, "_scan_csv", return_value=None):
        expected = ingest_outcome(path, signed)
    assert ingest_outcome(path, signed) == expected


@st.composite
def plain_csv_texts(draw, amounts=amount_spellings):
    """A plain holdings CSV: ASCII labels that need no strip, and +/- signs if any."""
    with_sign = draw(st.booleans())
    # labels past 8 bytes, some sharing their first 8, are ranked a word at a time
    labels = st.text("abyzAZ09_.+-", min_size=1, max_size=11) | st.sampled_from(
        ["abcdefgh", "abcdefgh.", "abcdefghi", "abcdefghij0", "abcdefgi", "abcdefghabcdefgh0"]
    )
    investors = draw(st.lists(labels, min_size=1, max_size=6))
    stocks = draw(st.lists(labels, min_size=1, max_size=6))
    row = st.tuples(st.sampled_from(investors), st.sampled_from(stocks), amounts,
                    st.sampled_from(["", "+", "-"]))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    lines = ["investor,stock,amount" + ",sign" * with_sign]
    lines += [",".join(row[: 3 + with_sign]) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), with_sign


# every byte class the scanner must decline on or pass through: quotes, line
# ends, whitespace that str.strip removes, NUL, non-ASCII, and number syntax
SCAN_ALPHABET = ',"\r\n \t\x0c\x1c\x85\x00\u00e90123456789.e_+-'
# what str.strip removes and what ends a field come up as often as all the rest
edit_chars = (
    st.sampled_from("\t\x0b\x0c\x1c\x1d\x1e\x1f ")
    | st.sampled_from(',"\r\n')
    | st.sampled_from(["", *SCAN_ALPHABET])
)


@st.composite
def edited_csv_texts(draw):
    """A plain holdings CSV with a few characters inserted, deleted or replaced.

    Half the files also spell some amounts in ways the scanner declines.
    """
    odd = st.sampled_from(["inf", "nan", "1e400", "0x10", "1__0", "-1", " ", ""])
    text, with_sign = draw(plain_csv_texts(amount_spellings | odd if draw(st.booleans())
                                           else amount_spellings))
    for _ in range(draw(st.integers(0, 3))):
        # half the edits land at a field's edge, just before or after a break
        edges = [k + side for k, c in enumerate(text) if c in ",\n" for side in (0, 1)]
        at = draw(st.sampled_from(edges) | st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(edit_chars) + text[at + cut :]
    return text, with_sign


# the scanner's block size: a few bytes, so that blocks cut records, line
# ends and labels, or the real one
block_sizes = st.integers(1, 48) | st.just(cli._BLOCK)


def in_workers(workers):
    """Share each scan's reads among ``workers`` processes (fewer if there are fewer reads).

    The property tests scan in one process; ``test_forked_scan_is_the_one_process_scan``
    forks in a bounded sample of their files.
    """
    return mock.patch.object(_fork, "worker_count", lambda tasks: min(workers, tasks))


@given(edited_csv_texts(), st.booleans(), block_sizes)
@settings(max_examples=500, deadline=None)
def test_scanner_matches_csv_reader(drawn, signed, block):
    text, _ = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK", block), in_workers(1):
        path = Path(tmp) / "lots.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_scan_matches_reference(path, signed)


@given(plain_csv_texts(), block_sizes)
@settings(max_examples=200, deadline=None)
def test_scanner_accepts_plain_files(drawn, block):
    text, with_sign = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK", block), in_workers(1):
        path = Path(tmp) / "lots.csv"
        path.write_bytes(text.encode("ascii"))
        assert_scan_matches_reference(path, with_sign, accepted=True)


HEAD = "investor,stock,amount\n"
SIGNED_HEAD = "investor,stock,amount,sign\n"

# (case, file text): one file for each reason the scanner leaves a file to csv.reader
STRIPPED = {"tab": "\t", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
            "us": "\x1f", "space": " "}
SCAN_DECLINE_CASES = [
    ("non-ascii", HEAD + "\u00e9,x,1\n"),
    ("nul", HEAD + "a\x00,x,1\n"),
    ("quote", HEAD + '"a",x,1\n'),
    ("bare-cr", HEAD + "a,x,1\rb,y,2\n"),
    ("spaced-header", "investor, stock,amount\na,x,1\n"),
    ("other-header", "investor,stock,amount,side\na,x,1,+\n"),
    ("no-records", HEAD),
    ("blank-record", HEAD + "a,x,1\n\nb,y,2\n"),
    ("whitespace-record", HEAD + "a,x,1\n , ,\n"),
    ("wide-record", HEAD + "a,x,1,2\n"),
    ("narrow-record", HEAD + "a,x\n"),
    ("split-record", HEAD + "a\nx,1\n"),
    ("empty-investor", HEAD + ",x,1\n"),
    ("empty-stock", HEAD + "a,,1\n"),
    ("field-limit", HEAD + "a," + "x" * 131073 + ",1\n"),
    *((f"leading-{name}", HEAD + f"{c}a,x,1\n") for name, c in STRIPPED.items()),
    *((f"trailing-{name}", HEAD + f"a,x{c},1\n") for name, c in STRIPPED.items()),
    *((f"amount-{amount!r}", HEAD + f"a,x,{amount}\n")
      for amount in ["", " ", "0x10", "1__0", "inf", "nan", "1e400", "-1"]),
    *((f"sign-{sign!r}", SIGNED_HEAD + f"a,x,1,{sign}\n") for sign in [" -", "*", "++", "+ "]),
]


@pytest.mark.parametrize(
    "text", [case[1] for case in SCAN_DECLINE_CASES], ids=[case[0] for case in SCAN_DECLINE_CASES]
)
def test_scanner_declines_what_it_cannot_read_exactly(tmp_path, text):
    path = tmp_path / "lots.csv"
    path.write_bytes(text.encode("utf-8"))
    for signed in (False, True):
        assert_scan_matches_reference(path, signed, accepted=False)


CRLF_HEAD = HEAD.replace("\n", "\r\n")


def file_blocks(path):
    """The scanner's blocks of the file at ``path``, as one process reads them."""
    with open(path, "rb") as handle:
        return list(cli._blocks(handle.fileno()))


# (case, file text, block size): plain files whose first read of the block
# size stops inside a record, between a carriage return and its line feed,
# or before the end of a record longer than a block
BLOCK_CASES = [
    ("record-across-blocks", HEAD + "a,x,1\nb,y,2\n", len(HEAD) + 3),
    ("crlf-across-blocks", CRLF_HEAD + "a,x,1\r\nb,y,2\r\n", len(CRLF_HEAD + "a,x,1\r")),
    ("record-longer-than-block", HEAD + "a,x,1\nb," + "y" * 40 + ",2\nc,z,3\n", 8),
    ("header-longer-than-block", HEAD + "a,x,1\n", 4),
    ("first-record-longer-than-block", HEAD + "a," + "x" * 40 + ",1\nb,y,2\n", len(HEAD) + 2),
]


@pytest.mark.parametrize(
    "text, block", [case[1:] for case in BLOCK_CASES], ids=[case[0] for case in BLOCK_CASES]
)
def test_scanner_reads_records_split_across_blocks(tmp_path, monkeypatch, text, block):
    path = tmp_path / "lots.csv"
    path.write_bytes(text.encode("ascii"))
    monkeypatch.setattr(cli, "_BLOCK", block)
    blocks = file_blocks(path)
    # whole lines, with \r\n read as \n, and a block outgrows the block size
    # only by the line it stops in
    assert len(blocks) > 1
    assert b"".join(blocks) == text.replace("\r\n", "\n").encode("ascii")
    assert all(part.endswith(b"\n") for part in blocks)
    longest = max(map(len, text.splitlines(keepends=True)))
    assert max(map(len, blocks)) < block + longest
    assert_scan_matches_reference(path, False, accepted=True)


# 40 plain records, then one the scanner declines: over 64-byte blocks, the
# cause lies only in the last block. (case, last record, what ingest gives:
# the first investor label of the book csv.reader reads, or its error)
PLAIN_RECORDS = "".join(f"i{k % 7},s{k % 5},{k}.5\n" for k in range(40))
LAST_BLOCK_DECLINES = [
    ("quote", '"c",z,3\n', "c"),
    ("nul", "c\x00,z,3\n", "c\x00"),
    ("bad-width", "c,z,3,4\n", "{path}:42: expected 3 columns, got 4"),
    ("bad-amount", "c,z,oops\n", "{path}:42: amount 'oops' is not a number"),
]


@pytest.mark.parametrize(
    "last, expected",
    [case[1:] for case in LAST_BLOCK_DECLINES],
    ids=[case[0] for case in LAST_BLOCK_DECLINES],
)
def test_scanner_declines_in_the_last_block(tmp_path, monkeypatch, last, expected):
    monkeypatch.setattr(cli, "_BLOCK", 64)
    plain = tmp_path / "plain.csv"
    plain.write_bytes((HEAD + PLAIN_RECORDS).encode("ascii"))
    assert cli._scan_csv(plain) is not None
    path = tmp_path / "lots.csv"
    path.write_bytes((HEAD + PLAIN_RECORDS + last).encode("ascii"))
    blocks = file_blocks(path)
    assert len(blocks) > 2 and blocks[-1].endswith(last.encode("ascii"))
    assert_scan_matches_reference(path, False, accepted=False)
    outcome = ingest_outcome(path, False)
    if expected.startswith("{path}"):
        assert outcome == (ParseError, expected.format(path=path))
    else:
        assert outcome[0][0] == expected


def test_scanner_declines_an_endless_line_early(tmp_path, monkeypatch):
    # a header, then one line that never ends. No record is longer than
    # 4 x (field limit + 1) bytes, so the scanner stops reading once the
    # pending line is longer; it used to read the whole file, growing the
    # line one read at a time (quadratic time). Reads counted in the caller
    limit = csv.field_size_limit(1000)
    try:
        monkeypatch.setattr(cli, "_BLOCK", 256)
        path = tmp_path / "lots.csv"
        path.write_bytes((HEAD + "a," + "x" * 100_000).encode("ascii"))
        pread, read = os.pread, []

        def counted(fd, size, at):
            data = pread(fd, size, at)
            read.append(len(data))
            return data

        monkeypatch.setattr(os, "pread", counted)
        for workers in (1, 2):
            read.clear()
            with in_workers(workers):
                assert cli._scan_csv(path) is None
            # the header probe, then reads until the line passes 4004 bytes
            assert sum(read) == 64 + 16 * 256
        assert_scan_matches_reference(path, False, accepted=False)
        assert ingest_outcome(path, False) == (
            ParseError, f"{path}:2: field larger than field limit (1000)")
    finally:
        csv.field_size_limit(limit)


# -- the scan of a large CSV in forked workers ---------------------------------


@given(plain_csv_texts() | edited_csv_texts(), block_sizes)
@settings(max_examples=25, deadline=None)
def test_forked_scan_is_the_one_process_scan(drawn, block):
    # the same labels, codes, amount bits and legs, or the same decline, in
    # any number of workers: blocks cut records, CRLF line ends and labels
    text, _ = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK", block):
        path = Path(tmp) / "lots.csv"
        path.write_bytes(text.encode("utf-8"))
        with in_workers(1):
            expected = cli._scan_csv(path)
        for workers in (2, 3):
            with in_workers(workers):
                scanned = cli._scan_csv(path)
            no_child_left()
            assert (scanned is None) == (expected is None)
            if expected is not None:
                assert_same_coded(scanned, expected)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "last, expected",
    [case[1:] for case in LAST_BLOCK_DECLINES],
    ids=[case[0] for case in LAST_BLOCK_DECLINES],
)
def test_forked_scan_declines_in_a_childs_last_block(tmp_path, monkeypatch, last, expected, workers):
    # the last worker, a child, scans the blocks up to the end of the file
    monkeypatch.setattr(cli, "_BLOCK", 64)
    use_workers(monkeypatch, workers)
    forks = count_forks(monkeypatch)
    plain = tmp_path / "plain.csv"
    plain.write_bytes((HEAD + PLAIN_RECORDS).encode("ascii"))
    assert_same_coded(cli._scan_csv(plain), reference_coded(plain))
    path = tmp_path / "lots.csv"
    path.write_bytes((HEAD + PLAIN_RECORDS + last).encode("ascii"))
    assert cli._scan_csv(path) is None
    assert len(forks) == 2 * (workers - 1)
    outcome = ingest_outcome(path, False)
    if expected.startswith("{path}"):
        assert outcome == (ParseError, expected.format(path=path))
    else:
        assert outcome[0][0] == expected
        with mock.patch.object(cli, "_scan_csv", return_value=None):
            assert outcome == ingest_outcome(path, False)


@pytest.mark.parametrize("failure, status", [("exception", 1), ("kill", -signal.SIGKILL)])
def test_dying_scan_worker_raises_and_is_reaped(tmp_path, monkeypatch, capsys, failure, status):
    # a child that ends without sending its blocks is an internal error,
    # not a decline: the CLI exits 3 with one line, and no child is left
    monkeypatch.setattr(cli, "_BLOCK", 64)
    use_workers(monkeypatch, 3)
    path = tmp_path / "lots.csv"
    path.write_bytes((HEAD + PLAIN_RECORDS).encode("ascii"))
    run, caller = cli._scanned_run, os.getpid()

    def dying(*args):
        if os.getpid() != caller:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("a worker fails")
        return run(*args)

    monkeypatch.setattr(cli, "_scanned_run", dying)
    message = f"scan worker 1 ended with status {status} before sending its blocks"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        cli._scan_csv(path)
    no_child_left()
    assert cli.main(["decompose", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failing_scan_caller_reaps_its_workers(tmp_path, monkeypatch, error):
    monkeypatch.setattr(cli, "_BLOCK", 64)
    use_workers(monkeypatch, 3)
    path = tmp_path / "lots.csv"
    path.write_bytes((HEAD + PLAIN_RECORDS).encode("ascii"))
    run, caller = cli._scanned_run, os.getpid()

    def failing(*args):
        if os.getpid() == caller:
            raise error("the caller fails")
        return run(*args)

    monkeypatch.setattr(cli, "_scanned_run", failing)
    with pytest.raises(error):
        cli._scan_csv(path)
    no_child_left()


def test_scan_in_a_second_thread_or_of_one_block_does_not_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK", 64)
    path = tmp_path / "lots.csv"
    path.write_bytes((HEAD + PLAIN_RECORDS).encode("ascii"))
    one_block = tmp_path / "one-block.csv"
    one_block.write_bytes((HEAD + "a,x,1\n" * 7).encode("ascii"))
    assert one_block.stat().st_size == cli._BLOCK
    refuse_fork(monkeypatch)
    assert_same_coded(cli._scan_csv(one_block), reference_coded(one_block))
    found = []
    thread = threading.Thread(target=lambda: found.append(cli._scan_csv(path)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert_same_coded(found[0], reference_coded(path))


def test_scanner_accepts_crlf_large_book(tmp_path):
    # the seed-1 book of the ingest-large benchmark workload, with Windows line ends
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "bench/books.py", "--workload", "ingest-large", "--seed", "1",
            "--out", str(tmp_path)]
    subprocess.run(argv, cwd=root, check=True, timeout=300)
    path = tmp_path / "book0.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_scan_matches_reference(path, False, accepted=True)


def test_ingest_peak_memory_follows_the_coded_columns(tmp_path):
    # the seed-1 book of the ingest-large benchmark workload: 4.75 MB, 199k
    # lots on 2000 x 1500 labels. Scanned a block at a time, the file is
    # never held whole, and the codes are freed before the cell keys are
    # sorted (25.1 MiB when the file was read whole)
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "bench/books.py", "--workload", "ingest-large", "--seed", "1",
            "--out", str(tmp_path)]
    subprocess.run(argv, cwd=root, check=True, timeout=300)
    path = tmp_path / "book0.csv"
    tracemalloc.start()
    try:
        cli.ingest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"


def test_scanner_accepts_every_dashboard_benchmark_book(tmp_path):
    # the row-at-a-time reader is the fallback: no benchmark book may need it
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "bench/books.py", "--workload", "dashboard-psi", "--seed", "1",
            "--out", str(tmp_path)]
    subprocess.run(argv, cwd=root, check=True, timeout=300)
    books = sorted(tmp_path.glob("book*.csv"))
    assert len(books) == 26
    assert [path.name for path in books if cli._scan_csv(path) is None] == []
