import csv
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan import cli
from holdscan.errors import (
    AllZeroMatrix,
    InternalConsistencyError,
    MixedSignWithoutFlag,
    ParseError,
)

GOLDEN_CSV = """investor,stock,amount
inv1,stk1,30
inv1,stk2,10
inv2,stk1,5
inv2,stk2,25
inv3,stk1,15
inv3,stk2,15
"""


@pytest.fixture
def golden_csv(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV, encoding="utf-8")
    return path


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
            ]
        ),
        encoding="utf-8",
    )
    matrix = cli.ingest(path, fmt="json")
    nptest.assert_allclose(matrix.entries, [[0.75], [0.25]], atol=1e-15)


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


def test_main_exit_codes(tmp_path, golden_csv, capsys, monkeypatch):
    missing = tmp_path / "missing.csv"
    assert cli.main(["dashboard", str(missing)]) == 2
    capsys.readouterr()
    assert cli.main(["dashboard", str(golden_csv)]) == 0
    capsys.readouterr()

    def explode(*args, **kwargs):
        raise InternalConsistencyError("synthetic failure")

    monkeypatch.setattr(cli, "dependence_index", explode)
    assert cli.main(["dashboard", str(golden_csv)]) == 3
    capsys.readouterr()


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
     "{path}: unknown investor label 'c'"),
    ("vector-missing-file", "vector", None, ParseError,
     "{path}: [Errno 2] No such file or directory: '{path}'"),
    ("csv-field-too-large", "csv", "investor,stock,amount\na,x,1\n\nb," + "y" * 131073 + ",1\n",
     ParseError, "{path}:4: field larger than field limit (131072)"),
    ("csv-header-field-too-large", "csv", "investor,stock," + "a" * 131073 + "\n", ParseError,
     "{path}:1: field larger than field limit (131072)"),
    ("vector-field-too-large", "vector", "label,value\na,1\nb," + "9" * 131073 + "\n",
     ParseError, "{path}:3: field larger than field limit (131072)"),
]


@pytest.mark.parametrize(
    "reader,text,error,message",
    [case[1:] for case in PARSE_ERROR_CASES],
    ids=[case[0] for case in PARSE_ERROR_CASES],
)
def test_parse_error_messages(tmp_path, reader, text, error, message):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as caught:
        if reader == "vector":
            cli._read_vector(path, ("a", "b"), "investor")
        else:
            cli.ingest(path, fmt="json" if reader == "json" else "csv", signed=reader == "signed")
    assert type(caught.value) is error
    assert str(caught.value) == message.format(path=path)


# lots with repeated (investor, stock) pairs; a cell's leg is fixed by its labels.
# Amounts are written as repr() of a float or as another spelling float() accepts.
lot_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b,c", 'd"e', "a b"]),
        st.sampled_from(["x", "y, z", '"q"']),
        st.floats(0.0, 1e6, allow_nan=False).map(repr)
        | st.sampled_from(["0.1", "0.2", "0.3", "1e-300", " 1.5 ", "1_000", "+2e-3", "-0.0",
                           "\t7\t", "1E3", ".5", "5.", "0_0.2_5"]),
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
        if with_sign:
            book = cli.ingest(path, signed=True)
            assert book.investor_labels == tuple(investors)
            assert book.stock_labels == tuple(stocks)
            assert np.array_equal(book.plus, raw[0] / total)
            assert np.array_equal(book.minus, raw[1] / total)
        else:
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
