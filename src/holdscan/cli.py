"""Batch command-line front end.

Reads holdings files (CSV or JSON records), runs the requested analysis,
and prints a deterministic text or JSON report. Same input, same flags,
same bytes out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .comparative import OperationDelta, dilute, merge_investors, nonid_family, remove_stock
from .core import OwnershipMatrix, marginals, normalize
from .dependence import DependenceReport, Partition, aggregate, dependence_index
from .dynamics import active_variance, fire_sale
from .errors import (
    AllZeroMatrix,
    DegenerateRange,
    MixedSignWithoutFlag,
    NumericalError,
    ParseError,
    ValidationError,
)
from .extensions import renyi_summary, signed_dependence, signed_from_raw
from .indices import concentration_summary, micro_decomposition
from .spectral import whiten
from .transport import family_2x2, sparsity_score, transport_matrix_2x2

#: Dashboards skip the sparsity score by default above this label count,
#: because the fixed-marginal maximization cost grows combinatorially.
PSI_AUTO_LIMIT = 2000

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Dashboard:
    """The six headline diagnostics plus effective numbers.

    Field names follow the report wire format. ``Psi`` is None when the
    sparsity score was skipped or undefined; ``psi_reason`` says why.
    """

    H_I: float
    H_S: float
    M: float
    Psi: float | None
    X: float
    rho: float
    N_I: float
    N_S: float
    N_M: float
    psi_certified: bool | None
    psi_reason: str | None


# -- ingestion ---------------------------------------------------------------


#: Holdings as columns in file order: investor and stock labels (stripped),
#: amounts, and legs (1 for a short row, else 0).
_Columns = tuple[list[str], list[str], np.ndarray, np.ndarray]


def ingest(path: str | Path, fmt: str = "csv", signed: bool = False):
    """Read a holdings file into a share matrix or a signed book.

    Duplicate (investor, stock) rows are summed in file order; labels are
    ordered lexicographically so ingestion is deterministic.
    """
    (investor_col, stock_col, amounts, legs), has_sign_column = (
        _read_csv(Path(path)) if fmt == "csv" else _read_json(Path(path))
    )
    if has_sign_column and not signed:
        raise MixedSignWithoutFlag(
            "input carries a sign column; pass --signed to ingest it"
        )
    if not investor_col:
        raise ParseError(f"{path}: no holdings records found")
    investors = sorted(set(investor_col))
    stocks = sorted(set(stock_col))
    n, m = len(investors), len(stocks)
    inv_index = {lab: i for i, lab in enumerate(investors)}
    stk_index = {lab: j for j, lab in enumerate(stocks)}
    count = len(investor_col)
    rows = np.fromiter(map(inv_index.__getitem__, investor_col), np.intp, count)
    cols = np.fromiter(map(stk_index.__getitem__, stock_col), np.intp, count)
    # bincount adds each cell's lots one by one in file order
    raw = np.bincount(
        (legs * n + rows) * m + cols, weights=amounts, minlength=(1 + signed) * n * m
    )
    if not signed:
        return normalize(raw.reshape(n, m), investors, stocks)

    plus, minus = raw.reshape(2, n, m)
    both = (plus > 0) & (minus > 0)
    if np.any(both):
        i, j = map(int, np.argwhere(both)[0])
        raise ParseError(
            f"{path}: investor {investors[i]!r} is both long and short "
            f"stock {stocks[j]!r}; net the book before ingestion"
        )
    if float(plus.sum() + minus.sum()) <= 0.0:
        raise AllZeroMatrix(f"{path}: all amounts are zero")
    return signed_from_raw(plus, minus, investors, stocks)


def _read_text(path: Path) -> io.StringIO:
    """The file's text with its line breaks as written, for ``csv.reader``."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return io.StringIO(handle.read(), newline="")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _record_lines(path: Path) -> list[int]:
    """The line each CSV record starts on, read again to word an error.

    A quoted line break makes a record span lines. The list ends with the
    line after the last record read: where a record that failed to parse starts.
    """
    reader = csv.reader(_read_text(path))
    starts = [1]
    try:
        for _ in reader:
            starts.append(reader.line_num + 1)
    except csv.Error:
        pass
    return starts


def _csv_header(path: Path) -> tuple[list[str] | None, Iterator[list[str]]]:
    """The header row (None for an empty file) and the reader left after it."""
    reader = csv.reader(_read_text(path))
    try:
        return next(reader, None), reader
    except csv.Error as exc:
        raise ParseError(f"{path}:1: {exc}") from exc


def _csv_columns(
    path: Path, reader: Iterator[list[str]], width: int
) -> tuple[list[list[str]], ParseError | None]:
    """The rows after the header as ``width`` columns of strings.

    Entry k of every column comes from record k + 1 of the file (the
    header is record 0); a blank row stays in place, as blank strings, for
    the caller to skip. Reading stops at the first non-blank row of another
    width, and that row's error is returned rather than raised, so the
    caller can first report a bad row above it.
    """
    fields: list[str] = []
    extend = fields.extend
    error = None
    try:
        for row in reader:
            if len(row) != width:
                if "".join(row).strip():
                    error = ParseError(
                        f"{path}:{_record_lines(path)[len(fields) // width + 1]}: "
                        f"expected {width} columns, got {len(row)}"
                    )
                    break
                row = [""] * width
            extend(row)
    except csv.Error as exc:
        raise ParseError(f"{path}:{_record_lines(path)[len(fields) // width + 1]}: {exc}") from exc
    return [fields[k::width] for k in range(width)], error


def _read_csv(path: Path) -> tuple[_Columns, bool]:
    header, reader = _csv_header(path)
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header line")
    names = [col.strip() for col in header]
    if names[:3] != ["investor", "stock", "amount"] or len(names) > 4 or (
        len(names) == 4 and names[3] != "sign"
    ):
        raise ParseError(
            f"{path}:1: header must be investor,stock,amount[,sign], got {header!r}"
        )
    has_sign = len(names) == 4
    columns, width_error = _csv_columns(path, reader, len(names))
    investors = list(map(str.strip, columns[0]))
    stocks = list(map(str.strip, columns[1]))
    records: Sequence[int] = range(1, len(investors) + 1)
    if "" in investors or "" in stocks:
        # a blank row has empty labels, so only then can there be one to drop
        keep = [k for k, row in enumerate(zip(*columns)) if "".join(row).strip()]
        records = [k + 1 for k in keep]
        columns = [[col[k] for k in keep] for col in columns]
        investors = [investors[k] for k in keep]
        stocks = [stocks[k] for k in keep]
    signs = list(map(str.strip, columns[3])) if has_sign else []
    try:
        amounts = np.fromiter(map(float, columns[2]), float, len(records))
    except ValueError:
        amounts = None
    if (
        amounts is None
        or "" in investors
        or "" in stocks
        or not set(signs) <= {"", "+", "-"}
        or not np.all(np.isfinite(amounts) & (amounts >= 0))
    ):
        starts = _record_lines(path)
        for record, *row in zip(records, *columns):
            _parse_row(row, has_sign, f"{path}:{starts[record]}")  # raises at the first bad row
    if width_error is not None:
        raise width_error
    if has_sign:
        legs = np.fromiter(map("-".__eq__, signs), np.intp, len(signs))
    else:
        legs = np.zeros(len(records), np.intp)
    return (investors, stocks, amounts, legs), has_sign


def _read_json(path: Path) -> tuple[_Columns, bool]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, list):
        raise ParseError(f"{path}: expected a JSON array of holdings records")
    columns: tuple[list, list, list, list] = ([], [], [], [])
    has_sign = False
    for pos, item in enumerate(payload, start=1):
        if not isinstance(item, dict) or not {"investor", "stock", "amount"} <= set(item):
            raise ParseError(
                f"{path}: record {pos} must carry investor, stock, and amount"
            )
        sign = item.get("sign")
        has_sign = has_sign or sign is not None
        row = [str(item["investor"]), str(item["stock"]), str(item["amount"])]
        if sign is not None:
            row.append(str(sign))
        parsed = _parse_row(row, sign is not None, f"{path}: record {pos}")
        for column, value in zip(columns, parsed):
            column.append(value)
    investors, stocks, amounts, legs = columns
    return (investors, stocks, np.array(amounts, float), np.array(legs, np.intp)), has_sign


def _parse_row(row: list[str], has_sign: bool, where: str) -> tuple[str, str, float, int]:
    """Validated ``(investor, stock, amount, leg)``; ``leg`` is 1 for a short row."""
    investor, stock = row[0].strip(), row[1].strip()
    if not investor or not stock:
        raise ParseError(f"{where}: empty investor or stock label")
    try:
        amount = float(row[2])
    except ValueError:
        raise ParseError(f"{where}: amount {row[2]!r} is not a number") from None
    if not math.isfinite(amount) or amount < 0:
        raise ParseError(f"{where}: amount must be finite and nonnegative, got {row[2]!r}")
    leg = 0
    if has_sign:
        sign = row[3].strip() or "+"
        if sign not in ("+", "-"):
            raise ParseError(f"{where}: sign must be + or -, got {row[3]!r}")
        leg = int(sign == "-")
    return investor, stock, amount, leg


def write_csv(matrix: OwnershipMatrix, path: str | Path) -> None:
    """Export normalized shares as an ingestible CSV, quoting labels as needed."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        # the minimal quoting leaves a carriage return bare, where it would end the row
        quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["investor", "stock", "amount"])
        for i, inv in enumerate(matrix.investor_labels):
            for j, stk in enumerate(matrix.stock_labels):
                value = float(matrix.entries[i, j])
                if value > 0:
                    row = [inv, stk, repr(value)]
                    (quoted if "\r" in inv + stk else writer).writerow(row)


def _read_vector(path: str | Path, labels: tuple[str, ...], kind: str) -> np.ndarray:
    """CSV of label,value pairs covering every active label exactly once."""
    path = Path(path)
    header, reader = _csv_header(path)
    if header is None or [c.strip() for c in header] != ["label", "value"]:
        raise ParseError(f"{path}:1: header must be label,value")
    (label_col, value_col), width_error = _csv_columns(path, reader, 2)
    seen: dict[str, float] = {}
    for record, (raw_label, value) in enumerate(zip(label_col, value_col), start=1):
        if not (raw_label + value).strip():
            continue
        label = raw_label.strip()
        if label in seen:
            raise ParseError(f"{path}:{_record_lines(path)[record]}: duplicate label {label!r}")
        try:
            seen[label] = float(value)
        except ValueError:
            raise ParseError(
                f"{path}:{_record_lines(path)[record]}: value {value!r} is not a number"
            ) from None
    if width_error is not None:
        raise width_error
    missing = [lab for lab in labels if lab not in seen]
    if missing:
        raise ParseError(f"{path}: missing {kind} value for {missing[0]!r}")
    extra = [lab for lab in seen if lab not in labels]
    if extra:
        raise ParseError(f"{path}: unknown {kind} label {extra[0]!r}")
    return np.array([seen[lab] for lab in labels])


def _read_partition(path: str | Path, matrix: OwnershipMatrix) -> Partition:
    """One group per line, comma-separated investor labels, quoted CSV-style as needed."""
    path = Path(path)
    reader = csv.reader(_read_text(path), skipinitialspace=True)
    groups = []
    next_line = 1  # where the next record starts; a quoted line break spans lines
    try:
        for tokens in reader:
            line, next_line = next_line, reader.line_num + 1
            if len(tokens) < 2 and not "".join(tokens).strip():
                continue
            members = []
            for token in tokens:
                label = token.strip()
                if not label:
                    raise ParseError(f"{path}:{line}: empty label in group")
                members.append(matrix.investor_index(label))
            groups.append(tuple(members))
    except csv.Error as exc:
        raise ParseError(f"{path}:{next_line}: {exc}") from exc
    if not groups:
        raise ParseError(f"{path}: no groups found")
    return Partition(tuple(groups))


# -- dashboard and reports ---------------------------------------------------


def dashboard(
    matrix: OwnershipMatrix,
    *,
    compute_psi: bool | None = None,
    max_budget: int = 64,
    seed: int = 0,
) -> Dashboard:
    """Assemble the six headline diagnostics from one matrix.

    ``compute_psi=None`` decides automatically from the label count.
    """
    return _dashboard(matrix, compute_psi, max_budget, seed)[0]


def _dashboard(
    matrix: OwnershipMatrix, compute_psi: bool | None, max_budget: int, seed: int
) -> tuple[Dashboard, DependenceReport]:
    """The dashboard and the dependence report it was built from."""
    summary = concentration_summary(matrix)
    dep = dependence_index(matrix)
    res = whiten(matrix)
    if compute_psi is None:
        compute_psi = matrix.n + matrix.m <= PSI_AUTO_LIMIT
    psi = certified = None
    reason = None
    if not compute_psi:
        reason = "disabled"
    else:
        try:
            score = sparsity_score(matrix, budget=max_budget, seed=seed)
            psi, certified = score.psi, score.certified
        except DegenerateRange as exc:
            reason = str(exc)
    return Dashboard(
        H_I=summary.investor_herfindahl,
        H_S=summary.stock_herfindahl,
        M=summary.micro,
        Psi=psi,
        X=dep.index,
        rho=res.rho,
        N_I=summary.effective_investors,
        N_S=summary.effective_stocks,
        N_M=summary.effective_cells,
        psi_certified=certified,
        psi_reason=reason,
    ), dep


def report(
    matrix: OwnershipMatrix,
    dash: Dashboard,
    contributions: DependenceReport,
    fmt: str = "text",
    seed: int = 0,
    flags: dict | None = None,
) -> str:
    """Serialize a full dashboard report; identical inputs, identical bytes."""
    marg = marginals(matrix)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "labels": {
            "investors": list(matrix.investor_labels),
            "stocks": list(matrix.stock_labels),
        },
        "marginals": {
            "p": [_round6(x) for x in marg.p],
            "s": [_round6(x) for x in marg.s],
        },
        "dashboard": {
            "H_I": _round6(dash.H_I),
            "H_S": _round6(dash.H_S),
            "M": _round6(dash.M),
            "Psi": _round6(dash.Psi),
            "X": _round6(dash.X),
            "rho": _round6(dash.rho),
            "N_I": _round6(dash.N_I),
            "N_S": _round6(dash.N_S),
            "N_M": _round6(dash.N_M),
        },
        "contributions": {
            "investor": [_round6(x) for x in contributions.investor_contributions],
            "stock": [_round6(x) for x in contributions.stock_contributions],
        },
        "certification": {"psi_certified": dash.psi_certified},
        "provenance": {"seed": seed, "flags": flags or {}},
    }
    if dash.psi_reason is not None:
        payload["dashboard"]["Psi_omitted"] = dash.psi_reason
    if fmt == "json":
        return _dump_json(payload)
    lines = ["metric  value"]
    for name in ("H_I", "H_S", "M", "Psi", "X", "rho", "N_I", "N_S", "N_M"):
        value = payload["dashboard"][name]
        shown = _fmt(value) if value is not None else f"undefined ({dash.psi_reason})"
        lines.append(f"{name:<7} {shown}")
    lines.append("")
    lines.append("dependence contributions")
    for lab, x in zip(matrix.investor_labels, contributions.investor_contributions):
        lines.append(f"  investor {lab:<12} {_fmt(x)}")
    for lab, x in zip(matrix.stock_labels, contributions.stock_contributions):
        lines.append(f"  stock    {lab:<12} {_fmt(x)}")
    lines.append("")
    lines.append(f"seed {seed}")
    return "\n".join(lines) + "\n"


def _round6(value) -> float | None:
    if value is None:
        return None
    return float(f"{float(value):.6g}")


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    lines: list[str] = []

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}{key}.", val) if isinstance(val, dict) else walk_leaf(
                    f"{prefix}{key}", val
                )
        else:
            walk_leaf(prefix.rstrip("."), obj)

    def walk_leaf(name: str, val) -> None:
        if isinstance(val, list):
            shown = " ".join(_fmt(x) for x in val)
        else:
            shown = _fmt(val)
        lines.append(f"{name:<28} {shown}")

    walk("", payload)
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def _headline_payload(delta: OperationDelta) -> dict:
    def block(values) -> dict:
        return {
            "H_I": _round6(values.investor_herfindahl),
            "H_S": _round6(values.stock_herfindahl),
            "M": _round6(values.micro),
            "X": _round6(values.dependence),
        }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "before": block(delta.before),
        "after": block(delta.after),
        "predicted_after": block(delta.predicted_after),
    }
    if delta.dropped_investors:
        payload["dropped_investors"] = list(delta.dropped_investors)
    return payload


def _cmd_dashboard(args) -> str:
    matrix = ingest(args.file, args.input_format)
    dash, dep = _dashboard(matrix, args.psi, args.max_budget, args.seed)
    flags = {
        "psi": args.psi,
        "max_budget": args.max_budget,
        "format": args.format,
        "input_format": args.input_format,
    }
    return report(matrix, dash, dep, args.format, args.seed, flags)


def _cmd_decompose(args) -> str:
    matrix = ingest(args.file, args.input_format)
    marg = marginals(matrix)
    dec = micro_decomposition(matrix)
    dep = dependence_index(matrix)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "investors": [
            {
                "label": lab,
                "mass": _round6(marg.p[i]),
                "portfolio_concentration": _round6(dec.portfolio_concentration[i]),
                "dependence_contribution": _round6(dep.investor_contributions[i]),
            }
            for i, lab in enumerate(matrix.investor_labels)
        ],
        "stocks": [
            {
                "label": lab,
                "mass": _round6(marg.s[j]),
                "owner_concentration": _round6(dec.owner_concentration[j]),
                "dependence_contribution": _round6(dep.stock_contributions[j]),
            }
            for j, lab in enumerate(matrix.stock_labels)
        ],
    }
    if args.format == "json":
        return _dump_json(payload)
    lines = ["side     label        mass     conc     dependence"]
    for row in payload["investors"]:
        lines.append(
            f"investor {row['label']:<12} {_fmt(row['mass']):<8} "
            f"{_fmt(row['portfolio_concentration']):<8} {_fmt(row['dependence_contribution'])}"
        )
    for row in payload["stocks"]:
        lines.append(
            f"stock    {row['label']:<12} {_fmt(row['mass']):<8} "
            f"{_fmt(row['owner_concentration']):<8} {_fmt(row['dependence_contribution'])}"
        )
    return "\n".join(lines) + "\n"


def _cmd_psi(args) -> str:
    matrix = ingest(args.file, args.input_format)
    score = sparsity_score(matrix, budget=args.max_budget, seed=args.seed)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "psi": _round6(score.psi),
            "m_min": _round6(score.m_min),
            "m_max": _round6(score.m_max),
            "m_observed": _round6(score.m_observed),
            "certified": score.certified,
        },
        args.format,
    )


def _cmd_shock(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = _read_vector(args.shocks, matrix.investor_labels, "investor")
    result = fire_sale(matrix, delta)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "severity": _round6(result.severity),
            "parallel_term": _round6(result.parallel_term),
            "perp_term": _round6(result.perp_term),
            "bound": _round6(result.bound),
            "impact": {
                lab: _round6(result.impact[j])
                for j, lab in enumerate(matrix.stock_labels)
            },
        },
        args.format,
    )


def _cmd_alpha(args) -> str:
    matrix = ingest(args.file, args.input_format)
    returns = _read_vector(args.returns, matrix.stock_labels, "stock")
    result = active_variance(
        matrix, returns, project=args.project_returns, dispersion=args.dispersion
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "variance": _round6(result.variance),
        "worst_case_bound": _round6(result.worst_case_bound),
        "alpha": {
            lab: _round6(result.alpha[i])
            for i, lab in enumerate(matrix.investor_labels)
        },
    }
    if result.isotropic_capacity is not None:
        payload["isotropic_capacity"] = _round6(result.isotropic_capacity)
    return _render(payload, args.format)


def _cmd_merge(args) -> str:
    matrix = ingest(args.file, args.input_format)
    try:
        tokens = next(csv.reader([args.pair], skipinitialspace=True))
        first, second = (tok.strip() for tok in tokens)
    except (ValueError, csv.Error):
        raise ParseError(f"--pair expects two comma-separated labels, got {args.pair!r}") from None
    delta = merge_investors(
        matrix, matrix.investor_index(first), matrix.investor_index(second)
    )
    return _render(_headline_payload(delta), args.format)


def _cmd_drop_stock(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = remove_stock(matrix, matrix.stock_index(args.stock))
    return _render(_headline_payload(delta), args.format)


def _cmd_dilute(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = dilute(matrix, args.mass)
    return _render(_headline_payload(delta), args.format)


def _cmd_aggregate(args) -> str:
    matrix = ingest(args.file, args.input_format)
    partition = _read_partition(args.groups, matrix)
    split = aggregate(matrix, partition)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "between": _round6(split.between),
            "within": _round6(split.within),
            "total": _round6(split.between + split.within),
            "groups": list(split.merged.investor_labels),
        },
        args.format,
    )


def _cmd_family(args) -> str:
    if args.kind == "2x2":
        if args.a is None or args.b is None:
            raise ParseError("family 2x2 needs --a and --b")
        fam = family_2x2(args.a, args.b)
        mat_min = transport_matrix_2x2(args.a, args.b, fam.x_min_constrained)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "interval": [_round6(fam.interval[0]), _round6(fam.interval[1])],
            "x_star": _round6(fam.x_star),
            "x_min_constrained": _round6(fam.x_min_constrained),
            "m_min": _round6(float(np.sum(mat_min * mat_min))),
        }
        return _render(payload, args.format)
    if args.t is None:
        raise ParseError("family nonid needs --t")
    matrix, micro_formula, dependence_formula = nonid_family(args.t)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "entries": [[_round6(x) for x in row] for row in matrix.entries],
            "M": _round6(micro_formula),
            "X": _round6(dependence_formula),
        },
        args.format,
    )


def _cmd_renyi(args) -> str:
    matrix = ingest(args.file, args.input_format)
    summary = renyi_summary(matrix, args.alpha)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "alpha": _round6(summary.alpha),
            "H_I_alpha": _round6(summary.investor_power_sum),
            "H_S_alpha": _round6(summary.stock_power_sum),
            "M_alpha": _round6(summary.micro_power_sum),
            "N_I_alpha": _round6(summary.effective_investors),
            "N_S_alpha": _round6(summary.effective_stocks),
            "N_M_alpha": _round6(summary.effective_cells),
        },
        args.format,
    )


def _cmd_signed(args) -> str:
    book = ingest(args.file, args.input_format, signed=True)
    value = signed_dependence(book)
    return _render(
        {
            "schema_version": SCHEMA_VERSION,
            "eta": _round6(book.net_exposure),
            "X_signed": _round6(value),
            "gross_marginals": {
                "p": [_round6(x) for x in book.gross_investor_marginals],
                "s": [_round6(x) for x in book.gross_stock_marginals],
            },
            "net_marginals": {
                "p": [_round6(x) for x in book.net_investor_marginals],
                "s": [_round6(x) for x in book.net_stock_marginals],
            },
        },
        args.format,
    )


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holdscan",
        description="Concentration, dependence, and transmission diagnostics "
        "for holdings matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_file: bool = True) -> None:
        if with_file:
            p.add_argument("file", help="holdings file (CSV or JSON records)")
            p.add_argument(
                "--input-format",
                choices=("csv", "json"),
                default="csv",
                help="holdings file format (default csv)",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format"
        )

    def add_search(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed for the maximum search")
        p.add_argument(
            "--max-budget", type=int, default=64, help="restarts for the maximum search"
        )

    p = sub.add_parser("dashboard", help="full six-number diagnostic dashboard")
    add_common(p)
    add_search(p)
    p.add_argument(
        "--psi",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the sparsity score on/off (default: auto by size)",
    )
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser("decompose", help="per-investor and per-stock contributions")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("psi", help="feasible-range sparsity score")
    add_common(p)
    add_search(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("shock", help="fire-sale impact of a liquidation shock")
    add_common(p)
    p.add_argument("--shocks", required=True, help="CSV of label,value liquidation rates")
    p.set_defaults(func=_cmd_shock)

    p = sub.add_parser("alpha", help="benchmark-relative active variance")
    add_common(p)
    p.add_argument("--returns", required=True, help="CSV of label,value excess returns")
    p.add_argument(
        "--project-returns",
        action="store_true",
        help="center returns on the capitalization weights first",
    )
    p.add_argument(
        "--dispersion",
        type=float,
        default=None,
        help="also report the isotropic capacity at this dispersion scale",
    )
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("merge", help="merge two investors")
    add_common(p)
    p.add_argument("--pair", required=True, help="two investor labels, comma-separated")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("drop-stock", help="remove a stock and renormalize")
    add_common(p)
    p.add_argument("--stock", required=True, help="stock label to remove")
    p.set_defaults(func=_cmd_drop_stock)

    p = sub.add_parser("dilute", help="add a market-weight investor")
    add_common(p)
    p.add_argument("--mass", type=float, required=True, help="mass of the new investor in (0,1)")
    p.set_defaults(func=_cmd_dilute)

    p = sub.add_parser("aggregate", help="between/within dependence split")
    add_common(p)
    p.add_argument(
        "--groups", required=True, help="partition file: one comma-separated group per line"
    )
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("family", help="closed-form 2x2 families")
    p.add_argument("kind", choices=("2x2", "nonid"))
    p.add_argument("--a", type=float, default=None, help="first marginal mass (2x2)")
    p.add_argument("--b", type=float, default=None, help="second marginal mass (2x2)")
    p.add_argument("--t", type=float, default=None, help="free cell (nonid)")
    add_common(p, with_file=False)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("renyi", help="power-sum concentration of one order")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True, help="power-sum order")
    p.set_defaults(func=_cmd_renyi)

    p = sub.add_parser("signed", help="gross-whitened dependence of a signed book")
    add_common(p)
    p.set_defaults(func=_cmd_signed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
