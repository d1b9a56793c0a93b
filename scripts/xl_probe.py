#!/usr/bin/env python3
"""Time the large-book commands on a seeded 13F-sized book, in fresh processes and in one.

    python3 scripts/xl_probe.py [--shape 6000 8000] [--cells 370000] [--seed 1] [--out DIR]

Writes a holdings CSV with one line per held cell, a shock vector over
the investors, a return vector over the stocks and a partition of the
investors into 50 groups (n // 2 below 100 investors, so every group
has members to split within), all without forming an n-by-m array. Investor and stock sizes follow the rank-size laws of
``bench/books.py`` (exponents 1.0 and 0.8, lognormal jitter); ``--cells``
cells are drawn uniformly, one more per investor and per stock keeps every
label active, and cells drawn twice merge. Then 1% of the investors (at
least one) are scaled down to hold under 1e-10 of the book each, as 13F
books have holders far below any absolute tolerance.

Then runs ``decompose``, ``dashboard --no-psi``, ``shock``, ``alpha
--project-returns --dispersion 0.02``, ``drop-stock`` on the largest
stock, ``merge`` of the two largest investors, ``aggregate`` over the
partition, ``dilute --mass 0.1`` and ``renyi --alpha 2``, each in a fresh
interpreter with BLAS pinned to one thread, and then all nine in order in
one such interpreter, as a batch caller of ``cli.main`` would. The
library is imported from the caller's ``PYTHONPATH``, so the same probe
measures any tree. Prints one JSON object: for each command in its own
process, its exit code, wall seconds, the peak RSS of the process and of
its children (forked workers) in MB, and the sha256 of its stdout; for
the one process, each call's exit code, wall seconds and stdout sha256,
and the process's peak RSS; and ``checks``, which holds H_I and H_S from
the marginals and X as a ``math.fsum`` over the held cells of
e^2 / (p_i s_j), minus 1, each beside the dashboard's value, and the
aggregation law: ``aggregate``'s between + within beside the dashboard's
X. Exits 1 if one of those is not the dashboard's at 6 significant
digits, or if a call in the one process printed other bytes than its own
process did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: Run in each fresh process: the command, then its own and its children's peak RSS.
_RUN = """
import resource, sys
from holdscan import cli
code = cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w") as out:
    out.write(" ".join(str(resource.getrusage(who).ru_maxrss)
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(code)
"""


#: Run in one fresh process: each command line of the JSON list ``sys.argv[2]``
#: in order, then each call's exit code, wall seconds and stdout digest.
_RUN_ALL = """
import contextlib, hashlib, io, json, resource, sys, time
from holdscan import cli
calls = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    calls.append({"exit": code, "wall_s": round(time.perf_counter() - start, 3),
                  "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})
with open(sys.argv[1], "w") as done:
    json.dump({"calls": calls, "maxrss_kib": [resource.getrusage(who).ru_maxrss
                                              for who in (resource.RUSAGE_SELF,
                                                          resource.RUSAGE_CHILDREN)]}, done)
"""

#: Each small holder holds a share of the book drawn from this range.
_SMALL_SHARE = (0.8e-10, 0.95e-10)

#: The investors are dealt into this many groups, or n // 2 below 100 investors.
_GROUPS = 50


def _rank_sizes(rng: np.random.Generator, count: int, exponent: float) -> np.ndarray:
    return (rng.permutation(count) + 1.0) ** -exponent * rng.lognormal(0.0, 0.25, count)


def _write_vector(path: Path, prefix: str, values: np.ndarray) -> None:
    path.write_text("label,value\n" + "".join(
        f"{prefix}{k},{x:.6g}\n" for k, x in enumerate(values.tolist())
    ), encoding="utf-8")


def write_book(out: Path, n: int, m: int, cells: int, seed: int) -> dict:
    """Write ``book.csv``, ``shocks.csv``, ``returns.csv`` and ``groups.txt``; return its facts."""
    rng = np.random.default_rng(seed)
    inv_size, cap = _rank_sizes(rng, n, 1.0), _rank_sizes(rng, m, 0.8)
    keys = np.unique(np.concatenate([
        rng.integers(0, n * m, cells),
        np.arange(n) * m + rng.integers(0, m, n),
        rng.integers(0, n, m) * m + np.arange(m),
    ]))
    rows, cols = np.divmod(keys, m)
    amounts = inv_size[rows] * cap[cols] * rng.lognormal(0.0, 1.0, keys.size)
    # the small holders: each is scaled to its drawn share of the others' total,
    # which the book's total exceeds, so each holds under 1e-10 of the book
    held = np.bincount(rows, amounts, minlength=n)
    small = rng.choice(n, max(1, n // 100), replace=False)
    scale = np.ones(n)
    scale[small] = rng.uniform(*_SMALL_SHARE, small.size) * (held.sum() - held[small].sum())
    scale[small] /= held[small]
    amounts *= scale[rows]
    text = [f"{x:.6g}" for x in amounts.tolist()]
    with open(out / "book.csv", "w", encoding="utf-8") as handle:
        handle.write("investor,stock,amount\n")
        handle.writelines(f"I{i},S{j},{t}\n" for i, j, t in zip(rows.tolist(), cols.tolist(), text))
    _write_vector(out / "shocks.csv", "I", rng.uniform(-0.5, 0.5, n))
    _write_vector(out / "returns.csv", "S", rng.normal(0.0, 0.02, m))
    groups = max(1, min(_GROUPS, n // 2))
    member = rng.permutation(n) % groups
    (out / "groups.txt").write_text("".join(
        ",".join(f"I{i}" for i in np.flatnonzero(member == g).tolist()) + "\n"
        for g in range(groups)
    ), encoding="utf-8")
    # the book as the file holds it, by plain sums over its cells
    e = np.array(text, dtype=float)
    e /= math.fsum(e.tolist())
    p, s = np.bincount(rows, e, minlength=n), np.bincount(cols, e, minlength=m)
    largest = np.argsort(-p, kind="stable")[:2].tolist()
    return {"shape": [n, m], "cells": int(keys.size), "seed": seed, "small_holders": small.size,
            "largest_investors": [f"I{i}" for i in sorted(largest)],
            "largest_stock": f"S{int(np.argmax(s))}",
            "fsum": {"H_I": math.fsum((p * p).tolist()), "H_S": math.fsum((s * s).tolist()),
                     "X": math.fsum((e * e / (p[rows] * s[cols])).tolist()) - 1.0}}


#: BLAS pinned to one thread, in every process the probe starts.
_ENV = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"), "1")}


def _mb(kib: int) -> float:
    return round(kib / 1024, 1)


def run(out: Path, argv: list[str]) -> tuple[dict, bytes]:
    """Run one command in a fresh process; its exit code, wall time, peak RSS and output digest.

    Returns them with the command's stdout.
    """
    usage = out / "rusage.txt"
    usage.unlink(missing_ok=True)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _RUN, str(usage), *argv], capture_output=True,
                          env=_ENV)
    wall = time.perf_counter() - start
    kib = [int(k) for k in usage.read_text().split()] if usage.exists() else [0, 0]
    return {
        "exit": done.returncode,
        "wall_s": round(wall, 3),
        "maxrss_mb": _mb(kib[0]),
        "children_maxrss_mb": _mb(kib[1]),
        "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
    }, done.stdout


def checks(summed: dict, dashboard: bytes | None, aggregate: bytes | None) -> dict:
    """Each headline index the probe summed against the dashboard's, which must be it at 6 digits.

    A value rounded to 6 significant digits is within 5e-6 of it, relative.
    Last, ``aggregate``'s between + within against the dashboard's X: both
    are rounded to 6 digits from values equal but for rounding, so they
    differ by at most one unit in the sixth digit, 1e-5 relative. A command
    that did not run agrees with nothing.
    """
    reported = json.loads(dashboard)["dashboard"] if dashboard else {}
    out = {
        name: {"fsum": value, "dashboard": reported.get(name),
               "agree": name in reported and abs(reported[name] - value) <= 5e-6 * abs(value)}
        for name, value in summed.items()
    }
    total, x = json.loads(aggregate)["total"] if aggregate else None, reported.get("X")
    out["between + within"] = {
        "aggregate": total, "dashboard": x,
        "agree": None not in (total, x) and abs(total - x) <= 1e-5 * abs(x),
    }
    return out


def run_all(out: Path, commands: dict[str, list[str]]) -> dict:
    """Run every command in order in one fresh process; each call's exit, wall time and digest."""
    report = out / "one_process.json"
    argvs = json.dumps(list(commands.values()))
    subprocess.run([sys.executable, "-c", _RUN_ALL, str(report), argvs], check=True, env=_ENV)
    done = json.loads(report.read_text())
    report.unlink()
    return {"calls": dict(zip(commands, done["calls"])), "maxrss_mb": _mb(done["maxrss_kib"][0]),
            "children_maxrss_mb": _mb(done["maxrss_kib"][1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", type=int, nargs=2, default=(6000, 8000), metavar=("N", "M"))
    parser.add_argument("--cells", type=int, default=370_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="keep the book here, not in a temporary directory")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        out = args.out or Path(scratch)
        out.mkdir(parents=True, exist_ok=True)
        facts = write_book(out, *args.shape, args.cells, args.seed)
        book = str(out / "book.csv")
        commands = {
            "decompose": ["decompose", book],
            "dashboard --no-psi": ["dashboard", book, "--no-psi"],
            "shock": ["shock", book, "--shocks", str(out / "shocks.csv")],
            "alpha": ["alpha", book, "--returns", str(out / "returns.csv"), "--project-returns",
                      "--dispersion", "0.02"],
            "drop-stock": ["drop-stock", book, "--stock", facts["largest_stock"]],
            "merge": ["merge", book, "--pair", ",".join(facts["largest_investors"])],
            "aggregate": ["aggregate", book, "--groups", str(out / "groups.txt")],
            "dilute": ["dilute", book, "--mass", "0.1"],
            "renyi": ["renyi", book, "--alpha", "2"],
        }
        commands = {name: [*argv, "--format", "json"] for name, argv in commands.items()}
        runs = {name: run(out, argv) for name, argv in commands.items()}
        facts["commands"] = {name: record for name, (record, _) in runs.items()}
        ran = {name: stdout for name, (record, stdout) in runs.items() if record["exit"] == 0}
        facts["checks"] = checks(facts.pop("fsum"), ran.get("dashboard --no-psi"),
                                 ran.get("aggregate"))
        (out / "rusage.txt").unlink(missing_ok=True)
        facts["one_process"] = run_all(out, commands)
    print(json.dumps(facts))
    failed = [f"{name} is not the dashboard's" for name, check in facts["checks"].items()
              if not check["agree"]]
    failed += [f"in one process, {name} printed other bytes than in its own"
               for name, call in facts["one_process"]["calls"].items()
               if call["stdout_sha256"] != facts["commands"][name]["stdout_sha256"]]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
