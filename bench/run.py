#!/usr/bin/env python3
"""Closed-loop benchmark of the holdscan batch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; the library is imported from ``src/``.
One client in one process calls ``holdscan.cli.main(argv)`` in-process
with stdout captured, and makes the next call only after the previous
one returns. It starts no threads, and BLAS is pinned to one thread.

End-to-end times are reference seconds: each call's wall time rescaled by
a fixed pure-Python loop timed just before and after it (``speed.py``),
so that the host's drifting speed does not show as a change in the code.
The wall times are printed too. Per-layer times are wall seconds.

Each run:

1. generates the workload's books from the seed in a separate process
   (``bench/books.py``), so generator arrays stay out of the peak RSS;
2. with ``--trace 0``, times set-up (``import holdscan`` plus
   ``cli.build_parser()``) in fresh processes;
3. warms up on a tiny version of the workload;
4. repeats the workload's fixed call sequence (a pass) a fixed number of
   times, enough to fill ``S`` seconds at the seed commit's speed and at
   least one, checking every report with ``bench/oracle.py`` outside the
   timed span.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it skips the set-up timing, runs one untraced pass, then the traced
passes, and prints the per-layer metrics. The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# OpenBLAS sizes its thread pool when numpy is first loaded, so the pin
# is set before anything below imports numpy.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
from books import PASS_SECONDS_AT_SEED, WORKLOADS  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from speed import calibrate, scale  # noqa: E402

SETUP_REPEATS = 9
#: Run as ``python -c SETUP_PROBE BENCH_DIR`` with PYTHONPATH at ``src/``.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from speed import calibrate, scale\n"
    "before = calibrate()\n"
    "t = time.perf_counter()\n"
    "import holdscan\n"
    "from holdscan import cli\n"
    "cli.build_parser()\n"
    "seconds = time.perf_counter() - t\n"
    "print(seconds, scale(before, calibrate()), holdscan.__file__)\n"
)
CHILD_TIMEOUT_S = 300
#: A timing percentile is the highest with at least this many calls above it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_ENV)
    return env


def generate(workload: str, seed: int, out: Path, tiny: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "books.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    return json.loads((out / "plan.json").read_text(encoding="utf-8"))


def measure_setup() -> tuple[float, float]:
    """Median (reference, wall) seconds to import holdscan and build the CLI parser.

    Each sample is a fresh process.
    """
    samples = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH)], env=child_env(),
                              capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
        seconds, factor, origin = done.stdout.split(maxsplit=2)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up imported holdscan from {origin.strip()}, not {SRC}")
        if k:  # the first spawn fills the bytecode and file caches
            samples.append((float(seconds) * float(factor), float(seconds)))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def thread_count() -> int | None:
    """Threads of this process, where the OS lists them (Linux)."""
    tasks = Path("/proc/self/task")
    return len(list(tasks.iterdir())) if tasks.is_dir() else None


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the seed commit's speed, at least one.

    The count depends only on the workload and ``seconds``, never on how
    fast this run goes, so the number of timed calls, and with it the rank
    that ``call_tail_s`` reports, is the same on every commit.
    """
    return max(1, round(seconds / PASS_SECONDS_AT_SEED[workload]))


def import_cli():
    if not (SRC / "holdscan" / "__init__.py").is_file():
        raise BenchError(f"no holdscan package under {SRC}")
    sys.path.insert(0, str(SRC))
    import holdscan
    from holdscan import cli

    if not Path(holdscan.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported holdscan from {holdscan.__file__}, not {SRC}")
    return holdscan, cli


def run_pass(cli, calls: list[dict], tracer: Tracer | None = None) -> list[dict]:
    """Make each call after the previous returns; check reports untimed.

    The speed loop runs between calls, so each call has one before and one
    after it, and its reference seconds use their mean.
    """
    results = []
    before = calibrate()
    for idx, call in enumerate(calls):
        gc.collect()
        if tracer is not None:
            tracer.call_id = idx
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(call["argv"])
            except Exception as exc:  # a crash is a failed call, not a failed run
                code, err = None, io.StringIO(repr(exc))
            seconds = time.perf_counter() - start
        text = out.getvalue()
        if code != 0:
            problems = [f"exit {code}: {err.getvalue().strip()}"]
        else:
            problems = oracle.check(call, text)
        for problem in problems:
            print(f"FAIL {' '.join(call['argv'][:1])} book {call['book']}: {problem}", file=sys.stderr)
        after = calibrate()
        results.append({"seconds": seconds, "ref": seconds * scale(before, after),
                        "ok": not problems, "text": text})
        before = after
    return results


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND values above it: (value, pct, n)."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def timings(passes: list[list[dict]], key: str) -> dict[str, float]:
    """batch_s, call_p50_s and call_tail_s over the ``key`` seconds of each call."""
    calls = [r[key] for p in passes for r in p]
    return {
        "batch_s": statistics.median(sum(r[key] for r in p) for p in passes),
        "call_p50_s": statistics.median(calls),
        "call_tail_s": tail(calls)[0],
    }


def end_to_end(passes: list[list[dict]], setup: tuple[float, float]) -> dict:
    calls = [r for p in passes for r in p]
    _, pct, count = tail([r["seconds"] for r in calls])
    print(f"call_tail_s is p{pct:.1f} of {count} calls")
    wall = timings(passes, "seconds")
    wall["setup_s"] = setup[1]
    print("wall seconds, not rescaled: " + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()))
    return {
        **{name: (value, "s") for name, value in timings(passes, "ref").items()},
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (sum(r["ok"] for r in calls) / len(calls), "ratio"),
    }


def per_layer(holdscan, plan: dict, tracer: Tracer, traced: list[list[dict]], untraced: list[dict]) -> dict:
    calls, books = plan["calls"], plan["books"]
    ops = sum(len(p) for p in traced)
    totals = tracer.totals()
    grand = sum(row["self"] for row in totals.values())
    metrics = {}
    for name in SPAN_NAMES:
        row = totals[name]
        metrics[f"{name}.self_s"] = (row["self"] / len(traced), "s")
        metrics[f"{name}.calls_per_op"] = (row["calls"] / ops, "calls/op")
        if row["self"] > 0:
            print(f"self {name:<34} {100 * row['self'] / grand:6.2f}%  {row['calls'] / ops:.4f} calls/op")

    by_command: dict[str, set[int]] = {}
    for idx, call in enumerate(calls):
        by_command.setdefault(call["command"], set()).add(idx)
    for command, ids in by_command.items():
        rows = tracer.totals(ids)
        top = max(rows, key=lambda name: rows[name]["self"])
        share = rows[top]["self"] / sum(row["self"] for row in rows.values())
        print(f"{command} calls: {top} has {100 * share:.1f}% of their self time")

    def dashboard_spans(name: str) -> int:
        return sum(1 for s in tracer.spans if s[0] == name and calls[s[4]]["command"] == "dashboard")

    dashboards = dashboard_spans("cli.main")
    metrics["dependence.dependence_index.calls_per_dashboard"] = (
        dashboard_spans("dependence.dependence_index") / dashboards if dashboards else 0.0, "calls/op")

    ingests = [s for s in tracer.spans if s[0] == "cli.ingest"]
    rows = sum(books[calls[s[4]]["book"]]["rows"] for s in ingests)
    metrics["cli.ingest.rows_per_s"] = (rows / sum(s[2] - s[1] for s in ingests), "rows/s")

    psi = [(call, json.loads(r["text"])) for call, r in zip(calls, traced[-1])
           if call["command"] == "psi" and r["ok"]]
    certified = [call for call, out in psi if out["certified"]]
    metrics["transport.max_micro.certified_ratio"] = (len(certified) / len(psi) if psi else 0.0, "ratio")
    metrics["transport.max_micro.trees_enumerated"] = (float(sum(
        holdscan.vertex_count(books[c["book"]]["n"], books[c["book"]]["m"]) for c in certified)), "count")
    metrics["transport.max_micro.m_max_ratio"] = (statistics.fmean(
        out["m_max"] / min(call["expect"]["H_I"], call["expect"]["H_S"]) for call, out in psi
    ) if psi else 0.0, "ratio")

    traced_batch = statistics.median(sum(r["seconds"] for r in p) for p in traced)
    metrics["trace.overhead_s"] = (traced_batch - sum(r["seconds"] for r in untraced), "s")
    loc = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "holdscan").rglob("*.py"))
    metrics["src.loc"] = (float(loc), "lines")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the holdscan CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny books, for the self-test")
    args = parser.parse_args(argv)

    holdscan, cli = import_cli()
    threads = thread_count()
    if threads not in (None, 1):
        raise BenchError(f"the measuring process runs {threads} threads, expected 1")
    passes = pass_count(args.workload, args.seconds)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm = generate(args.workload, args.seed, work / "warm", tiny=True)
        plan = warm if args.tiny else generate(args.workload, args.seed, work / "main", tiny=False)
        setup = None if args.trace else measure_setup()

        warm_ok = all(r["ok"] for r in run_pass(cli, warm["calls"]))
        untraced = [run_pass(cli, plan["calls"])]
        traced: list[list[dict]] = []
        tracer = Tracer()
        if args.trace:
            tracer.install()
            try:
                traced = [run_pass(cli, plan["calls"], tracer) for _ in range(passes)]
            finally:
                tracer.uninstall()
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_file)
            print(f"spans written to {spans_file.relative_to(ROOT)}")
        else:
            untraced += [run_pass(cli, plan["calls"]) for _ in range(passes - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = untraced + traced
    attempted = sum(len(p) for p in measured)
    failed = sum(not r["ok"] for p in measured for r in p)
    digest = hashlib.sha256("".join(r["text"] for r in untraced[0]).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(plan['calls'])} calls, BLAS threads {BLAS_THREADS}, "
          f"process threads {threads}")
    print(f"outputs_sha256 {digest}")
    if args.trace:
        metrics = per_layer(holdscan, plan, tracer, traced, untraced[0])
    else:
        metrics = end_to_end(untraced, setup)
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
