#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny books:

    python3 bench/selftest.py

1. Every workload runs traced and untraced; each run is correct and emits
   exactly the metrics BENCHMARK.json names, each with its unit.
2. The oracle accepts real reports and rejects deliberately corrupted
   ones, such as ``rho`` wrong in its 4th significant digit.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (first: it pins BLAS threads before numpy loads)
import books  # noqa: E402
import oracle  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def check_metrics(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in wanted.items():
            done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--tiny")
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: not correct: {done.stderr.strip()}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(names.items()))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    failures.append(f"{where}: {name} = {m['value']!r}")


def _fourth_digit_off(value: float) -> float:
    """``value`` with its 4th significant digit moved by 3."""
    return value + 3 * 10 ** (math.floor(math.log10(abs(value))) - 3)


#: (workload, command, corruption of the parsed report) the oracle must reject.
CORRUPTIONS = [
    ("dashboard-psi", "dashboard", lambda out: out["dashboard"].update(rho=_fourth_digit_off(out["dashboard"]["rho"]))),
    ("dashboard-psi", "shock", lambda out: out.update(perp_term=_fourth_digit_off(out["perp_term"]))),
    ("dashboard-psi", "alpha", lambda out: out.update(isotropic_capacity=_fourth_digit_off(out["isotropic_capacity"]))),
    ("dashboard-psi", "psi", lambda out: out.update(m_max=out["m_observed"] * 0.99)),
    ("ingest-large", "decompose", lambda out: out["investors"][0].update(
        dependence_contribution=out["investors"][0]["dependence_contribution"] + 1e-3)),
    ("ingest-large", "merge", lambda out: out["after"].update(X=_fourth_digit_off(out["after"]["X"]))),
    ("ingest-large", "dilute", lambda out: out["predicted_after"].update(M=_fourth_digit_off(out["predicted_after"]["M"]))),
    ("ingest-large", "aggregate", lambda out: out.update(within=_fourth_digit_off(out["within"]))),
    ("ingest-large", "renyi", lambda out: out.update(N_M_alpha=_fourth_digit_off(out["N_M_alpha"]))),
]


def check_oracle(failures: list[str], work: Path) -> None:
    _, cli = run.import_cli()
    for workload in books.WORKLOADS:
        plan = books.generate(workload, 5, work / workload, tiny=True)
        for call in plan["calls"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(call["argv"])
            problems = oracle.check(call, out.getvalue())
            if code != 0 or problems:
                failures.append(f"oracle rejects a real {call['command']} report: {problems}")
        for name, command, corrupt in CORRUPTIONS:
            if name != workload:
                continue
            call = next(c for c in plan["calls"] if c["command"] == command)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(call["argv"])
            report = json.loads(out.getvalue())
            corrupt(report)
            if not oracle.check(call, json.dumps(report)):
                failures.append(f"oracle accepts a corrupted {command} report")


def check_bare_directory(failures: list[str], work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, "--workload", "dashboard-psi", "--seed", "1", "--seconds", "1", "--trace", "0")
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")


def main() -> int:
    failures: list[str] = []
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_metrics(failures)
        check_oracle(failures, work)
        check_bare_directory(failures, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
