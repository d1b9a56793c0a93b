import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import holdscan as hs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, line", [
    ("demo_dashboard.py", "fixed-marginal range: [0.17, 0.3]"),
    ("range_vs_benchmark_sweep.py", "row and column marginals are (0.5, 0.5) at every t"),
])
def test_script_runs_to_its_known_line(tmp_path, name, line):
    # a copy, because the demo writes its book next to itself
    script = shutil.copy(SCRIPTS / name, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(hs.__file__).parents[1])}
    done = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()


def test_xl_probe_runs_every_command_at_a_tiny_shape(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(hs.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, SCRIPTS / "xl_probe.py", "--shape", "30", "20", "--cells", "120"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout)
    assert facts["shape"] == [30, 20] and facts["cells"] >= 120
    assert facts["small_holders"] == 1
    names = ["decompose", "dashboard --no-psi", "shock", "alpha", "drop-stock", "merge",
             "aggregate", "dilute", "renyi"]
    assert {name: run["exit"] for name, run in facts["commands"].items()} == dict.fromkeys(names, 0)
    # H_I, H_S and X summed from the written cells are the dashboard's at 6
    # digits, and so is between + within over 15 groups of two investors
    checks = facts["checks"]
    law = checks.pop("between + within")
    assert list(checks) == ["H_I", "H_S", "X"]
    for check in checks.values():
        assert check["agree"] and check["dashboard"] == float(f"{check['fsum']:.6g}")
    assert law["agree"] and law["dashboard"] == checks["X"]["dashboard"]
    # the same commands in order in one process, each printing what its own process printed
    calls = facts["one_process"]["calls"]
    assert list(calls) == names
    for name, call in calls.items():
        assert call["exit"] == 0 and call["wall_s"] >= 0
        assert call["stdout_sha256"] == facts["commands"][name]["stdout_sha256"]
    assert list(tmp_path.iterdir()) == []  # the book went with its temporary directory
