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
