"""BLAS threads: the suite runs BLAS on one thread, and workers fork beside OpenBLAS's pool.

``conftest.py`` pins BLAS to one thread before numpy is loaded. The
library leaves the thread count alone, so a caller may run OpenBLAS's
pool threads when the Psi search or the scan forks its workers; the
forked-worker test below runs in a process that does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holdscan import cli

from test_transport import LOCAL_SEARCH_PINS, power_law_marginals

TASKS = Path("/proc/self/task")
needs_tasks = pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task to count threads")


@needs_tasks
def test_suite_runs_blas_on_one_thread():
    a = np.random.default_rng(0).random((300, 300))
    np.linalg.svd(a @ a)
    assert len(os.listdir(TASKS)) == 1


#: Run as ``python -c FORKING_CHILD CSV`` with the search's inputs as JSON on
#: stdin: one BLAS call on a two-thread pool, then a search and a scan, each
#: shared between two processes and then run in one. Prints its findings as JSON.
FORKING_CHILD = """
import hashlib, json, os, sys
import numpy as np
import holdscan as hs
from holdscan import _fork, cli

a = np.random.default_rng(0).random((300, 300))
np.linalg.svd(a @ a)
found = {"threads": len(os.listdir("/proc/self/task"))}
given = json.load(sys.stdin)
forks, fork = [], os.fork

def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

def columns():
    digest = hashlib.sha256()
    for column in cli._scan_csv(sys.argv[1])[0]:
        digest.update(repr(column).encode() if isinstance(column, list) else column.tobytes())
    book = cli._read_book(sys.argv[1], "csv", False)  # read by these workers, never kept
    digest.update(repr((book.investor_labels, book.stock_labels)).encode() + book.entries.tobytes())
    return digest.hexdigest()

os.fork = counted
for workers in (2, 1):
    _fork.worker_count = lambda tasks: min(workers, tasks)
    sol = hs.max_micro(hs.Marginals(np.array(given["p"]), np.array(given["s"])), given["budget"])
    found[workers] = {
        "search": [sol.objective.hex(), np.flatnonzero(sol.matrix > 0).tolist()],
        "scan": columns(),
        "forks": len(forks),
    }
try:
    os.waitpid(-1, os.WNOHANG)
    found["child_left"] = True
except ChildProcessError:
    found["child_left"] = False
print(json.dumps(found))
"""


@needs_tasks
def test_workers_fork_beside_openblas_pool_threads(tmp_path):
    n, m, budget, objective, support = LOCAL_SEARCH_PINS[1]
    assert budget == 64
    marg = power_law_marginals(0, n, m)
    rows = [f"i{i},s{j},{(i * 7 + j * 3) % 11 + 1}" for i in range(400) for j in range(250)]
    book = tmp_path / "book.csv"
    book.write_text("investor,stock,amount\n" + "\n".join(rows) + "\n", encoding="ascii")
    assert book.stat().st_size > cli._BLOCK
    threads = {var: "2" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    given = json.dumps({"p": marg.p.tolist(), "s": marg.s.tolist(), "budget": budget})
    done = subprocess.run([sys.executable, "-c", FORKING_CHILD, str(book)], input=given,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["threads"] > 1
    shared, alone = found["2"], found["1"]
    # in two processes one search worker and a scan worker for each of the
    # scan and the ingest forked; in one process none did
    assert shared["forks"] == alone["forks"] == 3
    assert shared["search"] == alone["search"] == [objective, support]
    assert shared["scan"] == alone["scan"]
    assert not found["child_left"]
