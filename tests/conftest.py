import os
import tracemalloc

# OpenBLAS sizes its thread pool when numpy is first loaded, so BLAS is
# pinned to one thread, as bench/run.py pins it, before numpy is imported.
# On a busy 2-core host a dense SVD was seen to run ten times slower on two.
os.environ.update(
    {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import holdscan as hs  # noqa: E402

GOLDEN_RAW = [[30.0, 10.0], [5.0, 25.0], [15.0, 15.0]]

#: The golden book as a holdings CSV.
GOLDEN_CSV = """investor,stock,amount
inv1,stk1,30
inv1,stk2,10
inv2,stk1,5
inv2,stk2,25
inv3,stk1,15
inv3,stk2,15
"""


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, such as a search worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


def use_workers(monkeypatch, count):
    """Share every search's restarts and every scan's reads among ``count`` processes.

    Fewer if there are fewer restarts or reads.
    """
    import holdscan._fork as fork

    monkeypatch.setattr(fork, "worker_count", lambda tasks: min(count, tasks))


def count_forks(monkeypatch):
    """Count the children ``os.fork`` makes; the list of their pids."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork(monkeypatch):
    def refused():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", refused)


@pytest.fixture
def reads_afresh(monkeypatch):
    """Every ``cli.ingest`` of the test reads its file, as if no call before had kept a book."""
    cli = hs.cli
    ingest = cli.ingest

    def afresh(*args, **kwargs):
        monkeypatch.setattr(cli, "_kept", None)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest", afresh)


def count_reads(monkeypatch):
    """The paths that ``cli.ingest`` reads from their files, in order; a kept book adds none."""
    cli = hs.cli
    reads = []
    read = cli._read_book

    def counted(path, *args):
        reads.append(path)
        return read(path, *args)

    monkeypatch.setattr(cli, "_read_book", counted)
    return reads


def assert_same_to_the_printed_digit(a, b):
    """Two numbers printed at 6 significant digits differ by at most one unit in the 6th."""
    size = max(abs(a), abs(b))
    unit = 10.0 ** (np.floor(np.log10(size)) - 5) if size else 0.0
    assert abs(a - b) <= unit * (1 + 1e-9), (a, b)


@pytest.fixture
def golden() -> hs.OwnershipMatrix:
    """3x2 worked holdings book used across the suite."""
    return hs.normalize(GOLDEN_RAW, ["inv1", "inv2", "inv3"], ["stk1", "stk2"])


@pytest.fixture
def golden_csv(tmp_path):
    """The golden book written as ``golden.csv``."""
    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV, encoding="utf-8")
    return path


def random_active(rng: np.random.Generator, n: int, m: int) -> hs.OwnershipMatrix:
    """Strictly positive random share matrix (every row/column active)."""
    return hs.normalize(rng.random((n, m)) + 1e-3)


#: Investor b holds 1e-10 of each stock; dropping s2 leaves it a cell in s1.
SMALL_HOLDER_CSV = "investor,stock,amount\na,s1,1\na,s2,1\nb,s1,1e-10\nb,s2,1e-10\nc,s1,1\n"


def small_holder_book(rng: np.random.Generator, n: int = 3000, m: int = 40) -> np.ndarray:
    """Raw holdings of three stocks per investor in which 1% of investors hold under 1e-10 each.

    The small holders hold over 2e-9 of the book between them, so a drop that
    lost them would leave the rest summing to under 1 - 2e-9, outside ``TOL_NORM``.
    """
    raw = np.zeros((n, m))
    for i in range(n):
        raw[i, rng.choice(m, 3, replace=False)] = rng.pareto(1.5, 3) + 1e-3
    small = rng.choice(n, n // 100, replace=False)
    share = rng.uniform(0.8e-10, 0.95e-10, (small.size, 1))
    raw[small] *= share * raw.sum() / raw[small].sum(axis=1, keepdims=True)
    return raw


def profiles(matrix: hs.OwnershipMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Dense oracle: row profiles (portfolio weights) and column profiles (owner shares).

    Row ``i`` of the first is investor ``i``'s portfolio as a probability
    vector over stocks; column ``j`` of the second is stock ``j``'s
    ownership as a probability vector over investors. Needs an active matrix.
    """
    entries = matrix.entries
    return entries / entries.sum(axis=1, keepdims=True), entries / entries.sum(axis=0, keepdims=True)


def spectral_identity_gap(matrix: hs.OwnershipMatrix) -> float:
    """Oracle: absolute gap between the dependence index and the whitened spectrum's tail.

    Both sides are equal in real arithmetic; the tail comes from LAPACK's SVD.
    """
    tail = float(np.sum(np.square(hs.whiten(matrix).singular_values[1:])))
    return abs(hs.dependence_index(matrix).index - tail)


def philox(seed: int) -> np.random.Generator:
    """Counter-based stream for reproducible, splittable Monte Carlo."""
    return np.random.Generator(np.random.Philox(key=seed))


def peak_bytes(operation, *args) -> int:
    """The peak of the memory that ``operation(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        operation(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def outcome(call, *args):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return "returns", call(*args)
    except Exception as exc:  # noqa: BLE001 - any exception is compared
        return type(exc), str(exc)
