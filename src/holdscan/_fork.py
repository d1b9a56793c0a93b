"""Forked worker processes that pickle their results to the caller.

The Psi search shares its restarts among workers, and the scan of a large
plain CSV its byte ranges. The caller is worker 0; workers 1, ..., W - 1
are children forked with ``os.fork``, so they start from the caller's
memory, copy-on-write, and import nothing. A child pickles each result to
its own pipe as soon as it has it and leaves through ``os._exit``. Every
child is killed and reaped when the caller leaves ``forked``, however it
leaves. The callers import this module only when they may fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import BinaryIO, NoReturn

from .errors import InternalConsistencyError


def worker_count(tasks: int) -> int:
    """Processes that share ``tasks``.

    One per CPU this process may run on, at most one per task; only this
    process when it cannot fork or runs other Python threads, whose locks
    a forked child would inherit without the threads that hold them.
    """
    if tasks <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), tasks)
    return min(os.cpu_count() or 1, tasks)


@contextmanager
def forked(
    name: str, work: Callable[[int], Iterable[object]], workers: int
) -> Iterator[Callable[[int, str], object]]:
    """Fork workers 1, ..., ``workers`` - 1, each sending what ``work(worker)`` yields.

    Gives ``receive(worker, what)``: the worker's next result. A worker
    whose stream ends first is reaped, and ``receive`` raises
    ``InternalConsistencyError`` naming the ``name``d worker, its status and
    ``what`` it owed. On leaving, every child is killed and reaped: on a
    normal finish, an early stop and any exception, ``KeyboardInterrupt``
    included.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # worker -> (pid, pipe)

    def receive(worker: int, what: str) -> object:
        pid, pipe = children[worker]
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            del children[worker]
            pipe.close()
            status = _end(pid)
            raise InternalConsistencyError(
                f"{name} worker {worker} ended with status {status} before sending {what}"
            ) from None

    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(work, worker, write)
            os.close(write)
            children[worker] = pid, os.fdopen(read, "rb")
        yield receive
    finally:
        for pid, pipe in children.values():
            pipe.close()
            _end(pid)


def _serve(work: Callable[[int], Iterable[object]], worker: int, write: int) -> NoReturn:
    """In a forked worker: pickle each result of ``work(worker)`` to the pipe ``write``, then exit.

    The worker leaves through ``os._exit``, so it never flushes the stdio
    buffers or runs the exit handlers it inherited, and it leaves the pipe
    open until then: the reader sees the pipe end only once the status is
    final. Status 0 means every result was written.
    """
    status = 1
    try:
        pipe = os.fdopen(write, "wb")
        for result in work(worker):
            pickle.dump(result, pipe)
            pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _end(pid: int) -> int:
    """Kill and reap a worker; its exit code, or minus the signal that ended it."""
    os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
