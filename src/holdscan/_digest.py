"""The digest of a holdings file's bytes, which ``cli.ingest`` keys its kept book by.

A file is cut into W parts, W the CPUs this process may run on and at most
one per ``_PART`` bytes (one part at least), which W threads hash at once;
its key is the SHA-256 of W and of each part's offset, byte count and
SHA-256. Without ``os.preadv`` or ``os.O_NONBLOCK`` no file gets a key. A
module of its own, so ``hashlib`` loads with the first read.
"""

from __future__ import annotations

import hashlib
import os
import stat
import threading
from contextlib import suppress

#: Bytes hashed at a time through one reused buffer, and the fewest bytes in a part of two or more.
_CHUNK, _PART = 1 << 18, 1 << 20


def regular_file_sha256(path: str | os.PathLike) -> bytes | None:
    """The digest of the bytes of the regular file at ``path``, or None.

    None when ``path`` names anything else or cannot be read. A pipe or a
    FIFO is never opened, so nothing is taken from it: the path is checked
    first, and the opened file again, which is opened without blocking.
    """
    if not (hasattr(os, "preadv") and hasattr(os, "O_NONBLOCK")):
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb", buffering=0) as handle:
            status = os.fstat(fd := handle.fileno())
            if not stat.S_ISREG(status.st_mode):
                return None
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            parts = max(1, min(cpus, status.st_size // _PART))
            starts, hashed = [status.st_size * k // parts for k in range(parts)] + [None], [None] * parts
            def hash_part(k: int) -> None:
                with suppress(OSError):  # leaves hashed[k] None
                    hashed[k] = _hashed(fd, *starts[k:k + 2])
            threads = [threading.Thread(target=hash_part, args=(k,)) for k in range(1, parts)]
            try:
                for thread in threads:
                    thread.start()
                hash_part(0)
            finally:
                for thread in filter(threading.Thread.is_alive, threads):
                    thread.join()
            if None in hashed:
                return None
            tree = b"".join(s.to_bytes(8, "big") + n.to_bytes(8, "big") + d for s, n, d in hashed)
            return hashlib.sha256(parts.to_bytes(8, "big") + tree).digest()
    except (OSError, RuntimeError):  # RuntimeError: a thread could not start
        return None


def _hashed(fd: int, start: int, end: int | None) -> tuple[int, int, bytes]:
    """Offset, byte count and SHA-256 of the bytes of ``fd`` from ``start`` to ``end`` or EOF."""
    digest, view, offset = hashlib.sha256(), memoryview(bytearray(_CHUNK)), start
    while size := os.preadv(fd, [view[:_CHUNK if end is None else min(_CHUNK, end - offset)]], offset):
        digest.update(view[:size])
        offset += size
    return start, offset - start, digest.digest()
