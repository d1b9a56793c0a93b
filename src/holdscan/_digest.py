"""The SHA-256 of a holdings file's bytes, which ``cli.ingest`` keys its kept book by.

A module of its own, reached as ``hs._digest``, so that ``hashlib`` loads
with the first book read and not with the command line's set-up.
"""

from __future__ import annotations

import hashlib
import os
import stat
from pathlib import Path

#: Bytes hashed at a time, through one reused buffer.
_CHUNK = 1 << 18


def regular_file_sha256(path: str | Path) -> bytes | None:
    """The SHA-256 of the bytes of the regular file at ``path``, or None.

    None when ``path`` names anything else or cannot be read. A pipe or a
    FIFO is never opened, so nothing is taken from it: the path is checked
    first, and the opened file again, which is opened without blocking.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb", buffering=0) as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                return None
            digest, buffer = hashlib.sha256(), bytearray(_CHUNK)
            view = memoryview(buffer)
            while size := handle.readinto(buffer):
                digest.update(view[:size])
            return digest.digest()
    except OSError:
        return None
