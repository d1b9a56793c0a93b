"""How fast this host runs Python right now, for rescaling wall times.

A small cloud host's speed drifts: a fixed pure-Python loop here took from
25 to 35 ms in 10-second stretches of one 2-minute window, with CPU time
tracking wall time, and consecutive runs drifted together by 15-30%. The
library's hot paths (CSV ingest, Jacobi sweeps, the Psi search) run in the
interpreter, so the benchmark times this loop next to each measured span
and reports the span's wall time rescaled to the speed at which the loop
takes ``REFERENCE_S``. The loop is part of the benchmark, not the library,
so a change to the library moves the rescaled times exactly as it moves
the work.

Only ``time`` is imported, so the set-up probe can load this module before
it imports holdscan without loading anything holdscan needs.
"""

from __future__ import annotations

import time

LOOPS = 300_000
#: Seconds the loop takes at the reference speed: about its median on the
#: 2-vCPU x86-64 host where the seed commit's figures were taken.
REFERENCE_S = 0.030


def calibrate() -> float:
    """Seconds this host takes now for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds between two calibrations into reference seconds."""
    return 2.0 * REFERENCE_S / (before + after)
