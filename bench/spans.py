"""Spans around calls into the public functions of each holdscan module.

The tracer wraps functions from outside the library: it replaces every
binding of a traced function in every loaded ``holdscan`` module, because
``cli``, ``dynamics``, ``spectral``, ``comparative`` and the package
``__init__`` bind names such as ``whiten`` and ``dependence_index`` with
``from .x import y``; wrapping only the defining module would miss those
calls. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: (module, function) pairs whose calls are recorded as spans.
TRACED = (
    ("cli", "main"),
    ("cli", "ingest"),
    ("core", "normalize"),
    ("core", "marginals"),
    ("indices", "herfindahl"),
    ("indices", "micro_concentration"),
    ("indices", "concentration_summary"),
    ("indices", "micro_decomposition"),
    ("indices", "support_bounds"),
    ("dependence", "dependence_index"),
    ("dependence", "aggregate"),
    ("dependence", "merger_delta"),
    ("spectral", "whiten"),
    ("transport", "min_micro"),
    ("transport", "max_micro"),
    ("transport", "sparsity_score"),
    ("dynamics", "fire_sale"),
    ("dynamics", "active_variance"),
    ("dynamics", "isotropic_capacity"),
    ("comparative", "merge_investors"),
    ("comparative", "remove_stock"),
    ("comparative", "dilute"),
    ("comparative", "headline"),
    ("extensions", "renyi_summary"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Tracer:
    """Records (name, start, end, parent span, call id) for traced calls.

    ``call_id`` is set by the caller before each CLI call, so all spans of
    one call share it. Single-threaded: the open-span stack is plain state.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None, self.call_id])
            self._open.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[sid][1:3] = start, end

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in holdscan modules."""
        originals = [getattr(importlib.import_module(f"holdscan.{mod}"), fn) for mod, fn in TRACED]
        wrappers = {id(f): self._wrap(name, f) for name, f in zip(SPAN_NAMES, originals)}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "holdscan" or name.startswith("holdscan.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "call")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self, call_ids: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap. With
        ``call_ids``, only spans of those CLI calls count.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _, call), children in zip(self.spans, child_time):
            if call_ids is not None and call not in call_ids:
                continue
            row = out[name]
            row["calls"] += 1
            row["self"] += end - start - children
        return out
