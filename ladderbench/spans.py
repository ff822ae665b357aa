"""In-memory spans around the benchmark's calls into each layer.

A span is ``(id, layer, name, parent, start, end)``; the parent is the
span open on the same thread when it started.  Spans are kept in memory
and written out once, when the run ends.  A layer's self time is the sum
over its spans of the span's duration minus the part its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Spans:
    """Span recorder; with ``enabled=False`` every call is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, layer: str, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            sid = len(self.records)
            self.records.append({"id": sid, "layer": layer, "name": name,
                                 "parent": parent, "start": start,
                                 "end": end})
        return sid

    def span(self, layer: str, name: str, parent: int | None = None):
        """Context manager timing one call into *layer*; the parent is
        *parent*, else the span open on this thread."""
        return (self._span(layer, name, parent) if self.enabled
                else nullcontext())

    @contextmanager
    def _span(self, layer: str, name: str, parent: int | None):
        if parent is None:
            parent = self.current()
        sid = self.add(layer, name, time.perf_counter(), 0.0, parent)
        stack = self._stack()
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.records[sid]["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span."""
        children: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(
                    (r["start"], r["end"]))
        out: dict[str, float] = {}
        for r in self.records:
            covered, reach = 0.0, r["start"]
            for s, e in sorted(children.get(r["id"], [])):
                s, e = max(s, reach), min(e, r["end"])
                if e > s:
                    covered += e - s
                    reach = e
            own = r["end"] - r["start"] - covered
            out[r["layer"]] = out.get(r["layer"], 0.0) + own
        return out

    def overhead_s(self, probes: int = 5000) -> float:
        """What recording this run's spans cost: the measured cost of one
        span around an empty body, times the spans recorded."""
        scratch = Spans(True)
        t0 = time.perf_counter()
        for _ in range(probes):
            with scratch.span("bench", "probe"):
                pass
        return (time.perf_counter() - t0) / probes * len(self.records)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records))
