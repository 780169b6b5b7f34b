"""In-memory spans and counters placed around the benchmark's calls into fogctl.

A span records its name, start, end, parent span and pass id. The layer of a
span is the part of its name before the first dot (``simulator.run`` belongs
to ``simulator``); the root span of each pass is ``bench.pass``. Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counts when enabled; costs one branch when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.pass_id = None
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counts = defaultdict(Counter)  # pass id -> name -> count
        self.peaks = defaultdict(Counter)  # pass id -> name -> bytes
        self._stack = []

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _peak(self, name: str):
        tracemalloc.start()
        try:
            yield
        finally:
            used = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks = self.peaks[self.pass_id]
            peaks[name] = max(peaks[name], used)

    def peak(self, name: str):
        """Peak bytes the enclosed call allocates, largest per name and pass.

        tracemalloc runs only inside this block: it slows every allocation,
        and pure-Python layers allocate often enough to skew their times.
        """
        if not self.enabled:
            return contextlib.nullcontext()
        return self._peak(name)

    def count(self, name: str, k: int = 1) -> None:
        if self.enabled:
            self.counts[self.pass_id][name] += k

    def fn_seconds(self, pass_id: int) -> Counter:
        """Total duration per span name within one pass."""
        out = Counter()
        for name, start, end, _, pid in self.spans:
            if pid == pass_id:
                out[name] += end - start
        return out

    def self_seconds(self, pass_id: int) -> Counter:
        """Self time per layer: span duration minus its direct children's."""
        child = Counter()
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in spans:
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return out

    def write(self, path, meta: dict) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
        counts = {str(k): dict(v) for k, v in self.counts.items()}
        peaks = {str(k): dict(v) for k, v in self.peaks.items()}
        path.write_text(json.dumps(
            {"meta": meta, "spans": spans, "counts": counts, "peak_bytes": peaks}) + "\n")
