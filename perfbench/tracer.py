"""In-memory span tracer driven from outside the program.

The benchmark never edits the program to trace it.  Instead it replaces
a layer's public function (a module attribute or a class method) with a
wrapper from :meth:`Tracer.wrap` that records one span per call: its id,
the id of the span that caused it (the enclosing span on the same
thread), the layer name, and start and end times.  Spans stay in memory
and are written out when the run ends.

A layer's *self* time is its span's duration minus the time its child
spans cover, so the self times of all layers never overlap and, with an
explicit ``unattributed_s`` remainder, sum to the wall time of the run.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept per process; later spans still count toward the totals.
MAX_SPANS = 200_000


class Tracer:
    """Span recorder with per-layer self-time totals and event counts."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: layer -> seconds of self time
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> completed spans; other names -> event counts
        self.counts: Dict[str, int] = defaultdict(int)
        #: (id, parent id or 0, layer, start, end, thread id)
        self.spans: List[Tuple] = []
        self.dropped = 0

    def _stack(self) -> List[List]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``on_exit(result, args, kwargs)`` runs after a call that
        returned, outside the span, to record counts from the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]  # span id, child seconds
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(layer, frame, parent, start, end)
            if on_exit is not None:
                on_exit(result, args, kwargs)
            return result

        return traced

    def _close(self, layer, frame, parent, start, end) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        with self._lock:
            self.self_s[layer] += duration - frame[1]
            self.counts[layer] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    frame[0], parent[0] if parent is not None else 0,
                    layer, start, end, threading.get_ident(),
                ))
            else:
                self.dropped += 1

    def add_child_time(self, layer: str, seconds: float) -> None:
        """Charge ``seconds`` measured inside the current span to ``layer``.

        Used for callbacks too frequent to record one span each (the
        interpreter's per-step hook): their time is summed by the caller
        and subtracted from the enclosing span's self time here.
        """
        stack = self._stack()
        if stack:
            stack[-1][1] += seconds
        with self._lock:
            self.self_s[layer] += seconds

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def snapshot(self) -> Dict:
        """Totals and spans as plain JSON-friendly data."""
        with self._lock:
            return {
                "pid": self.pid,
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "spans": list(self.spans),
                "dropped": self.dropped,
            }

    def absorb(self, shard: Dict) -> None:
        """Add another process's totals (a worker shard) to this tracer."""
        with self._lock:
            for layer, seconds in shard["self_s"].items():
                self.self_s[layer] += seconds
            for name, n in shard["counts"].items():
                self.counts[name] += n
            room = max(0, MAX_SPANS - len(self.spans))
            self.spans.extend(tuple(s) for s in shard["spans"][:room])
            self.dropped += shard["dropped"] + max(
                0, len(shard["spans"]) - room
            )


def layer_table(rows: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """Layer rows plus the ``unattributed_s`` remainder, summing to wall."""
    table = {name: float(seconds) for name, seconds in rows.items()}
    table["unattributed_s"] = wall_s - sum(table.values())
    return table


def format_table(title: str, table: Dict[str, float], wall_s: float) -> str:
    lines = [f"{title}: traced wall {wall_s:.3f}s"]
    for name, seconds in sorted(
        table.items(), key=lambda kv: (kv[0] == "unattributed_s", -kv[1])
    ):
        share = 100.0 * seconds / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {name:<28} {seconds:10.4f}s {share:6.1f}%")
    lines.append(
        f"  {'sum':<28} {sum(table.values()):10.4f}s "
        f"{100.0 * sum(table.values()) / wall_s if wall_s > 0 else 0.0:6.1f}%"
    )
    return "\n".join(lines)
