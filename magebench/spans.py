"""In-memory spans for the traced run.

A span records its name, start, end, parent span and op id.  Spans are
kept in per-thread lists while the benchmark runs and written out once at
the end.  The benchmark opens spans around its own calls into each
layer's public functions, and around layer functions it wraps with
:func:`wrap`; nothing inside ``src/`` is instrumented.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from typing import Any, Callable, Iterable

#: One finished span: (name, start_s, end_s, parent index or -1, op id).
Span = tuple[str, float, float, int, int]


class Tracer:
    """Collects spans from any number of threads while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lists: list[list[Any]] = []
        self._lists_lock = threading.Lock()

    def _thread_state(self) -> Any:
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.op = 0
            with self._lists_lock:
                self._lists.append(state.spans)
        return state

    def begin(self, name: str, op: int | None = None) -> int:
        """Open a span on this thread; returns a handle for :meth:`end`.

        A span given an ``op`` id is a root span and opens only while the
        tracer is enabled; any other span opens only inside a root span on
        the same thread, so an op is traced whole or not at all.  Returns
        -1 (and records nothing) otherwise.
        """
        state = self._thread_state()
        if op is not None:
            if not self.enabled:
                return -1
            state.op = op
        elif not state.stack:
            return -1
        parent = state.stack[-1] if state.stack else -1
        index = len(state.spans)
        state.spans.append([name, time.perf_counter(), 0.0, parent, state.op])
        state.stack.append(index)
        return index

    def end(self, handle: int) -> None:
        """Close the span ``handle`` opened by :meth:`begin` on this thread."""
        if handle < 0:
            return
        state = self._local
        state.spans[handle][2] = time.perf_counter()
        state.stack.pop()

    def record(self, name: str, start: float, end: float, op: int) -> None:
        """Add a finished root span whose times the caller measured.

        For ops that overlap on one thread (a window of futures), where
        nested begin/end pairs cannot describe them.
        """
        self._thread_state().spans.append([name, start, end, -1, op])

    def span(self, name: str, op: int | None = None) -> "_SpanContext":
        """``with tracer.span(name): ...``"""
        return _SpanContext(self, name, op)

    def spans(self) -> list[list[Span]]:
        """Finished spans, one list per thread (parents index that list)."""
        with self._lists_lock:
            return [[tuple(s) for s in spans] for spans in self._lists]

    def dump(self, path: str, extra: dict[str, Any]) -> None:
        """Write every span (times in µs from the first span) plus ``extra``."""
        threads = self.spans()
        origin = min((s[1] for spans in threads for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_us", "end_us", "parent", "op"],
                "threads": [
                    [[n, round((b - origin) * 1e6, 3),
                      round((e - origin) * 1e6, 3), p, o]
                     for n, b, e, p, o in spans]
                    for spans in threads
                ],
                **extra,
            }, handle)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_op", "_handle")

    def __init__(self, tracer: Tracer, name: str, op: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._op = op
        self._handle = -1

    def __enter__(self) -> None:
        self._handle = self._tracer.begin(self._name, self._op)

    def __exit__(self, *exc: object) -> None:
        self._tracer.end(self._handle)


def wrap(tracer: Tracer, owner: type, attr: str, name: str) -> Callable[[], None]:
    """Replace ``owner.attr`` with a version that records a span ``name``.

    Returns a function that restores the original.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        handle = tracer.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(handle)

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def durations(threads: Iterable[list[Span]], name: str,
              parent: tuple[str, ...] | None = None) -> list[float]:
    """Durations in seconds of spans called ``name``.

    ``parent`` keeps only spans whose direct parent has one of those names.
    """
    out = []
    for spans in threads:
        for span_name, start, end, parent_index, _ in spans:
            if span_name != name:
                continue
            if parent is not None and (
                    parent_index < 0 or spans[parent_index][0] not in parent):
                continue
            out.append(end - start)
    return out


def summary(threads: Iterable[list[Span]]) -> dict[str, dict[str, float]]:
    """Per span name: count, median duration and median self time (µs)."""
    by_name: dict[str, tuple[list[float], list[float]]] = {}
    for spans in threads:
        for span, own in zip(spans, self_times(spans)):
            totals, selfs = by_name.setdefault(span[0], ([], []))
            totals.append(span[2] - span[1])
            selfs.append(own)
    return {name: {"count": len(totals),
                   "p50_us": statistics.median(totals) * 1e6,
                   "self_p50_us": statistics.median(selfs) * 1e6}
            for name, (totals, selfs) in sorted(by_name.items())}


def p50(values: list[float]) -> float | None:
    """Median, or ``None`` for no samples."""
    return statistics.median(values) if values else None
