"""In-memory span recording by rebinding public functions.

A traced function is replaced, at the name its callers look it up by, with
a wrapper that appends one span per call: ``[name, start, end, parent,
request]``.  Times are `time.perf_counter` seconds; `parent` is the index
of the enclosing span or -1; a span without a parent starts a new request
id, which its descendants share.  Self time is a span's duration minus the
part of it that its direct children cover.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator, Sequence

# (args, kwargs, result) of a traced call, for counters kept beside spans.
Hook = Callable[[tuple, dict, object], None]

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records spans while installed; restores every rebinding on
    `uninstall`.  One tracer serves one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._requests = 0
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        spans, stack = self.spans, self._stack
        if stack:
            parent = stack[-1]
            request = spans[parent][REQUEST]
        else:
            parent, request = -1, self._requests
            self._requests += 1
        span = [name, time.perf_counter(), 0.0, parent, request]
        stack.append(len(spans))
        spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            span = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> None:
        """Rebind `owner.attr` (a module function or a class attribute,
        static methods included) to a traced wrapper."""
        original = vars(owner)[attr]
        traced = self.wrap(name, getattr(owner, attr), hook)
        setattr(owner, attr, staticmethod(traced) if isinstance(original, staticmethod) else traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: its duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Sequence]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[NAME]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def write_spans(path: str, spans: Sequence[Sequence]) -> None:
    """CSV of spans, times in ms relative to the first span's start."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("index", "name", "start_ms", "end_ms", "parent", "request"))
        for i, span in enumerate(spans):
            writer.writerow((
                i,
                span[NAME],
                f"{(span[START] - origin) * 1e3:.4f}",
                f"{(span[END] - origin) * 1e3:.4f}",
                span[PARENT],
                span[REQUEST],
            ))
