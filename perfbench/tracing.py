"""Span recording around calls into maxleaf's public functions.

The tracer replaces a function in the namespace of the module that calls it
(for example ``maxleaf.cli.parse``, which is what ``cmd_certify`` looks up),
so a span appears exactly when the program really makes that call.  Spans are
kept in memory as flat tuples and written out once, when the run ends.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the id of the operation it belongs
to.  A layer's self time is its duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = "op"


class Tracer:
    """Records spans and exact counters; wrap() installs, restore() removes."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []
        self.op: int | None = None
        # count hooks run when the op has ended, so their cost is in no span
        self._pending: list[tuple] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr with a span-recording wrapper named `name`.

        count(counters, args, result) runs in take_counters(), after the op.
        """
        fn = getattr(module, attr)
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                pending.append((count, args, return_value))
            return return_value

        setattr(module, attr, wrapper)
        self._wrapped.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._wrapped):
            setattr(module, attr, fn)
        self._wrapped.clear()

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as operation `op` under a root span."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, op)
            self.op = None

    def take_counters(self) -> dict[str, int]:
        """Exact counters of the op just run, from its calls' return values."""
        counters: dict[str, int] = defaultdict(int)
        for count, args, result in self._pending:
            count(counters, args, result)
        self._pending.clear()
        return dict(counters)


def self_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Total self seconds and call count per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        busy[name] += end - start - child_time[i]
        calls[name] += 1
    return dict(busy), dict(calls)


def write_spans(path, spans: list[tuple]) -> None:
    """One tab-separated line per span: op, index, parent, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\tindex\tparent\tname\tstart_s\tend_s\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
