"""Span tracing from outside the program, by wrapping the functions it calls.

A wrapper is installed on the attribute that the caller looks the function
up through: a module global for names imported with ``from x import y``, a
module attribute for ``ad.conv2d``-style calls, a class attribute for a
method.  Spans stay in memory until the run ends.  The program's code is not
changed; removing the wrappers restores the original objects.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int  # ns
    end: int    # ns
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self, targets, clock=time.perf_counter_ns):
        self.targets = list(targets)  # (owner, attribute, span name)
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self._clock(), 0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self._clock()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Per span name: call count, inclusive ns and self ns."""
    own = self_times(spans)
    out: dict[str, dict[str, int]] = {}
    for span, self_ns in zip(spans, own):
        entry = out.setdefault(span.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += span.end - span.start
        entry["self_ns"] += self_ns
    return out
