"""Spans timed from outside the library.

A span is recorded by replacing a function at the attribute where its caller
looks it up: ``cohortmetric.metric.spectral_embed`` is the binding that
``fit_weighted_metric`` calls, so wrapping ``cohortmetric.diffusion.
spectral_embed`` would record nothing. Spans stay in memory until the run
ends; each keeps its parent, so self time is the span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    phase: str  # "setup", "timed", "recommend" or "check"
    items: int = 0  # rows handled, where the call has rows (predict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans and counts around wrapped functions.

    ``phase`` is set by the workload and stamped on every span opened while
    it holds.
    """

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    phase: str = "setup"
    _open: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, owner, attr: str, name, observe=None, items=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``name`` is the span name, or a callable of the call's positional
        arguments that returns it. ``observe(tracer, args, kwargs, result)``
        records counts after a call returns; ``items(args)`` gives the row
        count stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent = tracer._open[-1] if tracer._open else -1
            index = len(tracer.spans)
            span = Span(span_name, time.perf_counter(), math.nan, parent,
                        tracer.phase, items(args) if items else 0)
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, value: float) -> None:
        """Append one observation to a per-call list (e.g. levels per tree)."""
        self.counts.setdefault(name, []).append(value)

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def of(self, name: str, phase: str | None = None) -> list[Span]:
        """Spans called ``name``, in the given phase when one is given."""
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        return [s.duration for s in self.of(name, phase)]

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict = {}
        for s, covered in zip(self.spans, child_time):
            agg = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += s.duration
            agg["self_s"] += s.duration - covered
            agg["calls"] += 1
        return out

    def child_share(self, name: str) -> float:
        """Share of the time in ``name`` spans covered by their direct children."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        total = sum(self.spans[i].duration for i in own)
        covered = sum(s.duration for s in self.spans if s.parent in own)
        return covered / total if total > 0 else math.nan

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "phase": s.phase, "items": s.items}
            for s in self.spans
        ]
