"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own files, around each call into a
public function of one of the package's layers. A span carries its name,
start, end, the span that opened it (its parent) and the operation it
belongs to (one Monte Carlo replication, one ``calibrate`` or one ``band``).
Self time is a span's duration minus the time its direct children cover,
divided by the slowdown of the reference kernel measured around the
operation (see reference.py) when the run recorded one.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    op: tuple
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


class Tracer:
    """Collects spans; ``op`` names the operation later spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: tuple = ()
        self.slowdown: dict[tuple, float] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), None if parent is None else parent.sid,
                  name, self.op, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += sp.end - sp.start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def per_op_self(self) -> dict[tuple, dict[str, float]]:
        """{op: {span name: summed normalized self time in seconds}}."""
        out: dict[tuple, dict[str, float]] = {}
        for sp in self.spans:
            by_name = out.setdefault(sp.op, {})
            by_name[sp.name] = (by_name.get(sp.name, 0.0)
                                + sp.self_time / self.slowdown.get(sp.op, 1.0))
        return out


def stage_ms(tracer: Tracer, stages: dict) -> dict[str, tuple[float, int]]:
    """Milliseconds of self time per operation for each stage, with the
    number of operations measured.

    ``stages`` maps a stage to ``(groups, span names)``. A stage sums the
    self time of its span names within one operation whose group (``op[0]``:
    a Monte Carlo cell, ``calibrate`` or ``band``) is in ``groups`` (any
    group when None). The median is taken over the operations of each group,
    then averaged over groups, so every cell of a study weighs the same.
    """
    per_op = tracer.per_op_self()
    out = {}
    for stage, (wanted, names) in stages.items():
        groups: dict = {}
        for op, by_name in per_op.items():
            if wanted is not None and op[0] not in wanted:
                continue
            hit = [by_name[n] for n in names if n in by_name]
            if hit:
                groups.setdefault(op[0], []).append(sum(hit))
        medians = [statistics.median(v) for v in groups.values()]
        count = sum(len(v) for v in groups.values())
        out[stage] = (1000.0 * statistics.fmean(medians) if medians
                      else float("nan"), count)
    return out
