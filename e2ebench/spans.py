"""Span recorder for the traced run: wall, CPU and virtual time per call.

Spans are recorded from outside the program.  :class:`Instrumenter`
replaces a class attribute (method, classmethod, staticmethod or
property), a module-level function under the name its caller looks it
up by, or a callable field of an instance with a timing wrapper, and
puts every original back on :meth:`Instrumenter.restore`.

Every span records its name, its parent span, the trace id of the
end-to-end operation it ran under, and start/end readings of three
clocks: ``time.perf_counter`` (wall), ``time.process_time`` (CPU) and
the store's virtual clock.  Spans stay in memory and are written out
by :meth:`SpanRecorder.dump` when the run ends.

Calls made once per row (``LatestVersionDedup.offer``,
``Aggregator.consume``) are *folded*: each call is timed, but only a
per-(parent, name) sum of calls and clocks is kept, so the dump stays
bounded.  Folded time still counts as child time of the enclosing span.

Self time is a span's duration minus the part of its interval covered
by its child spans (the union of the children's intervals, clipped to
the parent), minus its folded children.
"""

from __future__ import annotations

import gzip
import json
import time
import types
from contextlib import contextmanager

WALL, CPU, VIRTUAL = 0, 1, 2
CLOCKS = ("wall", "cpu", "virtual")

# Span record layout (a list, filled at start and at end).
_NAME, _PARENT, _TRACE, _W0, _C0, _V0, _W1, _C1, _V1 = range(9)


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, virtual_now=None, wall=time.perf_counter, cpu=time.process_time) -> None:
        self.virtual_now = virtual_now if virtual_now is not None else (lambda: 0.0)
        self.wall = wall
        self.cpu = cpu
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        # (parent index, name) -> [calls, wall_s, cpu_s]
        self.folded: dict[tuple[int, str], list] = {}
        self._stack: list[int] = []
        self._trace = 0
        self._next_trace = 0

    # -- recording -------------------------------------------------------

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, parent, self._trace,
             self.wall(), self.cpu(), self.virtual_now(),
             None, None, None]
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        record = self.spans[index]
        record[_V1] = self.virtual_now()
        record[_C1] = self.cpu()
        record[_W1] = self.wall()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {record[_NAME]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def operation(self, kind: str):
        """Root span of one end-to-end operation; opens a new trace id."""
        if self._stack:
            raise RuntimeError("operations cannot nest")
        self._next_trace += 1
        self._trace = self._next_trace
        try:
            with self.span(f"op.{kind}") as index:
                yield index
        finally:
            self._trace = 0

    def fold(self, name: str, wall_s: float, cpu_s: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        entry = self.folded.get((parent, name))
        if entry is None:
            self.folded[(parent, name)] = [1, wall_s, cpu_s]
        else:
            entry[0] += 1
            entry[1] += wall_s
            entry[2] += cpu_s

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- analysis --------------------------------------------------------

    def _check_closed(self) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")

    def durations(self) -> list[tuple[float, float, float]]:
        return [
            (s[_W1] - s[_W0], s[_C1] - s[_C0], s[_V1] - s[_V0]) for s in self.spans
        ]

    def self_times(self) -> list[list[float]]:
        """Per span: [wall, cpu, virtual] duration minus child coverage."""
        self._check_closed()
        children: dict[int, list[int]] = {}
        for index, record in enumerate(self.spans):
            if record[_PARENT] >= 0:
                children.setdefault(record[_PARENT], []).append(index)
        out = [list(d) for d in self.durations()]
        starts = (_W0, _C0, _V0)
        ends = (_W1, _C1, _V1)
        for parent, kids in children.items():
            record = self.spans[parent]
            for clock in (WALL, CPU, VIRTUAL):
                intervals = [
                    (self.spans[k][starts[clock]], self.spans[k][ends[clock]]) for k in kids
                ]
                out[parent][clock] -= covered_length(
                    intervals, record[starts[clock]], record[ends[clock]]
                )
        for (parent, _name), (_calls, wall_s, cpu_s) in self.folded.items():
            if parent >= 0:
                out[parent][WALL] -= wall_s
                out[parent][CPU] -= cpu_s
        return out

    def family_totals(self, names, self_times=None) -> dict[str, float]:
        """Sum over spans named in ``names`` (plus folded calls of them).

        ``inclusive_*`` counts only outermost family members, so a
        recursive or nested family is not counted twice; ``self_*`` sums
        every member's self time.  ``calls`` counts every member.
        """
        self._check_closed()
        names = frozenset(names)
        if self_times is None:
            self_times = self.self_times()
        inside = [False] * len(self.spans)
        totals = {
            "calls": 0, "inclusive_wall": 0.0, "inclusive_cpu": 0.0,
            "inclusive_virtual": 0.0, "self_wall": 0.0, "self_cpu": 0.0,
            "self_virtual": 0.0,
        }
        for index, record in enumerate(self.spans):
            parent = record[_PARENT]
            parent_inside = parent >= 0 and inside[parent]
            member = record[_NAME] in names
            inside[index] = member or parent_inside
            if not member:
                continue
            totals["calls"] += 1
            own = self_times[index]
            totals["self_wall"] += own[WALL]
            totals["self_cpu"] += own[CPU]
            totals["self_virtual"] += own[VIRTUAL]
            if not parent_inside:
                totals["inclusive_wall"] += record[_W1] - record[_W0]
                totals["inclusive_cpu"] += record[_C1] - record[_C0]
                totals["inclusive_virtual"] += record[_V1] - record[_V0]
        for (parent, name), (calls, wall_s, cpu_s) in self.folded.items():
            if name not in names:
                continue
            totals["calls"] += calls
            totals["self_wall"] += wall_s
            totals["self_cpu"] += cpu_s
            if not (parent >= 0 and inside[parent]):
                totals["inclusive_wall"] += wall_s
                totals["inclusive_cpu"] += cpu_s
        return totals

    def dump(self, path: str) -> None:
        """Write every span (with self times) and folded call as gzipped JSON."""
        own = self.self_times()
        spans = [
            {
                "id": index,
                "name": record[_NAME],
                "parent": record[_PARENT],
                "trace": record[_TRACE],
                "wall": [record[_W0], record[_W1]],
                "cpu": [record[_C0], record[_C1]],
                "virtual": [record[_V0], record[_V1]],
                "self": dict(zip(CLOCKS, own[index])),
            }
            for index, record in enumerate(self.spans)
        ]
        folded = [
            {"parent": parent, "name": name, "calls": calls, "wall_s": wall_s, "cpu_s": cpu_s}
            for (parent, name), (calls, wall_s, cpu_s) in sorted(self.folded.items())
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"spans": spans, "folded": folded, "counters": self.counters}, fh)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Instrumenter:
    """Installs timing wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap_method(self, cls: type, attr: str, name: str, *, fold=False, pre=None, post=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            wrapped = property(self._wrap(raw.fget, name, fold, pre, post), raw.fset, raw.fdel)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, fold, pre, post))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, fold, pre, post))
        else:
            wrapped = self._wrap(raw, name, fold, pre, post)
        self._set(cls, attr, wrapped, raw)

    def wrap_attribute(self, owner, attr: str, name: str, *, fold=False, pre=None, post=None):
        """Wrap a module-level function or a callable instance field."""
        raw = getattr(owner, attr)
        self._set(owner, attr, self._wrap(raw, name, fold, pre, post), raw)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            _setattr(owner, attr, raw)

    def _set(self, owner, attr: str, wrapped, raw) -> None:
        _setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _wrap(self, fn, name: str, fold: bool, pre, post):
        recorder = self.recorder
        perf_counter, process_time = recorder.wall, recorder.cpu
        if fold:
            def folded(*args, **kwargs):
                w0, c0 = perf_counter(), process_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.fold(name, perf_counter() - w0, process_time() - c0)
            return folded

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            index = recorder.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if post is not None:
                post(recorder, args, kwargs, result, before)
            return result
        return traced


def _setattr(owner, attr: str, value) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # Instance fields of frozen dataclasses (registered codecs).
        object.__setattr__(owner, attr, value)
