"""Self-test of the span recorder on a synthetic nested-span case.

Run with ``python3 e2ebench/test_spans.py`` (or under pytest).  The
traced benchmark run executes the same checks before it trusts its own
per-layer numbers.
"""

from __future__ import annotations

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import CPU, VIRTUAL, WALL, Instrumenter, SpanRecorder, covered_length  # noqa: E402


class ScriptedClock:
    """A clock that reads ``value`` and is moved by the test."""

    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


def _recorder():
    wall, cpu, virtual = ScriptedClock(), ScriptedClock(), ScriptedClock()

    def tick(w: float, c: float, v: float = 0.0) -> None:
        wall.value += w
        cpu.value += c
        virtual.value += v

    return SpanRecorder(virtual_now=virtual, wall=wall, cpu=cpu), tick


def test_nested_self_time_and_parents():
    rec, tick = _recorder()
    with rec.operation("put") as root:
        tick(1, 1, 0.5)
        with rec.span("A") as a:
            tick(2, 1, 1)
            with rec.span("B") as b:
                tick(3, 3, 2)
            tick(1, 1)
            with rec.span("C") as c:
                tick(1, 1)
                with rec.span("D") as d:
                    tick(4, 2, 4)
                tick(1, 1)
            rec.fold("row", 0.5, 0.25)
            tick(0.5, 0.25)
        tick(2, 2)
    with rec.operation("query") as second:
        with rec.span("A") as a2:
            tick(1, 1)

    parents = [record[1] for record in rec.spans]
    assert parents[root] == -1 and parents[second] == -1
    assert parents[a] == root and parents[b] == a and parents[c] == a
    assert parents[d] == c and parents[a2] == second
    traces = [record[2] for record in rec.spans]
    assert traces[root] == traces[a] == traces[b] == traces[c] == traces[d] == 1
    assert traces[second] == traces[a2] == 2

    own = rec.self_times()
    # A lasts 2+3+1+(1+4+1)+0.5 = 12.5 wall; children B (3) and C (6)
    # and the folded row call (0.5) leave 3.0.
    assert own[a][WALL] == 12.5 - 3 - 6 - 0.5
    assert own[a][CPU] == (1 + 3 + 1 + 4 + 0.25) - 3 - 4 - 0.25
    assert own[a][VIRTUAL] == 7 - 2 - 4
    assert own[c][WALL] == 2 and own[c][CPU] == 2
    assert own[d][WALL] == 4 and own[b][WALL] == 3
    assert own[root][WALL] == 1 + 2
    assert own[root][VIRTUAL] == 0.5

    family = rec.family_totals({"A"})
    assert family["calls"] == 2
    assert family["inclusive_wall"] == 12.5 + 1
    assert family["self_wall"] == 3.0 + 1
    folded = rec.family_totals({"row", "A"})
    assert folded["calls"] == 3
    assert folded["inclusive_wall"] == 12.5 + 1  # the fold lies inside A
    assert folded["self_wall"] == 3.0 + 1 + 0.5


def test_nested_family_counts_outermost_only():
    rec, tick = _recorder()
    with rec.span("X"):
        tick(1, 1)
        with rec.span("X"):
            tick(2, 2)
    totals = rec.family_totals({"X"})
    assert totals["calls"] == 2
    assert totals["inclusive_wall"] == 3
    assert totals["self_wall"] == 3


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2

    @property
    def prop(self):
        return 7


def test_instrumenter_wraps_and_restores():
    rec, tick = _recorder()
    module = types.ModuleType("fake")
    module.fn = lambda x: x - 1
    originals = (_Target.__dict__["method"], _Target.__dict__["build"], _Target.__dict__["prop"])
    inst = Instrumenter(rec)
    seen = []
    inst.wrap_method(_Target, "method", "T.method",
                     post=lambda r, args, kwargs, result, before: seen.append(result))
    inst.wrap_method(_Target, "build", "T.build")
    inst.wrap_method(_Target, "prop", "T.prop")
    inst.wrap_attribute(module, "fn", "fn", fold=True)
    target = _Target()
    with rec.operation("op"):
        assert target.method(1) == 2
        assert _Target.build(3) == 6
        assert target.prop == 7
        assert module.fn(5) == 4
    assert [record[0] for record in rec.spans] == ["op.op", "T.method", "T.build", "T.prop"]
    assert seen == [2]
    assert rec.family_totals({"fn"})["calls"] == 1
    inst.restore()
    assert (_Target.__dict__["method"], _Target.__dict__["build"], _Target.__dict__["prop"]) == originals
    assert module.fn.__name__ == "<lambda>"


def run_all() -> None:
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()


if __name__ == "__main__":
    run_all()
    print("span recorder self-test passed")
