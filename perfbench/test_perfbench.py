"""Tests of the benchmark's own arithmetic: self time, tail rule, tracing,
calibration."""

import types

import pytest

import calib
from spans import Tracer, outermost, self_times
from stats import doubling_ratio, tail


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: parent [0, 100]; 1 and 2 overlap, 3 is apart, 4 is a grandchild
    start = [0, 10, 20, 50, 12]
    end = [100, 30, 40, 60, 14]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == [100 - 30 - 10, 20 - 2, 20, 10, 2]


def test_self_time_clips_children_to_the_parent():
    assert self_times([10, 0, 15], [20, 12, 30], [-1, 0, 0]) == [10 - 2 - 5, 12, 15]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, count = tail(list(range(100, 0, -1)))
    assert (value, pct, count) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10

    value, pct, count = tail(list(range(1, 12)))
    assert (value, count) == (1, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_uses_the_max_with_ten_samples_or_fewer():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(list(range(10))) == (9, 100.0, 10)
    with pytest.raises(ValueError):
        tail([])


def test_doubling_ratio_compares_means_at_the_largest_size_and_half():
    assert doubling_ratio({100: [1, 9], 200: [2, 2, 5], 400: [9, 8, 10]}) == 3
    with pytest.raises(ValueError):
        doubling_ratio({100: [1], 300: [2]})


def test_outermost_counts_nested_spans_of_one_group_once():
    names = ["a", "b", "a", "c", "b"]
    parent = [-1, 0, 1, -1, 3]
    assert outermost(names, parent, frozenset({"a", "b"})) == [0, 4]


def test_tracer_records_parents_and_restores_what_it_wrapped():
    mod = types.SimpleNamespace()

    class Thing:
        def method(self):
            return mod.leaf() + 1

    mod.leaf = lambda: 1
    mod.outer = lambda: Thing().method() * 10
    original = (mod.leaf, mod.outer, Thing.__dict__["method"])
    seen = []
    tracer = Tracer(
        [("leaf", mod, "leaf"), ("outer", mod, "outer"),
         ("method", Thing, "method"), ("gone", mod, "missing")],
        hooks={"outer": seen.append})
    with tracer:
        tracer.op_id = 7
        assert mod.outer() == 20
    assert (mod.leaf, mod.outer, Thing.__dict__["method"]) == original
    assert tracer.names == ["outer", "method", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.op) == [7, 7, 7]
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))
    assert tracer.installed == {"leaf", "outer", "method"}
    assert seen == [20]


def test_clock_scales_raw_time_by_the_probes_around_the_call(monkeypatch):
    speeds = iter([1.0, 2.0, 4.0])  # seconds per kernel call, in probe order
    sizes = []

    def fake_probe(calls):
        sizes.append(calls)
        return next(speeds) * calib.REFERENCE_S

    monkeypatch.setattr(calib, "probe", fake_probe)
    clock = calib.Clock()
    assert sizes == [calib.MIN_CALLS, calib.MAX_CALLS]
    result, raw, calibrated = clock.time(lambda: 42)
    assert result == 42
    # the probes around the call took 2 and 4 times REFERENCE_S per kernel
    # call, a host three times slower on average, so the calibrated time is a
    # third of the raw one
    assert calibrated == pytest.approx(raw / 3)
    assert sizes[-1] == calib.MIN_CALLS  # a short call gets a short probe


def test_clock_probes_afresh_after_a_call_that_raises(monkeypatch):
    sizes = []
    monkeypatch.setattr(calib, "probe", lambda calls: sizes.append(calls) or 1e-3)
    clock = calib.Clock()
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert len(sizes) == 3
