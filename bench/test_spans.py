"""Tests for the trace arithmetic: parent links, self time, layer sums.

    python3 -m pytest bench/test_spans.py
"""

import json
from pathlib import Path

import pytest

import instrument
import run
from spans import Span, Tracer, layer_self_times, percentile, self_times, wrap


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _tree():
    """root [0,10] holds a [1,5] (holding b [2,4]), a zero-length c at 5
    and d [6,9]."""
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.open("root", "bench")
    clock.t = 1.0
    a = tr.open("a", "x")
    clock.t = 2.0
    b = tr.open("b", "y")
    clock.t = 4.0
    tr.close(b)
    clock.t = 5.0
    tr.close(a)
    c = tr.open("c", "y")
    tr.close(c)
    clock.t = 6.0
    d = tr.open("d", "x")
    clock.t = 9.0
    tr.close(d)
    clock.t = 10.0
    tr.close(root)
    return tr


def test_parent_links_follow_nesting():
    tr = _tree()
    parent = {s.name: s.parent for s in tr.spans}
    ids = {s.name: s.id for s in tr.spans}
    assert parent == {"root": None, "a": ids["root"], "b": ids["a"],
                      "c": ids["root"], "d": ids["root"]}
    assert tr.current() is None


def test_self_time_subtracts_children_nested_sibling_and_zero_length():
    tr = _tree()
    own = self_times(tr.spans)
    assert {s.name: own[s.id] for s in tr.spans} == {
        "root": 3.0, "a": 2.0, "b": 2.0, "c": 0.0, "d": 3.0}


def test_layer_self_times_account_for_the_root_span():
    tr = _tree()
    layers = layer_self_times(tr.spans)
    assert layers == {"bench": 3.0, "x": 5.0, "y": 2.0}
    assert sum(layers.values()) == tr.spans[0].duration


def test_overlapping_and_overhanging_children_count_once():
    spans = [Span(0, "p", "l", 0.0, 10.0),
             Span(1, "k1", "l", 2.0, 6.0, parent=0),
             Span(2, "k2", "l", 4.0, 7.0, parent=0),
             Span(3, "k3", "l", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_out_of_order_close_raises():
    tr = Tracer(FakeClock())
    outer = tr.open("outer", "l")
    tr.open("inner", "l")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_wrap_records_only_while_active_and_honours_hooks():
    clock = FakeClock()
    tr = Tracer(clock)

    def work(x):
        clock.t += 1.0
        return 2 * x

    traced = wrap(tr, work, "l.work", "l",
                  before=lambda t, args, kw: args[0] != 0,
                  after=lambda t, span, args, kw, res: span.attrs.update(r=res))
    assert traced(1) == 2 and tr.spans == []
    tr.active = True
    assert traced(0) == 0 and tr.spans == []       # skipped by before()
    assert traced(3) == 6
    (span,) = tr.spans
    assert (span.name, span.duration, span.attrs) == ("l.work", 1.0, {"r": 6})


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_benchmark_json_lists_every_layer_metric_with_its_unit():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    emitted = set(instrument.layer_metrics(Tracer())) | set(run.REPORT_EXTRAS)
    assert set(declared) == emitted
    assert all(declared[k] == run.unit_of(k) for k in declared)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
