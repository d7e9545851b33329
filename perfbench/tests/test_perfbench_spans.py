"""Span recording, self time and coverage."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children():
    spans = [
        span(0, "run", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 4.0, 8.0, parent=0),
        span(3, "b.inner", 5.0, 6.0, parent=2),
    ]
    selfs = common.self_times(spans)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_and_clips():
    spans = [
        span(0, "run", 0.0, 10.0),
        span(1, "x", 2.0, 6.0, parent=0),
        span(2, "y", 4.0, 12.0, parent=0),
    ]
    assert common.self_times(spans)[0] == pytest.approx(2.0)


def test_self_by_name_and_coverage():
    spans = [
        span(0, "chunk", 0.0, 4.0),
        span(1, "seal", 1.0, 2.0, parent=0),
        span(2, "chunk", 5.0, 9.0),
    ]
    assert common.self_by_name(spans, "chunk") == pytest.approx(7.0)
    assert common.total_by_name(spans, "chunk") == pytest.approx(8.0)
    assert common.coverage(spans, 0.0, 10.0) == pytest.approx(0.8)


def test_tracer_records_parents_and_rss():
    tracer = common.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert inner["rss_mb"] > 0


def test_tracer_rejects_out_of_order_end():
    tracer = common.Tracer()
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_disabled_tracer_records_nothing():
    tracer = common.Tracer(enabled=False)
    with tracer.span("a"):
        pass
    assert tracer.spans == []


def test_wrap_spans_each_call():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    tracer = common.Tracer()
    tracer.wrap(Owner, "work", "layer.work")
    assert Owner.work(21) == 42
    assert [s["name"] for s in tracer.spans] == ["layer.work"]
