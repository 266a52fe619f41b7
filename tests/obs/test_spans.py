"""Span tracer: nesting, no-op path, decorator, annotate, drain."""

from __future__ import annotations

import os

from repro.obs import NULL_SPAN, TRACER, Tracer
from repro.exec import ExecutionConfig


def test_disabled_tracer_returns_the_null_singleton():
    tracer = Tracer()
    assert tracer.span("anything", rows=1) is NULL_SPAN
    with tracer.span("nested") as sp:
        assert sp is NULL_SPAN
        assert sp.set(more=2) is sp
    assert tracer.records == []


def test_spans_record_name_timing_and_attrs():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("work", rows=7) as sp:
        sp.set(segments=3)
    [record] = tracer.records
    assert record["name"] == "work"
    assert record["attrs"] == {"rows": 7, "segments": 3}
    assert record["dur"] >= 0
    assert record["start"] > 0  # epoch-anchored wall clock
    assert record["pid"] == os.getpid()
    assert record["parent"] is None


def test_nested_spans_link_to_their_parents():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    inner_rec, outer_rec = tracer.records
    assert inner_rec["name"] == "inner"
    assert inner_rec["parent"] == outer_rec["id"]
    assert outer_rec["parent"] is None
    assert outer_rec["id"] == outer.sid


def test_out_of_order_exit_does_not_corrupt_the_stack():
    # Generators can close spans in non-LIFO order; the stack must
    # survive a parent exiting while a child is still open.
    tracer = Tracer()
    tracer.enable()
    outer = tracer.span("outer").__enter__()
    inner = tracer.span("inner").__enter__()
    outer.__exit__(None, None, None)  # parent closes first
    with tracer.span("sibling"):
        pass
    inner.__exit__(None, None, None)
    names = {r["name"]: r for r in tracer.records}
    assert set(names) == {"outer", "inner", "sibling"}
    assert names["inner"]["parent"] == names["outer"]["id"]
    # The stack survived the non-LIFO exits: new spans still record.
    with tracer.span("after"):
        pass
    assert [r["name"] for r in tracer.records][-1] == "after"


def test_traced_decorator_times_calls_only_when_enabled():
    tracer = Tracer()

    @tracer.traced("fn")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert tracer.records == []
    tracer.enable()
    assert fn(2) == 3
    assert [r["name"] for r in tracer.records] == ["fn"]


def test_annotate_enriches_the_innermost_open_span():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("phase"):
        tracer.annotate(strategy="combined")
    [record] = tracer.records
    assert record["attrs"] == {"strategy": "combined"}
    tracer.annotate(ignored=True)  # no open span: a no-op


def test_drain_empties_and_add_records_stitches():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("a"):
        pass
    drained = tracer.drain()
    assert [r["name"] for r in drained] == ["a"]
    assert tracer.records == []
    tracer.add_records([{"name": "foreign", "start": 1.0, "dur": 0.1,
                         "pid": 999, "id": 1, "parent": None}])
    assert tracer.records[0]["pid"] == 999


def test_enable_clears_stale_records_by_default():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("old"):
        pass
    tracer.enable()
    assert tracer.records == []
    tracer.disable()
    assert tracer.span("off") is NULL_SPAN


def test_global_tracer_captures_pipeline_spans():
    from repro.core.modify import modify_sort_order
    from repro.model import Schema, SortSpec
    from repro.workloads.generators import random_sorted_table

    schema = Schema.of("A", "B", "C")
    table = random_sorted_table(
        schema, SortSpec.of("A", "B", "C"), 256, domains=[4, 5, 6], seed=3
    )
    TRACER.enable(clear=True)
    modify_sort_order(
        table, SortSpec.of("A", "C", "B"),
        config=ExecutionConfig(engine="fast"),
    )
    names = {r["name"] for r in TRACER.drain()}
    assert "modify" in names
    assert names & {"fastpath.merge", "fastpath.sort"}

    TRACER.enable(clear=True)
    modify_sort_order(
        table, SortSpec.of("A", "C", "B"),
        config=ExecutionConfig(engine="reference"),
    )
    names = {r["name"] for r in TRACER.drain()}
    assert "modify.classify" in names
