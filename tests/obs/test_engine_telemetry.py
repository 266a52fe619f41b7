"""Telemetry names the engine that actually ran, not the one requested.

``engine="auto"`` runs the fast engine and silently falls back to the
reference executors on keys the packed codec cannot rank; the ``modify``
span, the ``sort.executed`` log event and the slow-query records must
tell the two apart.
"""

from __future__ import annotations

import io
import json

from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.obs import LOG, SLOWLOG, TRACER

SCHEMA = Schema.of("A", "B", "C")
IN_SPEC = SortSpec.of("A", "B", "C")
OUT_SPEC = SortSpec.of("A", "C", "B")
DEFAULT = ExecutionConfig()


def _table(none_segment: bool) -> Table:
    """Sorted on ``A,B,C``; with ``none_segment`` segment ``A == 0``
    holds ``C = None`` throughout, which the packed codec cannot rank."""
    rows = sorted(
        (a, b, None if none_segment and a == 0 else (a * 7 + b * 3) % 5)
        for a in range(3) for b in range(6) for _ in range(2)
    )
    return Table(SCHEMA, rows, IN_SPEC).with_ovcs()


def _sort_and_log(table: Table) -> tuple[Sort, list[dict]]:
    sink = io.StringIO()
    LOG.enable(sink)
    sort = Sort(TableScan(table), OUT_SPEC, config=DEFAULT)
    sort.to_table()
    LOG.disable()
    return sort, [json.loads(line) for line in sink.getvalue().splitlines()]


def test_sort_executed_event_names_the_fast_engine():
    sort, events = _sort_and_log(_table(none_segment=False))
    (event,) = [e for e in events if e["event"] == "sort.executed"]
    assert event["engine"] == "fast" == sort.engine_ran


def test_sort_executed_event_names_the_fallback():
    sort, events = _sort_and_log(_table(none_segment=True))
    (event,) = [e for e in events if e["event"] == "sort.executed"]
    assert event["engine"] == "reference-fallback" == sort.engine_ran


def test_unordered_full_sort_reports_the_fallback():
    table = _table(none_segment=True)
    unordered = Table(SCHEMA, list(reversed(table.rows)))
    sort = Sort(TableScan(unordered), OUT_SPEC, config=DEFAULT)
    sort.to_table()
    assert sort.engine_ran == "reference-fallback"
    assert not any(sort.stats.as_dict().values())


def test_slow_query_records_carry_the_engine():
    SLOWLOG.enable(0)
    Sort(TableScan(_table(none_segment=True)), OUT_SPEC, config=DEFAULT
         ).to_table()
    by_kind = {e["kind"]: e for e in SLOWLOG.entries}
    assert by_kind["sort"]["engine"] == "reference-fallback"
    assert by_kind["modify"]["engine"] == "reference-fallback"


def test_modify_span_carries_requested_and_ran_engine():
    TRACER.enable(clear=True)
    Sort(TableScan(_table(none_segment=False)), OUT_SPEC, config=DEFAULT
         ).to_table()
    (span,) = [r for r in TRACER.drain() if r["name"] == "modify"]
    assert span["attrs"]["engine_ran"] == "fast"
