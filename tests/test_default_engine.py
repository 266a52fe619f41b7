"""Differential suite for the default engine on every default path.

``engine="auto"`` has one meaning on every layer: the packed-code fast
engine whenever codes are in use and no fan-in cap is set, with
comparison counters collected only on request.  Each default path —
``Query.order_by``, ``Query.order_by_many``, ``OrderService.order_by``
and a ``Sort`` over an unordered child — must return rows and codes
bit-identical to the same path pinned to ``engine="reference"``, over
every Table 1 case on a narrow and a wide source.  The default paths'
operator counters read zero; the reference paths' counters do not.

A source whose key column holds ``None`` cannot be packed, so the same
paths fall back to the reference executors there (uncounted) and must
still match.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import configure_cache, reset_cache
from repro.core.analysis import Strategy, analyze_order_modification
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.query import Query
from repro.serve import OrderService

# Explicit configs, so REPRO_* variables cannot change what is tested.
DEFAULT = ExecutionConfig()
REFERENCE = ExecutionConfig(engine="reference")

_A = [f"A{i}" for i in range(4)]
_B = [f"B{i}" for i in range(4)]
_C = [f"C{i}" for i in range(4)]

#: shape -> (label, target columns); each label is the Table 1 case the
#: analysis assigns to the target (``full``: no relation, full sort).
TARGETS = {
    "narrow": [
        ("case0", ["A", "B"]),
        ("case1", ["A", "B", "C", "D", "E"]),
        ("case2", ["B", "C", "D"]),
        ("case3", ["B", "C", "D", "A"]),
        ("case4", ["A", "C"]),
        ("case5", ["A", "C", "B"]),
        ("case6", ["A", "C", "D"]),
        ("case7", ["A", "C", "B", "D"]),
        ("full", ["E", "C"]),
    ],
    "wide": [
        ("case0", _A),
        ("case1", _A + _B + _C + ["E"]),
        ("case2", _B + _C),
        ("case3", _B + _A),
        ("case4", _A + ["C3"]),
        ("case5", _A + _C + _B),
        ("case6", _A + _C),
        ("case7", _A + _C[:2] + _B + _C[2:]),
        ("full", ["E", "A3"]),
    ],
}

#: Targets over the ``None`` source that compare ``D`` only between
#: rows of one ``A`` segment (its values are uniform per segment).
NONE_TARGETS = [
    ("case1", ["A", "B", "C", "D", "E"]),
    ("case6", ["A", "C", "D"]),
    ("case7", ["A", "C", "B", "D"]),
]


def _narrow(n: int, seed: int, none_segment: bool = False) -> Table:
    """``A,B,C,D,E`` sorted on ``A,B,C,D``; ``E`` is a payload.  With
    ``none_segment`` every row of segment ``A == 0`` has ``D = None``."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        a = rng.randrange(6)
        d = None if none_segment and a == 0 else rng.randrange(5)
        rows.append((a, rng.randrange(4), rng.randrange(6), d,
                     rng.randrange(1000)))
    rows.sort(key=lambda r: (r[0], r[1], r[2], -1 if r[3] is None else r[3]))
    schema = Schema.of("A", "B", "C", "D", "E")
    return Table(schema, rows, SortSpec.of("A", "B", "C", "D")).with_ovcs()


def _wide(n: int, seed: int) -> Table:
    """Three 4-column key lists sorted on all 12; only the last column
    of each list varies, so comparisons run to the end of a list."""
    rng = random.Random(seed)
    zeros = (0,) * 3
    rows = sorted(
        zeros + (rng.randrange(4),) + zeros + (rng.randrange(6),)
        + zeros + (rng.randrange(8),) + (rng.randrange(1000),)
        for _ in range(n)
    )
    schema = Schema(tuple(_A + _B + _C) + ("E",))
    return Table(schema, rows, SortSpec(_A + _B + _C)).with_ovcs()


SOURCES = {"narrow": lambda: _narrow(400, 1), "wide": lambda: _wide(300, 2)}


def _zero(stats) -> bool:
    return not any(stats.as_dict().values())


def _same(a: Table, b: Table) -> None:
    assert a.rows == b.rows
    assert a.ovcs == b.ovcs


def _unordered(source: Table, seed: int) -> Table:
    rows = list(source.rows)
    random.Random(seed).shuffle(rows)
    return Table(source.schema, rows)


@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_targets_are_the_table1_cases(shape):
    source = SOURCES[shape]()
    for label, columns in TARGETS[shape]:
        plan = analyze_order_modification(source.sort_spec, SortSpec(columns))
        got = ("full" if plan.strategy is Strategy.FULL_SORT
               else f"case{plan.case_id}")
        assert got == label


@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_query_order_by_default_matches_reference(shape):
    source = SOURCES[shape]()
    for _label, columns in TARGETS[shape]:
        default = Query(source).order_by(*columns, config=DEFAULT)
        reference = Query(source).order_by(*columns, config=REFERENCE)
        _same(default.to_table(), reference.to_table())
        assert _zero(default.op.stats)
        if reference.op.order_strategy != "passthrough":
            assert default.op.engine_ran == "fast"
            assert reference.op.stats.row_comparisons > 0


@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_order_by_many_default_matches_reference(shape):
    source = SOURCES[shape]()
    orders = [SortSpec(columns) for _label, columns in TARGETS[shape]]
    default_q, reference_q = Query(source), Query(source)
    default = default_q.order_by_many(orders, config=DEFAULT)
    reference = reference_q.order_by_many(orders, config=REFERENCE)
    for a, b in zip(default, reference):
        _same(a, b)
    assert _zero(default_q.op.stats)
    assert reference_q.op.stats.row_comparisons > 0


@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_order_service_default_matches_reference(shape):
    source = SOURCES[shape]()
    with OrderService(DEFAULT) as default, \
            OrderService(REFERENCE) as reference:
        for _label, columns in TARGETS[shape]:
            spec = SortSpec(columns)
            a = default.order_by(source, spec)
            b = reference.order_by(source, spec)
            _same(a.table, b.table)
            assert _zero(a.stats)
            if b.label != "passthrough":
                assert b.stats.row_comparisons > 0


@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_sort_over_unordered_child_default_matches_reference(shape):
    source = _unordered(SOURCES[shape](), seed=3)
    for _label, columns in TARGETS[shape]:
        spec = SortSpec(columns)
        default = Sort(TableScan(source), spec, config=DEFAULT)
        reference = Sort(TableScan(source), spec, config=REFERENCE)
        _same(default.to_table(), reference.to_table())
        assert default.engine_ran == "fast"
        assert _zero(default.stats)
        assert reference.stats.row_comparisons > 0


def test_none_keys_fall_back_inside_sort():
    source = _narrow(300, 4, none_segment=True)
    unordered = _unordered(source, seed=5)
    for _label, columns in NONE_TARGETS:
        spec = SortSpec(columns)
        for child in (source, unordered):
            default = Sort(TableScan(child), spec, config=DEFAULT)
            reference = Sort(TableScan(child), spec, config=REFERENCE)
            _same(default.to_table(), reference.to_table())
            assert _zero(default.stats)
            assert reference.stats.row_comparisons > 0
        assert default.engine_ran == "reference-fallback"
        # The packed codec cannot rank the column: the forced fast
        # engine raises where auto fell back.
        with pytest.raises(TypeError):
            Sort(TableScan(unordered), spec,
                 config=ExecutionConfig(engine="fast")).to_table()


def test_none_keys_fall_back_inside_the_plan_executor():
    source = _narrow(300, 6, none_segment=True)
    orders = [SortSpec(columns) for _label, columns in NONE_TARGETS]
    for child in (source, _unordered(source, seed=7)):
        default_q, reference_q = Query(child), Query(child)
        default = default_q.order_by_many(orders, config=DEFAULT)
        reference = reference_q.order_by_many(orders, config=REFERENCE)
        for a, b in zip(default, reference):
            _same(a, b)
        assert _zero(default_q.op.stats)
        assert reference_q.op.stats.row_comparisons > 0
    with pytest.raises(TypeError):
        Query(child).order_by_many(
            orders, config=ExecutionConfig(engine="fast")
        )


@pytest.fixture
def fresh_cache():
    configure_cache()
    yield
    reset_cache()


def test_counters_on_request_survive_a_fast_cache_entry(fresh_cache):
    """An exact hit on an entry the fast engine produced has no counters
    to replay: a caller asking for them runs cold, and the order is
    re-installed with its counters for later hits."""
    source = _unordered(_narrow(400, 8), seed=9)
    columns = ["A", "C", "B"]
    default = Query(source).order_by(*columns, config=DEFAULT.with_(cache="on"))
    default.to_table()
    assert default.op.order_strategy == "full-sort"
    assert _zero(default.op.stats)

    cold = Query(source).order_by(*columns, config=REFERENCE)
    expected = cold.to_table()
    cached = REFERENCE.with_(cache="on")
    first = Query(source).order_by(*columns, config=cached)
    _same(first.to_table(), expected)
    assert first.op.order_strategy == "full-sort"
    assert first.op.stats.as_dict() == cold.op.stats.as_dict()

    again = Query(source).order_by(*columns, config=cached)
    _same(again.to_table(), expected)
    assert again.op.order_strategy.startswith("cache-hit")
    assert again.op.stats.as_dict() == cold.op.stats.as_dict()


def test_order_by_many_counters_survive_a_fast_cache_entry(fresh_cache):
    source = _narrow(400, 10)
    orders = [SortSpec.of("A", "C", "B"), SortSpec.of("B", "C", "D")]
    Query(source).order_by_many(orders, config=DEFAULT.with_(cache="on"))
    q = Query(source)
    tables = q.order_by_many(orders, config=REFERENCE.with_(cache="on"))
    for table, spec in zip(tables, orders):
        _same(table, Query(source).order_by(*spec.columns,
                                            config=REFERENCE).to_table())
    assert q.op.stats.row_comparisons > 0
