"""Plan execution: fidelity, fallback, cache interplay, order_by_many."""

from __future__ import annotations

import pytest

from repro.cache import configure_cache, fingerprint_table, get_cache
from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.plan import derive_batch, execute_plan, plan_batch
from repro.query import Query
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [8, 12, 30, 4]
CFG = ExecutionConfig(cache="off")

ORDERS = [
    SortSpec.of("B", "C", "D", "A"),
    SortSpec.of("C", "D", "A", "B"),
    SortSpec.of("D", "A", "B", "C"),
    SortSpec.of("A", "B", "C", "D"),
]


def _sorted_source(n_rows=700, seed=0):
    table = random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)
    return Sort(
        TableScan(table), SortSpec.of("A", "B", "C", "D"), config=CFG
    ).to_table()


def _solo(source, spec):
    op = Sort(TableScan(source), spec, config=CFG)
    return op.to_table(), op.stats


def test_batch_matches_solo_rows_and_codes():
    source = _sorted_source()
    result = derive_batch(source, ORDERS, config=CFG)
    assert len(result.tables()) == len(ORDERS)
    for spec in ORDERS:
        ref_table, ref_stats = _solo(source, spec)
        node = result.result_for(spec)
        assert node.table.rows == ref_table.rows
        assert node.table.ovcs == ref_table.ovcs
        assert node.table.sort_spec == spec
        parent = result.plan.nodes[
            result.plan.nodes[result.plan.spec_nodes[spec]].parent
        ]
        if parent.kind == "source":
            assert node.stats_delta.as_dict() == ref_stats.as_dict()
    assert result.fallbacks == 0
    assert result.stats.row_comparisons >= 0


def test_duplicate_orders_share_one_node():
    source = _sorted_source(300)
    spec = SortSpec.of("C", "B", "A", "D")
    result = derive_batch(source, [spec, spec], config=CFG)
    tables = result.tables()
    assert len(tables) == 2
    assert tables[0] is tables[1]


def test_unordered_source_full_sorts_once_then_derives():
    table = random_table(SCHEMA, 500, domains=DOMAINS, seed=5)
    specs = [SortSpec.of("A", "B", "C", "D"), SortSpec.of("B", "C", "D", "A")]
    result = derive_batch(table, specs, config=CFG)
    labels = {result.result_for(s).label for s in specs}
    assert "full-sort" in labels
    for spec in specs:
        ref_table, _ = _solo(table, spec)
        node = result.result_for(spec)
        assert node.table.rows == ref_table.rows
        assert node.table.ovcs == ref_table.ovcs


def test_concurrency_matches_serial():
    source = _sorted_source(900, seed=2)
    serial = derive_batch(source, ORDERS, config=CFG, max_concurrency=1)
    threaded = derive_batch(source, ORDERS, config=CFG, max_concurrency=4)
    for spec in ORDERS:
        a, b = serial.result_for(spec), threaded.result_for(spec)
        assert a.table.rows == b.table.rows
        assert a.table.ovcs == b.table.ovcs
        assert a.stats_delta.as_dict() == b.stats_delta.as_dict()
        assert a.label == b.label
    assert serial.stats.as_dict() == threaded.stats.as_dict()


def test_empty_batch():
    source = _sorted_source(100)
    result = derive_batch(source, [], config=CFG)
    assert result.tables() == []
    assert result.fallbacks == 0


def test_derive_batch_installs_into_cache():
    cfg = ExecutionConfig(cache="on")
    configure_cache(budget=1 << 22)
    source = _sorted_source(400)
    spec = SortSpec.of("D", "C", "B", "A")
    derive_batch(source, [spec], config=cfg)
    # A later solo Sort over the same source is served from the cache.
    op = Sort(TableScan(source), spec, config=cfg)
    out = op.to_table()
    ref_table, _ = _solo(source, spec)
    assert out.rows == ref_table.rows
    assert get_cache().counters()["hits"] >= 1


def test_evicted_parent_falls_back_to_source():
    cfg = ExecutionConfig(cache="on")
    configure_cache(budget=1 << 22)
    cache = get_cache()
    source = _sorted_source(400)
    fp = fingerprint_table(source)
    cached_spec = SortSpec.of("C", "D", "A", "B")
    Sort(TableScan(source), cached_spec, config=cfg).to_table()
    assert cache.lookup(fp, cached_spec) is not None

    target = SortSpec.of("C", "D", "B", "A")
    plan = plan_batch(source, [target], cache=cache, fingerprint=fp)
    (node,) = [n for n in plan.nodes if n.requested]
    assert plan.nodes[node.parent].kind == "cached"

    # The parent vanishes between planning and execution.
    cache.invalidate()
    results = execute_plan(plan, source, cache=cache, fp=fp, config=cfg)
    got = results[plan.spec_nodes[target]]
    assert got.fallback
    ref_table, ref_stats = _solo(source, target)
    assert got.table.rows == ref_table.rows
    assert got.table.ovcs == ref_table.ovcs
    assert got.stats_delta.as_dict() == ref_stats.as_dict()


def test_metrics_counters_published():
    METRICS.enable(clear=True)
    source = _sorted_source(300)
    result = derive_batch(source, ORDERS[:2], config=CFG)
    snap = METRICS.as_dict()
    assert snap["counters"]["plan.batches"] == 1
    assert snap["counters"]["plan.nodes"] == 2
    assert snap["counters"]["plan.sibling_derivations"] == (
        result.plan.sibling_edges()
    )
    assert snap["histograms"]["plan.batch_size"]["count"] == 1


def test_order_by_many_matches_order_by():
    table = random_table(SCHEMA, 500, domains=DOMAINS, seed=7)
    specs = [["B", "C", "D", "A"], ["C", "D", "A", "B"]]
    got = Query(table).order_by_many(specs, config=CFG)
    assert len(got) == 2
    for cols, out in zip(specs, got):
        ref = Query(table).order_by(*cols, config=CFG).to_table()
        assert out.rows == ref.rows
        assert out.ovcs == ref.ovcs
        assert out.sort_spec == SortSpec(cols)


def test_order_by_many_empty():
    table = random_table(SCHEMA, 50, domains=DOMAINS, seed=1)
    assert Query(table).order_by_many([], config=CFG) == []


def test_order_by_many_merges_stats():
    table = random_table(SCHEMA, 400, domains=DOMAINS, seed=9)
    q = Query(table)
    q.order_by_many(
        [SortSpec.of("A", "B"), SortSpec.of("B", "A")],
        config=CFG.with_(engine="reference"),
    )
    assert q.op.stats.row_comparisons > 0
