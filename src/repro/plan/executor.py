"""Execute a :class:`~repro.plan.planner.DerivationPlan`.

Each requested node runs exactly the machinery an independent
``Sort(TableScan(source), spec)`` would have used for its chosen
parent — passthrough re-coding, order modification, or a full sort,
on the engine :func:`repro.exec.config.resolve_engine` picks (with the
same auto→reference fallback on keys the packed codec cannot rank) —
so rows and codes are bit-identical to per-request execution by
construction.  Results derived from a parent other than the source are
re-tie-broken against the live source's arrival order (the same
:func:`~repro.cache.dispatch._retiebreak` contract the cache dispatcher
relies on), which also makes sibling derivation safe: within a
full-key tie group the codes do not depend on which member stands
first.

Counters are collected only where the engine rule picks the reference
engine (``engine="reference"``); then they are per-node deltas
describing the work actually performed: a node derived straight from
the source reports exactly what the solo execution would have, a node
derived from a cached or sibling order reports its (cheaper)
modification work — the same accounting the cache's modify-from-cache
serves already use.

Independent subtrees execute concurrently: nodes whose parents are
materialized start immediately, each completion releases its children.
A mispredicted parent (evicted cache entry, kernel type error) falls
back to deriving from the source, never failing the batch.
"""

from __future__ import annotations

import concurrent.futures as cf
import os
from dataclasses import dataclass, field

from ..cache.dispatch import (
    _names, _retiebreak, install_result, replays_for,
)
from ..cache.fingerprint import fingerprint_table
from ..core.modify import modify_with_engine, sort_rows
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS
from ..ovc.stats import ComparisonStats
from .planner import DerivationPlan, plan_batch


@dataclass
class NodeResult:
    """One executed node: the order, its table, and its accounting."""

    index: int
    spec: SortSpec
    table: Table
    #: Same vocabulary as ``Sort.order_strategy`` plus
    #: ``plan-derive(<parent order>)`` for sibling-derived nodes.
    label: str
    stats_delta: ComparisonStats
    #: True when the planned parent was unusable and the node was
    #: re-derived from the source.
    fallback: bool = False


@dataclass
class BatchResult:
    """Everything a batch execution produced."""

    plan: DerivationPlan
    results: dict[int, NodeResult]
    #: The request list as given (duplicates preserved).
    specs: list[SortSpec]
    #: Merged counters across every executed node.
    stats: ComparisonStats = field(default_factory=ComparisonStats)

    def result_for(self, spec: SortSpec) -> NodeResult:
        return self.results[self.plan.spec_nodes[spec]]

    def tables(self) -> list[Table]:
        """Output tables in request order."""
        return [self.result_for(spec).table for spec in self.specs]

    @property
    def fallbacks(self) -> int:
        return sum(1 for r in self.results.values() if r.fallback)


def execute_plan(
    plan: DerivationPlan,
    source: Table,
    *,
    cache=None,
    fp=None,
    config: ExecutionConfig | None = None,
    max_concurrency: int | None = None,
) -> dict[int, NodeResult]:
    """Materialize every requested node of ``plan``; see module docs."""
    cfg = config if config is not None else ExecutionConfig.default()
    results: dict[int, NodeResult] = {}

    def _modify(table: Table, spec: SortSpec, delta) -> tuple[Table, str]:
        return modify_with_engine(
            table, spec, "auto", table.ovcs is not None, delta, cfg
        )

    def _install(table: Table, delta, engine: str, replayable: bool) -> None:
        if cache is not None and fp is not None:
            install_result(cache, fp, table.sort_spec, table,
                           delta if engine == "reference" else None,
                           replayable=replayable)

    def _from_source(node, delta, fallback=False) -> NodeResult:
        spec = node.spec
        if fallback:
            delta.reset()
            if LOG.enabled:
                LOG.event(
                    "plan.fallback", order=_names(spec),
                    planned=node.strategy,
                )
        src_spec = source.sort_spec
        if src_spec is not None and src_spec.satisfies(spec):
            arity = spec.arity
            ovcs = None
            if source.ovcs is not None:
                ovcs = [
                    (arity, 0) if o[0] >= arity else o for o in source.ovcs
                ]
            table = Table(source.schema, list(source.rows), spec, ovcs)
            return NodeResult(node.index, spec, table, "passthrough",
                              delta, fallback)
        if src_spec is not None:
            result, engine = _modify(source, spec, delta)
            label = f"modify({_names(src_spec)})"
            _install(result, delta, engine, replayable=True)
            return NodeResult(node.index, spec, result, label,
                              delta, fallback)
        sorted_rows, ovcs, engine = sort_rows(
            source.rows, spec, source.schema, delta, cfg
        )
        table = Table(source.schema, sorted_rows, spec, ovcs)
        _install(table, delta, engine, replayable=True)
        return NodeResult(node.index, spec, table, "full-sort",
                          delta, fallback)

    def _run(idx: int) -> NodeResult:
        node = plan.nodes[idx]
        spec = node.spec
        delta = ComparisonStats()
        parent = plan.nodes[node.parent]
        if parent.kind == "source":
            return _from_source(node, delta)
        if parent.kind == "cached" and parent.spec == spec:
            hit = cache.lookup(fp, spec) if cache is not None else None
            if hit is None:
                return _from_source(node, delta, fallback=True)
            if not replays_for(hit, cfg):
                return _from_source(node, delta)
            if hit.stats_delta is not None:
                delta.merge(hit.stats_delta)
            return NodeResult(idx, spec, hit.as_table(source.schema),
                              f"cache-hit({_names(spec)})", delta)
        if parent.kind == "cached":
            entry = cache.fetch(fp, parent.spec) if cache is not None else None
            if entry is None:
                return _from_source(node, delta, fallback=True)
            ptable = entry.as_table(source.schema)
            label = f"modify-from-cache({_names(parent.spec)})"
        else:
            ptable = results[node.parent].table
            label = f"plan-derive({_names(parent.spec)})"
        try:
            result, engine = _modify(ptable, spec, delta)
        except (TypeError, IndexError):
            return _from_source(node, delta, fallback=True)
        rows, ovcs = result.rows, result.ovcs
        if ovcs is not None:
            rows, ovcs = _retiebreak(rows, ovcs, spec.arity, source.rows)
        table = Table(source.schema, rows, spec, ovcs)
        _install(table, delta, engine, replayable=False)
        return NodeResult(idx, spec, table, label, delta)

    workers = (
        max_concurrency
        if max_concurrency is not None
        else min(4, os.cpu_count() or 1)
    )
    if workers <= 1 or len(plan.order) <= 1:
        for idx in plan.order:
            results[idx] = _run(idx)
        return results

    children: dict[int, list[int]] = {}
    ready: list[int] = []
    for idx in plan.order:
        parent = plan.nodes[idx].parent
        if plan.nodes[parent].requested:
            children.setdefault(parent, []).append(idx)
        else:
            ready.append(idx)
    with cf.ThreadPoolExecutor(max_workers=workers) as pool:
        pending = {pool.submit(_run, idx): idx for idx in ready}
        while pending:
            done, _ = cf.wait(pending, return_when=cf.FIRST_COMPLETED)
            for fut in done:
                idx = pending.pop(fut)
                results[idx] = fut.result()
                for child in children.get(idx, ()):  # parents release kids
                    pending[pool.submit(_run, child)] = child
    return results


def derive_batch(
    source: Table,
    orders,
    *,
    config: ExecutionConfig | None = None,
    max_concurrency: int | None = None,
) -> BatchResult:
    """Plan and execute a batch of target orders over ``source``.

    ``orders`` accepts the same shapes as ``Query.order_by`` targets:
    :class:`SortSpec`, a column-name string, or an iterable of columns.
    Returns a :class:`BatchResult`; per-order tables come back in
    request order from :meth:`BatchResult.tables`.
    """
    cfg = config if config is not None else ExecutionConfig.default()
    specs = [_coerce(o) for o in orders]
    result = BatchResult(
        plan=DerivationPlan([], 0, [], len(source.rows), 0.0, 0.0),
        results={}, specs=specs,
    )
    if not specs:
        return result

    cache = None
    fp = None
    if cfg.cache != "off":
        from ..cache import resolve_cache

        cache = resolve_cache(cfg)
    if cache is not None:
        fp = fingerprint_table(source)

    plan = plan_batch(
        source, specs, cache=cache, fingerprint=fp, config=cfg
    )
    if LOG.enabled:
        LOG.event(
            "plan.batch",
            orders=len(plan.order),
            nodes=len(plan.nodes),
            sibling_edges=plan.sibling_edges(),
            est_independent=round(plan.est_independent),
            est_planned=round(plan.est_planned),
            est_speedup=round(min(plan.est_speedup, 1e6), 3),
        )
    results = execute_plan(
        plan, source, cache=cache, fp=fp, config=cfg,
        max_concurrency=max_concurrency,
    )
    result.plan = plan
    result.results = results
    for node_result in results.values():
        result.stats.merge(node_result.stats_delta)
    if METRICS.enabled:
        METRICS.counter("plan.batches").inc()
        METRICS.counter("plan.nodes").inc(len(results))
        METRICS.counter("plan.sibling_derivations").inc(
            plan.sibling_edges()
        )
        if result.fallbacks:
            METRICS.counter("plan.fallbacks").inc(result.fallbacks)
        METRICS.histogram("plan.batch_size").observe(len(plan.order))
        METRICS.histogram("plan.est_speedup").observe(
            min(plan.est_speedup, 1e6)
        )
    return result


def _coerce(order) -> SortSpec:
    if isinstance(order, SortSpec):
        return order
    if isinstance(order, str):
        return SortSpec.of(order)
    return SortSpec(list(order))
