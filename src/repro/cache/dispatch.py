"""Cost-based serving: exact hits, modify-from-best-cached-order, or cold.

This is the cache's brain.  Given the live source table and a desired
order, :func:`serve` decides between three outcomes:

* **Exact hit** — the requested order is cached for this row multiset:
  the entry's rows and codes are returned as-is, and the comparison
  counters its producing execution recorded are *replayed* into the
  caller's :class:`~repro.ovc.stats.ComparisonStats`.  Replay keeps the
  engine's instrumentation deterministic — a plan reads the same with
  and without the cache whenever the entry was produced by an
  uncached-identical execution — while the actually avoided work is
  published as ``cache.comparisons_saved``.  Entries produced by the
  fast engine (the default) recorded no counters, so their hits
  replay an empty delta and add nothing to ``cache.comparisons_saved``;
  a caller that asks for counters (the engine rule picks the reference
  engine) treats such an entry as a miss and runs cold, re-installing
  the order with its counters.
* **Modify from the best cached order** — the requested order is not
  cached, but sibling orders of the same multiset are: each candidate
  is priced with :meth:`repro.core.cost.CostModel.modify_from` (segment
  and run counts read from the candidate's stored code-offset
  histogram, no data scan) and compared against the uncached baseline
  (modifying the live input's own order, or a full sort when the input
  is unordered).  A candidate that wins by a clear margin is fed —
  rows and codes, zero copies — straight into
  :func:`~repro.core.modify.modify_sort_order`; the result is
  re-tie-broken against the live input sequence (sorting here is
  stable, so equal-key rows must leave in *arrival* order for the
  output to stay bit-identical to uncached execution) and installed as
  a new entry.
* **Miss** — nothing cached is worth using; the caller executes its
  normal path and registers the output via :func:`install_result`.

Everything returned to callers is bit-identical — rows *and* codes —
to what the uncached execution would have produced.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from ..core.analysis import Strategy, analyze_order_modification
from ..core.cost import CostModel, counts_to_structure
from ..exec.config import ExecutionConfig, resolve_engine
from ..model import SortSpec, Table
from ..obs import LOG, METRICS, TRACER
from ..ovc.stats import ComparisonStats
from .fingerprint import Fingerprint, fingerprint_table
from .store import CachedOrder, OrderCache, _offset_counts

#: A cached candidate must beat the uncached baseline estimate by this
#: factor before the dispatcher prefers it: close calls stay on the
#: uncached-identical path, whose comparison counters the cache can
#: later replay exactly.
WIN_MARGIN = 0.9


@dataclass
class ServeOutcome:
    """What :func:`serve` decided (and the fingerprint it computed)."""

    fingerprint: Fingerprint
    #: The served result, or ``None`` for a miss (caller executes cold).
    table: Table | None = None
    #: ``"cache-hit(<order>)"`` or ``"modify-from-cache(<order>)"``.
    label: str | None = None
    #: Engine that ran a modify-from-cache serve (``None`` on a hit).
    engine: str | None = None


def _names(spec: SortSpec) -> str:
    return ",".join(str(c) for c in spec.columns)


def _estimate(
    existing: SortSpec,
    desired: SortSpec,
    n_rows: int,
    offset_counts: tuple,
) -> float:
    """Estimated cost of producing ``desired`` by modifying ``existing``."""
    plan = analyze_order_modification(existing, desired)
    if plan.strategy is Strategy.NOOP:
        return 0.0
    n_segments, n_runs = counts_to_structure(
        offset_counts, plan.prefix_len, plan.infix_len
    )
    model = CostModel(n_rows, n_segments, n_runs)
    if plan.strategy is Strategy.FULL_SORT:
        return model.full_sort().total
    return model.modify_from(plan).total


def serve(
    cache: OrderCache,
    source: Table,
    spec: SortSpec,
    *,
    stats: ComparisonStats,
    config: ExecutionConfig,
) -> ServeOutcome:
    """Try to answer ``Sort(source, spec)`` from the cache.

    ``source`` is the materialized child table (ordered with codes, or
    unordered).  ``stats`` is the operator's counter set: exact hits
    replay the entry's recorded delta into it; a modify-from-cache
    execution counts its real work into it.
    """
    fp = fingerprint_table(source)
    outcome = ServeOutcome(fp)

    hit = cache.lookup(fp, spec)
    # A caller asking for counters runs cold rather than replay an
    # entry that recorded none; the cold run re-installs the order.
    uncounted = hit is not None and not replays_for(hit, config)
    if hit is not None and not uncounted:
        delta = hit.stats_delta
        if delta is None:
            delta = ComparisonStats()
        stats.merge(delta)
        if METRICS.enabled:
            saved = delta.column_comparisons
            METRICS.counter("cache.comparisons_saved").inc(saved)
            METRICS.histogram("cache.hit_comparisons_saved").observe(saved)
        outcome.table = hit.as_table(source.schema)
        outcome.label = f"cache-hit({_names(spec)})"
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="hit", order=_names(spec),
                rows=len(source.rows),
            )
        return outcome

    candidates = cache.candidates(fp, exclude=spec if uncounted else None)
    if not candidates:
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="miss", order=_names(spec),
                rows=len(source.rows), reason="no-candidates",
            )
        return outcome

    n = len(source.rows)
    if source.sort_spec is not None and source.ovcs is not None:
        baseline = _estimate(
            source.sort_spec, spec, n,
            _offset_counts(source.ovcs, source.sort_spec.arity),
        )
    else:
        baseline = CostModel(n, 1, 1).full_sort().total

    best: CachedOrder | None = None
    best_cost = WIN_MARGIN * baseline
    for cand in candidates:
        cost = _estimate(cand.spec, spec, n, cand.offset_counts)
        if cost < best_cost:
            best, best_cost = cand, cost
    if best is None:
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="miss", order=_names(spec),
                rows=n, reason="no-candidate-beats-baseline",
                baseline_cost=round(baseline, 1),
                candidates=len(candidates),
            )
        return outcome

    chosen = cache.fetch(fp, best.spec)
    if chosen is None:  # evicted or expired since the scan
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="miss", order=_names(spec),
                rows=n, reason="candidate-evicted",
            )
        return outcome

    result, outcome.engine = _modify_from(
        cache, fp, source, chosen, spec, stats, config
    )
    if result is None:
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="miss", order=_names(spec),
                rows=n, reason="modify-from-cache-failed",
                candidate=_names(best.spec),
            )
        return outcome
    outcome.table = result
    outcome.label = f"modify-from-cache({_names(best.spec)})"
    if LOG.enabled:
        LOG.event(
            "cache.serve", decision="modify-from-cache",
            order=_names(spec), candidate=_names(best.spec), rows=n,
            est_cost=round(best_cost, 1), baseline_cost=round(baseline, 1),
        )
    return outcome


def _modify_from(
    cache: OrderCache,
    fp: Fingerprint,
    source: Table,
    chosen: CachedOrder,
    spec: SortSpec,
    stats: ComparisonStats,
    config: ExecutionConfig,
) -> tuple[Table | None, str | None]:
    """Produce ``spec`` from a cached sibling order, plus the engine
    that ran; ``(None, None)`` on failure (counters rolled back, caller
    falls through to cold execution).  Counters are collected only when
    the engine rule picks the reference engine."""
    from ..core.modify import modify_with_engine

    before = stats.snapshot()
    try:
        with TRACER.span(
            "cache.modify_from",
            rows=len(chosen.rows),
            source=_names(chosen.spec),
            target=_names(spec),
        ):
            result, engine = modify_with_engine(
                chosen.as_table(source.schema), spec, "auto", True,
                stats, config,
            )
            rows, ovcs = _retiebreak(
                result.rows, result.ovcs, spec.arity, source.rows
            )
            result = Table(source.schema, rows, spec, ovcs)
    except (TypeError, IndexError):
        # TypeError: a forced fast engine met unpackable keys, or the
        # reference executors met keys they cannot compare.
        # IndexError: the tie-break found a row missing from the live
        # source — a fingerprint collision delivered foreign data.
        # Either way the cold path is the answer; undo the partial
        # counter damage.
        stats.reset()
        stats.merge(before)
        return None, None
    if METRICS.enabled:
        METRICS.counter("cache.modify_serves").inc()
    cache.install(
        fp, spec, result.rows, result.ovcs,
        stats - before if engine == "reference" else None,
        replayable=False, nbytes=chosen.nbytes,
    )
    return result, engine


def replays_for(hit: CachedOrder, config: ExecutionConfig) -> bool:
    """Whether an exact hit can answer a caller on ``config``: always,
    unless the caller asks for counters (the engine rule picks the
    reference engine) and the entry recorded none."""
    return hit.stats_delta is not None or resolve_engine(
        config.engine, max_fan_in=config.max_fan_in
    ) != "reference"


def install_result(
    cache: OrderCache,
    fp: Fingerprint,
    spec: SortSpec,
    table: Table,
    stats_delta: ComparisonStats | None,
    replayable: bool = True,
) -> bool:
    """Register a cold execution's output (must carry codes);
    ``stats_delta`` is ``None`` when it collected no counters."""
    if table.ovcs is None:
        return False
    return cache.install(
        fp, spec, table.rows, table.ovcs, stats_delta, replayable=replayable
    )


def _retiebreak(
    rows: list,
    ovcs: list,
    arity: int,
    source_rows: list,
) -> tuple[list, list]:
    """Reorder full-key duplicates into live-source arrival order.

    Stable sorting leaves rows equal under the entire sort key in input
    order; a result modified from a *cached* order therefore carries
    the cache entry's arrival order inside such tie groups, while the
    uncached execution would carry the live child's.  Codes are
    untouched — every row in a tie group agrees on all sort columns,
    so the group's codes do not depend on which member stands first.
    """
    n = len(rows)
    groups: list[tuple[int, int]] = []
    i = 1
    while i < n:
        if ovcs[i][0] >= arity:
            start = i - 1
            while i < n and ovcs[i][0] >= arity:
                i += 1
            groups.append((start, i))
        else:
            i += 1
    if not groups:
        return rows, ovcs
    tied = {row for s, e in groups for row in rows[s:e]}
    where: dict = defaultdict(deque)
    for idx, row in enumerate(source_rows):
        if row in tied:
            where[row].append(idx)
    out = list(rows)
    for s, e in groups:
        tagged = sorted((where[row].popleft(), row) for row in out[s:e])
        out[s:e] = [row for _i, row in tagged]
    return out, ovcs
