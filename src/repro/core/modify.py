"""Public entry point: modify a table's sort order.

:func:`modify_sort_order` analyzes the existing vs. desired sort
orders, picks (or is told) a strategy, and executes it:

* ``noop`` — the existing order satisfies the request; codes are
  projected onto the (possibly shorter) new key without comparisons.
* ``segment_sort`` — segmented sorting (Figure 11 method 1).
* ``merge_runs`` — merge pre-existing runs over the whole input,
  ignoring any shared prefix (Figure 11 method 2).
* ``combined`` — segments from the prefix, pre-existing runs merged
  within each segment (Figure 11 method 3).
* ``full_sort`` — tournament sort from scratch, the honest fallback.
* ``auto`` — compile-time analysis plus the cost model decide.

Orthogonal to the strategy, an :class:`~repro.exec.ExecutionConfig`
selects *how* the chosen strategy executes — engine (reference vs.
packed-code fast path), worker processes, merge fan-in cap, memory
budget with spill-to-disk, and the pool's retry/timeout policy::

    from repro.exec import ExecutionConfig

    cfg = ExecutionConfig(workers=4, memory_budget="64MiB")
    result = modify_sort_order(table, new_order, config=cfg)

The pre-4 ``engine=`` / ``workers=`` / ``max_fan_in=`` kwargs are
gone after their one-release deprecation cycle; a stale call site gets
a ``TypeError`` naming the config field (:mod:`repro.exec.compat`).

With a memory budget, buffered output runs are charged to a
:class:`~repro.exec.memory.MemoryAccountant` and spill to disk
whenever the budget is exceeded; governed runs return bit-identical
rows, codes, *and* comparison counts — the budget changes where bytes
live, never what work happens.
"""

from __future__ import annotations

from typing import Sequence

from ..exec.buffers import GovernedSink
from ..exec.compat import resolve_config
from ..exec.config import ExecutionConfig, resolve_engine
from ..exec.memory import MemoryAccountant, activate
from ..exec.spill import SpillManager
from ..model import Schema, SortSpec, Table
from ..obs import LOG, METRICS, SLOWLOG, TRACER
from ..ovc.derive import project_ovcs
from ..ovc.stats import ComparisonStats
from ..sorting.internal import tournament_sort
from ..sorting.merge import _key_projector
from .analysis import ModificationPlan, Strategy, analyze_order_modification
from .classify import split_segments
from .cost import estimate_costs
from .merge_runs import merge_preexisting_runs
from .segmented import sort_segment

_METHODS = {
    "auto",
    "noop",
    "segment_sort",
    "merge_runs",
    "combined",
    "full_sort",
}


def modify_sort_order(
    table: Table,
    new_order: SortSpec | Sequence[str],
    method: str = "auto",
    use_ovc: bool = True,
    stats: ComparisonStats | None = None,
    config: ExecutionConfig | None = None,
    **legacy,
) -> Table:
    """Return ``table``'s rows sorted on ``new_order``.

    The input table must be sorted (per its ``sort_spec``); with
    ``use_ovc`` it must carry offset-value codes (derived on demand via
    :meth:`Table.with_ovcs`).  The result carries fresh codes for the
    new order when ``use_ovc`` is set.

    ``method`` forces a strategy; ``auto`` uses the compile-time
    analysis and, where the decomposition leaves a choice, the cost
    model.  Stable strategies preserve the input order among rows equal
    under the new key.

    Passing ``stats`` asks for the paper's comparison counters: they
    are collected into it by the instrumented reference executors.

    ``config`` governs execution (see :class:`repro.exec.
    ExecutionConfig`); when omitted, the environment-aware default
    applies.  Its fields:

    * ``engine`` — ``reference`` (instrumented), ``fast`` (packed-code
      kernels, bit-identical output, no counters), or ``auto``, which
      follows the one rule of :func:`repro.exec.config.resolve_engine`:
      fast exactly when ``use_ovc`` is set, no fan-in cap is
      configured, and no ``stats`` collector was passed.  A forced
      ``fast`` engine leaves any passed ``stats`` untouched and
      executes a fan-in cap as a single-wave merge.  With
      ``engine="auto"``, key columns the packed codec cannot rank
      (mixed value types, ``None``) fall back to the reference
      executors — reusing the already-computed segment boundaries, so
      classification runs exactly once per call; a forced ``fast``
      engine propagates the ``TypeError``.  The engine that actually
      ran is recorded on the ``modify`` span and the slow-query record.
    * ``workers`` — shards segment-parallel strategies across processes
      (:mod:`repro.parallel`) with the config's retry/timeout policy;
      output stays bit-identical, and tiny inputs, single-segment jobs,
      and unshardable strategies fall back to serial automatically.
    * ``max_fan_in`` — caps the runs merged per step (graceful
      degradation to multi-step merges beyond it).
    * ``memory_budget`` / ``spill_dir`` — buffered output runs spill to
      disk whenever live charges exceed the budget; rows, codes, and
      comparison counts are unaffected.

    The standalone ``engine=`` / ``workers=`` / ``max_fan_in=`` kwargs
    were removed after their deprecation release; passing one raises a
    ``TypeError`` naming the config field to use instead.
    """
    return _modify_sort_order(
        table, new_order, method, use_ovc, stats, config, legacy
    )[0]


def modify_with_engine(
    table: Table,
    new_spec: SortSpec,
    method: str,
    use_ovc: bool,
    stats: ComparisonStats,
    cfg: ExecutionConfig,
) -> tuple[Table, str]:
    """Order modification for the layers above — ``Sort``, the plan
    executor, the order cache — plus the engine that ran: ``"fast"``,
    ``"reference"`` or ``"reference-fallback"``.

    ``stats`` is the layer's own counter set.  It is counted into only
    when the engine rule picks the reference engine (``engine=
    "reference"``, no codes, a fan-in cap); a layer's ``auto`` does not
    ask for counters, so keys the packed codec cannot rank fall back to
    the reference executors uncounted.
    """
    engine = resolve_engine(
        cfg.engine, use_ovc=use_ovc, max_fan_in=cfg.max_fan_in
    )
    return _modify_sort_order(
        table, new_spec, method, use_ovc,
        stats if engine == "reference" else None, cfg, {},
    )


def _modify_sort_order(
    table: Table,
    new_order: SortSpec | Sequence[str],
    method: str,
    use_ovc: bool,
    stats: ComparisonStats | None,
    config: ExecutionConfig | None,
    legacy: dict,
) -> tuple[Table, str]:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    cfg = resolve_config(config, "modify_sort_order", **legacy)
    if cfg.engine == "fast" and not use_ovc:
        raise ValueError("the fast engine requires offset-value codes (use_ovc=True)")
    if table.sort_spec is None:
        raise ValueError("input table must declare its sort order")
    new_spec = new_order if isinstance(new_order, SortSpec) else SortSpec(new_order)
    with LOG.query_scope():
        mark = SLOWLOG.mark()
        with TRACER.span(
            "modify",
            rows=len(table.rows),
            method=method,
            engine=cfg.engine,
            use_ovc=use_ovc,
            governed=cfg.governed,
        ) as span:
            if not cfg.governed:
                result, engine = _modify(
                    table, new_spec, method, use_ovc, stats, cfg, None
                )
            else:
                accountant = MemoryAccountant(cfg.memory_budget)
                with SpillManager(cfg.spill_dir) as spill, activate(accountant):
                    sink = GovernedSink(accountant, spill)
                    result, engine = _modify(
                        table, new_spec, method, use_ovc, stats, cfg, sink
                    )
            span.set(engine_ran=engine)
        if mark is not None:
            # Slow path only: the structural strategy is a cheap pure
            # function of the two specs.
            strategy = method
            if method == "auto":
                plan = analyze_order_modification(table.sort_spec, new_spec)
                strategy = plan.strategy.name.lower()
            SLOWLOG.record(
                mark, "modify", strategy=strategy, stats=stats,
                rows=len(table.rows), engine=engine,
            )
        return result, engine


def _modify(
    table: Table,
    new_spec: SortSpec,
    method: str,
    use_ovc: bool,
    stats: ComparisonStats | None,
    cfg: ExecutionConfig,
    sink: GovernedSink | None,
) -> tuple[Table, str]:
    plan = analyze_order_modification(table.sort_spec, new_spec)
    engine = resolve_engine(
        cfg.engine, use_ovc=use_ovc, max_fan_in=cfg.max_fan_in,
        counters=stats is not None,
    )
    caller_stats = stats
    stats = stats if stats is not None else ComparisonStats()

    if plan.backward:
        # Read the input back to front (comparison-free, codes kept)
        # and re-plan against the reversed order.
        from .backward import reverse_table, reversed_spec

        with TRACER.span("modify.backward", rows=len(table.rows)):
            if use_ovc:
                table = reverse_table(table.with_ovcs(), stats)
            else:
                table = Table(
                    table.schema,
                    list(reversed(table.rows)),
                    reversed_spec(table.sort_spec),
                )
        plan = analyze_order_modification(
            table.sort_spec, new_spec, allow_backward=False
        )

    if use_ovc:
        table.with_ovcs()

    strategy = _resolve_strategy(plan, method, table, stats)
    TRACER.annotate(strategy=strategy.name.lower())
    if LOG.enabled:
        LOG.event(
            "modify.strategy",
            strategy=strategy.name.lower(),
            method=method,
            rows=len(table.rows),
            engine=cfg.engine,
            prefix_len=plan.prefix_len,
            merge_len=plan.merge_len,
        )

    in_positions = table.sort_spec.positions(table.schema)
    in_project = _key_projector(in_positions, table.sort_spec.directions)

    # Segment boundaries are computed exactly once per call and shared
    # by every executor — the shard planner, the fast path, and the
    # reference path (including the engine="auto" TypeError fallback,
    # which must not re-classify the input it already classified).
    boundaries: list[tuple[int, int]] | None = None
    if strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED):
        boundaries = _segments(table, plan, use_ovc, in_project, stats)

    if cfg.workers not in (None, 0, 1) and use_ovc:
        from ..parallel.api import parallel_modify

        result = parallel_modify(
            table, new_spec, plan, strategy, cfg.workers,
            stats=caller_stats, config=cfg, segments=boundaries, sink=sink,
        )
        if result is not None:
            return result, engine

    if engine == "fast":
        from ..fastpath.execute import fast_modify

        try:
            return fast_modify(
                table, new_spec, plan, strategy,
                segments=boundaries, sink=sink,
            ), engine
        except TypeError:
            if cfg.engine == "fast":
                raise
            # engine="auto" met key values the packed codec cannot rank
            # (mixed types in one column, None): the reference
            # executors below compare only values that actually meet in
            # a tournament, so they can still succeed — on the segment
            # boundaries already computed above.
            engine = "reference-fallback"

    return _reference(
        table, new_spec, plan, strategy, boundaries, in_project,
        use_ovc, stats, cfg.max_fan_in, sink,
    ), engine


def _reference(
    table: Table,
    new_spec: SortSpec,
    plan: ModificationPlan,
    strategy: Strategy,
    boundaries: list[tuple[int, int]] | None,
    in_project,
    use_ovc: bool,
    stats: ComparisonStats,
    max_fan_in: int | None,
    sink: GovernedSink | None,
) -> Table:
    """Execute ``strategy`` on the instrumented reference executors."""
    rows, ovcs = table.rows, table.ovcs
    n = len(rows)
    out_positions = new_spec.positions(table.schema)
    out_project = _key_projector(out_positions, new_spec.directions)
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] | None = [] if use_ovc else None

    if strategy is Strategy.NOOP:
        if sink is not None:
            sink.absorb_iter(
                list(rows), project_ovcs(ovcs, new_spec.arity) if use_ovc else None
            )
            out_rows, out_ovcs = _materialized(sink, use_ovc)
            return Table(table.schema, out_rows, new_spec, out_ovcs)
        out_rows = list(rows)
        if use_ovc:
            out_ovcs = project_ovcs(ovcs, new_spec.arity)
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.FULL_SORT:
        with TRACER.span("modify.full_sort", rows=n):
            for lo, hi in ((0, n),) if n else ():
                sort_segment(
                    rows, ovcs, lo, hi, 0, new_spec.arity, out_project,
                    stats, out_rows, out_ovcs, use_ovc,
                )
        if sink is not None:
            sink.absorb_iter(out_rows, out_ovcs)
            out_rows, out_ovcs = _materialized(sink, use_ovc)
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.SEGMENT_SORT:
        with TRACER.span("modify.segment_sort", segments=len(boundaries)):
            for lo, hi in boundaries:
                if sink is not None:
                    seg_rows: list[tuple] = []
                    seg_ovcs: list[tuple] | None = [] if use_ovc else None
                    sort_segment(
                        rows, ovcs, lo, hi, plan.prefix_len, new_spec.arity,
                        out_project, stats, seg_rows, seg_ovcs, use_ovc,
                    )
                    sink.absorb(seg_rows, seg_ovcs)
                else:
                    sort_segment(
                        rows, ovcs, lo, hi, plan.prefix_len, new_spec.arity,
                        out_project, stats, out_rows, out_ovcs, use_ovc,
                    )
        if sink is not None:
            out_rows, out_ovcs = _materialized(sink, use_ovc)
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.MERGE_RUNS:
        # One pass over the whole input; prefix columns (if any) join
        # the infix in defining runs.
        with TRACER.span("modify.merge_runs", rows=n):
            if n:
                merge_preexisting_runs(
                    rows, ovcs, 0, n, plan, out_project, in_project,
                    stats, out_rows, out_ovcs, use_ovc, respect_prefix=False,
                    max_fan_in=max_fan_in,
                )
        if sink is not None:
            sink.absorb_iter(out_rows, out_ovcs)
            out_rows, out_ovcs = _materialized(sink, use_ovc)
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    # COMBINED: segments from the prefix, merge runs within each.
    with TRACER.span("modify.combined", segments=len(boundaries)):
        for lo, hi in boundaries:
            if sink is not None:
                seg_rows = []
                seg_ovcs = [] if use_ovc else None
                merge_preexisting_runs(
                    rows, ovcs, lo, hi, plan, out_project, in_project,
                    stats, seg_rows, seg_ovcs, use_ovc, respect_prefix=True,
                    max_fan_in=max_fan_in,
                )
                sink.absorb(seg_rows, seg_ovcs)
            else:
                merge_preexisting_runs(
                    rows, ovcs, lo, hi, plan, out_project, in_project,
                    stats, out_rows, out_ovcs, use_ovc, respect_prefix=True,
                    max_fan_in=max_fan_in,
                )
    if sink is not None:
        out_rows, out_ovcs = _materialized(sink, use_ovc)
    return Table(table.schema, out_rows, new_spec, out_ovcs)


def sort_rows(
    rows: list[tuple],
    spec: SortSpec,
    schema: Schema,
    stats: ComparisonStats,
    cfg: ExecutionConfig,
    use_ovc: bool = True,
) -> tuple[list[tuple], list[tuple] | None, str]:
    """Sort unordered ``rows`` on ``spec`` from scratch.

    The full-sort twin of :func:`modify_with_engine`, under the same engine
    rule: the fast engine's :func:`~repro.fastpath.execute.fast_sort`
    or the reference tournament sort, which counts into ``stats``.
    Returns the sorted rows, their codes (``None`` without ``use_ovc``)
    and the engine that ran.
    """
    positions = spec.positions(schema)
    engine = resolve_engine(
        cfg.engine, use_ovc=use_ovc, max_fan_in=cfg.max_fan_in
    )
    if engine == "fast":
        from ..fastpath.execute import fast_sort

        try:
            sorted_rows, ovcs = fast_sort(rows, positions, spec.directions)
            return sorted_rows, ovcs, engine
        except TypeError:
            if cfg.engine == "fast":
                raise
        # Counters were not asked for; the fallback does not count.
        stats, engine = ComparisonStats(), "reference-fallback"
    sorted_rows, ovcs = tournament_sort(
        rows, positions, stats, spec.directions, use_ovc
    )
    return sorted_rows, ovcs, engine


def _materialized(sink, use_ovc):
    """Materialize the sink, preserving the ungoverned empty-input
    contract: codes requested -> an empty list, never ``None``."""
    out_rows, out_ovcs = sink.materialize()
    if use_ovc and out_ovcs is None:
        out_ovcs = []
    return out_rows, out_ovcs


def _resolve_strategy(
    plan: ModificationPlan, method: str, table: Table, stats: ComparisonStats
) -> Strategy:
    if method == "noop":
        if plan.strategy is not Strategy.NOOP:
            raise ValueError(
                "noop requested but the existing order does not satisfy "
                f"the desired order ({plan.describe()})"
            )
        return Strategy.NOOP
    if method == "full_sort":
        return Strategy.FULL_SORT
    if method == "segment_sort":
        if plan.prefix_len == 0 and plan.strategy is not Strategy.NOOP:
            raise ValueError("segment_sort requires a shared key prefix")
        return Strategy.SEGMENT_SORT
    if method == "merge_runs":
        if plan.merge_len == 0:
            raise ValueError(
                "merge_runs requires pre-existing runs "
                f"(plan: {plan.describe()})"
            )
        return Strategy.MERGE_RUNS
    if method == "combined":
        if plan.merge_len == 0 or plan.prefix_len == 0:
            raise ValueError(
                "combined requires both a shared prefix and merge keys "
                f"(plan: {plan.describe()})"
            )
        return Strategy.COMBINED
    # auto: trust the structural analysis; consult the cost model when
    # several structural strategies apply.
    if plan.strategy in (Strategy.NOOP, Strategy.FULL_SORT):
        return plan.strategy
    if plan.strategy is Strategy.SEGMENT_SORT:
        return plan.strategy
    if plan.strategy is Strategy.MERGE_RUNS:
        return plan.strategy
    # COMBINED decompositions admit all four methods; estimate quickly.
    n = len(table)
    if n == 0:
        return plan.strategy
    ovcs = table.ovcs
    if ovcs is not None:
        p, px = plan.prefix_len, plan.prefix_len + plan.infix_len
        n_segments = sum(1 for off, _v in ovcs if off < p)
        n_runs = sum(1 for off, _v in ovcs if off < px)
    else:
        n_segments = max(1, int(n ** 0.5))
        n_runs = n_segments
    estimates = {e.strategy: e for e in estimate_costs(plan, n, n_segments, n_runs)}
    # Exploiting both structures is the paper's consistent winner
    # (Figure 11); the cost-based decision of Section 3.5 is whether to
    # exploit the pre-existing order at all, so only a clear margin for
    # sorting from scratch overrides the structural plan.
    planned = estimates[Strategy.COMBINED]
    if estimates[Strategy.FULL_SORT].total < 0.5 * planned.total:
        return Strategy.FULL_SORT
    return Strategy.COMBINED


def _segments(table, plan, use_ovc, in_project, stats):
    """Segment boundaries — from codes when available, else by
    comparing prefix columns of adjacent rows (counted)."""
    with TRACER.span("modify.classify", prefix_len=plan.prefix_len) as sp:
        boundaries = _segment_boundaries(table, plan, use_ovc, in_project, stats)
        sp.set(segments=len(boundaries))
    if METRICS.enabled:
        hist = METRICS.histogram("modify.segment_rows")
        for lo, hi in boundaries:
            hist.observe(hi - lo)
    return boundaries


def _segment_boundaries(table, plan, use_ovc, in_project, stats):
    n = len(table.rows)
    if use_ovc:
        return list(split_segments(table.ovcs, plan.prefix_len, n))
    p = plan.prefix_len
    if p == 0 or n == 0:
        return [(0, n)] if n else []
    boundaries = []
    start = 0
    prev = in_project(table.rows[0])
    for i in range(1, n):
        cur = in_project(table.rows[i])
        stats.row_comparisons += 1
        for c in range(p):
            stats.column_comparisons += 1
            if cur[c] != prev[c]:
                boundaries.append((start, i))
                start = i
                break
        prev = cur
    boundaries.append((start, n))
    return boundaries
