"""The Sort operator: the engine's order enforcer.

Given a required output order, Sort inspects the child's declared
ordering and offset-value codes and picks the cheapest path through the
paper's machinery:

* child already satisfies the order -> pass through (case 0, possibly
  re-coding onto the shorter key);
* related order -> :func:`repro.core.modify.modify_sort_order`
  (segmented sorting / merging pre-existing runs / combined);
* unordered child -> internal full sort, or external merge sort when a
  memory budget is configured and exceeded.

An :class:`~repro.exec.ExecutionConfig` selects how the in-memory
paths execute.  ``config.engine`` follows the one rule of
:func:`repro.exec.config.resolve_engine` on both the modify path and
the full-sort path: ``auto`` runs the packed-code kernels of
:mod:`repro.fastpath` whenever codes are in use and no fan-in cap is
set (falling back to the reference executors, uncounted, on keys the
codec cannot pack); ``fast`` forces them; ``reference`` runs the
instrumented executors and is how an operator's comparison counters
(:attr:`stats`) are asked for — on the fast engine they stay zero.
The engine that ran is kept in :attr:`Sort.engine_ran` and reported on
the ``sort.executed`` log event and the slow-query record.  The
external merge sort has no fast twin (spill accounting is its point)
and always runs the reference path.

``config.workers`` forwards to the order-modification path's parallel
subsystem (:mod:`repro.parallel`): segment-parallel strategies shard
across processes (with the config's retry/timeout policy), with worker
counters merged back into the operator's stats; everything else stays
serial automatically.  ``config.memory_budget`` governs the order
modification's buffered output (spill-to-disk under pressure).  The
standalone ``engine=``/``workers=`` kwargs were removed after their
deprecation release and now raise ``TypeError``.

``config.cache`` plugs the operator into the order cache
(:mod:`repro.cache`): before sorting, the cache is consulted for this
exact (source rows, order) pair — a hit serves the cached rows and
codes verbatim (recorded comparison counters replayed; entries the
fast engine produced recorded none, and a sort on the reference engine
runs cold instead of hitting them) — or for a *related* cached order
that the cost model prices cheaper to modify than the uncached
execution; either way the served output is bit-identical to an
uncached run.  Every executed sort installs its output for future
requests.  The strategy actually used is recorded in
:attr:`Sort.order_strategy` and shown by ``EXPLAIN`` after execution
(``full-sort``, ``modify(<order>)``, ``cache-hit(<order>)``,
``modify-from-cache(<order>)``, ...).  The cache engages only on the
in-memory ``method="auto"`` + ``use_ovc`` paths.

:meth:`Sort.to_table` returns the sorted table directly instead of
re-collecting the emitted stream.
"""

from __future__ import annotations

from typing import Iterator

from ..exec.compat import resolve_config
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, SLOWLOG
from ..core.modify import modify_with_engine, sort_rows
from ..sorting.external import ExternalMergeSort
from .operators import Operator


class Sort(Operator):
    """Enforce ``spec`` on the child stream."""

    def __init__(
        self,
        child: Operator,
        spec: SortSpec,
        method: str = "auto",
        use_ovc: bool = True,
        memory_capacity: int | None = None,
        fan_in: int = 16,
        config: ExecutionConfig | None = None,
        **legacy,
    ) -> None:
        super().__init__(child.schema, spec, child.stats)
        self._config = resolve_config(config, "Sort", **legacy)
        if self._config.engine == "fast" and not use_ovc:
            raise ValueError(
                "the fast engine requires offset-value codes (use_ovc=True)"
            )
        self._child = child
        self._spec = spec
        self._method = method
        self._use_ovc = use_ovc
        self._memory_capacity = memory_capacity
        self._fan_in = fan_in
        #: Strategy actually executed, for tests and EXPLAIN output.
        self.executed: str | None = None
        #: Human-readable order strategy for EXPLAIN: ``passthrough``,
        #: ``full-sort``, ``external-sort``, ``modify(<order>)``,
        #: ``cache-hit(<order>)``, or ``modify-from-cache(<order>)``.
        self.order_strategy: str | None = None
        #: Engine that ran: ``fast``, ``reference`` or
        #: ``reference-fallback``; ``None`` for passthrough and cache hits.
        self.engine_ran: str | None = None
        #: Fingerprint of the source rows when the cache was consulted.
        self._cache_fp = None

    def _cache(self):
        """The order cache this sort may use, or ``None``.

        The cache engages only where its bit-identical contract is
        provable: the in-memory auto-method path with offset-value
        codes requested.  Forced methods, ``use_ovc=False``, and the
        external-sort configuration stay cold.
        """
        if (
            self._config.cache == "off"
            or self._method != "auto"
            or not self._use_ovc
            or self._memory_capacity is not None
        ):
            return None
        from ..cache import resolve_cache

        return resolve_cache(self._config)

    def _serve(self, cache, table: Table) -> Table | None:
        """Ask the cache for this (source, order); remember the
        fingerprint so a cold execution can install its result."""
        from ..cache import serve

        outcome = serve(
            cache, table, self._spec, stats=self.stats, config=self._config
        )
        self._cache_fp = outcome.fingerprint
        if outcome.table is None:
            return None
        self.executed = "cache"
        self.order_strategy = outcome.label
        self.engine_ran = outcome.engine
        return outcome.table

    def _install(self, cache, result: Table, delta) -> None:
        from ..cache import install_result

        if cache is not None and self._cache_fp is not None:
            install_result(
                cache, self._cache_fp, self._spec, result,
                delta if self.engine_ran == "reference" else None,
            )

    def _observe(self, mark, before) -> None:
        """Close this sort's slowlog watch and log the decision.

        Called once per executed (non-passthrough) path, after the
        heavy work and before emission — what the threshold times is
        the sort, not the consumer.
        """
        if LOG.enabled:
            LOG.event(
                "sort.executed",
                executed=self.executed,
                strategy=self.order_strategy,
                engine=self.engine_ran,
            )
        SLOWLOG.record(
            mark, "sort", strategy=self.order_strategy,
            stats=self.stats - before, engine=self.engine_ran,
        )

    def _passthrough(self) -> bool:
        ordering = self._child.ordering
        return ordering is not None and ordering.satisfies(self._spec)

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self._passthrough():
            self.executed = "passthrough"
            self.order_strategy = "passthrough"
            arity = self._spec.arity
            for row, ovc in self._child:
                if ovc is None:
                    yield row, None
                elif ovc[0] >= arity:
                    yield row, (arity, 0)
                else:
                    yield row, ovc
            return
        yield from _emit(self._execute())

    def to_table(self) -> Table:
        if self._passthrough():
            return super().to_table()
        table = self._execute()
        if self._cache_fp is not None and table.ovcs is not None:
            # The lists may be shared with an order-cache entry; hand
            # the caller its own.
            table = Table(
                table.schema, list(table.rows), table.sort_spec,
                list(table.ovcs),
            )
        return table

    def _execute(self) -> Table:
        """Run the non-passthrough sort and return its output table."""
        child = self._child
        mark = SLOWLOG.mark()
        before = self.stats.snapshot()
        cache = self._cache()
        cfg = self._config

        if child.ordering is not None:
            table = child.to_table()
            if cache is not None and table.ovcs is not None:
                served = self._serve(cache, table)
                if served is not None:
                    self._observe(mark, before)
                    return served
            result, self.engine_ran = modify_with_engine(
                table, self._spec, self._method,
                self._use_ovc and table.ovcs is not None, self.stats, cfg,
            )
            self.executed = "modify_sort_order"
            self.order_strategy = (
                f"modify({','.join(str(c) for c in child.ordering)})"
            )
            self._install(cache, result, self.stats - before)
            self._observe(mark, before)
            return result

        rows = [row for row, _ovc in child]
        if (
            self._memory_capacity is not None
            and len(rows) > self._memory_capacity
        ):
            sorter = ExternalMergeSort(
                self._spec.positions(self.schema),
                memory_capacity=self._memory_capacity,
                fan_in=self._fan_in,
                use_ovc=self._use_ovc,
                directions=self._spec.directions,
            )
            result = sorter.sort(rows)
            self.executed = "external_sort"
            self.order_strategy = "external-sort"
            self.engine_ran = "reference"
            self.stats.merge(result.total_stats)
            self._observe(mark, before)
            return Table(self.schema, result.rows, self._spec, result.ovcs)

        if cache is not None:
            served = self._serve(cache, Table(self.schema, rows))
            if served is not None:
                self._observe(mark, before)
                return served

        sorted_rows, ovcs, self.engine_ran = sort_rows(
            rows, self._spec, self.schema, self.stats, cfg, self._use_ovc
        )
        self.executed = "internal_sort"
        self.order_strategy = "full-sort"
        result = Table(self.schema, sorted_rows, self._spec, ovcs)
        self._install(cache, result, self.stats - before)
        self._observe(mark, before)
        return result

    def _children(self) -> list[Operator]:
        return [self._child]

    def _explain_detail(self) -> str:
        base = super()._explain_detail()
        if self.order_strategy is not None:
            return f"{base} [strategy: {self.order_strategy}]"
        return base


def _emit(table: Table) -> Iterator[tuple[tuple, tuple | None]]:
    if table.ovcs is None:
        for row in table.rows:
            yield row, None
    else:
        yield from zip(table.rows, table.ovcs)
