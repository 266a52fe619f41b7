"""Streaming order modification: one segment in memory at a time.

The paper's Section 3.5 notes that the run-time step "may materialize
the input in memory or on storage, either entirely or one segment at a
time".  :class:`StreamingModify` implements the segment-at-a-time
variant as a pull-based operator: it buffers only the current segment
(detected from input codes without comparisons), flushes its merged
rows downstream, and moves on — memory stays bounded by the largest
segment instead of the whole input, which is precisely how segmented
sorting turns one external sort into many internal ones (hypothesis 1).

For plans without a shared prefix (cases 2/3) the whole input is one
segment and this operator degenerates to the materializing path.

``config.engine == "fast"`` flushes each buffered segment through the
packed-code kernels (:func:`repro.fastpath.execute.fast_segment`)
instead of the instrumented executors: same rows and codes, no
comparison counts.  A streaming operator always collects its counters,
so under the one engine rule
(:func:`repro.exec.config.resolve_engine`) ``auto`` resolves to the
reference path.

``config.workers`` pipelines segment execution across worker processes
while preserving the streaming contract: consecutive segments are
batched into shards, dispatched to the pool as the input is consumed,
and re-emitted in segment order by the bounded ordered collector
(:mod:`repro.parallel`), so memory stays bounded by the shard size
times the in-flight cap rather than the whole input.  Reference-path
worker counters are merged into the operator's stats at end of stream.
"""

from __future__ import annotations

from typing import Iterator

from ..core.analysis import ModificationPlan, Strategy, analyze_order_modification
from ..core.merge_runs import merge_preexisting_runs
from ..core.segmented import sort_segment
from ..exec import faults as faults_mod
from ..exec.compat import resolve_config
from ..exec.config import ExecutionConfig, resolve_engine
from ..model import SortSpec
from ..obs import METRICS, TRACER
from ..ovc.derive import project_ovcs
from ..sorting.merge import _key_projector
from .operators import Operator


class StreamingModify(Operator):
    """Modify the child's sort order, one prefix segment at a time.

    The child must be ordered and coded.  Peak buffered rows are
    exposed as :attr:`peak_segment_rows` after execution.
    """

    def __init__(
        self,
        child: Operator,
        spec: SortSpec,
        shard_rows: int = 4096,
        config: "ExecutionConfig | None" = None,
        **legacy,
    ) -> None:
        if child.ordering is None:
            raise ValueError("streaming modification needs an ordered input")
        super().__init__(child.schema, spec, child.stats)
        self._config = resolve_config(config, "StreamingModify", **legacy)
        self._child = child
        self._spec = spec
        self._engine = resolve_engine(self._config.engine, counters=True)
        self._workers = self._config.workers
        self._shard_rows = shard_rows
        self.plan: ModificationPlan = analyze_order_modification(
            child.ordering, spec
        )
        if self.plan.backward:
            raise ValueError(
                "backward plans need the whole input; use the Sort operator"
            )
        self.peak_segment_rows = 0

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        plan = self.plan
        spec = self._spec
        schema = self.schema
        out_positions = spec.positions(schema)
        out_project = _key_projector(out_positions, spec.directions)
        in_spec = self._child.ordering
        in_project = _key_projector(
            in_spec.positions(schema), in_spec.directions
        )

        if plan.strategy is Strategy.NOOP:
            arity = spec.arity
            for row, ovc in self._child:
                if ovc is None:
                    yield row, None
                else:
                    yield row, project_ovcs([ovc], arity)[0]
            self.peak_segment_rows = 1
            return

        boundary = plan.prefix_len if plan.strategy is not Strategy.FULL_SORT else 0

        if (
            self._workers not in (None, 0, 1)
            and boundary > 0
            and plan.strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED)
        ):
            from ..parallel.api import resolve_workers

            n_workers = resolve_workers(self._workers)
            if n_workers > 1:
                yield from self._iter_parallel(plan, spec, boundary, n_workers)
                return

        seg_rows: list[tuple] = []
        seg_ovcs: list[tuple] = []

        def flush() -> Iterator[tuple[tuple, tuple | None]]:
            if not seg_rows:
                return
            self.peak_segment_rows = max(self.peak_segment_rows, len(seg_rows))
            if METRICS.enabled:
                METRICS.gauge("streaming.buffered_rows").set(len(seg_rows))
            out_rows: list[tuple] = []
            out_ovcs: list[tuple] = []
            with TRACER.span(
                "streaming.segment", rows=len(seg_rows), engine=self._engine
            ):
                if self._engine == "fast":
                    from ..fastpath.execute import fast_segment

                    out_rows, out_ovcs = fast_segment(
                        seg_rows, seg_ovcs, plan, spec, out_positions,
                        plan.strategy,
                    )
                elif plan.strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED):
                    merge_preexisting_runs(
                        seg_rows, seg_ovcs, 0, len(seg_rows), plan,
                        out_project, in_project, self.stats, out_rows,
                        out_ovcs, use_ovc=True,
                        respect_prefix=plan.strategy is Strategy.COMBINED,
                    )
                else:
                    sort_segment(
                        seg_rows, seg_ovcs, 0, len(seg_rows), plan.prefix_len,
                        spec.arity, out_project, self.stats, out_rows,
                        out_ovcs, use_ovc=True,
                    )
            yield from zip(out_rows, out_ovcs)
            seg_rows.clear()
            seg_ovcs.clear()

        for row, ovc in self._child:
            if ovc is None:
                raise ValueError(
                    "streaming modification requires offset-value codes"
                )
            if seg_rows and boundary > 0 and ovc[0] < boundary:
                yield from flush()
            seg_rows.append(row)
            seg_ovcs.append(ovc)
        yield from flush()

    def _iter_parallel(
        self, plan: ModificationPlan, spec: SortSpec, boundary: int,
        n_workers: int,
    ) -> Iterator[tuple[tuple, tuple]]:
        """Pipeline segments through the worker pool, in segment order.

        Consecutive segments accumulate into shards of at least
        ``shard_rows`` rows (whole segments only) so tiny segments do
        not drown the pool in per-task IPC; the ordered collector then
        streams shard outputs back in global order.
        """
        from ..parallel.pool import ShardExecutor
        from ..parallel.worker import ShardContext

        ctx = ShardContext(
            schema=self.schema,
            input_spec=self._child.ordering,
            output_spec=spec,
            plan=plan,
            strategy=plan.strategy,
            use_fast=self._engine == "fast",
            collect_stats=self._engine != "fast",
            trace=TRACER.enabled,
            collect_metrics=METRICS.enabled,
            faults=faults_mod.from_env(),
        )
        shard_rows = max(1, self._shard_rows)

        def shards() -> Iterator[tuple[list[tuple], list[tuple]]]:
            buf_rows: list[tuple] = []
            buf_ovcs: list[tuple] = []
            seg_start = 0
            for row, ovc in self._child:
                if ovc is None:
                    raise ValueError(
                        "streaming modification requires offset-value codes"
                    )
                if buf_rows and ovc[0] < boundary:
                    self.peak_segment_rows = max(
                        self.peak_segment_rows, len(buf_rows) - seg_start
                    )
                    if len(buf_rows) >= shard_rows:
                        yield buf_rows, buf_ovcs
                        buf_rows, buf_ovcs = [], []
                    seg_start = len(buf_rows)
                buf_rows.append(row)
                buf_ovcs.append(ovc)
            if buf_rows:
                self.peak_segment_rows = max(
                    self.peak_segment_rows, len(buf_rows) - seg_start
                )
                yield buf_rows, buf_ovcs

        executor = ShardExecutor(
            ctx, n_workers, retry_policy=self._config.retry_policy
        )
        with TRACER.span(
            "streaming.parallel", workers=n_workers, engine=self._engine
        ):
            for rows_chunk, ovcs_chunk in executor.run(shards()):
                yield from zip(rows_chunk, ovcs_chunk)
        if executor.stats is not None:
            self.stats.merge(executor.stats)
        from ..parallel.api import stitch_telemetry

        stitch_telemetry(executor.telemetry)

    def _children(self) -> list[Operator]:
        return [self._child]
