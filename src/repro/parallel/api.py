"""Parallel order modification: the subsystem's entry points.

:func:`parallel_modify` is the multi-core twin of the strategy branches
in :func:`repro.core.modify.modify_sort_order`: the planner shards the
segments, a worker pool executes the shards, and the ordered collector
reassembles the output — rows *and* offset-value codes bit-identical to
a serial run, because no comparison ever crosses a segment boundary.
It returns ``None`` whenever the planner declines (tiny input, single
segment, unshardable strategy, one worker), leaving the caller on the
serial path; callers therefore never pay pool overhead for jobs that
cannot amortize it.

Worker engine selection is the serial dispatcher's rule
(:func:`repro.exec.config.resolve_engine`): shards run the
packed-code fast kernels exactly when the caller's ``engine``/
``stats``/``max_fan_in`` combination would have chosen them serially,
and the instrumented reference executors otherwise.  Reference shards
ship their comparison counters home with their final chunk, so a
caller-supplied :class:`~repro.ovc.stats.ComparisonStats` ends up with
exactly the counts a serial reference run would have produced (the
per-segment work is identical; only its distribution over processes
changes).
"""

from __future__ import annotations

import os

from ..core.analysis import ModificationPlan, Strategy
from ..exec import faults as faults_mod
from ..exec.config import ExecutionConfig, resolve_engine
from ..model import SortSpec, Table
from ..obs import METRICS, TRACER
from ..ovc.stats import ComparisonStats
from . import calibrate
from .planner import ShardPlan, plan_shards
from .pool import DEFAULT_CHUNK_ROWS, ShardExecutor
from .worker import ShardContext


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers=`` knob to a concrete worker count.

    ``None``/``0``/``1`` mean serial; ``"auto"`` asks the OS for the
    core count; explicit integers are taken at face value (they may
    exceed the core count — useful for testing oversubscription).
    """
    if workers is None:
        return 1
    if workers == "auto":
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be an int, 'auto', or None; got {workers!r}"
        )
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return max(workers, 1)


def parallel_modify(
    table: Table,
    new_spec: SortSpec,
    plan: ModificationPlan,
    strategy: Strategy,
    workers: int | str | None,
    engine: str = "auto",
    stats: ComparisonStats | None = None,
    max_fan_in: int | None = None,
    min_rows: int | None = None,
    chunk_rows: int | None = None,
    start_method: str | None = None,
    config: ExecutionConfig | None = None,
    segments: list[tuple[int, int]] | None = None,
    sink=None,
    faults=None,
    data_plane: str | None = None,
) -> Table | None:
    """Execute ``strategy`` across worker processes; ``None`` if serial.

    The table must carry offset-value codes (segment boundaries and the
    executors read them).  When a result is returned it is bit-identical
    to the serial engines' output, and ``stats`` (if given) has absorbed
    the workers' reference-path counters.

    ``config`` supplies engine, fan-in cap, data-plane choice, and the
    pool's retry/timeout policy in one object (overriding the loose
    ``engine``/``max_fan_in`` parameters); ``segments`` are
    pre-computed segment boundaries (classification runs once, in the
    dispatcher); ``sink`` is an optional governed output buffer that
    absorbs ordered chunks as they stream (spilling under budget
    pressure); ``faults`` overrides the injected-fault plan (defaults
    to ``REPRO_FAULTS``).

    ``data_plane`` selects the worker IPC protocol: ``"auto"`` (the
    default) uses the zero-copy shared-memory plane whenever it can —
    fast-path engine, ``fork`` start method — and the legacy pickled
    chunks otherwise; ``"shm"`` forces the plane (``ValueError`` when
    impossible); ``"pickle"`` forces the legacy protocol.

    ``workers="auto"`` is *adaptive*: besides the core count, it
    consults the per-host calibration (:mod:`repro.parallel.calibrate`)
    and stays serial whenever the measured break-even input size says
    the pool cannot win — so "auto" never regresses a serial run.
    Explicit worker counts are taken at face value.
    """
    retry_policy = None
    if config is not None:
        engine = config.engine
        max_fan_in = config.max_fan_in
        retry_policy = config.retry_policy
        if data_plane is None:
            data_plane = config.data_plane
    if data_plane is None:
        data_plane = os.environ.get("REPRO_DATA_PLANE") or "auto"
    n_workers = resolve_workers(workers)
    if n_workers < 2:
        # Covers workers="auto" on a single-core host: resolve to
        # serial immediately, before any planning or pool cost.
        return None
    if workers == "auto" and min_rows is None:
        threshold = calibrate.get().min_parallel_rows(n_workers)
        if len(table.rows) < threshold:
            if METRICS.enabled:
                METRICS.counter("pool.adaptive_serial").inc()
            return None
    shard_plan = plan_shards(
        table.ovcs, len(table.rows), plan, strategy, n_workers,
        min_rows=min_rows, segments=segments,
    )
    if not shard_plan.parallel:
        return None

    ctx = ShardContext(
        schema=table.schema,
        input_spec=table.sort_spec,
        output_spec=new_spec,
        plan=plan,
        strategy=strategy,
        use_fast=resolve_engine(
            engine, max_fan_in=max_fan_in, counters=stats is not None
        ) == "fast",
        collect_stats=stats is not None,
        max_fan_in=max_fan_in,
        trace=TRACER.enabled,
        collect_metrics=METRICS.enabled,
        faults=faults_mod.from_env() if faults is None else tuple(faults),
    )
    executor = ShardExecutor(
        ctx, n_workers, chunk_rows=chunk_rows, start_method=start_method,
        retry_policy=retry_policy,
    )
    rows, ovcs = table.rows, table.ovcs
    plane_ok = ctx.use_fast and executor.start_method == "fork"
    if data_plane == "shm" and not plane_ok:
        raise ValueError(
            "data_plane='shm' needs the fork start method and a fast-path "
            "engine (no stats, no fan-in cap)"
        )
    if plane_ok and data_plane != "pickle":
        stream = executor.run_plane(
            rows, ovcs, [(s.lo, s.hi) for s in shard_plan.shards]
        )
    else:
        stream = executor.run(
            (rows[s.lo : s.hi], ovcs[s.lo : s.hi]) for s in shard_plan.shards
        )
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    with TRACER.span(
        "parallel.modify",
        workers=n_workers,
        shards=len(shard_plan.shards),
        strategy=strategy.name.lower(),
    ):
        for chunk_rows_batch, chunk_ovcs in stream:
            if sink is not None:
                sink.absorb(chunk_rows_batch, chunk_ovcs)
            else:
                out_rows.extend(chunk_rows_batch)
                out_ovcs.extend(chunk_ovcs)
    if stats is not None and executor.stats is not None:
        stats.merge(executor.stats)
    stitch_telemetry(executor.telemetry)
    if sink is not None:
        out_rows, out_ovcs = sink.materialize()
    return Table(table.schema, out_rows, new_spec, out_ovcs)


def stitch_telemetry(telemetry: list[tuple[int, dict]]) -> None:
    """Fold per-shard worker telemetry into this process's collectors.

    Span records (already tagged worker/shard by the worker) land in
    the main tracer in shard order — the stitched timeline — and metric
    snapshots merge into the main registry.
    """
    for _shard, shipped in telemetry:
        if shipped.get("spans"):
            TRACER.add_records(shipped["spans"])
        if shipped.get("metrics"):
            METRICS.merge(shipped["metrics"])
