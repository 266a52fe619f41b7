"""Batch derivation-planner benchmark: shared tree vs independent runs.

The planner's claim is throughput: N distinct-but-related orders over
one source cost far fewer comparisons as a shared derivation tree —
each order modified from its cheapest already-produced relative — than
as N independent ``Sort`` executions.  This module measures exactly
that, wall-clock, on the serve benchmark's duplicate-heavy table: for
each batch size it times every order executed independently (the
serving layer's pre-planner behavior), then the same batch through
:func:`repro.plan.derive_batch` (planning overhead included), and
verifies every planned output bit-identical to its solo run — rows and
codes always, comparison counters too for nodes derived straight from
the source.  The gated sweep runs on the instrumented reference engine
(counters are collected only on request), where the committed record
was taken.  The same batches are also timed on the caller's
configuration — the default engine — and checked for rows and codes;
those ``*_default`` figures are reported, not gated.

The committed artifact is ``BENCH_plan.json``; the CI gate requires
``fidelity_ok`` always and, at the committed scale (>= 2^16 rows), a
>= 1.5x geomean speedup.  Smoke runs at smaller scales gate on
fidelity only — wall-clock ratios at a few thousand rows are noise.
"""

from __future__ import annotations

import itertools
import json
import platform
import time

from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec import ExecutionConfig
from ..model import Schema, SortSpec, Table
from ..plan import derive_batch
from ..workloads.generators import random_table

_SCHEMA = Schema.of("A", "B", "C", "D")
_DOMAINS = {"A": 32, "B": 64, "C": 256, "D": 8}
#: Geomean wall-clock gate at the committed scale.
GATE_MIN_GEOMEAN = 1.5
#: Row count at and above which the speedup gate applies.
GATE_MIN_ROWS = 1 << 16


def related_orders(columns, k: int) -> list[SortSpec]:
    """``k`` distinct orders related to ``columns``: the rotations
    first (the cheapest family — long shared prefixes between
    neighbors), then the remaining permutations, identity excluded."""
    cols = tuple(columns)
    seen = {cols}
    out: list[SortSpec] = []
    for i in range(1, len(cols)):
        rotation = cols[i:] + cols[:i]
        if rotation not in seen:
            seen.add(rotation)
            out.append(SortSpec.of(*rotation))
            if len(out) == k:
                return out
    for perm in itertools.permutations(cols):
        if perm not in seen:
            seen.add(perm)
            out.append(SortSpec.of(*perm))
            if len(out) == k:
                return out
    raise ValueError(
        f"only {len(out)} related orders exist for {len(cols)} columns"
    )


def _solo(source: Table, spec: SortSpec, cfg: ExecutionConfig):
    op = Sort(TableScan(source), spec, config=cfg)
    out = op.to_table()
    return out, op.stats.as_dict()


def run_plan_trajectory(
    n_rows: int,
    seed: int = 0,
    batch_sizes: tuple = (4, 8, 16),
    config: ExecutionConfig | None = None,
) -> dict:
    """The full sweep; returns the JSON-ready record.

    The gated sweep runs on the reference engine: the planner's claim
    is its comparison economics, which only that engine counts, and the
    committed record was taken there.  Source-derived nodes must count
    exactly what their solo runs count.  The same batch is timed on
    ``config`` itself (the default engine) as well, solo and planned;
    its rows and codes must match the reference solo runs too.
    """
    cfg = config if config is not None else ExecutionConfig(cache="off")
    timed = cfg.with_(engine="reference")
    table = random_table(
        _SCHEMA, n_rows,
        domains=[_DOMAINS[c] for c in _SCHEMA.columns],
        seed=seed,
    )
    base = SortSpec.of(*_SCHEMA.columns)
    source = Sort(TableScan(table), base, config=cfg).to_table()

    cells = []
    fidelity_problems: list[str] = []
    for k in batch_sizes:
        orders = related_orders(_SCHEMA.columns, k)

        begin = time.perf_counter()
        references = [_solo(source, spec, timed) for spec in orders]
        wall_independent = time.perf_counter() - begin

        begin = time.perf_counter()
        result = derive_batch(source, orders, config=timed)
        wall_planned = time.perf_counter() - begin

        begin = time.perf_counter()
        for spec in orders:
            _solo(source, spec, cfg)
        wall_independent_default = time.perf_counter() - begin

        begin = time.perf_counter()
        default = derive_batch(source, orders, config=cfg)
        wall_planned_default = time.perf_counter() - begin

        for spec, (ref_table, ref_stats) in zip(orders, references):
            label = ",".join(str(c) for c in spec.columns)
            for engine, batch in (("reference", result), ("default", default)):
                node = batch.result_for(spec)
                if node.table.rows != ref_table.rows:
                    fidelity_problems.append(
                        f"batch {k}, order {label}: rows diverged"
                        f" ({engine} engine)"
                    )
                if node.table.ovcs != ref_table.ovcs:
                    fidelity_problems.append(
                        f"batch {k}, order {label}: codes diverged"
                        f" ({engine} engine)"
                    )
            parent = result.plan.nodes[result.plan.nodes[
                result.plan.spec_nodes[spec]].parent]
            if (
                parent.kind == "source"
                and result.result_for(spec).stats_delta.as_dict() != ref_stats
            ):
                fidelity_problems.append(
                    f"batch {k}, order {label}: source-derived counters"
                    f" diverged"
                )

        cells.append({
            "batch": k,
            "wall_independent_s": round(wall_independent, 4),
            "wall_planned_s": round(wall_planned, 4),
            "speedup": _ratio(wall_independent, wall_planned),
            "wall_independent_default_s": round(wall_independent_default, 4),
            "wall_planned_default_s": round(wall_planned_default, 4),
            "speedup_default": _ratio(
                wall_independent_default, wall_planned_default
            ),
            "est_speedup": round(min(result.plan.est_speedup, 1e6), 3),
            "sibling_edges": result.plan.sibling_edges(),
            "fallbacks": result.fallbacks,
        })

    speedups = [c["speedup"] for c in cells]
    return {
        "n_rows": n_rows,
        "seed": seed,
        "python": platform.python_version(),
        "engine": timed.engine,
        "batch_sizes": list(batch_sizes),
        "cells": cells,
        "min_speedup": round(min(speedups), 3) if speedups else 0.0,
        "geomean_speedup": _geomean(speedups),
        "default_engine": cfg.engine,
        "geomean_speedup_default": _geomean(
            [c["speedup_default"] for c in cells]
        ),
        "gate_min_geomean": (
            GATE_MIN_GEOMEAN if n_rows >= GATE_MIN_ROWS else None
        ),
        "fidelity_ok": not fidelity_problems,
        "fidelity_problems": fidelity_problems,
    }


def _ratio(independent: float, planned: float) -> float:
    return round(independent / planned, 3) if planned > 0 else float("inf")


def _geomean(values: list) -> float:
    geomean = 1.0
    for v in values:
        geomean *= v
    return round(geomean ** (1.0 / len(values)), 3) if values else 0.0


def check_plan_record(record: dict) -> list[str]:
    """CI-gate findings for a planner record (empty = pass)."""
    problems = list(record.get("fidelity_problems", []))
    gate = record.get("gate_min_geomean")
    if gate is not None and record["geomean_speedup"] < gate:
        problems.append(
            f"geomean speedup {record['geomean_speedup']}x below the "
            f"{gate}x gate at {record['n_rows']:,} rows"
        )
    return problems


def write_plan_trajectory(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def format_plan_summary(record: dict) -> list[dict]:
    """Display rows for :func:`repro.bench.harness.format_table`."""
    return [
        {
            "batch": cell["batch"],
            "independent_s": cell["wall_independent_s"],
            "planned_s": cell["wall_planned_s"],
            "speedup": cell["speedup"],
            "speedup_default": cell.get("speedup_default"),
            "est_speedup": cell["est_speedup"],
            "sibling_edges": cell["sibling_edges"],
            "fallbacks": cell["fallbacks"],
        }
        for cell in record["cells"]
    ]
