"""Seeded inputs: the two source shapes and the target orders over them.

Every source is built here from a seed and handed to the program only as
a ``repro.Table`` sorted on its declared order, with offset-value codes
attached by ``Table.with_ovcs()``.

* ``narrow``: columns ``A,B,C,D,E`` sorted on ``A,B,C,D``; small domains
  give many segments (distinct ``A``) and many pre-existing runs
  (distinct ``A,B``).  ``E`` is an unsorted payload column.
* ``wide``: three 8-column key lists ``A0..A7, B0..B7, C0..C7`` sorted on
  all 24, where only the last column of each list varies, so every
  comparison runs to the end of a list (the paper's Fig. 10/11 shape),
  plus the payload ``E``.

Targets are named by the Table 1 case the analysis assigns them
(``case0`` .. ``case7``) plus ``full``, an unrelated order whose only
plan is a full sort.
"""

from __future__ import annotations

import random

import repro

SHAPES = ("narrow", "wide")

_WIDE_LISTS = {
    letter: [f"{letter}{i}" for i in range(8)] for letter in ("A", "B", "C")
}
_A, _B, _C = _WIDE_LISTS["A"], _WIDE_LISTS["B"], _WIDE_LISTS["C"]

#: shape -> ordered (label, target columns).  ``repro.analyze_order_
#: modification`` must report the labelled case (checked by
#: :func:`check_case_mix`).
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
        ("case4", _A + ["C7"]),
        ("case5", _A + _C + _B),
        ("case6", _A + _C),
        ("case7", _A + _C[:4] + _B + _C[4:]),
        ("full", ["E", "A7"]),
    ],
}


def make_source(shape: str, n_rows: int, seed: str) -> repro.Table:
    """One sorted source table with codes, fully determined by ``seed``."""
    rng = random.Random(seed)
    if shape == "narrow":
        rows = [
            (
                rng.randrange(64), rng.randrange(16), rng.randrange(64),
                rng.randrange(256), rng.randrange(1 << 30),
            )
            for _ in range(n_rows)
        ]
        rows.sort(key=lambda r: r[:4])
        schema = repro.Schema.of("A", "B", "C", "D", "E")
        order = repro.SortSpec.of("A", "B", "C", "D")
        return repro.Table(schema, rows, order).with_ovcs()
    if shape != "wide":
        raise ValueError(f"unknown shape {shape!r}")
    n_segments = 32
    zeros = (0,) * 7
    rows = []
    seg_base, seg_extra = divmod(n_rows, n_segments)
    for seg in range(n_segments):
        seg_size = seg_base + (1 if seg < seg_extra else 0)
        n_runs = max(1, round(seg_size ** 0.5))
        run_base, run_extra = divmod(seg_size, n_runs)
        for run in range(n_runs):
            size = run_base + (1 if run < run_extra else 0)
            values = sorted(rng.randrange(n_runs) for _ in range(size))
            head = zeros + (seg,) + zeros + (run,) + zeros
            for v in values:
                rows.append(head + (v, rng.randrange(1 << 30)))
    columns = _A + _B + _C
    schema = repro.Schema(tuple(columns) + ("E",))
    return repro.Table(schema, rows, repro.SortSpec(columns)).with_ovcs()


def check_case_mix() -> None:
    """Raise unless every target lands on the Table 1 case it is named for."""
    for shape in SHAPES:
        source_order = make_source(shape, 64, "case-mix").sort_spec
        for label, columns in TARGETS[shape]:
            plan = repro.analyze_order_modification(
                source_order, repro.SortSpec(columns)
            )
            got = "full" if plan.strategy is repro.Strategy.FULL_SORT \
                else f"case{plan.case_id}"
            if got != label:
                raise RuntimeError(
                    f"{shape} target {label} is analysed as {got}"
                )
