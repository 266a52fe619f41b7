"""Output check, independent of the program's own code paths.

Each response is checked against its source and target order:

* its rows are a permutation of the source rows;
* the rows are sorted under the target key;
* its offset-value codes equal codes recomputed here, from the rows
  alone (not with ``repro.ovc``);
* every response for the same (source, order) is identical, rows and
  codes, whichever path served it (cold, cache hit, coalesced waiter,
  batch node, or an independent re-derivation).

All targets used by the benchmark are ascending, so the key of a row is
the plain tuple of its target columns.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter, le


def expected_codes(keys: list[tuple], varying=None) -> list[tuple]:
    """Paper-form ``(offset, value)`` codes for keys in sorted order.

    The first row is coded ``(0, first key value)``; an exact duplicate
    of its predecessor is ``(arity, 0)``; otherwise the offset is the
    length of the shared key prefix and the value the first differing
    key value.  ``varying`` lists, in key order, the key columns that are
    not constant over all rows (only those can differ); default all.
    """
    if not keys:
        return []
    arity = len(keys[0])
    if varying is None:
        varying = range(arity)
    codes = [(0, keys[0][0])]
    append = codes.append
    prev = keys[0]
    for key in keys[1:]:
        if key == prev:
            append((arity, 0))
        else:
            for d in varying:
                if key[d] != prev[d]:
                    append((d, key[d]))
                    break
        prev = key
    return codes


class _Source:
    """A registered source: its schema and two sorted views of its rows."""

    __slots__ = ("schema", "rows", "constant", "_ids", "_sorted")

    def __init__(self, table) -> None:
        self.schema = table.schema
        self.rows = table.rows
        self._ids = sorted(map(id, table.rows))
        self._sorted = None
        #: Schema positions whose value is the same in every row.
        self.constant = set()
        for p in range(len(table.schema.columns)):
            column = list(map(itemgetter(p), table.rows))
            if column and column.count(column[0]) == len(column):
                self.constant.add(p)

    def is_permutation(self, rows) -> bool:
        if len(rows) != len(self._ids):
            return False
        # The same row objects in another order is a permutation; rows
        # that were copied (e.g. read back from a spill file) are
        # compared by value.
        if sorted(map(id, rows)) == self._ids:
            return True
        if self._sorted is None:
            self._sorted = sorted(self.rows)
        return sorted(rows) == self._sorted


def problems(source: _Source, columns, table) -> str | None:
    """Why ``table`` is not a correct answer, or ``None`` when it is."""
    rows = table.rows
    if not source.is_permutation(rows):
        return "rows are not a permutation of the source"
    positions = [source.schema.columns.index(c) for c in columns]
    if len(positions) == 1:
        p = positions[0]
        keys = [(row[p],) for row in rows]
    else:
        keys = list(map(itemgetter(*positions), rows))
    if not all(map(le, keys, keys[1:])):
        i = next(i for i in range(1, len(keys)) if keys[i] < keys[i - 1])
        return f"rows {i - 1} and {i} are out of order"
    if table.ovcs is None:
        return "response carries no offset-value codes"
    want = expected_codes(
        keys, [d for d, p in enumerate(positions) if p not in source.constant]
    )
    if table.ovcs != want and [tuple(c) for c in table.ovcs] != want:
        got = [tuple(c) for c in table.ovcs]
        at = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w) \
            if len(got) == len(want) else min(len(got), len(want))
        return f"offset-value code of row {at} is wrong"
    return None


class OutputChecker:
    """Checks responses and remembers the first correct response per
    (source, order) to compare later ones against."""

    def __init__(self, max_sources: int = 2) -> None:
        self.max_sources = max_sources
        self._sources: OrderedDict = OrderedDict()
        #: (source uid, order label) -> (rows list, ovcs list)
        self._seen: dict = {}
        self.mismatches: list[str] = []

    def add_source(self, uid, table) -> None:
        """Register a source; the oldest beyond ``max_sources`` is
        forgotten together with its remembered responses."""
        self._sources[uid] = _Source(table)
        self._sources.move_to_end(uid)
        while len(self._sources) > self.max_sources:
            old, _ = self._sources.popitem(last=False)
            for key in [k for k in self._seen if k[0] == old]:
                del self._seen[key]

    def check(self, uid, label: str, columns, table) -> bool:
        """Check one response; returns False (and records why) on a
        mismatch."""
        key = (uid, label)
        seen = self._seen.get(key)
        if seen is not None:
            if (table.rows is seen[0] or table.rows == seen[0]) and (
                table.ovcs is seen[1]
                or [tuple(c) for c in table.ovcs or ()] == seen[1]
            ):
                return True
            return self._fail(
                f"{uid}/{label}: response differs from an earlier "
                f"response for the same source and order"
            )
        problem = problems(self._sources[uid], columns, table)
        if problem is not None:
            return self._fail(f"{uid}/{label}: {problem}")
        self._seen[key] = (table.rows, table.ovcs)
        return True

    def _fail(self, message: str) -> bool:
        self.mismatches.append(message)
        return False


def selftest() -> None:
    """The checker must reject two swapped rows and one wrong code."""
    import repro

    schema = repro.Schema.of("A", "B")
    rows = [(1, 5), (1, 7), (2, 0), (2, 0), (3, 1)]
    codes = [(0, 1), (1, 7), (0, 2), (2, 0), (0, 3)]
    columns = ["A", "B"]
    source = repro.Table(schema, list(reversed(rows)))

    def verdict(out_rows, out_codes):
        checker = OutputChecker()
        checker.add_source("s", source)
        table = repro.Table(schema, out_rows, repro.SortSpec(columns), out_codes)
        return checker.check("s", "AB", columns, table)

    if not verdict(list(rows), list(codes)):
        raise AssertionError("checker rejected a correct response")
    swapped = list(rows)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    if verdict(swapped, list(codes)):
        raise AssertionError("checker accepted two swapped rows")
    wrong = list(codes)
    wrong[3] = (1, 0)
    if verdict(list(rows), wrong):
        raise AssertionError("checker accepted a wrong offset-value code")
    if expected_codes([(1, 5), (1, 7), (1, 7)]) != [(0, 1), (1, 7), (2, 0)]:
        raise AssertionError("code recomputation is wrong")
    checker = OutputChecker()
    checker.add_source("s", source)
    good = repro.Table(schema, list(rows), repro.SortSpec(columns), list(codes))
    checker.check("s", "AB", columns, good)
    other = repro.Table(schema, swapped, repro.SortSpec(columns), list(codes))
    if checker.check("s", "AB", columns, other):
        raise AssertionError("checker accepted differing repeat responses")
