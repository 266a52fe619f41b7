"""Leaf operators: scans of tables, b-trees, and column stores.

All three deliver offset-value codes with their rows at no comparison
cost — the codes were cached when the data was written (table codes
are derived once and stored; b-tree leaves and column-store run
lengths encode them structurally).
"""

from __future__ import annotations

from typing import Iterator

from ..model import Table
from ..ovc.stats import ComparisonStats
from ..storage.btree import BTree
from ..storage.colstore import ColumnStore
from .operators import Operator


class TableScan(Operator):
    """Scan an in-memory table; codes come from the table."""

    def __init__(self, table: Table, stats: ComparisonStats | None = None) -> None:
        if table.sort_spec is not None:
            table.with_ovcs()
        super().__init__(table.schema, table.sort_spec, stats)
        self._table = table

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        table = self._table
        if table.ovcs is None:
            for row in table.rows:
                yield row, None
        else:
            yield from zip(table.rows, table.ovcs)

    def to_table(self) -> Table:
        """A table over the scanned lists, without re-collecting rows."""
        table = self._table
        ovcs = table.ovcs if table.sort_spec is not None else None
        return Table(table.schema, table.rows, table.sort_spec, ovcs)

    def _explain_detail(self) -> str:
        return f"({len(self._table)} rows)" + super()._explain_detail()


class BTreeScan(Operator):
    """Ordered scan of a b-tree; leaf prefix truncation supplies codes."""

    def __init__(self, tree: BTree, stats: ComparisonStats | None = None) -> None:
        super().__init__(tree.schema, tree.sort_spec, stats)
        self._tree = tree

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        yield from self._tree.scan()

    def _explain_detail(self) -> str:
        return f"({len(self._tree)} rows)" + super()._explain_detail()


class ColumnStoreScan(Operator):
    """Transposing scan of an RLE column store (hypothesis 6): rows and
    codes materialize from run boundaries without comparisons."""

    def __init__(
        self, store: ColumnStore, stats: ComparisonStats | None = None
    ) -> None:
        super().__init__(store.schema, store.sort_spec, stats)
        self._store = store

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        yield from self._store.iter_rows_with_ovcs()

    def _explain_detail(self) -> str:
        return f"({len(self._store)} rows)" + super()._explain_detail()
