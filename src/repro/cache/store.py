"""The order cache's store: a thread-safe LRU/TTL map of sorted orders.

One entry is one previously produced sort order — the output rows of a
``Sort`` *with their offset-value codes* — keyed by the content
fingerprint of the source multiset plus the :class:`~repro.model.
SortSpec` that was enforced.  The store is deliberately dumb about
*how* entries get used: exact-hit serving, candidate selection, and
the modify-from-cached-order dispatch all live in
:mod:`repro.cache.dispatch`; here live the mechanics every policy
shares:

* **Thread safety** — one re-entrant lock around every map operation;
  readers get immutable snapshots (:class:`CachedOrder`) assembled
  under the lock, so a concurrent eviction can never tear an entry.
* **Memory accounting** — resident bytes are charged to a
  :class:`~repro.exec.memory.MemoryAccountant` (category
  ``cache.entries``); exceeding the budget triggers the pressure loop.
* **Spill / rehydrate** — under pressure, cold entries are written
  through a :class:`~repro.exec.spill.SpillManager` and their lists
  released; a later hit rehydrates them bit-identically.  With
  spilling disabled (no budget relief possible) cold entries are
  evicted outright.
* **TTL** — entries older than ``ttl`` seconds are expired lazily on
  access and on install.

Counters (``hits``, ``misses``, ``installs``, ``evictions``,
``expirations``, ``spills``, ``rehydrates``) are maintained under the
same lock, so ``hits + misses`` always equals the number of exact
lookups — the monotonic-consistency property the concurrency tests
pin down.  When the global metrics registry is enabled the same
events are published under ``cache.*`` names.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..exec.memory import MemoryAccountant, rows_nbytes
from ..exec.spill import SpillHandle, SpillManager
from ..model import Schema, SortSpec, Table
from ..obs import METRICS
from ..ovc.stats import ComparisonStats
from .fingerprint import Fingerprint

#: Accounting category for resident entry bytes.
CATEGORY = "cache.entries"


@dataclass(frozen=True)
class CachedOrder:
    """Immutable reader snapshot of one cache entry.

    ``rows`` / ``ovcs`` are the entry's lists, shared (never copied) —
    treat them as frozen.  ``offset_counts[k]`` is the number of codes
    with offset exactly ``k`` (length ``arity + 1``), from which the
    dispatcher derives segment and run counts without rescanning.
    ``stats_delta`` is the comparison work the producing execution
    spent, or ``None`` when that execution collected no counters (the
    fast engine); ``replayable`` marks entries whose producing
    execution was identical to what an uncached ``Sort`` would have
    run, i.e. whose delta can be replayed for exact count parity with
    ``cache=off``.
    """

    spec: SortSpec
    rows: list
    ovcs: list
    stats_delta: ComparisonStats | None
    offset_counts: tuple
    tie_free: bool
    sequence: int
    replayable: bool
    #: Accounted size; the same for every order of one row multiset.
    nbytes: int

    def as_table(self, schema: Schema) -> Table:
        return Table(schema, self.rows, self.spec, self.ovcs)


class _Entry:
    __slots__ = (
        "source_key", "spec", "rows", "ovcs", "stats_delta",
        "offset_counts", "tie_free", "sequence", "replayable",
        "nbytes", "built_at", "handle",
    )

    def __init__(self, source_key, spec, rows, ovcs, stats_delta,
                 offset_counts, tie_free, sequence, replayable,
                 nbytes, built_at) -> None:
        self.source_key = source_key
        self.spec = spec
        self.rows = rows
        self.ovcs = ovcs
        self.stats_delta = stats_delta
        self.offset_counts = offset_counts
        self.tie_free = tie_free
        self.sequence = sequence
        self.replayable = replayable
        self.nbytes = nbytes
        self.built_at = built_at
        #: Spill handle while non-resident (rows/ovcs are then None).
        self.handle: SpillHandle | None = None

    @property
    def resident(self) -> bool:
        return self.rows is not None

    def snapshot(self) -> CachedOrder:
        return CachedOrder(
            self.spec, self.rows, self.ovcs, self.stats_delta,
            self.offset_counts, self.tie_free, self.sequence,
            self.replayable, self.nbytes,
        )


def _offset_counts(ovcs: list, arity: int) -> tuple:
    """Per-offset code counts (offsets past the arity fold into it)."""
    counts = [0] * (arity + 1)
    for off, _v in ovcs:
        counts[min(off, arity)] += 1
    return tuple(counts)


class OrderCache:
    """In-process cache of sorted outputs, LRU + TTL + budget-governed.

    Parameters
    ----------
    budget:
        Resident-byte budget (``parse_memory`` already applied by the
        config layer; here an int or ``None`` for unlimited).
    ttl:
        Entry lifetime in seconds (``None`` = no expiry).
    spill_dir:
        Parent directory for the spill manager (system temp when
        ``None``).
    spill:
        Whether budget pressure spills cold entries (default) or
        evicts them outright.
    max_entries:
        Hard cap on stored orders (spilled ones included); the LRU
        entry is evicted beyond it.
    clock:
        Injectable monotonic clock for TTL tests.
    """

    def __init__(
        self,
        budget: int | None = None,
        ttl: float | None = None,
        spill_dir: str | None = None,
        spill: bool = True,
        max_entries: int | None = None,
        clock=time.monotonic,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.accountant = MemoryAccountant(budget)
        self.ttl = ttl
        self.spill_enabled = spill
        self.max_entries = max_entries
        self._clock = clock
        self._spill_dir = spill_dir
        self._spill: SpillManager | None = None
        # Event counters (all mutated under the lock).
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.expirations = 0
        self.spills = 0
        self.rehydrates = 0
        self.rejected = 0

    # ----------------------------------------------------------- helpers

    def _spill_manager(self) -> SpillManager:
        if self._spill is None:
            self._spill = SpillManager(self._spill_dir)
        return self._spill

    def _expired(self, entry: _Entry, now: float) -> bool:
        return self.ttl is not None and now - entry.built_at > self.ttl

    def _publish_levels(self) -> None:
        if METRICS.enabled:
            METRICS.gauge("cache.bytes_resident").set(self.accountant.used)
            METRICS.gauge("cache.entries").set(len(self._entries))

    def _count(self, name: str) -> None:
        if METRICS.enabled:
            METRICS.counter("cache." + name).inc()

    def _drop(self, key: tuple, entry: _Entry, reason: str) -> None:
        """Remove one entry entirely (lock held)."""
        del self._entries[key]
        if entry.resident:
            self.accountant.release(CATEGORY, entry.nbytes)
            entry.rows = entry.ovcs = None
        if entry.handle is not None:
            entry.handle.release()
            entry.handle = None
        if reason == "expired":
            self.expirations += 1
            self._count("expirations")
        else:
            self.evictions += 1
            self._count("evictions")
        self._publish_levels()

    def _spill_entry(self, key: tuple, entry: _Entry) -> None:
        """Write a resident entry out and release its lists (lock held)."""
        entry.handle = self._spill_manager().spill(
            entry.rows, entry.ovcs, category="cache"
        )
        entry.rows = entry.ovcs = None
        self.accountant.release(CATEGORY, entry.nbytes)
        self.spills += 1
        self._count("spills")
        self._publish_levels()

    def _rehydrate(self, entry: _Entry) -> None:
        """Load a spilled entry back in (lock held)."""
        rows, ovcs = entry.handle.read()
        entry.handle.release()
        entry.handle = None
        entry.rows, entry.ovcs = rows, ovcs
        self.accountant.charge(CATEGORY, entry.nbytes)
        self.rehydrates += 1
        self._count("rehydrates")

    def _pressure(self, protect: tuple | None = None) -> None:
        """Spill (or evict) LRU-first until back under budget (lock held)."""
        while self.accountant.over_budget():
            victim_key = None
            for key, entry in self._entries.items():  # LRU order
                if key != protect and entry.resident:
                    victim_key = key
                    break
            if victim_key is None:
                break
            entry = self._entries[victim_key]
            if self.spill_enabled:
                self._spill_entry(victim_key, entry)
            else:
                self._drop(victim_key, entry, "evicted")
        self._publish_levels()

    def _purge_expired(self, now: float) -> None:
        for key in [
            k for k, e in self._entries.items() if self._expired(e, now)
        ]:
            self._drop(key, self._entries[key], "expired")

    # ------------------------------------------------------------- reads

    def lookup(self, fp: Fingerprint, spec: SortSpec) -> CachedOrder | None:
        """Exact lookup: the requested order for this row multiset.

        A valid entry must be unexpired and *sequence-safe*: an output
        containing full-key duplicates depends on the source sequence,
        so it is reusable verbatim only when the live source's sequence
        hash matches the one it was built from (tie-free entries are
        reusable from any arrangement).  Sequence-unsafe entries are
        reported as misses here; the dispatcher may still reuse them as
        modify candidates, re-breaking ties against the live sequence.
        """
        key = (fp.source_key, spec)
        with self._lock:
            entry = self._entries.get(key)
            now = self._clock()
            if entry is not None and self._expired(entry, now):
                self._drop(key, entry, "expired")
                entry = None
            if entry is not None and not entry.tie_free \
                    and entry.sequence != fp.sequence:
                entry = None
            if entry is None:
                self.misses += 1
                self._count("misses")
                return None
            if not entry.resident:
                self._rehydrate(entry)
            self._entries.move_to_end(key)
            snap = entry.snapshot()
            self.hits += 1
            self._count("hits")
            self._pressure(protect=key)
            return snap

    def candidates(
        self, fp: Fingerprint, exclude: SortSpec | None = None
    ) -> list[CachedOrder]:
        """Every unexpired order cached for this row multiset.

        Metadata-only snapshots for cost estimation: spilled entries
        are *not* rehydrated (their ``rows`` are ``None``); call
        :meth:`fetch` once a candidate is chosen.
        """
        out: list[CachedOrder] = []
        with self._lock:
            now = self._clock()
            self._purge_expired(now)
            for (src, spec), entry in self._entries.items():
                if src != fp.source_key or spec == exclude:
                    continue
                out.append(entry.snapshot())
        return out

    def fetch(self, fp: Fingerprint, spec: SortSpec) -> CachedOrder | None:
        """Materialize one order for use as a modify source (LRU touch,
        rehydrating if spilled; no hit/miss accounting)."""
        key = (fp.source_key, spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry, self._clock()):
                return None
            if not entry.resident:
                self._rehydrate(entry)
            self._entries.move_to_end(key)
            snap = entry.snapshot()
            self._pressure(protect=key)
            return snap

    # ------------------------------------------------------------ writes

    def install(
        self,
        fp: Fingerprint,
        spec: SortSpec,
        rows: list,
        ovcs: list,
        stats_delta: ComparisonStats | None,
        replayable: bool = True,
    ) -> bool:
        """Insert (or refresh) the sorted output for ``(fp, spec)``.

        ``stats_delta`` is ``None`` when the producing execution
        collected no comparison counters.

        Every order of one row multiset has the same accounted size, so
        only a source's first order is measured.  Returns False when
        the entry cannot be admitted (codes missing, or it alone
        exceeds the whole budget).
        """
        if ovcs is None:
            return False
        with self._lock:
            nbytes = next((e.nbytes for (src, _), e in self._entries.items()
                           if src == fp.source_key), None)
        if nbytes is None:
            nbytes = rows_nbytes(rows, ovcs)
        budget = self.accountant.budget
        if budget is not None and nbytes > budget and not self.spill_enabled:
            with self._lock:
                self.rejected += 1
                self._count("rejected")
            return False
        arity = spec.arity
        counts = _offset_counts(ovcs, arity)
        tie_free = len(rows) <= 1 or counts[arity] == 0
        key = (fp.source_key, spec)
        with self._lock:
            now = self._clock()
            self._purge_expired(now)
            old = self._entries.get(key)
            if old is not None:
                self._drop(key, old, "evicted")
            entry = _Entry(
                fp.source_key, spec, rows, ovcs,
                None if stats_delta is None else stats_delta.snapshot(),
                counts, tie_free, fp.sequence, replayable, nbytes, now,
            )
            self._entries[key] = entry
            self.accountant.charge(CATEGORY, nbytes)
            self.installs += 1
            self._count("installs")
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    k = next(iter(self._entries))
                    if k == key:
                        break
                    self._drop(k, self._entries[k], "evicted")
            self._pressure(protect=key)
        return True

    def invalidate(self, source_key: tuple | None = None) -> int:
        """Drop every entry (or every entry of one source); returns the
        number removed."""
        with self._lock:
            keys = [
                k for k in self._entries
                if source_key is None or k[0] == source_key
            ]
            for k in keys:
                self._drop(k, self._entries[k], "evicted")
            return len(keys)

    def close(self) -> None:
        """Invalidate everything and remove the spill directory."""
        with self._lock:
            self.invalidate()
            if self._spill is not None:
                self._spill.cleanup()
                self._spill = None

    def __enter__(self) -> "OrderCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------- inspection

    @property
    def bytes_resident(self) -> int:
        return self.accountant.used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Snapshot of the event counters (one consistent read)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "installs": self.installs,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "spills": self.spills,
                "rehydrates": self.rehydrates,
                "rejected": self.rejected,
                "entries": len(self._entries),
                "bytes_resident": self.accountant.used,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counters()
        return (
            f"OrderCache(entries={c['entries']}, "
            f"resident={c['bytes_resident']:,}B, hits={c['hits']}, "
            f"misses={c['misses']}, spills={c['spills']})"
        )
