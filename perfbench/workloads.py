"""The four workloads, each a closed loop over the public ``repro`` API.

A workload is set up (inputs generated, codes attached, service started,
warmed up), then measured in one or more phases.  Within a phase the
clock runs only inside requests: generating the next fresh source and
checking each response happen outside the timed region.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

import repro

from inputs import SHAPES, TARGETS, make_source

_REQUEST_IDS = itertools.count(1)


class Phase:
    """What one measured phase observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds, completed requests
        self.rids: list[int] = []  # completed request ids, in order
        self.busy = 0.0  # seconds the clients were inside requests
        self.cpu = 0.0  # process CPU seconds over the timed regions
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.labels: list[str] = []  # response labels (serve_hot)
        self.coalesced = 0
        self.executions = 0  # service executions (serve_hot)


class _Timed:
    """Times one request, optionally as the root span of a trace."""

    __slots__ = ("phase", "recorder", "rid", "_t0", "_c0", "_token")

    def __init__(self, phase: Phase, recorder) -> None:
        self.phase = phase
        self.recorder = recorder
        self.rid = next(_REQUEST_IDS)

    def __enter__(self) -> "_Timed":
        self.phase.attempted += 1
        if self.recorder is not None:
            self.recorder.default_rid = self.rid
            self._token = self.recorder.begin_request(self.rid)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        self.phase.cpu += time.process_time() - self._c0
        self.phase.busy += elapsed
        if self.recorder is not None:
            self.recorder.end_request(self.rid, self._token)
            self.recorder.default_rid = None
        if exc_type is None:
            self.phase.latencies.append(elapsed)
            self.phase.rids.append(self.rid)
            return False
        if not issubclass(exc_type, Exception):
            return False
        self.phase.failed += 1
        self.phase.errors.append(f"{exc_type.__name__}: {exc}")
        return True


class _SingleClient:
    """One client calling the program in a closed loop."""

    name = ""
    n_rows = 1 << 13
    #: Sources the output checker must keep at once.
    live_sources = 2

    def __init__(self, seed: int, checker, tmp_dir: str) -> None:
        self.seed = seed
        self.checker = checker
        self.tmp_dir = tmp_dir
        self._stream = None

    def setup(self) -> None:
        self.warm_up()
        self._stream = self.requests()
        self._pending = next(self._stream)  # first source built in setup

    def close(self) -> None:
        self._stream = None

    def run(self, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        while phase.busy < seconds:
            request = self._pending
            with _Timed(phase, recorder) as timer:
                outputs = self.call(request)
            self._pending = next(self._stream)
            if phase.rids and phase.rids[-1] == timer.rid \
                    and not self.check(request, outputs):
                phase.failed += 1
        return phase

    def check(self, request, outputs) -> bool:
        uid = request[0]
        ok = True
        for label, columns, table in outputs:
            ok &= self.checker.check(uid, label, columns, table)
        return ok

    def _source(self, key: str, shape: str) -> tuple:
        uid = f"{self.name}:{key}"
        table = make_source(shape, self.n_rows, f"{self.seed}:{key}")
        self.checker.add_source(uid, table)
        return uid, table


class _CaseMix(_SingleClient):
    """Sources alternate between the two shapes; each source is asked
    for each of its nine targets once, in a seeded order, so no
    (source, order) pair repeats."""

    def requests(self):
        for index in itertools.count():
            shape = SHAPES[index % 2]
            uid, table = self._source(f"mix{index}", shape)
            targets = list(TARGETS[shape])
            random.Random(f"{self.seed}:mix{index}:order").shuffle(targets)
            for label, columns in targets:
                yield uid, table, label, columns

    def warm_up(self) -> None:
        for shape in SHAPES:
            uid, table = self._source(f"warm-{shape}", shape)
            for label, columns in TARGETS[shape]:
                self.check((uid,), self.call((uid, table, label, columns)))

    def sample_pairs(self) -> list:
        """(source, target label, columns) for the first source of each
        shape: the inputs of the comparison-count and speed-up passes."""
        pairs = []
        for index, shape in enumerate(SHAPES):
            table = make_source(shape, self.n_rows, f"{self.seed}:mix{index}")
            pairs += [(table, label, cols) for label, cols in TARGETS[shape]]
        return pairs


class ModifyDirect(_CaseMix):
    name = "modify_direct"

    def call(self, request):
        _uid, table, label, columns = request
        return [(label, columns, repro.modify_sort_order(table, columns))]


class OrderByCold(_CaseMix):
    name = "order_by_cold"

    def call(self, request):
        _uid, table, label, columns = request
        out = repro.Query(table).order_by(*columns).to_table()
        return [(label, columns, out)]


class BatchSiblings(_SingleClient):
    """``Query.order_by_many`` of the eight Table 1 targets over a fresh
    source per batch, with a cache whose byte budget and entry cap are
    both below one batch's output, so every derived node is installed
    and then spilled or evicted without being read again."""

    name = "batch_siblings"
    n_rows = 1 << 11
    cache_budget = 1 << 20
    cache_entries = 4

    def setup(self) -> None:
        repro.reset_cache()
        self.cache = repro.configure_cache(
            budget=self.cache_budget, max_entries=self.cache_entries,
            spill_dir=self.tmp_dir,
        )
        self.config = repro.ExecutionConfig(cache="on")
        super().setup()

    def close(self) -> None:
        repro.reset_cache()
        super().close()

    def requests(self):
        for index in itertools.count():
            shape = SHAPES[index % 2]
            uid, table = self._source(f"batch{index}", shape)
            targets = [t for t in TARGETS[shape] if t[0] != "full"]
            random.Random(f"{self.seed}:batch{index}:order").shuffle(targets)
            yield uid, table, targets, index

    def call(self, request):
        _uid, table, targets, _index = request
        tables = repro.Query(table).order_by_many(
            [cols for _label, cols in targets], config=self.config
        )
        return [(label, cols, out)
                for (label, cols), out in zip(targets, tables)]

    def check(self, request, outputs) -> bool:
        ok = super().check(request, outputs)
        # Cross-path identity: one node per batch, rotating, against an
        # independent derivation of the same order.
        uid, table, targets, index = request
        label, columns = targets[index % len(targets)]
        solo = repro.modify_sort_order(table, columns)
        return self.checker.check(uid, label, columns, solo) and ok

    def warm_up(self) -> None:
        for shape in SHAPES:
            uid, table = self._source(f"warm-{shape}", shape)
            targets = [t for t in TARGETS[shape] if t[0] != "full"]
            request = (uid, table, targets, 0)
            self.check(request, self.call(request))

    def sample_pairs(self) -> list:
        pairs = []
        for index, shape in enumerate(SHAPES):
            table = make_source(shape, self.n_rows, f"{self.seed}:batch{index}")
            pairs += [(table, label, cols) for label, cols in TARGETS[shape]
                      if label != "full"]
        return pairs


#: The six related orders ``serve_hot`` asks for, most popular first.
_HOT_LABELS = ("case5", "case4", "case3", "case1", "case7", "case6")


class ServeHot:
    """Two client threads against ``OrderService(cache="on")``.

    Requests pick one of ``hot`` resident sources uniformly and one of
    six related orders with a skewed choice.  At 1/4, 2/4 and 3/4 of the
    window one source is replaced by a fresh one, so the steady state is
    mostly exact cache hits with a trickle of modify-from-cache and cold
    executions.  The cache (default budget: unlimited) holds the whole
    working set.
    """

    name = "serve_hot"
    n_rows = 1 << 12
    clients = 2
    hot = 4
    replacements = 3
    live_sources = hot + replacements
    labels = _HOT_LABELS
    orders = {
        shape: [dict(TARGETS[shape])[label] for label in _HOT_LABELS]
        for shape in SHAPES
    }
    weights = (0.40, 0.22, 0.14, 0.10, 0.08, 0.06)
    #: A reply later than this counts as a failed request, so a stuck
    #: service cannot hang the run.
    timeout_s = 30.0

    def __init__(self, seed: int, checker, tmp_dir: str) -> None:
        self.seed = seed
        self.checker = checker
        self.tmp_dir = tmp_dir
        self.service = None

    def _source(self, key: str, shape: str) -> tuple:
        uid = f"{self.name}:{key}"
        table = make_source(shape, self.n_rows, f"{self.seed}:{key}")
        self.checker.add_source(uid, table)
        return uid, shape, table

    def setup(self) -> None:
        repro.reset_cache()
        self.slots = [self._source(f"hot{i}", SHAPES[i % 2])
                      for i in range(self.hot)]
        self.fresh = [self._source(f"fresh{i}", SHAPES[i % 2])
                      for i in range(self.replacements)]
        self.service = repro.OrderService(repro.ExecutionConfig(cache="on"))
        for uid, shape, table in self.slots:
            for label, columns in zip(self.labels, self.orders[shape]):
                resp = self.service.order_by(
                    table, *columns, timeout=self.timeout_s)
                self.checker.check(uid, label, columns, resp.table)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        repro.reset_cache()

    def sample_pairs(self) -> list:
        return [(table, label, cols)
                for _uid, shape, table in self.slots
                for label, cols in zip(self.labels, self.orders[shape])]

    def run(self, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        records: list[tuple] = []
        slots = list(self.slots)
        start_counters = self.service.counters()
        t_start = time.perf_counter()
        t_end = t_start + seconds

        def client(index: int) -> None:
            rng = random.Random(f"{self.seed}:client{index}")
            local_phase = Phase()
            local: list[tuple] = []
            while time.perf_counter() < t_end:
                slot = rng.randrange(self.hot)
                which = rng.choices(range(len(self.labels)), self.weights)[0]
                uid, shape, table = slots[slot]
                columns = self.orders[shape][which]
                with _Timed(local_phase, recorder) as timer:
                    resp = self.service.order_by(
                        table, *columns, timeout=self.timeout_s)
                if local_phase.rids and local_phase.rids[-1] == timer.rid:
                    local.append((uid, self.labels[which], columns, resp))
            with lock:
                records.extend(local)
                phase.latencies += local_phase.latencies
                phase.rids += local_phase.rids
                phase.attempted += local_phase.attempted
                phase.failed += local_phase.failed
                phase.errors += local_phase.errors

        c0 = time.process_time()
        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(self.clients)]
        for t in threads:
            t.start()
        for r in range(self.replacements):
            due = t_start + seconds * (r + 1) / (self.replacements + 1)
            time.sleep(max(0.0, due - time.perf_counter()))
            # Slot r and fresh source r have the same shape.
            slots[r % self.hot] = self.fresh[r]
        for t in threads:
            t.join()
        phase.busy = time.perf_counter() - t_start
        phase.cpu = time.process_time() - c0
        end_counters = self.service.counters()
        phase.executions = end_counters["executions"] - \
            start_counters["executions"]

        for uid, label, columns, resp in records:
            phase.labels.append(resp.label or "")
            phase.coalesced += bool(resp.coalesced)
            if not self.checker.check(uid, label, columns, resp.table):
                phase.failed += 1
        return phase


WORKLOADS = {
    cls.name: cls
    for cls in (ModifyDirect, OrderByCold, ServeHot, BatchSiblings)
}
