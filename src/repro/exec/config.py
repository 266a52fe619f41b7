"""Unified execution configuration: one object instead of kwarg sprawl.

PRs 1-3 each added their own knob to every entry point — ``engine=``
(fast path), ``workers=`` (parallel pool), ``max_fan_in=`` (graceful
merge degradation) — and PR 4 adds a memory budget, a spill directory,
and a retry/timeout policy.  Threading six loose kwargs through
``modify_sort_order``, ``modify_sort_order_external``, ``Sort``,
``StreamingModify``, ``Query.order_by``, and the CLI does not scale;
:class:`ExecutionConfig` carries all of them as one frozen value.

Construction patterns::

    cfg = ExecutionConfig.default()                  # env-aware defaults
    cfg = ExecutionConfig(workers=4, engine="fast")
    cfg = ExecutionConfig.from_env()                 # REPRO_* variables
    low = cfg.with_(memory_budget="1MiB")            # derived variant

The legacy kwargs still work for one release; they are folded into a
config (with a ``DeprecationWarning``) in exactly one place,
:func:`repro.exec.compat.resolve_config`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

_ENGINES = ("auto", "fast", "reference")

_DATA_PLANES = ("auto", "shm", "pickle")

_CACHE_MODES = ("off", "on", "auto")

#: Multipliers for the memory-size suffixes :func:`parse_memory` accepts.
_UNITS = {
    "b": 1,
    "k": 1024, "kb": 1000, "kib": 1024,
    "m": 1024 ** 2, "mb": 1000 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1000 ** 3, "gib": 1024 ** 3,
}


def parse_memory(value: int | str | None) -> int | None:
    """Parse a memory size: an int (bytes) or a string like ``"1MiB"``.

    Accepted suffixes: ``B``, ``K``/``KB``/``KiB``, ``M``/``MB``/``MiB``,
    ``G``/``GB``/``GiB`` (case-insensitive; the binary forms and the
    bare letters are powers of 1024, the decimal ``*B`` forms powers of
    1000).  ``None`` and ``""`` mean "no budget".
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"memory size must be an int or string, got {value!r}")
    if isinstance(value, int):
        if value <= 0:
            raise ValueError(f"memory size must be positive, got {value}")
        return value
    text = value.strip().lower().replace("_", "").replace(",", "")
    if not text:
        return None
    digits = text
    unit = "b"
    for i, ch in enumerate(text):
        if not (ch.isdigit() or ch == "."):
            digits, unit = text[:i], text[i:].strip()
            break
    if unit not in _UNITS:
        raise ValueError(
            f"unknown memory unit {unit!r} in {value!r}; "
            f"use one of {sorted(set(_UNITS))}"
        )
    try:
        number = float(digits)
    except ValueError:
        raise ValueError(f"cannot parse memory size {value!r}") from None
    n = int(number * _UNITS[unit])
    if n <= 0:
        raise ValueError(f"memory size must be positive, got {value!r}")
    return n


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance policy for the parallel worker pool.

    ``timeout_s`` is the per-shard wall-clock deadline (``None`` means
    no deadline: only worker death triggers recovery).  ``retries`` is
    how many times a failed shard is re-dispatched to the pool before it
    is quarantined and executed serially in the driver process.
    """

    timeout_s: float | None = None
    retries: int = 1

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")


def resolve_engine(
    engine: str,
    *,
    use_ovc: bool = True,
    max_fan_in: int | None = None,
    counters: bool = False,
) -> str:
    """The one meaning of ``engine="auto"``: ``"fast"`` or ``"reference"``.

    Forced engines pass through.  ``auto`` runs the packed-code fast
    engine whenever offset-value codes are in use, no merge fan-in cap
    is set, and the caller did not ask for comparison ``counters``;
    otherwise it runs the instrumented reference executors.  Callers
    ask for counters with ``engine="reference"`` or by passing an
    explicit ``stats=`` to ``modify_sort_order``.

    Every layer (``modify_sort_order``, ``Sort``, the batch planner's
    executor, the order cache and, through ``Sort``, ``OrderService``)
    resolves ``auto`` here.  Where ``auto`` resolved to ``fast`` and the
    packed codec cannot rank the keys (a ``TypeError``: mixed types or
    ``None`` in a key column), the caller reruns on the reference
    executors without counting and reports the engine that ran as
    ``"reference-fallback"``; a forced ``fast`` engine propagates the
    error.
    """
    if engine != "auto":
        return engine
    if use_ovc and max_fan_in is None and not counters:
        return "fast"
    return "reference"


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob of the engine, as one frozen value.

    Fields
    ------
    engine:
        ``"auto"`` | ``"reference"`` | ``"fast"`` — executor selection.
        ``"reference"`` runs the instrumented executors and collects
        comparison counters; ``"fast"`` runs the packed-code kernels
        (bit-identical rows and codes, no counters); ``"auto"`` means
        what :func:`resolve_engine` says, on every layer.
    workers:
        ``None``/``0``/``1`` serial, ``"auto"`` for the core count, or
        an explicit worker-process count.
    max_fan_in:
        Cap on runs merged per step in the reference merge executors
        (graceful degradation to multi-step merges beyond it).
    memory_budget:
        Per-query budget in bytes (or a string like ``"1MiB"``) charged
        through :class:`repro.exec.memory.MemoryAccountant`; exceeding
        it spills buffered output runs to disk and reduces merge fan-in
        under pressure.  ``None`` disables governance entirely.
    spill_dir:
        Directory for spill files; ``None`` uses the system temp dir.
    shard_timeout_s / shard_retries:
        The pool's :class:`RetryPolicy` (see there).
    data_plane:
        Worker IPC protocol: ``"auto"`` (shared-memory plane whenever
        the job qualifies — fast-path engine under ``fork``), ``"shm"``
        (force the plane; error when impossible), or ``"pickle"``
        (force the legacy pickled-chunk protocol).  See
        :mod:`repro.parallel.shm`.
    trace / metrics:
        Tri-state observability requests: ``True`` force-enables the
        span tracer / metrics registry for governed runs, ``False``
        keeps them off, ``None`` (default) follows whatever the process
        singletons are set to.
    cache:
        Order-cache mode (:mod:`repro.cache`): ``"off"`` (default)
        never consults it, ``"on"`` uses the process-wide cache
        (created on first use with this config's ``cache_budget`` /
        ``cache_ttl`` / ``spill_dir``), ``"auto"`` uses it only when
        something already created one — the same follow-the-singleton
        tri-state as ``trace``/``metrics``.
    cache_budget:
        Resident-byte budget for the order cache (int bytes or a
        ``parse_memory`` string); cold entries spill to disk beyond
        it.  ``None`` means unlimited.
    cache_ttl:
        Order-cache entry lifetime in seconds (``None`` = no expiry).
    service_threads:
        Scheduler threads of an :class:`~repro.serve.OrderService`
        built from this config (concurrent executions).
    service_queue_depth:
        Bound on the service's admission queue (pending executions,
        coalesced waiters excluded).  A full queue rejects new work
        with :class:`~repro.serve.ServiceOverloadError` instead of
        buffering unboundedly.
    service_deadline_ms:
        Default per-request deadline in milliseconds (``None`` = no
        deadline); requests that cannot be answered in time fail with
        :class:`~repro.serve.DeadlineExceededError`.
    plan_window_ms:
        Micro-batch window of the serving layer's derivation planner
        (:mod:`repro.plan`): after picking up a request, a scheduler
        thread keeps draining the admission queue for this many
        milliseconds and plans same-source siblings as one shared
        derivation tree.  ``None`` (default) disables batching —
        every request executes independently on arrival.
    """

    engine: str = "auto"
    workers: int | str | None = None
    max_fan_in: int | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None
    shard_timeout_s: float | None = None
    shard_retries: int = 1
    data_plane: str = "auto"
    trace: bool | None = None
    metrics: bool | None = None
    cache: str = "off"
    cache_budget: int | None = None
    cache_ttl: float | None = None
    service_threads: int = 4
    service_queue_depth: int = 64
    service_deadline_ms: float | None = None
    plan_window_ms: float | None = None

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {sorted(_ENGINES)}"
            )
        if self.data_plane not in _DATA_PLANES:
            raise ValueError(
                f"unknown data plane {self.data_plane!r}; "
                f"choose from {sorted(_DATA_PLANES)}"
            )
        if self.workers is not None and self.workers != "auto":
            if isinstance(self.workers, bool) or not isinstance(self.workers, int):
                raise ValueError(
                    "workers must be an int, 'auto', or None; "
                    f"got {self.workers!r}"
                )
            if self.workers < 0:
                raise ValueError(
                    f"workers must be non-negative, got {self.workers}"
                )
        if self.max_fan_in is not None and self.max_fan_in < 2:
            raise ValueError(
                f"max_fan_in must be at least 2, got {self.max_fan_in}"
            )
        object.__setattr__(
            self, "memory_budget", parse_memory(self.memory_budget)
        )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )
        if self.shard_retries < 0:
            raise ValueError(
                f"shard_retries must be non-negative, got {self.shard_retries}"
            )
        if self.cache not in _CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.cache!r}; "
                f"choose from {sorted(_CACHE_MODES)}"
            )
        object.__setattr__(
            self, "cache_budget", parse_memory(self.cache_budget)
        )
        if self.cache_ttl is not None and self.cache_ttl <= 0:
            raise ValueError(
                f"cache_ttl must be positive, got {self.cache_ttl}"
            )
        if (
            isinstance(self.service_threads, bool)
            or not isinstance(self.service_threads, int)
            or self.service_threads < 1
        ):
            raise ValueError(
                f"service_threads must be a positive int, "
                f"got {self.service_threads!r}"
            )
        if (
            isinstance(self.service_queue_depth, bool)
            or not isinstance(self.service_queue_depth, int)
            or self.service_queue_depth < 1
        ):
            raise ValueError(
                f"service_queue_depth must be a positive int, "
                f"got {self.service_queue_depth!r}"
            )
        if (
            self.service_deadline_ms is not None
            and self.service_deadline_ms <= 0
        ):
            raise ValueError(
                f"service_deadline_ms must be positive, "
                f"got {self.service_deadline_ms}"
            )
        if self.plan_window_ms is not None and self.plan_window_ms <= 0:
            raise ValueError(
                f"plan_window_ms must be positive, "
                f"got {self.plan_window_ms}"
            )

    # ------------------------------------------------------ constructors

    @classmethod
    def default(cls) -> "ExecutionConfig":
        """The environment-aware default used when no config is passed.

        Equivalent to :meth:`from_env`: a plain ``ExecutionConfig()``
        unless ``REPRO_*`` variables override fields, so a test matrix
        (e.g. ``REPRO_MEMORY_BUDGET=1MiB pytest``) governs every entry
        point without touching call sites.
        """
        return cls.from_env()

    @classmethod
    def from_env(
        cls,
        env: dict | None = None,
        base: "ExecutionConfig | None" = None,
    ) -> "ExecutionConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Recognized: ``REPRO_ENGINE``, ``REPRO_WORKERS`` (int or
        ``auto``), ``REPRO_MAX_FAN_IN``, ``REPRO_MEMORY_BUDGET``
        (``parse_memory`` syntax), ``REPRO_SPILL_DIR``,
        ``REPRO_SHARD_TIMEOUT`` (seconds), ``REPRO_SHARD_RETRIES``,
        ``REPRO_DATA_PLANE`` (``auto``/``shm``/``pickle``),
        ``REPRO_CACHE`` (``off``/``on``/``auto``; ``1``/``0`` are
        accepted as ``on``/``off``), ``REPRO_CACHE_BUDGET``
        (``parse_memory`` syntax), ``REPRO_CACHE_TTL`` (seconds),
        ``REPRO_SERVICE_THREADS``, ``REPRO_SERVICE_QUEUE_DEPTH``,
        ``REPRO_SERVICE_DEADLINE_MS``, ``REPRO_PLAN_WINDOW_MS``.
        Unset variables keep the field
        defaults — or ``base``'s values when a base config is given
        (the config-precedence rule *file < env < flags* hangs off
        this parameter: pass :meth:`from_file`'s result as ``base``).
        """
        e = os.environ if env is None else env
        kwargs: dict = {}
        if e.get("REPRO_ENGINE"):
            kwargs["engine"] = e["REPRO_ENGINE"]
        if e.get("REPRO_WORKERS"):
            raw = e["REPRO_WORKERS"]
            kwargs["workers"] = raw if raw == "auto" else int(raw)
        if e.get("REPRO_MAX_FAN_IN"):
            kwargs["max_fan_in"] = int(e["REPRO_MAX_FAN_IN"])
        if e.get("REPRO_MEMORY_BUDGET"):
            kwargs["memory_budget"] = e["REPRO_MEMORY_BUDGET"]
        if e.get("REPRO_SPILL_DIR"):
            kwargs["spill_dir"] = e["REPRO_SPILL_DIR"]
        if e.get("REPRO_SHARD_TIMEOUT"):
            kwargs["shard_timeout_s"] = float(e["REPRO_SHARD_TIMEOUT"])
        if e.get("REPRO_SHARD_RETRIES"):
            kwargs["shard_retries"] = int(e["REPRO_SHARD_RETRIES"])
        if e.get("REPRO_DATA_PLANE"):
            kwargs["data_plane"] = e["REPRO_DATA_PLANE"]
        if e.get("REPRO_CACHE"):
            raw = e["REPRO_CACHE"].strip().lower()
            kwargs["cache"] = {"1": "on", "0": "off"}.get(raw, raw)
        if e.get("REPRO_CACHE_BUDGET"):
            kwargs["cache_budget"] = e["REPRO_CACHE_BUDGET"]
        if e.get("REPRO_CACHE_TTL"):
            kwargs["cache_ttl"] = float(e["REPRO_CACHE_TTL"])
        if e.get("REPRO_SERVICE_THREADS"):
            kwargs["service_threads"] = int(e["REPRO_SERVICE_THREADS"])
        if e.get("REPRO_SERVICE_QUEUE_DEPTH"):
            kwargs["service_queue_depth"] = int(e["REPRO_SERVICE_QUEUE_DEPTH"])
        if e.get("REPRO_SERVICE_DEADLINE_MS"):
            kwargs["service_deadline_ms"] = float(e["REPRO_SERVICE_DEADLINE_MS"])
        if e.get("REPRO_PLAN_WINDOW_MS"):
            kwargs["plan_window_ms"] = float(e["REPRO_PLAN_WINDOW_MS"])
        if base is not None:
            return base.with_(**kwargs) if kwargs else base
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExecutionConfig":
        """Load a config from a JSON file of field name/value pairs.

        The file is a single JSON object whose keys are
        :class:`ExecutionConfig` field names (``{"workers": 4,
        "memory_budget": "64MiB", "cache": "on"}``); values pass
        through the same validation as keyword construction, so
        ``parse_memory`` strings work for the byte-sized fields.
        Unknown keys are an error — a typo in a config file should
        fail loudly, not silently configure nothing.

        This is the *file* layer of the precedence chain **file < env
        < flags**: CLI entry points load it first, lay ``REPRO_*``
        variables over it via ``from_env(base=...)``, and apply
        explicit flags last via :meth:`with_`.
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path!r} is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise ValueError(
                f"config file {path!r} must hold a JSON object of "
                f"ExecutionConfig fields, got {type(obj).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(
                f"config file {path!r} has unknown field(s) "
                f"{', '.join(unknown)}; valid fields: {', '.join(sorted(known))}"
            )
        return cls(**obj)

    def with_(self, **overrides) -> "ExecutionConfig":
        """A copy with the given fields replaced (validated anew)."""
        return dataclasses.replace(self, **overrides)

    # --------------------------------------------------------- accessors

    @property
    def retry_policy(self) -> RetryPolicy:
        """The pool fault-tolerance policy implied by this config."""
        return RetryPolicy(
            timeout_s=self.shard_timeout_s, retries=self.shard_retries
        )

    @property
    def governed(self) -> bool:
        """True when a memory budget is set (accountant + spill active)."""
        return self.memory_budget is not None
