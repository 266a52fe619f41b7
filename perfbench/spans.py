"""Span recording from outside the program, for the traced run.

The traced run wraps public entry points of each layer (listed in
``layers.json`` under ``hooks``) and records one span per call: name,
start, end, the span that caused it, and the request it belongs to.  A
request's spans share its id across threads: the client thread sets it,
the service's scheduler threads inherit it through the admitted entry,
and helper threads of a single-client workload fall back to the one
request in flight.  A helper thread's span is caused by the innermost
span open on the request's own thread; work the service runs for an
admitted entry is caused by the request itself.  Spans stay in memory
until the run ends.

A hook whose module or attribute no longer exists is skipped and
reported as missing with the reason; the run goes on without it.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory span store plus the wrapping machinery."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (sid, parent, rid, name, t0, t1)
        self.events: list[tuple] = []  # (rid, name, value)
        self.missing: dict[str, str] = {}
        self.default_rid = None
        self._ids = itertools.count(1)
        self._roots: dict = {}
        self._request_stacks: dict = {}
        self._entry_rids: dict[int, object] = {}
        self._tls = threading.local()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ context

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_rid(self):
        rid = getattr(self._tls, "rid", None)
        return rid if rid is not None else self.default_rid

    def begin_request(self, rid) -> tuple:
        """Open the root span of request ``rid`` on this thread."""
        self._tls.rid = rid
        sid = next(self._ids)
        self._roots[rid] = sid
        stack = self._stack()
        self._request_stacks[rid] = stack
        stack.append(sid)
        return sid, time.perf_counter()

    def end_request(self, rid, token) -> None:
        sid, t0 = token
        t1 = time.perf_counter()
        self._stack().pop()
        self._request_stacks.pop(rid, None)
        self.spans.append((sid, None, rid, "request", t0, t1))
        self._tls.rid = None

    def enter_as_root(self, rid) -> None:
        """Make the request's root span the parent of spans opened next
        on this thread (a scheduler thread running admitted work)."""
        self._tls.rid = rid
        self._stack().append(self._roots.get(rid))

    def leave_root(self) -> None:
        self._stack().pop()
        self._tls.rid = None

    def _parent(self, rid, stack):
        """The causing span: this thread's innermost open span, else the
        innermost open span of the thread that issued the request (for
        helper threads it hands work to), else the request's root."""
        if stack:
            return stack[-1]
        try:
            return self._request_stacks[rid][-1]
        except (KeyError, IndexError):  # request thread done or idle
            return self._roots.get(rid)

    def bind_entry(self, entry) -> None:
        """Remember which request admitted a service entry."""
        self._entry_rids[id(entry)] = (entry, self.current_rid())

    def entry_rid(self, entry):
        got = self._entry_rids.get(id(entry))
        return got[1] if got is not None and got[0] is entry else None

    def event(self, name: str, value: float, rid=None) -> None:
        self.events.append(
            (rid if rid is not None else self.current_rid(), name, value)
        )

    # ------------------------------------------------------------ wrapping

    def span_wrapper(self, fn, name, observe=None):
        """``fn`` timed as a span; ``name`` may be a function of the call
        arguments; ``observe(result, args, kwargs)`` sees each result."""
        rec = self
        pick = name if callable(name) else None

        def wrapper(*args, **kwargs):
            rid = rec.current_rid()
            stack = rec._stack()
            parent = rec._parent(rid, stack)
            sid = next(rec._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = pick(args, kwargs) if pick is not None else name
                rec.spans.append((sid, parent, rid, label, t0, t1))
            if observe is not None:
                try:
                    observe(result, args, kwargs)
                except Exception as exc:  # the program changed shape
                    rec.missing.setdefault(
                        f"{name}:result", f"cannot read the result: {exc!r}"
                    )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks, make_wrapper) -> None:
        """Install every hook; a hook that cannot be resolved is recorded
        in :attr:`missing` under its span name and skipped."""
        for hook in hooks:
            try:
                owner, attr, original = _resolve(hook["target"])
            except (ImportError, AttributeError) as exc:
                self.missing[hook["span"]] = (
                    f"{hook['target']} not found: {exc}"
                )
                continue
            wrapped = make_wrapper(hook, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
            else:
                # Rebind every module-level alias of the function, so
                # callers that imported it by name see the wrapper too.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ analysis

    def per_request(self, rids) -> dict:
        """``rid -> {span name: (self seconds, calls)}``, where a span's
        self time is its duration minus the part of it covered by its
        child spans (on any thread)."""
        children: dict = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        wanted = set(rids)
        out: dict = {rid: defaultdict(lambda: [0.0, 0]) for rid in wanted}
        for sid, _parent, rid, name, t0, t1 in self.spans:
            if rid not in wanted:
                continue
            covered = _covered(t0, t1, children.get(sid, ()))
            cell = out[rid][name]
            cell[0] += (t1 - t0) - covered
            cell[1] += 1
        for rid, name, value in self.events:
            if rid in wanted:
                cell = out[rid][name]
                cell[0] += value
                cell[1] += 1
        return out


def _covered(t0: float, t1: float, kids) -> float:
    """Length of the union of the child intervals, clipped to [t0, t1]."""
    if not kids:
        return 0.0
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(k[4], t0), min(k[5], t1)) for k in kids):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _resolve(target: str):
    """``"pkg.module:Attr.path"`` -> (owner, attribute name, value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    value = getattr(owner, parts[-1])
    if isinstance(owner, type):
        value = owner.__dict__.get(parts[-1], value)
        if isinstance(value, (staticmethod, classmethod)):
            raise AttributeError(f"{path} is not a plain method")
    return owner, parts[-1], value
