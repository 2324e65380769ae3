"""Spans recorded from outside the program.

Nothing under ``src/`` knows it is being traced: :meth:`Tracer.wrap`
replaces a layer's entry point with a wrapper that times the call.  A
class method is replaced on its class; a module function is replaced in
the module that defines it *and* in every loaded ``repro`` module that
imported it by name (``from .codec import decode_envelope`` binds the
original early, so patching the defining module alone would miss those
callers).  Wrapping therefore happens after the runtime modules are
imported and before any runtime object is built.

A span is ``(name, layer, start_ns, end_ns, parent, op, id)``.  The
parent is read from a :class:`contextvars.ContextVar`, so nesting is
tracked per asyncio task; ``op`` is the closed-loop step the harness was
in.  Self time is a span's duration minus the time its same-task
children covered.  A coroutine is timed step by step: the time its
``send`` calls ran is *busy* (and may have children), the rest of its
lifetime is *wait* and never enters the CPU budget.

Aggregates (calls, total, self, wait per span name) cover the whole
timed phase; raw spans are kept only while :attr:`Tracer.keep_raw` is
set, and everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: ``observe(args, kwargs, result)`` runs after the span closed, outside
#: its timing; it is how counts are taken at the same boundary.
Observer = Callable[[tuple, dict, Any], None]


class SpanStats:
    """Running totals for one span name over the timed phase."""

    __slots__ = ("layer", "calls", "total_ns", "self_ns", "wait_ns")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        #: time the call was running (for a coroutine: busy, not wall)
        self.total_ns = 0
        #: ``total_ns`` minus the part same-task child spans covered
        self.self_ns = 0
        #: time a coroutine spent suspended (always 0 for a function)
        self.wait_ns = 0

    def to_obj(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "wait_ns": self.wait_ns,
        }


class _Awaitable:
    """Adapts the step-timing generator to ``await``."""

    __slots__ = ("_steps",)

    def __init__(self, steps) -> None:
        self._steps = steps

    def __await__(self):
        return self._steps


class Tracer:
    """Installs span wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        #: wrappers pass calls straight through until the harness sets
        #: this at the start of the timed phase (warm-up is not traced)
        self.active = False
        #: append raw spans as well as updating the aggregates
        self.keep_raw = False
        #: closed-loop step the harness is in; stamped on raw spans
        self.op = -1
        self.stats: Dict[str, SpanStats] = {}
        self.spans: List[tuple] = []
        #: targets :meth:`wrap` could not resolve (renamed or removed)
        self.missing: List[str] = []
        # The open span of the running task: ``[child_ns, span_id]``.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "opbudget_span", default=None
        )
        self._next_id = 0

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self, target: str, layer: str, observe: Optional[Observer] = None
    ) -> Optional[str]:
        """Wrap ``"package.module:function"`` or ``"package.module:Class.method"``.

        Returns the span name, or ``None`` (and records the target in
        :attr:`missing`) when the name no longer resolves to a plain
        function — a later refactor may rename a private hook, and the
        benchmark must keep running with that layer's metrics unset.
        """
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            owner = None
        for part in owners:
            owner = getattr(owner, part, None)
        original = (
            inspect.getattr_static(owner, attr, None)
            if owner is not None
            else None
        )
        if not inspect.isfunction(original):
            self.missing.append(target)
            print(
                f"opbudget: cannot trace {target}: not found; the metrics "
                "measured around it are unset",
                file=sys.stderr,
            )
            return None
        name = path if owners else f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        stats = self.stats.setdefault(name, SpanStats(layer))
        if inspect.iscoroutinefunction(original):
            wrapper = self._wrap_coroutine(original, name, stats, observe)
        else:
            wrapper = self._wrap_function(original, name, stats, observe)
        if owners:
            setattr(owner, attr, wrapper)
            return name
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        return name

    def _span_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap_function(
        self,
        fn: Callable,
        name: str,
        stats: SpanStats,
        observe: Optional[Observer],
    ) -> Callable:
        current = self._current
        now = time.perf_counter_ns
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = current.get()
            frame = [0, self._span_id()]
            current.set(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                current.set(parent)
                duration = end - start
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if self.keep_raw:
                    spans.append(
                        (
                            name,
                            stats.layer,
                            start,
                            end,
                            parent[1] if parent is not None else 0,
                            self.op,
                            frame[1],
                        )
                    )
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_coroutine(
        self,
        fn: Callable,
        name: str,
        stats: SpanStats,
        observe: Optional[Observer],
    ) -> Callable:
        current = self._current
        now = time.perf_counter_ns
        spans = self.spans

        def steps(coro):
            """Drive ``coro`` by hand, timing each resumption."""
            frame = [0, self._span_id()]
            opened_under = current.get()
            busy = 0
            start = now()
            resume, value = coro.send, None
            try:
                while True:
                    parent = current.get()
                    current.set(frame)
                    resumed = now()
                    try:
                        yielded = resume(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        spent = now() - resumed
                        busy += spent
                        current.set(parent)
                        if parent is not None:
                            parent[0] += spent
                    try:
                        value = yield yielded
                        resume = coro.send
                    except BaseException as exc:  # cancellation, close
                        resume, value = coro.throw, exc
            finally:
                end = now()
                stats.calls += 1
                stats.total_ns += busy
                stats.self_ns += busy - frame[0]
                stats.wait_ns += (end - start) - busy
                if self.keep_raw:
                    spans.append(
                        (
                            name,
                            stats.layer,
                            start,
                            end,
                            opened_under[1] if opened_under is not None else 0,
                            self.op,
                            frame[1],
                        )
                    )

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            result = await _Awaitable(steps(fn(*args, **kwargs)))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Reading the result
    # ------------------------------------------------------------------
    def total_self_ns(self) -> int:
        """CPU time the spans explain: the sum of every self time."""
        return sum(stats.self_ns for stats in self.stats.values())

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """One gzipped JSON-lines file: header + aggregates, then spans."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            head = dict(header)
            head["aggregate"] = {
                name: stats.to_obj() for name, stats in self.stats.items()
            }
            head["missing"] = list(self.missing)
            head["span_fields"] = [
                "name", "layer", "start_ns", "end_ns", "parent", "op", "id",
            ]
            handle.write(json.dumps(head, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
