"""Host-clock spans around the program's layers, recorded from outside.

:class:`SpanTracer` replaces public functions and methods of each layer
with timing wrappers for the duration of one traced job and restores the
originals afterwards; nothing inside ``src/`` is edited.  Names are
patched where the caller resolves them: ``measure_typed`` is wrapped in
``repro.spark.rdd`` (which imports it by name), not in
``repro.spark.measure``, where a wrapper would record nothing.

Spans are aggregated per name as they close (calls, inclusive time,
self time), so memory stays bounded however many records a job touches.
A span's self time is its duration minus the time of the spans nested
inside it.  Generator functions are timed per resume, so the work done
while a consumer pulls records is charged to the generator's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable

_EXECUTOR_CHARGES = ("charge_compute", "charge_disk_write",
                     "charge_disk_read", "charge_tier_write",
                     "charge_tier_read", "charge_network")
# VarArraySchema only runs inside forked mp workers here, which a wrapper
# installed in the DecaContext process cannot see.
_SCHEMAS = ("PrimitiveSlot", "RecordSchema", "FixedArraySchema")

#: (span, module, qualified attribute).  A span may cover several
#: targets; each target is also checked for liveness on its own.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.plan", "repro.core.optimizer", "DecaOptimizer.plan_cache"),
    ("core.plan", "repro.core.optimizer", "DecaOptimizer.plan_shuffle"),
    ("core.plan", "repro.core.optimizer", "plan_sql_layout"),
    ("measure", "repro.spark.rdd", "measure_typed"),
    ("measure", "repro.spark.rdd", "measure_generic"),
    ("heap.alloc", "repro.jvm.heap", "SimHeap.allocate"),
    ("heap.gc", "repro.jvm.heap", "SimHeap.minor_gc"),
    ("heap.gc", "repro.jvm.heap", "SimHeap.full_gc"),
    *(("executor.charge", "repro.spark.executor", f"Executor.{name}")
      for name in _EXECUTOR_CHARGES),
    ("scheduler.run_job", "repro.spark.scheduler", "DAGScheduler.run_job"),
    ("shuffle.write", "repro.spark.shuffle", "MapSideWriter.write_all"),
    ("shuffle.flush", "repro.spark.shuffle", "MapSideWriter.flush"),
    ("shuffle.register", "repro.spark.shuffle", "ShuffleBlockStore.register"),
    ("shuffle.read", "repro.spark.executor", "read_reduce_partition"),
    ("cache.put", "repro.spark.cache", "CacheStore.put"),
    ("cache.read", "repro.spark.cache", "CacheStore.read_records"),
    ("cache.swap_out", "repro.spark.cache", "CacheStore.swap_out"),
    ("cache.swap_in", "repro.spark.cache", "CacheStore.swap_in"),
    *(("layout.pack", "repro.memory.layout", f"{cls}.pack_into")
      for cls in _SCHEMAS),
    *(("layout.unpack", "repro.memory.layout", f"{cls}.unpack_from")
      for cls in _SCHEMAS),
    ("layout.column_emit", "repro.memory.layout", "FixedColumnLayout.emit"),
    ("layout.column_emit", "repro.memory.layout",
     "StringColumnLayout.emit"),
    ("page.new_group", "repro.memory.manager",
     "DecaMemoryManager.new_page_group"),
    ("page.reserve", "repro.memory.page", "PageGroup.reserve"),
    ("page.append_run", "repro.memory.page", "PageGroup.append_run"),
    ("arena.acquire", "repro.memory.unified",
     "UnifiedMemoryManager.storage_acquire"),
    ("arena.acquire", "repro.memory.unified",
     "StaticMemoryArena.shuffle_acquire"),
    ("tier.swap_out", "repro.memory.tier", "PageStoreTier.swap_out"),
    ("tier.swap_in", "repro.memory.tier", "PageStoreTier.swap_in"),
    ("tier.read", "repro.memory.tier", "PageStoreTier.views"),
    ("exec.stage", "repro.exec.mp", "MpBackend.run_map_stage"),
    ("exec.stage", "repro.exec.mp", "MpBackend.run_result_stage"),
    ("sql.cache_table", "repro.sql.engine", "SqlEngine.cache_table"),
    ("sql.parse", "repro.sql.parser", "parse"),
    ("sql.run", "repro.sql.engine", "SqlEngine.run"),
    ("tracer.emit", "repro.obs.tracer", "Tracer.emit"),
)

#: Spans counted only at the outermost call: a schema's pack/unpack
#: recurses into its fields' schemas, a full GC may run inside a minor.
TOP_LEVEL_ONLY = {"layout.pack": "layout", "layout.unpack": "layout",
                  "heap.gc": "heap.gc"}

#: Work counted per call from the call's arguments, before the call
#: (bytes appended to pages, records registered as shuffle output) or
#: after it (records a map task fed into its shuffle writer).
_UNITS_BEFORE: dict[str, Callable[[tuple], int]] = {
    "page.reserve": lambda args: args[1],
    "page.append_run": lambda args: len(args[1]),
    "shuffle.register": lambda args: len(args[4].records or ()),
}
_UNITS_AFTER: dict[str, Callable[[tuple], int]] = {
    "shuffle.write": lambda args: args[0].records_written,
}


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.units = 0


class SpanTracer:
    """Aggregating span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.target_calls: dict[str, int] = {}
        # One child-time accumulator per open span, innermost last.
        self._stack: list[list[int]] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # -- span recording ------------------------------------------------------
    def span(self, name: str) -> "_Span":
        """A context manager span (the benchmark's own root spans)."""
        return _Span(self, name)

    def _open(self) -> tuple[list[int], int]:
        frame = [0]
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _close(self, stats: SpanStats, frame: list[int], start: int,
               count: bool) -> None:
        elapsed = time.perf_counter_ns() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        if count:
            stats.calls += 1
        stats.total_ns += elapsed
        stats.self_ns += elapsed - frame[0]

    def _stats(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    # -- wrapping ----------------------------------------------------------------
    def _wrap(self, span: str, target: str, fn: Callable) -> Callable:
        stats = self._stats(span)
        group = TOP_LEVEL_ONLY.get(span)
        active = self._active
        calls = self.target_calls
        calls[target] = 0
        before = _UNITS_BEFORE.get(span)
        after = _UNITS_AFTER.get(span)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[target] += 1
                stats.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame, start = self._open()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(stats, frame, start, count=False)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[target] += 1
            if group is not None and active.get(group):
                return fn(*args, **kwargs)
            if before is not None:
                stats.units += before(args)
            if group is not None:
                active[group] = 1
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stats, frame, start, count=True)
                if group is not None:
                    active[group] = 0
            if after is not None:
                stats.units += after(args)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores them."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        for span, module_name, qualname in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = getattr(owner, attr) if not own else vars(owner)[attr]
            target = f"{module_name}:{qualname}"
            setattr(owner, attr, self._wrap(span, target, original))
            self._patched.append((owner, attr, original, own))

    def remove(self) -> None:
        """Restore every original, newest first, and verify it."""
        restored = []
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            restored.append((owner, attr, original, own))
        for owner, attr, original, own in restored:
            current = vars(owner).get(attr)
            if (current is not original) if own else (current is not None):
                raise RuntimeError(f"wrapper left on {owner!r}.{attr}")


class _Span:
    def __init__(self, tracer: SpanTracer, name: str) -> None:
        self._tracer = tracer
        self._stats = tracer._stats(name)

    def __enter__(self) -> "_Span":
        self._frame, self._start = self._tracer._open()
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._stats, self._frame, self._start,
                            count=True)
