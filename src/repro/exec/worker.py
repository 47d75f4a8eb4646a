"""Worker-side task execution for the mp backend.

A worker is **forked at stage start**, so it inherits the driver's whole
object graph: the RDD lineage (closures included — nothing is pickled to
ship a task), the shuffle store with every parent stage's registered map
outputs, the backend's cache/segment tables and the optimizer's plans.
The task payload is just a split index.

The worker re-runs the *real data plane* of the simulated engine — the
same ``rdd.compute`` chains, the same :class:`MapSideWriter` combine
dictionaries — against a :class:`WorkerExecutor` stub whose simulated
charges are no-ops.  Because the data path is literally the same code in
the same order, mp results are bitwise identical to sim results (float
summation order included); only the *costs* differ: mp tasks are measured
in wall-clock, not simulated, milliseconds.

Outputs leave the worker two ways:

* decomposed shuffle blocks and Deca-page cache blocks are packed into
  shared-memory segments (:mod:`repro.exec.shm`) and only a
  :class:`~repro.exec.shm.SegmentRef` crosses the queue — zero pickled
  record bytes;
* object-form blocks are pickled (and counted — this is exactly the
  serialization cost the paper's decomposition removes).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TYPE_CHECKING

from ..errors import TaskKilledError
from ..obs.tracer import TraceEvent, Tracer
from ..obs.vclock import VClockChecker
from ..spark.faults import EXECUTOR_CRASH, TASK_KILL, TaskFaultPlan
from ..spark.metrics import TaskMetrics
from ..spark.scheduler import TaskContext
from ..spark.shuffle import MapSideWriter, ShuffleBlockStore
from .shm import SegmentRef, pack_records_segment, read_segment_records

if TYPE_CHECKING:
    from .mp import StageState

#: Exit code a worker uses for an injected executor crash, so the driver
#: can tell an injected death from an interpreter error.
CRASH_EXIT_CODE = 17


def _resolvable(entry: Any) -> bool:
    """Whether a backend cache entry may serve reads.

    Cold entries (the driver's cache demoted the block into the mmap
    tier) must not be resolved as shared memory — the worker recomputes
    the partition from lineage instead, like a real executor whose
    BlockManager dropped the block.
    """
    return entry is not None and not getattr(entry, "cold", False)


# -- messages shipped back to the driver -------------------------------------

@dataclass
class MapBlockOut:
    """One (map, reduce) shuffle block leaving a worker."""

    reduce_part: int
    count: int
    nbytes: int
    objects: int
    merge_penalty_bytes: int
    ref: SegmentRef | None = None   # shared pages (decomposed plans)
    blob: bytes | None = None       # pickled records (object plans)


@dataclass
class CacheBlockOut:
    """One cached partition materialized by a worker task."""

    rdd_id: int
    split: int
    kind: str                       # "shm" | "packed" | "pickle"
    count: int
    ref: SegmentRef | None = None
    blob: bytes | None = None


@dataclass
class TaskOutput:
    """Everything one successful task attempt reports to the driver."""

    split: int
    attempt: int
    executor_id: int
    duration_ms: float = 0.0
    records_read: int = 0
    map_blocks: list[MapBlockOut] = field(default_factory=list)
    cache_blocks: list[CacheBlockOut] = field(default_factory=list)
    result_blob: bytes | None = None
    events: list[TraceEvent] = field(default_factory=list)
    # Race-sanitizer notes (vclock export, sanitize mode only): the
    # worker's clock plus its recorded segment accesses for this task.
    vclock_notes: dict | None = None


@dataclass
class TaskFailure:
    """A graceful task failure (the worker survived it)."""

    split: int
    attempt: int
    executor_id: int
    status: str                     # "killed" | "error"
    message: str
    duration_ms: float = 0.0
    events: list[TraceEvent] = field(default_factory=list)
    vclock_notes: dict | None = None


# -- the executor stub --------------------------------------------------------

class _NullGroup:
    __slots__ = ("name", "freed", "live_objects")

    def __init__(self, name: str) -> None:
        self.name = name
        self.freed = False
        self.live_objects = 0


class _NullHeap:
    """Absorbs heap traffic: worker memory is real, not simulated."""

    young_used_bytes = 0
    old_used_bytes = 0

    def new_group(self, name: str, lifetime: Any = None) -> _NullGroup:
        return _NullGroup(name)

    def allocate(self, group: _NullGroup, objects: int, nbytes: int) -> None:
        pass

    def shrink(self, group: _NullGroup, nbytes: int) -> None:
        pass

    def free_group(self, group: _NullGroup) -> None:
        group.freed = True


class _NullArena:
    """Never over budget: workers hold real memory, they do not spill."""

    def shuffle_acquire(self, nbytes: int) -> None:
        pass

    def shuffle_release(self, nbytes: int) -> None:
        pass

    def shuffle_over_budget(self) -> bool:
        return False


class _NullSerializer:
    """Serialization inside a worker is free: decomposed data is written
    straight to shared pages and object data is pickled exactly once, at
    the process boundary (where the backend counts it)."""

    def kryo_serialize(self, objects: int, nbytes: int) -> None:
        pass

    def kryo_deserialize(self, objects: int, nbytes: int) -> None:
        pass

    def deca_write(self, objects: int, nbytes: int) -> None:
        pass

    def deca_read(self, objects: int, nbytes: int) -> None:
        pass


class _WallClock:
    """The worker's clock is the wall clock (read-only for charges)."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def now_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def advance(self, ms: float) -> None:
        pass

    def advance_to(self, ms: float) -> None:
        pass


class WorkerExecutor:
    """The executor a task sees inside an mp worker.

    Same interface as :class:`repro.spark.executor.Executor` where the
    data plane touches it; every simulated cost charge is a no-op (the
    work is real, the wall clock measures it).  Compute charges still
    tick the armed fault plan so an injected ``task-kill`` strikes
    mid-computation exactly like in the sim backend.
    """

    def __init__(self, executor_id: int, config: Any, clock: _WallClock,
                 read_shuffle_fn: Callable[[int, int], Any]) -> None:
        self.executor_id = executor_id
        self.config = config
        self.clock = clock
        self.tracer = Tracer()
        self.trace_pid = executor_id + 1
        self.heap = _NullHeap()
        self.arena = _NullArena()
        self.serializer = _NullSerializer()
        self.fault_injector = None
        self.parallelism = max(1, config.tasks_per_executor)
        self._read_shuffle_fn = read_shuffle_fn
        self._fault_plan: TaskFaultPlan | None = None
        self._fault_countdown = 0
        self._current_task: TaskContext | None = None

    # -- fault injection (task-kill only; crashes are handled by the task
    # runner because they must kill the whole process) ----------------------
    def arm_fault(self, plan: TaskFaultPlan) -> None:
        self._fault_plan = plan
        self._fault_countdown = plan.after_ops

    def disarm_fault(self) -> None:
        self._fault_plan = None
        self._fault_countdown = 0

    def _tick_fault(self) -> None:
        plan = self._fault_plan
        if plan is None:
            return
        if self._fault_countdown > 0:
            self._fault_countdown -= 1
            return
        self.disarm_fault()
        metrics = (self._current_task.metrics
                   if self._current_task is not None else None)
        raise TaskKilledError(
            metrics.stage_id if metrics else -1,
            metrics.task_id if metrics else -1,
            metrics.attempt if metrics else 0)

    # -- charges (no-ops; the wall clock is the cost model) ------------------
    def charge_compute(self, ms: float) -> None:
        self._tick_fault()

    def charge_disk_write(self, nbytes: int) -> None:
        pass

    def charge_disk_read(self, nbytes: int) -> None:
        pass

    def charge_network(self, nbytes: int) -> None:
        pass

    def alloc_temp(self, objects: int, nbytes: int) -> None:
        pass

    def new_pinned_group(self, name: str) -> _NullGroup:
        return _NullGroup(name)

    def free_pinned_group(self, group: _NullGroup) -> None:
        group.freed = True

    def read_shuffle(self, shuffle_id: int, reduce_part: int,
                     task: TaskContext) -> Any:
        return self._read_shuffle_fn(shuffle_id, reduce_part)


# -- the worker loop ----------------------------------------------------------

class _WorkerRuntime:
    """Per-process state of one forked stage worker."""

    def __init__(self, state: "StageState", worker_id: int) -> None:
        self.state = state
        self.worker_id = worker_id
        self.clock = _WallClock()
        # (rdd_id, split) -> records decoded/computed in this process.
        self.local_cache: dict[tuple[int, int], list] = {}
        # Segment names created by the current attempt (unlinked if the
        # attempt fails gracefully; left for the driver sweep if the
        # process dies).
        self.created: list[str] = []
        self.current_out: TaskOutput | None = None
        self.attempt_tag = ""
        ctx = state.ctx
        # Race sanitizer: a worker-local checker seeded from the driver's
        # fork snapshot; its notes ship home with every task outcome.
        self.vclock: VClockChecker | None = None
        seed = state.vclock_snapshots.get(worker_id)
        if seed is not None:
            self.vclock = VClockChecker(actor=str(seed["actor"]),
                                        snapshot=dict(seed["clock"]))
        # Reroute cache materialization through this worker: blocks come
        # from (or go to) the backend's cross-process tables instead of
        # the simulated per-executor CacheStore.
        ctx._cached_iterator = (
            lambda rdd, split, task: self._cached_iterator(rdd, split, task))

    # -- shuffle read shim ---------------------------------------------------
    def read_shuffle(self, shuffle_id: int, reduce_part: int) -> Any:
        state = self.state
        store = state.ctx.shuffle_store
        num_maps = store.map_parts(shuffle_id)
        meta = state.shuffle_meta.get(shuffle_id)
        for map_part in range(num_maps):
            block = store.fetch(shuffle_id, map_part, reduce_part)
            if block is None:
                raise RuntimeError(
                    f"mp fetch: missing map output "
                    f"({shuffle_id}, {map_part}, {reduce_part})")
            if block.records is not None:
                # Inherited by fork from the driver — zero IPC.
                yield from block.records
            elif block.shm_ref is not None and meta is not None:
                if self.vclock is not None \
                        and block.shm_ref.name is not None:
                    self.vclock.note_access("segment", block.shm_ref.name)
                records = read_segment_records(block.shm_ref, meta.schema,
                                               meta.decode)
                if meta.tag is None:
                    yield from records
                else:
                    # Cogroup blocks are stored untagged; the side tag is
                    # a per-shuffle constant, reattached on read.
                    for key, value in records:
                        yield key, (meta.tag, value)
            else:
                raise RuntimeError(
                    f"mp fetch: unreadable block "
                    f"({shuffle_id}, {map_part}, {reduce_part})")

    # -- cache shim ----------------------------------------------------------
    def _cached_iterator(self, rdd: Any, split: int,
                         task: TaskContext) -> Iterator[Any]:
        key = (rdd.rdd_id, split)
        local = self.local_cache.get(key)
        if local is not None:
            yield from local
            return
        entry = self.state.cache_blocks.get(key)
        if _resolvable(entry):
            if (self.vclock is not None and entry.ref is not None
                    and entry.ref.name is not None):
                self.vclock.note_access("segment", entry.ref.name)
            records = list(entry.read())
            self.local_cache[key] = records
            yield from records
            return
        records = list(rdd.compute(split, task))
        self.local_cache[key] = records
        self._build_cache_block(rdd, key, records)
        yield from records

    def _build_cache_block(self, rdd: Any, key: tuple[int, int],
                           records: list) -> None:
        from ..spark.cache import StorageStrategy
        out = self.current_out
        if out is None:
            return
        plan = self.state.ctx.plan_cache(rdd)
        encode = plan.encode or (lambda value: value)
        if (plan.strategy is StorageStrategy.DECA_PAGES
                and plan.schema is not None):
            name = f"{self.attempt_tag}c{key[0]}"
            ref = pack_records_segment(
                name, plan.schema, [encode(r) for r in records])
            if ref.name is not None:
                self.created.append(ref.name)
            out.cache_blocks.append(CacheBlockOut(
                rdd_id=key[0], split=key[1], kind="shm",
                count=len(records), ref=ref))
            return
        if (plan.strategy is StorageStrategy.SERIALIZED
                and plan.schema is not None):
            # Same representation the sim cache stores: schema-packed
            # bytes, decoded on read — so both backends hand later
            # stages byte-identical record values.
            chunks = bytearray()
            for record in records:
                chunks.extend(plan.schema.pack(encode(record)))
            out.cache_blocks.append(CacheBlockOut(
                rdd_id=key[0], split=key[1], kind="packed",
                count=len(records), blob=bytes(chunks)))
            return
        out.cache_blocks.append(CacheBlockOut(
            rdd_id=key[0], split=key[1], kind="pickle",
            count=len(records), blob=pickle.dumps(records)))

    # -- one task attempt ----------------------------------------------------
    def run_task(self, split: int, attempt: int
                 ) -> TaskOutput | TaskFailure:
        state = self.state
        stage = state.stage
        executor_id = (split + attempt) % state.num_executors
        self.attempt_tag = (f"{state.run_tag}-t{stage.stage_id}"
                            f"p{split}a{attempt}-")
        self.created = []
        plan = state.fault_plans.get(split)
        if (plan is not None and plan.kind == EXECUTOR_CRASH
                and plan.after_ops == 0):
            # Crash before doing any work.
            os._exit(CRASH_EXIT_CODE)
        crash_after = (plan is not None and plan.kind == EXECUTOR_CRASH)
        executor = WorkerExecutor(executor_id, state.ctx.config, self.clock,
                                  self.read_shuffle)
        task = TaskContext(
            executor=executor,
            metrics=TaskMetrics(task_id=split, stage_id=stage.stage_id,
                                attempt=attempt, executor_id=executor_id))
        executor._current_task = task
        out = TaskOutput(split=split, attempt=attempt,
                         executor_id=executor_id)
        self.current_out = out
        if plan is not None and plan.kind == TASK_KILL:
            executor.arm_fault(plan)
        start_ms = self.clock.now_ms
        try:
            if state.is_map_stage:
                self._run_map_task(executor, task, split, out)
            else:
                result = state.result_func(stage.rdd.iterator(split, task))
                out.result_blob = pickle.dumps(result)
        except TaskKilledError as exc:
            return self._fail(split, attempt, executor, "killed",
                              repr(exc), start_ms)
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            return self._fail(split, attempt, executor, "error",
                              f"{type(exc).__name__}: {exc}", start_ms)
        if crash_after:
            # Injected crash between commit and report: the attempt's
            # segments exist but the driver never hears about them —
            # exactly the orphan state its sweep must clean up.
            os._exit(CRASH_EXIT_CODE)
        out.duration_ms = self.clock.now_ms - start_ms
        out.records_read = task.metrics.records_read
        if self.vclock is not None:
            self.vclock.note_result_produced(
                f"t{stage.stage_id}.{split}.{attempt}")
            out.vclock_notes = self.vclock.export_notes(drain=True)
        executor.tracer.complete(
            f"task:{stage.stage_id}.{split}.{attempt}", "task",
            ts_ms=start_ms, dur_ms=out.duration_ms,
            pid=executor.trace_pid, stage_id=stage.stage_id,
            task_id=split, attempt=attempt, status="success",
            backend="mp", worker_pid=os.getpid())
        out.events = list(executor.tracer.events)
        self.current_out = None
        return out

    def _fail(self, split: int, attempt: int, executor: WorkerExecutor,
              status: str, message: str, start_ms: float) -> TaskFailure:
        for name in self.created:
            from .shm import unlink_segment
            unlink_segment(name)
        self.created = []
        self.current_out = None
        duration = self.clock.now_ms - start_ms
        executor.tracer.complete(
            f"task:{self.state.stage.stage_id}.{split}.{attempt}", "task",
            ts_ms=start_ms, dur_ms=duration, pid=executor.trace_pid,
            stage_id=self.state.stage.stage_id, task_id=split,
            attempt=attempt, status=status, backend="mp",
            worker_pid=os.getpid())
        notes = (self.vclock.export_notes(drain=True)
                 if self.vclock is not None else None)
        return TaskFailure(split=split, attempt=attempt,
                           executor_id=executor.executor_id, status=status,
                           message=message, duration_ms=duration,
                           events=list(executor.tracer.events),
                           vclock_notes=notes)

    def _run_map_task(self, executor: WorkerExecutor, task: TaskContext,
                      split: int, out: TaskOutput) -> None:
        state = self.state
        stage = state.stage
        dep = stage.shuffle_dep
        assert dep is not None
        plan = state.shuffle_plan
        local_store = ShuffleBlockStore()
        writer = MapSideWriter(
            executor, dep.shuffle_id, split, dep.num_reduce,
            partitioner=dep.partitioner or state.ctx.partitioner,
            kind=dep.kind, merge_value=dep.merge_value, plan=plan)
        records = stage.rdd.iterator(split, task)
        if dep.tag is not None:
            records = ((key, (dep.tag, value)) for key, value in records)
        writer.write_all(records)
        writer.flush(local_store)
        meta = state.shuffle_meta.get(dep.shuffle_id)
        packable = meta is not None and meta.schema is not None
        for reduce_part in range(dep.num_reduce):
            block = local_store.fetch(dep.shuffle_id, split, reduce_part)
            assert block is not None
            if packable:
                assert meta is not None and meta.schema is not None
                if dep.tag is None:
                    values = [meta.encode(record)
                              for record in block.records]
                else:
                    values = [meta.encode((key, tagged[1]))
                              for key, tagged in block.records]
                name = f"{self.attempt_tag}s{dep.shuffle_id}r{reduce_part}"
                ref = pack_records_segment(name, meta.schema, values)
                if ref.name is not None:
                    self.created.append(ref.name)
                out.map_blocks.append(MapBlockOut(
                    reduce_part=reduce_part, count=len(block.records),
                    nbytes=block.nbytes, objects=block.objects,
                    merge_penalty_bytes=block.merge_penalty_bytes,
                    ref=ref))
            else:
                blob = pickle.dumps(block.records)
                out.map_blocks.append(MapBlockOut(
                    reduce_part=reduce_part, count=len(block.records),
                    nbytes=block.nbytes, objects=block.objects,
                    merge_penalty_bytes=block.merge_penalty_bytes,
                    blob=blob))


def worker_main(state: "StageState", worker_id: int, splits: list[int],
                queue: Any) -> None:
    """Entry point of one forked stage worker.

    Runs its assigned splits sequentially, reporting each attempt's
    outcome on *queue*, then a final ``("done", worker_id)``.
    """
    runtime = _WorkerRuntime(state, worker_id)
    for split in splits:
        attempt = state.attempts.get(split, 0)
        outcome = runtime.run_task(split, attempt)
        if isinstance(outcome, TaskOutput):
            queue.put(("ok", outcome))
        else:
            queue.put(("fail", outcome))
    queue.put(("done", worker_id))
    queue.close()
    queue.join_thread()
