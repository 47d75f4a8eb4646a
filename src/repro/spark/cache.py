"""The block cache (Spark's ``CacheManager``/``BlockManager``, Appendix C).

Cached RDD partitions become *blocks*.  A block's storage strategy depends
on the execution mode / Deca plan:

* ``OBJECTS`` — a plain record list; every record's object graph lives on
  the (simulated) heap as pinned objects.  Spark's default.
* ``SERIALIZED`` — one packed byte blob per block (Kryo-like); two heap
  objects per block, but every read pays per-record deserialization.
  Spark's ``MEMORY_ONLY_SER`` ("SparkSer").
* ``DECA_PAGES`` — a reference-counted page group of decomposed records;
  a handful of heap objects, readable in place.

Blocks exceeding the storage budget are swapped to disk, least recently
used first (the paper's modified LRU evicts whole page groups in Deca
mode).  Swapped blocks are transparently re-read with disk + (mode-
dependent) deserialization costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..errors import CacheError
from ..jvm.objects import AllocationGroup, Lifetime
from ..jvm.sizing import array_bytes
from ..memory.layout import Schema
from ..memory.page import PageGroup
from ..memory.unified import UnifiedMemoryManager
from .measure import RecordFootprint

BlockKey = tuple[int, int]  # (rdd_id, partition_index)


class StorageStrategy(enum.Enum):
    """How a cached block stores its records."""

    OBJECTS = "objects"
    SERIALIZED = "serialized"
    DECA_PAGES = "deca-pages"


@dataclass
class CachedBlock:
    """One cached partition on one executor."""

    key: BlockKey
    strategy: StorageStrategy
    records: list | None            # OBJECTS strategy
    blob: bytes | None              # SERIALIZED strategy
    page_group: PageGroup | None    # DECA_PAGES strategy
    schema: Schema | None
    decode: Callable[[Any], Any] | None
    record_count: int
    memory_bytes: int               # heap footprint while in memory
    disk_bytes: int                 # bytes written if swapped
    footprint: RecordFootprint      # summed record footprints
    alloc_group: AllocationGroup | None = None
    on_disk: bool = False
    # Payload parked here while the block is swapped out.
    _disk_payload: Any = None
    # What the last swap-out released; swap-in readmits exactly this so
    # the two directions stay byte-symmetric.
    _swap_released_bytes: int = 0
    # mmap cold tier (``DecaConfig.cold_tier="mmap"``): the extent that
    # holds the block's bytes, and whether the *resident* payload
    # currently aliases that extent.  A promoted block keeps its extent,
    # so re-evicting it moves zero bytes.
    _tier_key: str | None = None
    _tier_resident: bool = False


class CacheStore:
    """Per-executor block store with LRU swap-to-disk.

    The executor wires :meth:`release_for_pressure` into its heap as a
    pressure handler, so allocation pressure evicts blocks exactly the way
    a real BlockManager drops them.
    """

    def __init__(self, executor) -> None:
        self.executor = executor
        self.blocks: dict[BlockKey, CachedBlock] = {}
        self._lru: dict[BlockKey, int] = {}
        self._tick = 0
        self.swapped_bytes_total = 0
        self.storage_budget = executor.config.storage_bytes
        # In unified mode the executor arena owns eviction: blocks are
        # storage entries competing in one LRU with Deca page groups,
        # and the local budget/_make_room logic is bypassed.
        arena = getattr(executor, "arena", None)
        self._unified: UnifiedMemoryManager | None = (
            arena if isinstance(arena, UnifiedMemoryManager) else None)
        # Running sum of resident (not-on-disk) block bytes, maintained on
        # put/swap/drop so the eviction loop stays O(1) per victim instead
        # of recomputing O(blocks) on every iteration.
        self._resident_bytes = 0
        # Keys whose swap is in flight: swap-out charges its transient
        # copies to the heap, which can raise pressure re-entrantly —
        # the victim selection must never pick a block that is already
        # halfway through its own swap.
        self._inflight: set[BlockKey] = set()

    # -- queries --------------------------------------------------------------
    def contains(self, key: BlockKey) -> bool:
        return key in self.blocks

    def get(self, key: BlockKey) -> CachedBlock:
        try:
            block = self.blocks[key]
        except KeyError:
            raise CacheError(f"no cached block {key}") from None
        self._touch(key)
        return block

    @property
    def memory_bytes(self) -> int:
        return self._resident_bytes

    def recompute_memory_bytes(self) -> int:
        """O(blocks) ground truth for the resident counter (invariant
        checks only — the hot paths must not call this)."""
        return sum(b.memory_bytes for b in self.blocks.values()
                   if not b.on_disk)

    def _touch(self, key: BlockKey) -> None:
        self._tick += 1
        self._lru[key] = self._tick
        block = self.blocks.get(key)
        if block is None:
            return
        if block.page_group is not None \
                and not block.page_group.reclaimed:
            self.executor.memory_manager.touch(block.page_group)
        elif self._unified is not None:
            self._unified.storage_touch(self._entry_name(block))

    def _entry_name(self, block: CachedBlock) -> str:
        """The block's storage-entry name in the unified arena.

        Deca blocks are tracked under their page group's name (the
        manager registers it); object/serialized blocks use the same
        ``cache:<key>`` convention.
        """
        if block.page_group is not None:
            return block.page_group.name
        return f"cache:{block.key}"

    # -- insertion -----------------------------------------------------------------
    def put(self, block: CachedBlock) -> None:
        if block.key in self.blocks:
            raise CacheError(f"block {block.key} cached twice")
        if self._unified is not None:
            self._put_unified(block)
            return
        executor = self.executor
        if block.memory_bytes > self.storage_budget:
            # Fail fast: a block that can never fit must not evict every
            # resident block first only to be swapped out itself.
            executor.tracer.instant(
                "memory:reject", "memory", ts_ms=executor.clock.now_ms,
                pid=executor.trace_pid, rdd_id=block.key[0],
                partition=block.key[1], nbytes=block.memory_bytes,
                limit=self.storage_budget, reason="exceeds-storage-budget")
            self.blocks[block.key] = block
            if not block.on_disk:
                self._resident_bytes += block.memory_bytes
            self._touch(block.key)
            if not block.on_disk:
                self.swap_out(block.key)
            return
        self._make_room(block.memory_bytes)
        self.blocks[block.key] = block
        if not block.on_disk:
            self._resident_bytes += block.memory_bytes
        self._touch(block.key)

    def _put_unified(self, block: CachedBlock) -> None:
        """Insert under the unified arena: the block becomes a storage
        entry whose eviction callback is :meth:`swap_out`."""
        arena = self._unified
        assert arena is not None
        key = block.key
        fits = True
        if block.page_group is not None:
            # The page group registered (pinned) while being built;
            # adopting seals it and makes it evictable.
            arena.storage_adopt(block.page_group.name, block.memory_bytes,
                                evict=lambda: self.swap_out(key))
        else:
            fits = arena.storage_acquire(
                self._entry_name(block), block.memory_bytes,
                evict=lambda: self.swap_out(key))
        self.blocks[key] = block
        if not block.on_disk:
            self._resident_bytes += block.memory_bytes
        self._touch(key)
        if not fits and not block.on_disk:
            # The arena traced a ``memory:reject``; store straight to
            # disk instead of displacing better-sized residents.
            self.swap_out(key)

    def _make_room(self, nbytes: int) -> None:
        """Swap out LRU blocks until *nbytes* fit in the storage budget."""
        while (self.memory_bytes + nbytes > self.storage_budget
               and self._has_swappable()):
            victim = self._lru_victim()
            if victim is None:
                break
            self.swap_out(victim)

    def _has_swappable(self) -> bool:
        return any(not b.on_disk for b in self.blocks.values())

    def _lru_victim(self) -> BlockKey | None:
        # In-flight keys are excluded: a block mid-swap still carries a
        # stale LRU tick and ``on_disk=False``, so a re-entrant
        # eviction (pressure raised by that very swap, or by the insert
        # that triggered it in the same tick window) would select it
        # and double-drain its pages.
        candidates = [(tick, key) for key, tick in self._lru.items()
                      if key in self.blocks
                      and not self.blocks[key].on_disk
                      and key not in self._inflight]
        if not candidates:
            return None
        victim = min(candidates)[1]
        if self.executor.vclock is not None:
            self.executor.vclock.note_victim(str(victim))
        return victim

    # -- swapping (Appendix C) ----------------------------------------------------
    def _tier_name(self, block: CachedBlock) -> str:
        """The block's extent name in the mmap cold tier."""
        return f"cache:{block.key}"

    def swap_out(self, key: BlockKey) -> int:
        """Move a block to the cold tier and release its heap space."""
        block = self.blocks[key]
        if block.on_disk or key in self._inflight:
            # A block halfway through its own swap must not be drained
            # again by a re-entrant eviction (heap pressure raised by
            # the swap's transient copies picks victims through the
            # same LRU).
            return 0
        self._inflight.add(key)
        if self.executor.vclock is not None:
            self.executor.vclock.swap_begin(str(key))
        try:
            return self._swap_out(key, block)
        finally:
            self._inflight.discard(key)
            if self.executor.vclock is not None:
                self.executor.vclock.swap_end(str(key))

    def _swap_out(self, key: BlockKey, block: CachedBlock) -> int:
        executor = self.executor
        tier = executor.cold_tier
        released = block.memory_bytes
        # Remember what this eviction released: swap-in readmits exactly
        # these bytes, whatever the footprint model would have guessed.
        block._swap_released_bytes = released
        tier_moved = 0
        copy_group: AllocationGroup | None = None
        drained_group: str | None = None
        if block.strategy is StorageStrategy.OBJECTS:
            # Spark serializes object blocks before writing them out.
            executor.serializer.kryo_serialize(
                block.footprint.objects, block.disk_bytes)
            block._disk_payload = block.records
            block.records = None
        elif block.strategy is StorageStrategy.SERIALIZED:
            if tier is not None and block.blob is not None:
                # The blob is already wire format: move the bytes into
                # an extent (none move if a promoted blob still aliases
                # its extent — the bytes never left the tier).
                if block._tier_key is None:
                    block._tier_key = self._tier_name(block)
                    tier_moved = tier.swap_out(block._tier_key,
                                               [block.blob])
                block._tier_resident = False
                # A promoted blob is a view of the extent; it is
                # superseded now, so detach it — a straggling reader
                # must fail loudly, not see the extent's next tenant.
                if isinstance(block.blob, memoryview):
                    try:
                        block.blob.release()
                    except BufferError:
                        pass  # a sub-view reader is still mid-scan
                block.blob = None
            else:
                # Schema-less blocks keep their record list instead of a
                # packed blob; park whichever payload exists.
                block._disk_payload = (block.blob if block.blob is not None
                                       else block.records)
                block.blob = None
                block.records = None
        else:
            # Deca: raw page bytes, never serialized (Appendix C).
            group = block.page_group
            assert group is not None
            if tier is not None:
                if block._tier_key is None:
                    block._tier_key = self._tier_name(block)
                    tier_moved = tier.swap_out(block._tier_key,
                                               group.swap_chunks())
                # else: the resident pages alias the extent (the block
                # was promoted earlier) — the bytes are already cold.
                block._tier_resident = False
                group.reclaim()
            else:
                # Heap tier: the bytes round-trip the Python heap.
                # Drain page by page — charge the copy, stream it into
                # the disk image (parked payload bytes model *disk*
                # content, off-heap), release the source — so the
                # double-buffer transient is accounted and bounded at
                # one page, instead of copying the whole group
                # (unaccounted, ~2x peak) before reclaim.
                copy_group = executor.heap.new_group(
                    f"swap-copy:{key}", Lifetime.PINNED)
                if executor.ledger is not None:
                    group.ledger = executor.ledger
                    drained_group = group.name
                chunks: list[bytes] = []
                for chunk in group.drain():
                    executor.serializer.note_swap_copy(len(chunk))
                    copy_bytes = array_bytes(1, len(chunk))
                    executor.heap.allocate(copy_group, 1, copy_bytes)
                    chunks.append(chunk)
                    executor.heap.shrink(copy_group, copy_bytes)
                block._disk_payload = chunks
            block.page_group = None
        if tier is not None:
            # Extent-backed payloads pay for the bytes actually moved;
            # parked object/record payloads pay for their disk image
            # landing in the tier file (no seek either way).
            executor.charge_tier_write(
                tier_moved if block._tier_key is not None
                else block.disk_bytes)
        else:
            executor.charge_disk_write(block.disk_bytes)
        if copy_group is not None and not copy_group.freed:
            # The copies reached the disk with the write above.
            executor.heap.free_group(copy_group)
        if drained_group is not None and executor.ledger is not None:
            # The transient drain copies were consumed by the write.
            executor.ledger.release_drain(drained_group)
        if block.alloc_group is not None and not block.alloc_group.freed:
            executor.heap.free_group(block.alloc_group)
            block.alloc_group = None
        if self._unified is not None:
            # Deca entries are discarded by the manager when the group
            # reclaims; discard is idempotent, so cover both shapes.
            self._unified.storage_discard(self._entry_name(block))
        block.on_disk = True
        block.memory_bytes = 0
        self._resident_bytes -= released
        self.swapped_bytes_total += block.disk_bytes
        swap_args = dict(
            rdd_id=key[0], partition=key[1],
            strategy=block.strategy.value, released_bytes=released,
            disk_bytes=block.disk_bytes,
            heap_used_bytes=(executor.heap.young_used_bytes
                             + executor.heap.old_used_bytes))
        if tier is not None:
            swap_args["tier_bytes"] = tier_moved
            if executor.ledger is not None and block._tier_key is not None:
                executor.ledger.note_demote("extent", block._tier_key)
            if executor.vclock is not None and block._tier_key is not None:
                executor.vclock.note_demote("extent", block._tier_key)
            if executor.on_demote is not None:
                # Tell the execution backend: mp workers must not keep
                # resolving this block's shared-memory copy as hot.
                executor.on_demote(key)
        executor.tracer.instant(
            "cache:swap-out", "cache", ts_ms=executor.clock.now_ms,
            pid=executor.trace_pid, **swap_args)
        return released

    def swap_in(self, key: BlockKey) -> CachedBlock:
        """Read a swapped block back (charging tier/disk + deser costs)."""
        block = self.blocks[key]
        if not block.on_disk or key in self._inflight:
            return block
        self._inflight.add(key)
        try:
            return self._swap_in(key, block)
        finally:
            self._inflight.discard(key)

    def _swap_in(self, key: BlockKey, block: CachedBlock) -> CachedBlock:
        executor = self.executor
        tier = executor.cold_tier
        if tier is not None:
            executor.charge_tier_read(block.disk_bytes)
        else:
            executor.charge_disk_read(block.disk_bytes)
        if block.strategy is StorageStrategy.OBJECTS:
            executor.serializer.kryo_deserialize(
                block.footprint.objects, block.disk_bytes)
            block.records = block._disk_payload
            # Swap symmetry: readmit what swap-out actually released.
            block.memory_bytes = (block._swap_released_bytes
                                  or block.footprint.object_bytes)
            group = executor.heap.new_group(
                f"cache:{block.key}", Lifetime.PINNED)
            executor.heap.allocate(group, block.footprint.objects,
                                   block.memory_bytes)
            block.alloc_group = group
        elif block.strategy is StorageStrategy.SERIALIZED:
            if tier is not None and block._tier_key is not None:
                # Zero-copy promotion: the blob is a view of its extent.
                views = tier.swap_in(block._tier_key)
                blob = views[0] if views else memoryview(b"")
                block.blob = blob
                block.memory_bytes = len(blob)
                block._tier_resident = True
                if executor.vclock is not None:
                    executor.vclock.note_promote("extent", block._tier_key)
                if executor.ledger is not None:
                    # The promoted view outlives this call on purpose.
                    executor.ledger.retain("extent", block._tier_key)
            else:
                payload = block._disk_payload
                if isinstance(payload, (bytes, bytearray, memoryview)):
                    block.blob = payload
                    block.memory_bytes = len(payload)
                else:
                    block.records = payload
                    # Swap symmetry: the record list was tracked at the
                    # released size, not at the footprint's estimate.
                    block.memory_bytes = (
                        block._swap_released_bytes
                        or block.footprint.serialized_bytes)
            group = executor.heap.new_group(
                f"cache:{block.key}", Lifetime.PINNED)
            executor.heap.allocate(group, 2, block.memory_bytes)
            block.alloc_group = group
        else:
            group = executor.memory_manager.new_page_group(
                f"cache:{block.key}:{self._tick}", evictable=True)
            if tier is not None and block._tier_key is not None:
                # Zero-copy promotion: mount the extent's views as
                # pages, readable through the SUDT/schema accessors.
                for view in tier.swap_in(block._tier_key):
                    group.adopt_page(view)
                block._tier_resident = True
                if executor.vclock is not None:
                    executor.vclock.note_promote("extent", block._tier_key)
                if executor.ledger is not None:
                    # Adoption hands ownership to the page group; the
                    # ledger tracks the borrows until group.reclaim().
                    executor.ledger.retain(
                        "extent", block._tier_key, group=group.name)
                    group.ledger = executor.ledger
            else:
                for chunk in block._disk_payload:
                    executor.serializer.note_swap_copy(len(chunk))
                    page, offset = group.reserve(len(chunk))
                    page.data[offset:offset + len(chunk)] = chunk
            block.page_group = group
            block.memory_bytes = group.allocated_bytes
        block._disk_payload = None
        block.on_disk = False
        self._resident_bytes += block.memory_bytes
        # Touch BEFORE making room: under its stale LRU tick the
        # just-restored block would itself be the first eviction victim,
        # swapping straight back out (swap-in thrash).
        self._touch(key)
        if self._unified is not None:
            # Re-register with the arena (evicting colder entries); the
            # bytes are already on the heap, so adoption cannot fail.
            self._unified.storage_adopt(
                self._entry_name(block), block.memory_bytes,
                evict=lambda: self.swap_out(key))
        else:
            self._make_room(0)
        executor.tracer.instant(
            "cache:swap-in", "cache", ts_ms=executor.clock.now_ms,
            pid=executor.trace_pid, rdd_id=key[0], partition=key[1],
            strategy=block.strategy.value,
            restored_bytes=block.memory_bytes,
            disk_bytes=block.disk_bytes,
            heap_used_bytes=(executor.heap.young_used_bytes
                             + executor.heap.old_used_bytes))
        return block

    # -- heap pressure -----------------------------------------------------------
    def release_for_pressure(self, bytes_needed: int) -> int:
        """Heap pressure handler: swap out LRU blocks."""
        freed = 0
        while freed < bytes_needed and self._has_swappable():
            victim = self._lru_victim()
            if victim is None:
                break
            freed += self.swap_out(victim)
        return freed

    # -- removal ---------------------------------------------------------------------
    def remove_rdd(self, rdd_id: int) -> int:
        """Drop every block of *rdd_id* (the ``unpersist`` path).

        Releasing the references is all it takes: object blocks become
        garbage for the next collection; page groups are reclaimed at once.
        """
        removed = 0
        for key in [k for k in self.blocks if k[0] == rdd_id]:
            self._drop_block(key)
            removed += 1
        return removed

    def invalidate_all(self) -> int:
        """Drop every block — the executor process that held them died.

        Unlike :meth:`remove_rdd` this is not a lifetime event the
        application chose: the partitions are simply gone, and the next
        ``iterator()`` call on their RDDs recomputes them from lineage.
        """
        removed = 0
        for key in list(self.blocks):
            self._drop_block(key)
            removed += 1
        return removed

    def _drop_block(self, key: BlockKey) -> None:
        block = self.blocks.pop(key)
        self._lru.pop(key, None)
        if not block.on_disk:
            self._resident_bytes -= block.memory_bytes
        if block.alloc_group is not None and not block.alloc_group.freed:
            self.executor.heap.free_group(block.alloc_group)
        if self._unified is not None and not block.on_disk:
            self._unified.storage_discard(self._entry_name(block))
        if block.page_group is not None \
                and not block.page_group.reclaimed:
            block.page_group.reclaim()
        # Release every payload reference: a dropped-while-swapped block
        # must not keep its parked records/bytes reachable.  A promoted
        # blob aliases its extent — detach it before the extent is
        # dropped below so stale readers fail loudly.
        if isinstance(block.blob, memoryview):
            try:
                block.blob.release()
            except BufferError:
                pass  # a sub-view reader is still mid-scan
        block.page_group = None
        block.records = None
        block.blob = None
        block._disk_payload = None
        tier = self.executor.cold_tier
        if tier is not None and block._tier_key is not None:
            tier.drop(block._tier_key)
            block._tier_key = None
            block._tier_resident = False

    def read_records(self, key: BlockKey) -> Iterator[Any]:
        """Iterate a block's records, charging mode-appropriate costs.

        Swapped blocks are *streamed* from disk (MEMORY_AND_DISK
        semantics): they pay disk + deserialization on every access but do
        not displace resident blocks — re-promoting them would thrash the
        LRU under exactly the memory pressure that evicted them.
        """
        block = self.get(key)
        if block.on_disk:
            yield from self._read_from_disk(block)
            return
        executor = self.executor
        if block.strategy is StorageStrategy.OBJECTS:
            yield from block.records
            return
        if block.strategy is StorageStrategy.SERIALIZED:
            if block.blob is None or block.schema is None:
                # Non-decomposable records cannot be blob-packed: the
                # block keeps its record list and only models the
                # serialized footprint.  Reads still pay deserialization.
                assert block.records is not None
                executor.serializer.kryo_deserialize(
                    block.footprint.objects, block.disk_bytes)
                yield from block.records
                return
            executor.serializer.kryo_deserialize(
                block.footprint.objects, len(block.blob))
            offset = 0
            decode = block.decode or (lambda v: v)
            for _ in range(block.record_count):
                value, offset = block.schema.unpack_from(block.blob, offset)
                yield decode(value)
            return
        # DECA_PAGES: read decomposed records in place.
        assert block.page_group is not None and block.schema is not None
        executor.serializer.deca_read(block.record_count,
                                      block.page_group.used_bytes)
        executor.charge_compute(
            executor.config.cpu.page_access_ms * block.record_count)
        decode = block.decode or (lambda v: v)
        for value in block.page_group.records(block.schema):
            yield decode(value)

    def _read_from_disk(self, block: CachedBlock) -> Iterator[Any]:
        """Stream a swapped block's records without re-promoting it."""
        executor = self.executor
        tier = executor.cold_tier
        tier_key = block._tier_key if tier is not None else None
        if tier is not None:
            executor.charge_tier_read(block.disk_bytes)
        else:
            executor.charge_disk_read(block.disk_bytes)
        if block.strategy is StorageStrategy.OBJECTS:
            executor.serializer.kryo_deserialize(block.footprint.objects,
                                                 block.disk_bytes)
            # Deserialized records are short-lived task-local objects.
            executor.alloc_temp(block.footprint.objects,
                                block.footprint.object_bytes)
            yield from block._disk_payload
            return
        if block.strategy is StorageStrategy.SERIALIZED:
            executor.serializer.kryo_deserialize(block.footprint.objects,
                                                 block.disk_bytes)
            if tier_key is not None:
                views = tier.views(tier_key)
                payload = views[0] if views else memoryview(b"")
            else:
                payload = block._disk_payload
            decode = block.decode or (lambda v: v)
            if isinstance(payload, (bytes, bytearray, memoryview)) \
                    and block.schema is not None:
                offset = 0
                for _ in range(block.record_count):
                    value, offset = block.schema.unpack_from(payload,
                                                             offset)
                    yield decode(value)
            else:
                yield from payload
            return
        # DECA_PAGES: the cold bytes are already the record format — in
        # the mmap tier they stream straight out of the extent's views.
        executor.serializer.deca_read(block.record_count, block.disk_bytes)
        assert block.schema is not None
        decode = block.decode or (lambda v: v)
        chunks = (tier.views(tier_key) if tier_key is not None
                  else block._disk_payload)
        for chunk in chunks:
            offset = 0
            while offset < len(chunk):
                value, offset = block.schema.unpack_from(chunk, offset)
                yield decode(value)
