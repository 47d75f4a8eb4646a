"""Property-based tests: SimHeap's running occupancy counters.

``SimHeap`` keeps its young/old live bytes as counters that allocate,
shrink and free_group adjust and that every collection recounts.  Under
random operation sequences — humongous allocations and a pressure handler
that frees groups from inside an allocation included — each counter must
equal the sum over the heap's groups after every operation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DecaConfig, MB
from repro.errors import AllocationError, OutOfMemoryError
from repro.jvm import Lifetime, SimHeap
from repro.simtime import SimClock

HEAP_BYTES = 4 * MB

_OPS = st.one_of(
    st.tuples(st.just("new"), st.sampled_from(list(Lifetime))),
    st.tuples(st.just("alloc"), st.integers(0, 30),
              st.integers(0, 400), st.integers(0, 200_000)),
    st.tuples(st.just("humongous"), st.integers(0, 30),
              st.integers(1, 10), st.integers(0, HEAP_BYTES // 2)),
    st.tuples(st.just("shrink"), st.integers(0, 30), st.floats(0, 1)),
    st.tuples(st.just("free"), st.integers(0, 30)),
    st.tuples(st.just("minor"),),
    st.tuples(st.just("full"),),
)


def assert_counters_match(heap: SimHeap) -> None:
    groups = heap._groups.values()
    assert heap.young_live_bytes == sum(g.young_bytes for g in groups)
    assert heap.old_live_bytes == sum(g.old_bytes for g in groups)
    assert heap.live_bytes == sum(g.live_bytes for g in groups)
    assert heap.young_live_bytes >= 0 and heap.old_live_bytes >= 0


@given(st.lists(_OPS, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_counters_equal_the_sum_over_groups(script):
    heap = SimHeap(DecaConfig(heap_bytes=HEAP_BYTES), SimClock())
    groups = [heap.new_group("g0", Lifetime.PINNED)]

    def evict(nbytes: int) -> int:
        """Free pinned groups, oldest first, until *nbytes* are released."""
        released = 0
        for group in list(groups):
            if released >= nbytes:
                break
            if group.lifetime is Lifetime.PINNED and not group.freed:
                released += group.live_bytes
                heap.free_group(group)
        return released

    heap.add_pressure_handler(evict)
    for op in script:
        kind = op[0]
        live = [g for g in groups if not g.freed]
        try:
            if kind == "new":
                groups.append(heap.new_group(f"g{len(groups)}", op[1]))
            elif kind in ("alloc", "humongous") and live:
                group = live[op[1] % len(live)]
                nbytes = op[3]
                if kind == "humongous":
                    nbytes += heap.young_capacity // 2 + 1
                heap.allocate(group, op[2], nbytes)
            elif kind == "shrink" and live:
                group = live[op[1] % len(live)]
                heap.shrink(group, int(group.live_bytes * op[2]))
            elif kind == "free" and live:
                heap.free_group(live[op[1] % len(live)])
            elif kind == "minor":
                heap.minor_gc()
            elif kind == "full":
                heap.full_gc()
        except (OutOfMemoryError, AllocationError):
            # A failed operation must leave the counters consistent too.
            pass
        assert_counters_match(heap)
        assert heap.young_used_bytes == (heap.young_live_bytes
                                         + heap._young_garbage)
        assert heap.old_used_bytes == heap.old_live_bytes + heap._old_garbage


def test_shrink_and_free_reject_foreign_groups():
    heap = SimHeap(DecaConfig(heap_bytes=HEAP_BYTES), SimClock())
    other = SimHeap(DecaConfig(heap_bytes=HEAP_BYTES), SimClock())
    group = other.new_group("foreign", Lifetime.PINNED)
    other.allocate(group, 1, 1000)
    with pytest.raises(AllocationError):
        heap.shrink(group, 10)
    with pytest.raises(AllocationError):
        heap.free_group(group)
    assert_counters_match(heap)
    assert_counters_match(other)
