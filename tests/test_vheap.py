from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripwire.errors import (
    NotAHeapObject,
    NotQuarantined,
    OutOfVirtualHeap,
    OversizeRequest,
    SegfaultModel,
)
from tripwire.engine import Engine
from tripwire.vheap import PAGE, PAGE_SHIFT, WORD, Allocator, MemoryImage, SlotTable, next_pow2

from conftest import small_config


def make_heap(**overrides):
    config = small_config(**overrides)
    image = MemoryImage(config)
    return config, image, Allocator(config, image)


def test_next_pow2_rounding():
    assert next_pow2(1) == 1
    assert next_pow2(16) == 16
    assert next_pow2(17) == 32
    assert next_pow2(24) == 32
    assert next_pow2(1024) == 1024


def test_allocate_24_gets_capacity_32():
    _, _, heap = make_heap()
    payload = heap.allocate(24)
    view = heap.object_bounds(payload)
    assert view.capacity == 32
    assert view.requested == 24
    assert view.allocated


def test_exact_power_of_two_request_fills_its_class():
    _, _, heap = make_heap()
    view = heap.object_bounds(heap.allocate(32))
    assert view.requested == view.capacity == 32


def test_small_request_rounds_to_min_class():
    _, _, heap = make_heap()
    view = heap.object_bounds(heap.allocate(3))
    assert view.capacity == 16
    assert view.requested == 3


def test_identical_histories_yield_identical_addresses():
    sizes = [24, 32, 8, 500, 24, 17]
    _, _, h1 = make_heap()
    _, _, h2 = make_heap()
    assert [h1.allocate(s) for s in sizes] == [h2.allocate(s) for s in sizes]


def test_released_slot_is_reused_for_same_class():
    _, _, heap = make_heap()
    a = heap.allocate(32)
    heap.set_allocated(a, False)
    heap.release_slot(a)
    assert heap.allocate(30) == a


def test_two_releases_reused_in_lifo_order():
    # release A then B puts B on top of the class free list
    _, _, heap = make_heap()
    a = heap.allocate(24)
    b = heap.allocate(24)
    for addr in (a, b):
        heap.set_allocated(addr, False)
        heap.release_slot(addr)
    assert heap.allocate(24) == b
    assert heap.allocate(24) == a


def test_release_of_never_allocated_address_rejected():
    _, _, heap = make_heap()
    heap.allocate(16)
    with pytest.raises(NotQuarantined):
        heap.release_slot(0x1_0000_0000 + 0x30000)


def test_release_of_live_or_interior_or_repeated_rejected():
    _, _, heap = make_heap()
    a = heap.allocate(64)
    with pytest.raises(NotQuarantined):
        heap.release_slot(a)  # still allocated
    heap.set_allocated(a, False)
    with pytest.raises(NotQuarantined):
        heap.release_slot(a + 8)  # not a payload start
    heap.release_slot(a)
    with pytest.raises(NotQuarantined):
        heap.release_slot(a)  # already free-listed


def test_object_bounds_identity_and_interior():
    _, _, heap = make_heap()
    a = heap.allocate(32)
    assert heap.object_bounds(a).payload == a
    assert heap.object_bounds(a + 17).payload == a  # interior value resolves
    assert heap.object_bounds(a - 32).payload == a  # guard word belongs to the slot


def test_object_bounds_past_carve_cursor():
    config, _, heap = make_heap()
    a = heap.allocate(32)
    with pytest.raises(NotAHeapObject):
        heap.object_bounds(a + 32 + 64)  # next, never-carved slot
    with pytest.raises(NotAHeapObject):
        heap.object_bounds(config.heap_base + config.heap_size - 8)
    with pytest.raises(NotAHeapObject):
        heap.object_bounds(config.heap_base - 8)


def test_oversize_and_exhaustion():
    config, _, heap = make_heap()
    with pytest.raises(OversizeRequest):
        heap.allocate(config.max_class + 1)
    with pytest.raises(OversizeRequest):
        heap.allocate(0)
    n_chunks = config.heap_size // config.chunk_size
    per_chunk = config.chunk_size // (32 + config.max_class)
    for _ in range(n_chunks * per_chunk):
        heap.allocate(config.max_class)
    with pytest.raises(OutOfVirtualHeap):
        heap.allocate(config.max_class)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=0, max_size=40))
def test_address_determinism_is_a_pure_function_of_history(sizes):
    _, _, h1 = make_heap()
    _, _, h2 = make_heap()
    out1, out2 = [], []
    for heap, out in ((h1, out1), (h2, out2)):
        live = []
        for i, size in enumerate(sizes):
            addr = heap.allocate(size)
            out.append(addr)
            live.append(addr)
            if i % 3 == 2 and live:  # deterministic interleaved releases
                victim = live.pop(0)
                heap.set_allocated(victim, False)
                heap.release_slot(victim)
    assert out1 == out2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8000), min_size=1, max_size=50))
def test_payload_intervals_never_overlap(sizes):
    _, _, heap = make_heap()
    intervals = []
    for size in sizes:
        payload = heap.allocate(size)
        view = heap.object_bounds(payload)
        assert view.capacity == next_pow2(max(size, 16))
        intervals.append((payload, payload + view.capacity))
    intervals.sort()
    for (_, end), (start, _) in zip(intervals, intervals[1:]):
        assert end <= start


def test_header_pow2_relation_holds_for_every_carved_slot():
    _, _, heap = make_heap()
    for size in (1, 16, 17, 100, 4096, 5000):
        heap.allocate(size)
    for view in heap.carved_slots():
        assert view.capacity == next_pow2(max(view.requested, 16))


def test_image_store_load_identity_and_zero_tail():
    config, image, heap = make_heap()
    a = heap.allocate(64)
    image.write_fill(a, 8, 0x41)
    assert image.read(a, 8) == b"\x41" * 8
    # reads beyond the materialized prefix are zeros, not errors
    far = config.heap_base + config.heap_size - 64
    assert image.read(far, 16) == bytes(16)


def test_unmapped_accesses_raise_segfault_model():
    config, image, _ = make_heap()
    for addr in (
        config.heap_base - 1,
        config.heap_base + config.heap_size,
        config.globals_base - 8,
        config.globals_base + 8 * config.globals_words,
        0,
    ):
        with pytest.raises(SegfaultModel):
            image.read(addr, 1)
        with pytest.raises(SegfaultModel):
            image.write_fill(addr, 1, 0)
    # straddling the end of a region faults too
    with pytest.raises(SegfaultModel):
        image.read(config.heap_base + config.heap_size - 4, 8)
    # a bad fill length faults before any fill bytes are built
    for length in (-1, 1 << 62):
        with pytest.raises(SegfaultModel):
            image.write_fill(config.heap_base, length, 0)


def test_image_snapshot_restore_is_byte_exact():
    config, image, heap = make_heap()
    a = heap.allocate(64)
    image.write_fill(a, 64, 0x11)
    snap = image.snapshot()
    before = (image.heap_prefix, image.heap[: image.heap_prefix], bytes(image.globals))
    image.write_fill(a, 64, 0x22)
    image.write_word(config.globals_base, 0xDEAD)
    assert len(snap[1]) == 1  # the globals' undo log saved the one page written
    # grow past the snapshot prefix; restore returns to the snapshot
    # length and zeroes what was written past it
    far = 3 * config.chunk_size
    image.write_fill(config.heap_base + far, 8, 0x33)
    image.restore(snap)
    assert (image.heap_prefix, image.heap[: image.heap_prefix], bytes(image.globals)) == before
    assert_zero_between(image, image.heap_prefix, far + 8)


def test_allocator_snapshot_restore_resumes_identically():
    _, image, h1 = make_heap()
    _, _, h2 = make_heap()
    for h in (h1, h2):
        for size in (24, 24, 100):
            h.allocate(size)
    snap = image.snapshot()  # the slot store's undo log covers the allocator
    tail1 = [h1.allocate(s) for s in (24, 100, 9)]
    image.restore(snap)
    tail1_again = [h1.allocate(s) for s in (24, 100, 9)]
    tail2 = [h2.allocate(s) for s in (24, 100, 9)]
    assert tail1 == tail1_again == tail2


def test_the_refreshed_slot_table_matches_a_new_one():
    # restores drop chunks and carved slots, and a different history
    # after one can give a chunk another class
    rng = random.Random(7)
    config, image, heap = make_heap()
    snap, live = image.snapshot(), []
    for _ in range(400):
        op = rng.random()
        if op < 0.6 or not live:
            live.append(heap.allocate(rng.choice((16, 24, 100, 300, 2000, 9000))))
        elif op < 0.9:
            payload = live.pop(rng.randrange(len(live)))
            heap.set_allocated(payload, False)
            heap.release_slot(payload)
        elif op < 0.95:
            image.restore(snap)
            live = [view.payload for view in heap.carved_slots() if view.allocated]
        else:
            snap = image.snapshot()
        if rng.random() < 0.3:
            table, fresh = heap.slot_table(), SlotTable(config, image)
            fresh.refresh()
            for name in ("base", "stride", "carved", "first", "state", "allocated"):
                assert np.array_equal(getattr(table, name), getattr(fresh, name)), name
            assert table.carved.tolist() == [chunk.carved for chunk in heap.chunks]


def test_changed_words_are_the_logged_words_that_differ_from_the_snapshot():
    # registers first set since the snapshot lie past its length: changed
    # even when set to zero
    rng = random.Random(11)
    config = small_config(globals_words=600)
    image = MemoryImage(config, registers=700)
    store = image.globals_pages
    for _ in range(60):
        then, then_words = bytes(store.data[: store.length]), store.length // WORD
        image.snapshot()
        for _ in range(rng.randint(0, 6)):
            value = rng.choice((0, 5, rng.randrange(1 << 64)))
            if rng.random() < 0.3:
                image.write_register(rng.randrange(700), value)
            else:
                image.write_word(config.globals_base + WORD * rng.randrange(600), value)
        now = np.frombuffer(store.data, dtype="<u8", count=store.length // WORD)
        old = np.frombuffer(then.ljust(store.length, b"\0"), dtype="<u8")
        expected = [w for w in range(len(now)) if w * WORD >> PAGE_SHIFT in store.log and (old[w] != now[w] or w >= then_words)]
        got = sorted(zip(*(a.tolist() for a in store.changed_words())))  # in the undo log's page order
        assert got == list(zip(expected, old[expected].tolist(), now[expected].tolist()))


def page_digests(heap: bytes) -> bytes:
    return b"".join(hashlib.sha256(heap[i : i + PAGE]).digest() for i in range(0, len(heap), PAGE))


def logical_heap(image: MemoryImage) -> bytes:
    return image.heap[: image.heap_prefix]


def assert_zero_between(image: MemoryImage, start: int, stop: int) -> None:
    """Every heap byte in [start, stop) reads zero; bounded by the caller to
    the highest offset written, so the reservation is never scanned whole."""
    assert image.heap[start:stop] == bytes(max(0, stop - start))


# one chunk size that is a multiple of the page size and one that is not,
# so chunk edges fall both on and inside pages
CHUNKS = (64 * 1024, 6160)
_writes = st.tuples(
    st.sampled_from(("fill", "bytes", "word")),
    st.integers(min_value=0, max_value=3 * 64 * 1024 // PAGE),  # near this page edge
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=255),
)
# the same write to one page, repeated; a write that ends exactly on a
# page edge; a fill that starts at or past the logical heap length
_repeats = st.tuples(st.just("repeat"), st.integers(0, 47), st.integers(0, PAGE - 64), st.integers(1, 64),
                     st.integers(2, 5))
_edges = st.tuples(st.just("edge"), st.integers(1, 48), st.integers(1, 2 * PAGE))
_grows = st.tuples(st.just("grow"), st.integers(0, 3 * PAGE), st.integers(1, 3 * PAGE))
_steps = st.lists(
    st.one_of(_writes, _repeats, _edges, _grows, st.just(("restore",)), st.just(("snapshot",))), max_size=30
)


def pages_of(off: int, length: int) -> set[int]:
    return set(range(off // PAGE, (off + length - 1) // PAGE + 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CHUNKS), st.integers(min_value=0, max_value=2), _steps)
def test_undo_log_restores_like_a_full_copy_and_digests_stay_current(chunk, start_chunks, steps):
    config = small_config(chunk_size=chunk, heap_size=64 * chunk, max_class=1024)
    image = MemoryImage(config)
    image.ensure_heap(start_chunks * chunk)
    snap = image.snapshot()
    reference = logical_heap(image)
    written_end = 0  # one past the highest heap offset ever written
    touched: set[int] = set()  # heap pages written since the snapshot
    for step in steps:
        if step[0] == "restore":
            image.restore(snap)
            assert logical_heap(image) == reference
            assert_zero_between(image, image.heap_prefix, written_end)
        elif step[0] == "snapshot":
            snap = image.snapshot()
            reference = logical_heap(image)
            touched = set()
        elif step[0] == "repeat":
            _, page, at, length, times = step
            for value in range(times):
                image.write_fill(config.heap_base + page * PAGE + at, length, value)
            touched |= pages_of(page * PAGE + at, length)
            written_end = max(written_end, page * PAGE + at + length)
        elif step[0] == "edge":
            _, page, length = step
            off = max(0, page * PAGE - length)
            image.write_fill(config.heap_base + off, page * PAGE - off, length & 0xFF)
            touched |= pages_of(off, page * PAGE - off)
            written_end = max(written_end, page * PAGE)
        elif step[0] == "grow":
            _, past, length = step
            off = min(image.heap_prefix + past, config.heap_size - length)
            image.write_fill(config.heap_base + off, length, 0x5A)
            assert image.heap_prefix >= off + length  # grown to cover the fill
            touched |= pages_of(off, length)
            written_end = max(written_end, off + length)
        else:
            kind, page, delta, length, value = step
            off = max(0, page * PAGE + delta)
            addr = config.heap_base + off
            if kind == "fill":
                image.write_fill(addr, length, value)
            elif kind == "bytes":
                image.write_bytes(addr, bytes((value + i) & 0xFF for i in range(length)))
            else:
                length = 8
                image.write_word(addr, value * 0x0101010101010101)
            written_end = max(written_end, off + length)
            touched |= pages_of(off, length)
        assert image.heap_pages.digest() == page_digests(logical_heap(image))
        # the undo log holds exactly the written pages, each as a full
        # copy of the heap at the snapshot has it
        assert set(snap[0]) == touched
        for page, saved in snap[0].items():
            assert saved == reference[page * PAGE : (page + 1) * PAGE]
    image.restore(snap)
    assert logical_heap(image) == reference
    assert_zero_between(image, image.heap_prefix, written_end)
    assert image.heap_pages.digest() == page_digests(logical_heap(image))


def test_only_the_latest_snapshot_restores():
    _, image, heap = make_heap()
    heap.allocate(64)
    old = image.snapshot()
    image.snapshot()
    with pytest.raises(ValueError):
        image.restore(old)


def test_an_epoch_logs_only_the_slot_records_it_wrote():
    # a boundary costs what the epoch did: after 32,000 live mallocs, an
    # epoch with one malloc and one free saves only the header page and
    # the pages of those two records in the slot store's undo log
    eng = Engine([], small_config())
    allocator, image = eng.allocator, eng.image
    live = [allocator.allocate(16) for _ in range(32_000)]
    image.snapshot()
    fresh = allocator.object_bounds(allocator.allocate(16))
    freed = allocator.object_bounds(live[12_345])
    eng.quarantine.on_free(freed, 0)
    pages = {0} | {WORD * view.record >> PAGE_SHIFT for view in (fresh, freed)}
    assert len(pages) == 3
    assert set(image.slots.log) == pages
