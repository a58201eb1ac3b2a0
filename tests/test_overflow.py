from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripwire as tw
from tripwire.engine import Engine
from tripwire.overflow import MASK_CACHE_CAPACITY
from tripwire.trace import parse_trace
from tripwire.vheap import PAGE, next_pow2

from conftest import small_config
from oracles import (
    bitmap_masks,
    corrupted_tracked,
    expected_canary_masks,
    masks_of,
    naive_corrupted_scan,
)

CANARY = 0xCA


def harness(**overrides):
    """Engine used as a component rack; operations driven directly."""
    return Engine([], small_config(**overrides))


def alloc(eng, size):
    payload = eng.allocator.allocate(size)
    eng.overflow.plant_on_alloc(payload, size, next_pow2(max(size, eng.config.min_class)))
    return payload


def free(eng, payload, event=0):
    view = eng.allocator.object_bounds(payload)
    found = eng.overflow.check_on_free(payload, view.requested, view.capacity)
    evicted = eng.quarantine.on_free(view, event)
    return found, evicted


def full(*words):
    """Masks of words all of whose bytes are canaries."""
    return dict.fromkeys(words, 0xFF)


def guard(payload):
    """The masks of the four words of a payload's guard region."""
    return full(payload - 32, payload - 24, payload - 16, payload - 8)


def test_plant_24_of_32_tracks_exactly_one_interior_word():
    eng = harness()
    a = alloc(eng, 24)
    assert eng.image.read(a + 24, 8) == bytes([CANARY]) * 8
    assert eng.image.read(a - 32, 32) == bytes([CANARY]) * 32  # guard region
    assert bitmap_masks(eng) == guard(a) | full(a + 24)


def test_canary_region_checks_a_partial_edge_word_bytewise():
    eng = harness()
    a = alloc(eng, 64)
    det = eng.overflow
    det.plant(a + 4, a + 24)  # partial word at the start
    det.plant(a + 32, a + 44)  # partial word at the end
    # the edge words are tracked for exactly their canary bytes
    assert bitmap_masks(eng) == guard(a) | {a: 0xF0, a + 40: 0x0F} | full(a + 8, a + 16, a + 32)
    assert det.corrupted(a + 4, a + 24) == det.corrupted(a + 32, a + 44) == []
    # bytes of the edge words outside the regions are not canaries
    eng.image.write_fill(a, 4, 0x00)
    eng.image.write_fill(a + 44, 4, 0x00)
    assert det.corrupted(a + 4, a + 24) == det.corrupted(a + 32, a + 44) == []
    assert eng.overflow.epoch_scan() == []
    eng.image.write_fill(a + 5, 1, 0x00)
    eng.image.write_fill(a + 16, 1, 0x00)
    eng.image.write_fill(a + 43, 1, 0x00)
    assert det.corrupted(a + 4, a + 24) == [a, a + 16]
    assert det.corrupted(a + 32, a + 44) == [a + 40]
    assert eng.overflow.epoch_scan() == [a, a + 16, a + 40]  # the scan sees edge words too
    # replay traps a write on a watched word only where it covers a canary byte
    hits = eng._write_hits_canary
    assert hits(a, a + 7, 1)
    assert not hits(a, a, 4)
    assert hits(a + 8, a + 8, 8)
    assert hits(a + 40, a + 43, 4)
    assert not hits(a + 40, a + 44, 4)
    assert hits(a + 32, a + 32, 8)
    assert hits(a + 40, a + 36, 8) and not hits(a + 40, a + 36, 4)  # a write from the word before


def test_a_region_check_reads_only_its_own_bytes_of_a_shared_edge_word():
    # two regions meet inside the word at a + 40, as a fill prefix and a
    # payload tail can: each region answers for its own bytes only
    eng = harness()
    a = alloc(eng, 64)
    det = eng.overflow
    det.plant(a + 32, a + 44)
    det.plant(a + 44, a + 56)
    assert det.bitmap.mask(a + 40) == 0xFF
    eng.image.write_fill(a + 45, 1, 0x00)
    assert det.corrupted(a + 32, a + 44) == []
    assert det.corrupted(a + 44, a + 56) == [a + 40]
    eng.image.write_fill(a + 33, 1, 0x00)  # past the one-comparison check
    assert det.corrupted(a + 32, a + 44) == [a + 32]


def test_plant_exact_power_of_two_has_guard_only():
    eng = harness()
    a = alloc(eng, 32)
    assert bitmap_masks(eng) == guard(a)


def test_plant_20_of_32_tracks_the_edge_word_bytes():
    eng = harness()
    a = alloc(eng, 20)
    assert eng.image.read(a + 20, 12) == bytes([CANARY]) * 12
    # bytes 20..23 of the edge word and the whole word 24..31
    assert bitmap_masks(eng) == guard(a) | {a + 16: 0xF0} | full(a + 24)


def planted_slot(requested, capacity, before):
    """The reference for plant_on_alloc: (mask bytes, heap bytes) of a
    slot whose bytes were `before`. Bit k of one integer stands for byte
    k of the slot and is set for the guard's and the tail's bytes, the
    canaries; its little-endian bytes are the words' masks. The
    requested bytes keep their value."""
    size = 32 + capacity
    canary_bits = (1 << size) - 1 & ~(((1 << requested) - 1) << 32)
    heap = bytes([CANARY]) * 32 + before[32 : 32 + requested] + bytes([CANARY]) * (capacity - requested)
    return canary_bits.to_bytes(size // 8, "little"), heap


def slot_state(eng, payload, capacity):
    """(mask bytes, heap bytes) of the slot of payload."""
    off = payload - 32 - eng.image.heap_base
    return (
        eng.image.shadow.data[off // 8 : (off + 32 + capacity) // 8],
        eng.image.heap[off : off + 32 + capacity],
    )


def test_plant_on_alloc_masks_match_the_reference_on_fresh_and_reused_slots():
    eng = harness(heap_size=64 * 1024 * 1024, max_class=16 * 1024)
    det, rng = eng.overflow, random.Random(21)
    capacity, cases = 16, []
    while capacity <= eng.config.max_class:
        if capacity <= MASK_CACHE_CAPACITY:
            requests = range(1, capacity + 1)
        else:  # uncached: the edges of the range and a sample between them
            requests = [1, 7, 8, 9, capacity // 2 + 1, capacity - 1, capacity]
            requests += rng.sample(range(1, capacity + 1), 10)
        cases += [(requested, capacity) for requested in requests]
        capacity *= 2
    for requested, capacity in cases:
        payload = eng.allocator.allocate(capacity)  # a fresh slot: zero bytes, zero masks
        det.plant_on_alloc(payload, requested, capacity)
        assert slot_state(eng, payload, capacity) == planted_slot(requested, capacity, bytes(32 + capacity))
        # the slot's next life, over stale bytes and the stale masks of another request
        stale = rng.randbytes(32 + capacity)
        eng.image.write_bytes(payload - 32, stale)
        det.bitmap.set_masks(payload - 32, rng.randbytes((32 + capacity) // 8))
        det.plant_on_alloc(payload, requested, capacity)
        assert slot_state(eng, payload, capacity) == planted_slot(requested, capacity, stale)
    cached = {key for key in cases if key[1] <= MASK_CACHE_CAPACITY}
    assert set(det._slot_masks) == cached


def test_free_of_untouched_object_yields_no_evidence():
    eng = harness()
    a = alloc(eng, 24)
    found, evicted = free(eng, a)
    assert found == [] and evicted == []


def test_free_after_interior_write_flags_that_word():
    eng = harness()
    a = alloc(eng, 24)
    eng.image.write_fill(a + 24, 4, 0x41)
    assert naive_corrupted_scan(eng) == {a + 24}
    found, _ = free(eng, a)
    assert found == [a + 24]


def test_power_of_two_guard_corruption_caught_at_free():
    eng = harness()
    a = alloc(eng, 32)
    b = alloc(eng, 32)
    assert b == a + 32 + 32  # adjacent slot; writing past a's payload hits b's guard
    eng.image.write_fill(a + 32, 8, 0x00)
    found, _ = free(eng, b)  # the request fills the class: no tail, the guard still checked
    assert found == [b - 32]


def test_edge_word_overflow_is_found_by_the_scan_and_at_free():
    eng = harness()
    a = alloc(eng, 20)
    eng.image.write_fill(a + 16, 4, 0x00)  # the requested bytes of word 16..23
    assert eng.overflow.epoch_scan() == [] and free(eng, a)[0] == []
    b = alloc(eng, 20)
    eng.image.write_fill(b + 21, 1, 0x00)  # one byte past the request
    assert eng.overflow.epoch_scan() == [b + 16]  # a live object's edge word is tracked
    found, _ = free(eng, b)
    assert found == [b + 16]


def test_epoch_scan_on_fresh_heap_is_empty():
    eng = harness()
    alloc(eng, 24)
    alloc(eng, 64)
    assert eng.overflow.epoch_scan() == []


def test_epoch_scan_reports_two_distinct_corruptions():
    eng = harness()
    a = alloc(eng, 24)
    b = alloc(eng, 100)
    eng.image.write_fill(a + 24, 1, 0x01)
    eng.image.write_fill(b + 104, 8, 0x02)
    assert eng.overflow.epoch_scan() == sorted([a + 24, b + 104])
    assert naive_corrupted_scan(eng) == {a + 24, b + 104}


def test_scan_owner_resolution_names_the_neighbor():
    text = """
    malloc a 32
    malloc b 32
    writeabs a+32 8 00
    reg r0 = a
    reg r1 = b
    end
    """
    out = tw.run_text(text, small_config())
    (report,) = out.reports
    assert report.kind == "overflow"
    assert report.object_addr == out.alloc_sequence[1]  # b owns its guard word
    assert report.offending_events[0][0] == 2


def test_monotonicity_evidence_survives_unrelated_operations():
    eng = harness()
    a = alloc(eng, 24)
    eng.image.write_fill(a + 24, 8, 0x00)
    for _ in range(5):
        t = alloc(eng, 24)
        free(eng, t)
    scan = eng.overflow.epoch_scan()
    assert a + 24 in scan


def test_write_of_canary_byte_itself_is_a_false_negative():
    # documented: a write of the canary value leaves no evidence
    eng = harness()
    a = alloc(eng, 24)
    eng.image.write_fill(a + 24, 8, CANARY)
    assert eng.overflow.epoch_scan() == []


def test_non_contiguous_overflow_that_skips_canaries_is_missed():
    # write jumps over b's guard word and interior, landing in b's
    # requested payload: no tripwire is disturbed (documented miss)
    eng = harness()
    a = alloc(eng, 32)
    b = alloc(eng, 32)
    eng.image.write_fill(b + 8, 8, 0x00)
    assert eng.overflow.epoch_scan() == []
    assert naive_corrupted_scan(eng) == set()
    del a


REPLANTED_GUARD = """
malloc a 24
malloc b 24
free b
writeabs a+32 8 ee
malloc x 24
free x
{}call fork
end
"""
REPLANTED_CONFIG = tw.EngineConfig(detectors=frozenset({"overflow", "uaf"}), quarantine_max_count=1)


def test_a_guard_corrupted_after_its_free_is_found_by_the_scan():
    # a's overflow lands in the guard of b, freed; x's free evicts b clean
    # (the eviction checks only its prefix), and the scan finds the word
    out = tw.run_text(REPLANTED_GUARD.format(""), REPLANTED_CONFIG)
    assert [(r.kind, r.corrupted_addr, r.object_addr, r.offending_events) for r in out.reports] == [
        ("overflow", 0x1_0000_0040, 0x1_0000_0060, ((3, ()),))
    ]


def test_a_guard_replanted_by_a_malloc_before_the_scan_is_a_false_negative():
    # documented: c takes b's slot from the free list, and its malloc
    # re-plants the guard unchecked, so the overflow leaves no evidence
    out = tw.run_text(REPLANTED_GUARD.format("malloc c 24\n"), REPLANTED_CONFIG)
    assert out.alloc_sequence[3] == 0x1_0000_0060
    assert out.reports == ()


def test_scan_word_comparisons_bounded_by_set_bits():
    eng = harness()
    for size in (24, 32, 100, 1000):
        alloc(eng, size)
    eng.overflow.epoch_scan()
    set_bits, comparisons = eng.overflow.scan_records[-1]
    assert set_bits == len(bitmap_masks(eng))  # words with a nonzero mask
    assert comparisons <= set_bits


def test_retire_words_keeps_refilled_canaries_tracked():
    eng = harness()
    a = alloc(eng, 24)
    eng.image.write_fill(a + 24, 8, 0x00)
    guard = a - 32
    eng.overflow.retire_words([a + 24, guard])
    assert eng.overflow.bitmap.mask(a + 24) == 0  # corrupted: untracked now
    assert eng.overflow.bitmap.mask(guard) == 0xFF  # intact: still tracked


def test_retire_words_applies_the_masked_test():
    eng = harness()
    a = alloc(eng, 20)
    eng.image.write_fill(a + 16, 4, 0x00)  # requested bytes only
    eng.overflow.retire_words([a + 16])
    assert eng.overflow.bitmap.mask(a + 16) == 0xF0  # its canary bytes hold: still tracked
    eng.image.write_fill(a + 23, 1, 0x00)
    eng.overflow.retire_words([a + 16])
    assert eng.overflow.bitmap.mask(a + 16) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bitmap_matches_oracle_after_random_histories(data):
    eng = harness(quarantine_max_count=4, quarantine_max_bytes=1 << 14)
    live = []
    ops = data.draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40))
    for op in ops:
        if op in (0, 1) or not live:
            size = data.draw(st.integers(min_value=1, max_value=4000))
            live.append(alloc(eng, size))
        else:
            idx = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            free(eng, live.pop(idx))
        assert bitmap_masks(eng) == expected_canary_masks(eng)


# a chunk size that is 16-aligned but not a multiple of 4096, so the
# heap's logical length, and the shadow's (one mask byte per heap word),
# mostly end inside a page
ODD_CHUNK = dict(chunk_size=16432, heap_size=16432 * 64, max_class=8192)


@pytest.mark.parametrize("geometry", [{}, ODD_CHUNK], ids=["small", "odd_chunk"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_epoch_scan_matches_per_bit_and_heap_walk_oracles(geometry, data):
    eng = harness(quarantine_max_count=4, quarantine_max_bytes=1 << 14, **geometry)
    base, canary = eng.config.heap_base, eng.config.canary_word
    live = []
    # the heap walk knows the canary layout of allocation and quarantine
    # only: not a slot evicted with corrupted canaries, nor a bare plant
    layout_known = True

    def check():
        found = eng.overflow.epoch_scan()
        tracked = len(bitmap_masks(eng))
        assert found == corrupted_tracked(eng)
        assert eng.overflow.scan_records[-1] == (tracked, tracked)
        if layout_known:
            assert set(found) == naive_corrupted_scan(eng)

    def region():
        # anywhere in the heap, or ending among its last words, whose
        # masks are the shadow's last bytes
        prefix = eng.image.heap_prefix
        length = data.draw(st.integers(1, 64))
        end = data.draw(st.one_of(st.integers(length, prefix), st.integers(prefix - 64, prefix)))
        return base + end - length, length

    for op in data.draw(st.lists(st.sampled_from("aafwwps"), min_size=1, max_size=40)):
        if op == "a" or not live:
            live.append(alloc(eng, data.draw(st.integers(min_value=1, max_value=4000))))
        elif op == "f":
            _, evicted = free(eng, live.pop(data.draw(st.integers(0, len(live) - 1))))
            layout_known &= not evicted
        elif op == "w":
            start, length = region()
            eng.image.write_fill(start, length, data.draw(st.integers(0, 255)))
        elif op == "p":
            start, length = region()
            eng.overflow.plant(start, start + length)
            layout_known = False
        else:
            check()
    check()
    # canaries in the heap's last words, whose masks are the shadow's
    # last bytes, one of them corrupted; the region's unaligned edges
    # leave bytes of its edge words untracked, one of them overwritten
    end = base + eng.image.heap_prefix
    eng.overflow.plant(end - 61, end - 3)
    eng.image.write_fill(end - 8, 1, canary[0] ^ 0xFF)
    eng.image.write_fill(end - 2, 1, canary[0] ^ 0xFF)
    layout_known = False
    check()
    # growth adds shadow bytes past the old end, which the scan must
    # cover too
    chunks = len(eng.allocator.chunks)
    while len(eng.allocator.chunks) == chunks:
        alloc(eng, eng.config.max_class)
    check()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_in_bounds_writes_never_create_evidence(data):
    eng = harness()
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        size = data.draw(st.integers(min_value=8, max_value=2000))
        live.append((alloc(eng, size), size))
    for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
        payload, size = live[data.draw(st.integers(min_value=0, max_value=len(live) - 1))]
        off = data.draw(st.integers(min_value=0, max_value=size - 1))
        length = data.draw(st.integers(min_value=1, max_value=size - off))
        fill = data.draw(st.integers(min_value=0, max_value=255))
        eng.image.write_fill(payload + off, length, fill)
    assert eng.overflow.epoch_scan() == []


def test_zero_false_positives_on_random_clean_traces():
    rng = random.Random(7)
    for _ in range(25):
        lines = []
        live = []
        for i in range(rng.randint(1, 8)):
            size = rng.randint(1, 500)
            lines.append(f"malloc v{i} {size}")
            lines.append(f"reg r{i} = v{i}")
            live.append((f"v{i}", size))
        for _ in range(rng.randint(0, 15)):
            var, size = rng.choice(live)
            off = rng.randint(0, size - 1)
            ln = rng.randint(1, size - off)
            lines.append(f"write {var} {off} {ln} {rng.randint(0, 255):02x}")
        lines.append("end")
        out = tw.run_text("\n".join(lines), small_config())
        assert out.reports == ()


# heap bytes whose masks fill one page of the shadow store
SHADOW_PAGE_SPAN = PAGE * 8


def page_digests(data: bytes) -> bytes:
    return b"".join(hashlib.sha256(data[i : i + PAGE]).digest() for i in range(0, len(data), PAGE))


def test_shadow_undo_log_holds_only_the_pages_bitmap_writes_touched():
    eng = harness()
    image, base = eng.image, eng.config.heap_base
    far = base + 3 * SHADOW_PAGE_SPAN
    eng.overflow.plant(far, far + 64)
    a = alloc(eng, 24)
    heap_log, _, shadow_log, _ = image.snapshot()
    image.write_fill(a, 24, 0x11)  # a program write: heap pages only
    assert heap_log and shadow_log == {}
    eng.overflow.plant(far + 128, far + 192)
    eng.overflow.retire_words([a + 24])  # intact: no shadow write
    assert set(shadow_log) == {3}
    image.write_fill(a + 24, 1, 0x00)
    eng.overflow.retire_words([a + 24])
    assert set(shadow_log) == {0, 3}


# (page of SHADOW_PAGE_SPAN heap bytes, byte offset from its start, length)
_regions = st.tuples(st.integers(0, 5), st.integers(-700, 700), st.integers(1, 3000))
_bitmap_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("plant", "clear")), _regions),
        st.tuples(st.just("retire"), st.tuples(st.integers(0, 5), st.integers(-700, 700),
                                                st.integers(1, 8), st.integers(0, 255))),
        st.tuples(st.sampled_from(("snapshot", "restore")), st.none()),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(_bitmap_steps)
def test_shadow_store_restores_like_a_full_bitmap_copy(steps):
    """The old mechanism, a full copy of the masks at each snapshot, is
    the oracle; the canary bytes and the touched shadow pages are
    modeled from the operations alone."""
    eng = harness()
    image, bitmap, shadow = eng.image, eng.overflow.bitmap, eng.image.shadow
    base, canary = eng.config.heap_base, eng.config.canary_byte
    tracked: set[int] = set()  # heap offsets of the bytes the shadow should mark
    snap = image.snapshot()
    copy, copy_tracked = bytes(bitmap.bits), set()
    touched: set[int] = set()  # shadow pages written since the snapshot
    high = 0  # the longest the shadow has been

    def at(page, delta):
        return base + max(0, page * SHADOW_PAGE_SPAN + delta)

    for op, arg in steps:
        if op in ("plant", "clear"):
            start = at(*arg[:2])
            end = start + arg[2]
            if op == "clear" and end - base > image.heap_prefix:
                continue  # the detectors clear only carved, hence mapped, words
            (eng.overflow.plant if op == "plant" else bitmap.clear_range)(start, end)
            span = set(range(start - base, end - base))
            tracked = tracked | span if op == "plant" else tracked - span
            touched |= {b >> 15 for b in span}  # mask byte b >> 3, its page >> 12
        elif op == "retire":
            addr = at(*arg[:2]) & ~7
            image.write_fill(addr, arg[2], arg[3])
            word = range(addr - base, addr - base + 8)
            if any(image.read(base + b, 1)[0] != canary for b in word if b in tracked):
                tracked -= set(word)
                touched.add((addr - base) >> 15)
            eng.overflow.retire_words([addr])
        elif op == "snapshot":
            snap = image.snapshot()
            copy, copy_tracked, touched = bytes(bitmap.bits), set(tracked), set()
        else:
            image.restore(snap)
            assert bytes(bitmap.bits) == copy
            assert shadow.data[shadow.length : high] == bytes(max(0, high - shadow.length))
            tracked = set(copy_tracked)
        high = max(high, shadow.length)
        assert set(snap[2]) == touched
        assert bitmap_masks(eng) == masks_of(base + b for b in tracked)
        assert shadow.digest() == page_digests(bytes(bitmap.bits))

    # restore after the heap grew past the snapshot length: the mask
    # bytes past the snapshot's shadow length read zero again
    snap = image.snapshot()
    copy, length = bytes(bitmap.bits), shadow.length
    far = base + image.heap_prefix + 2 * SHADOW_PAGE_SPAN
    eng.overflow.plant(far, far + 64)
    top = (far - base + 64) // 8  # one past the planted words' masks
    assert shadow.length > length
    image.restore(snap)
    assert (shadow.length, bytes(bitmap.bits)) == (length, copy)
    assert shadow.data[length:top] == bytes(top - length)
    assert shadow.digest() == page_digests(copy)


@pytest.mark.parametrize("geometry", [{}, ODD_CHUNK], ids=["small", "odd_chunk"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_engine_scans_of_written_pages_match_the_whole_bitmap(geometry, data):
    # the real engine over histories of allocation, frees, overflowing,
    # in-bounds and use-after-free writes and irrevocable calls; every
    # boundary's scan of the pages the epoch wrote must find exactly what
    # a byte-by-byte pass over the whole shadow finds, because each
    # boundary leaves every tracked canary byte holding the canary
    lines, live, freed = [], [], []

    def write(var, off, length):
        lines.append(f"write {var} {off} {length} {data.draw(st.integers(0, 255)):02x}")

    for i, op in enumerate(data.draw(st.lists(st.sampled_from("mmfoowuucc"), min_size=8, max_size=30))):
        if op == "m" or not live:
            # power-of-two sizes have no tail: an overflow lands in the
            # next slot's guard
            size = data.draw(st.one_of(st.integers(1, 2000), st.sampled_from((16, 32, 64))))
            lines.append(f"malloc v{i} {size}")
            if data.draw(st.booleans()):  # unrooted objects leak
                lines.append(f"reg r{i} = v{i}")
            live.append((f"v{i}", size))
        elif op == "f":
            freed.append(live.pop(data.draw(st.integers(0, len(live) - 1))))
            lines.append(f"free {freed[-1][0]}")
        elif op == "o":
            var, size = data.draw(st.sampled_from(live))
            write(var, size + data.draw(st.integers(0, 40)), data.draw(st.integers(1, 16)))
        elif op == "w":
            var, size = data.draw(st.sampled_from(live))
            write(var, 0, data.draw(st.integers(1, size)))
        elif op == "u" and freed:
            var, size = data.draw(st.sampled_from(freed))
            write(var, 0, data.draw(st.integers(1, min(size, 64))))
        else:
            lines.append("call fork")
    lines.append("end")
    config = small_config(quarantine_max_count=data.draw(st.sampled_from((1, 2, 1024))), **geometry)
    forced = data.draw(st.sets(st.integers(0, 8), max_size=3))
    eng = Engine(parse_trace("\n".join(lines)), config, force_rollback_epochs=forced)
    scans = []
    epoch_scan = eng.overflow.epoch_scan

    def checked_scan():
        scans.append(epoch_scan())
        assert scans[-1] == corrupted_tracked(eng)
        return scans[-1]

    begin_epoch = eng._begin_epoch

    def checked_begin_epoch():
        assert corrupted_tracked(eng) == []  # the last boundary left canaries only
        begin_epoch()

    eng.overflow.epoch_scan = checked_scan
    eng._begin_epoch = checked_begin_epoch
    out = eng.run()
    assert corrupted_tracked(eng) == []
    assert len(scans) == out.epochs
