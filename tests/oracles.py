"""Independent oracles the tests check the engine against.

These deliberately re-derive their answers from raw state (slot
directory, memory bytes) using their own arithmetic, not the code
paths they are used to verify: the shadow oracle recomputes the canary
bytes, and so each word's mask, without reading the shadow, the
heap-walk scanner finds corrupted canaries byte by byte without the
shadow, and the reachability closure resolves pointers by interval
search instead of the allocator's stride math.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import deque

from tripwire.config import GUARD_BYTES
from tripwire.vheap import FREE_LISTED, LINK, Q_BYTES, Q_COUNT, Q_HEAD, QUARANTINED


def masks_of(byte_addrs) -> dict[int, int]:
    """Word address -> mask of the given canary byte addresses: bit i of
    a word's mask stands for byte i of the word."""
    out: dict[int, int] = {}
    for addr in byte_addrs:
        out[addr & ~7] = out.get(addr & ~7, 0) | 1 << (addr & 7)
    return out


def expected_canary_masks(engine) -> dict[int, int]:
    """Recompute the mask of every word the shadow should track.

    Valid only for histories with no trace writes and no evidence
    retirement. The canary bytes per slot state:
      live:        guard region + tail [req, cap)
      quarantined: guard + tail + prefix [0, min(fill, cap))
      released:    guard + tail minus the prefix bytes cleared at eviction
    """
    config = engine.config
    overflow_on = config.detector_enabled("overflow")
    canary: set[int] = set()
    for view in engine.allocator.carved_slots():
        payload, cap, req = view.payload, view.capacity, view.requested
        if overflow_on:
            canary.update(range(view.slot, payload))
        tail = set(range(payload + req, payload + cap)) if overflow_on else set()
        prefix = set(range(payload, payload + min(config.uaf_fill_prefix, cap)))
        if view.allocated:
            canary |= tail
        elif view.state == QUARANTINED:
            canary |= tail | prefix
        elif view.state == FREE_LISTED:
            canary |= tail - prefix
        else:
            # withheld after a corrupted eviction; unreachable without writes
            canary |= tail
    return masks_of(canary)


def bitmap_masks(engine) -> dict[int, int]:
    """Word address -> mask, for every word with a nonzero mask byte in
    the shadow."""
    base = engine.image.heap_base
    return {base + 8 * i: mask for i, mask in enumerate(engine.overflow.bitmap.bits) if mask}


def corrupted_tracked(engine) -> list[int]:
    """Byte by byte: the words, ascending, with a byte the shadow marks
    as canary that no longer holds the canary byte."""
    canary = engine.config.canary_byte
    return sorted(
        word
        for word, mask in bitmap_masks(engine).items()
        if any(mask >> i & 1 and b != canary for i, b in enumerate(engine.image.read(word, 8)))
    )


def naive_corrupted_scan(engine) -> set[int]:
    """Full-heap walk: every word with an expected canary byte that is wrong.

    The independent counterpart of the shadow epoch scan for histories
    whose expected canary layout is still described by
    expected_canary_masks (no retirement yet).
    """
    canary = engine.config.canary_byte
    return {
        word
        for word, mask in expected_canary_masks(engine).items()
        if any(mask >> i & 1 and b != canary for i, b in enumerate(engine.image.read(word, 8)))
    }


def _reach(engine) -> tuple[set[int], set[int]]:
    """Payloads of the live and of the freed slots reachable from the roots.

    Pointer resolution is interval containment over the sorted slot
    table; anything inside a slot's [start, start + GUARD_BYTES +
    capacity) span counts, matching the conservative membership rule.
    Only live payloads are scanned for further pointers.
    """
    slots = sorted(
        (v.slot, v.slot + GUARD_BYTES + v.capacity, v.payload, v.allocated, v.capacity)
        for v in engine.allocator.carved_slots()
    )
    starts = [s[0] for s in slots]
    lo = engine.image.heap_base
    hi = lo + engine.image.heap_size

    def resolve(value: int):
        idx = bisect_right(starts, value) - 1
        if idx >= 0 and slots[idx][0] <= value < slots[idx][1]:
            return slots[idx]
        return None

    # the globals, then the registers set so far, which the store's length covers
    store = engine.image.globals_pages
    roots = [word for (word,) in struct.iter_unpack("<Q", store.data[: store.length]) if lo <= word < hi]

    reached: set[int] = set()
    reached_freed: set[int] = set()
    queue = deque(roots)
    while queue:
        value = queue.popleft()
        slot = resolve(value)
        if slot is None:
            continue
        _, _, payload, allocated, capacity = slot
        if not allocated:
            reached_freed.add(payload)
            continue
        if payload in reached:
            continue
        reached.add(payload)
        body = engine.image.read(payload, capacity)
        for (word,) in struct.iter_unpack("<Q", body):
            if lo <= word < hi:
                queue.append(word)
    return reached, reached_freed


def reachability_closure(engine) -> set[int]:
    """Leaked-object oracle: payloads of live objects NOT reachable."""
    live = {v.payload for v in engine.allocator.carved_slots() if v.allocated}
    return live - _reach(engine)[0]


def reachable_quarantined(engine) -> set[int]:
    """Dangling-pointer oracle: payloads of freed objects still in
    quarantine that a root or a reachable live object points into."""
    return {p for p in _reach(engine)[1] if engine.allocator.object_bounds(p).state == QUARANTINED}


def quarantine_fifo(engine) -> tuple[list[int], int, int]:
    """The quarantine as the slot store holds it: its payloads oldest
    first, following the links from the head record, then the header's
    slot count and capacity sum."""
    payload_of = {view.record: view.payload for view in engine.allocator.carved_slots()}
    words = memoryview(engine.image.slots.data).cast("Q")
    fifo, record = [], words[Q_HEAD]
    while record:
        fifo.append(payload_of[record])
        record = words[record + LINK]
    return fifo, words[Q_COUNT], words[Q_BYTES]


def stacks_at_events(events) -> list[tuple[str, ...]]:
    """The stack at each event, by event id: one replay of the push and
    pop events over a list, taking the stack before each event."""
    stack: list[str] = []
    stacks = []
    for ev in events:
        stacks.append(tuple(stack))
        if ev.kind.name == "STACK_PUSH":
            stack.append(ev.frame)
        elif ev.kind.name == "STACK_POP":
            stack.pop()
    return stacks


def latest_malloc(events, alloc_sequence, payload: int, before: int) -> int | None:
    """The id of the latest malloc before event `before` that returned
    payload, by a walk of the trace and the payload of each ordinal."""
    site = None
    for ev in events[:before]:
        if ev.kind.name == "MALLOC" and alloc_sequence[ev.alloc] == payload:
            site = ev.id
    return site


def alloc_site(events, alloc_sequence, report, closers) -> int | None:
    """The allocation site a report on a heap object should name, read
    from the trace alone: for a leak, the latest malloc of its object
    before the event that closed its epoch (closers, by epoch); for any
    other report, the latest before its last offending event. None for
    a report with no offending event that is not a leak: the trace does
    not say where it was found."""
    if report.kind == "leak":
        before = closers[report.epoch]
    elif report.offending_events:
        before = report.offending_events[-1][0]
    else:
        return None
    return latest_malloc(events, alloc_sequence, report.object_addr, before)
