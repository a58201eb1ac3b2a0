"""Independent oracles the tests check the engine against.

These deliberately re-derive their answers from raw state (slot
directory, memory bytes) using their own arithmetic, not the code
paths they are used to verify: the bitmap oracle recomputes canary
word locations without reading the bitmap, the heap-walk scanner finds
corrupted canaries without the bitmap, and the reachability closure
resolves pointers by interval search instead of the allocator's stride
math.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import deque

from tripwire.config import GUARD_BYTES


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _word_range(start: int, end: int) -> set[int]:
    return set(range(start, end, 8)) if end > start else set()


def expected_canary_words(engine) -> set[int]:
    """Recompute every word address the bitmap should have set.

    Valid only for histories with no trace writes and no evidence
    retirement. Rules per slot state:
      live:        guard region + interior [align8(req), cap)
      quarantined: guard + interior + prefix [0, floor(min(fill,cap)/8)*8)
      released:    guard + interior minus the prefix words cleared at eviction
    """
    config = engine.config
    overflow_on = config.detector_enabled("overflow")
    uaf_on = engine.quarantine is not None
    words: set[int] = set()
    for view in engine.allocator.carved_slots():
        payload, cap, req = view.payload, view.capacity, view.requested
        if overflow_on:
            words |= _word_range(view.slot, view.slot + GUARD_BYTES)
        interior = _word_range(payload + _align8(req), payload + cap) if overflow_on else set()
        prefix_tracked = (min(config.uaf_fill_prefix, cap) // 8) * 8
        if view.allocated:
            words |= interior
        elif uaf_on and engine.quarantine.entry_for(payload) is not None:
            words |= interior
            words |= _word_range(payload, payload + prefix_tracked)
        elif engine.allocator.is_free_listed(payload):
            words |= {w for w in interior if w >= payload + prefix_tracked}
        else:
            # withheld after a corrupted eviction; unreachable without writes
            words |= interior
    return words


def bitmap_words(engine) -> set[int]:
    bits = engine.overflow.bitmap.bits
    base = engine.image.heap_base
    out = set()
    for byte_idx, value in enumerate(bits):
        while value:
            low = value & (-value)
            value ^= low
            out.add(base + ((byte_idx << 3) + low.bit_length() - 1) * 8)
    return out


def naive_corrupted_scan(engine) -> set[int]:
    """Full-heap walk: every expected canary word whose bytes are wrong.

    The independent counterpart of the bitmap epoch scan for histories
    whose expected canary layout is still described by
    expected_canary_words (no retirement yet).
    """
    canary = engine.config.canary_word
    return {
        addr
        for addr in expected_canary_words(engine)
        if engine.image.read(addr, 8) != canary
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

    roots = [v for v in engine.registers.values() if lo <= v < hi]
    globals_bytes = bytes(engine.image.globals)
    for (word,) in struct.iter_unpack("<Q", globals_bytes):
        if lo <= word < hi:
            roots.append(word)

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
    return {p for p in _reach(engine)[1] if engine.quarantine.entry_for(p) is not None}


def stack_at_event(events, event_id: int) -> tuple[str, ...]:
    """Replay only the push/pop events to derive the stack at event_id."""
    stack: list[str] = []
    for ev in events:
        if ev.id >= event_id:
            break
        if ev.kind.name == "STACK_PUSH":
            stack.append(ev.frame)
        elif ev.kind.name == "STACK_POP":
            stack.pop()
    return tuple(stack)
