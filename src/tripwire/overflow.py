"""Buffer-overflow tripwires: canary regions, mask shadow, epoch scan.

A canary region is a byte range [start, end) the detectors fill with
the canary byte. Three kinds exist: every slot's guard region, the
unrequested tail of a payload below its slot capacity, and the
prefix the use-after-free quarantine canaries in a freed payload. A
shadow holds one mask byte per eight-byte heap word: bit i is set when
byte i of the word is a detector-filled canary, so a region's unaligned
edge word is tracked like any other, for exactly its canary bytes (the
shadow of AddressSanitizer, Serebryany et al. 2012, keeps one byte per
eight-byte granule too). A word is corrupted when one of its masked
bytes no longer holds the canary: (word ^ canary) & expand(mask) is
nonzero, with expand(mask) the word mask whose byte i is all ones
where bit i is set. The free check, the quarantine eviction, evidence
retirement and the epoch scan all apply that one test, and replay keeps
a trap when the write covers a masked byte of the watched word. A
malloc sets the masks of its whole slot in one shadow write. The
shadow's bytes live in the memory image's shadow page store:
each shadow write touches its pages first, so the shadow shares the
heap's copy-on-write snapshot, restore and replay check.

Normal execution never checks canaries on the write path, which is
what keeps per-write overhead at zero. Tracked words are verified in
one pass at epoch boundaries, and only on the heap pages written since
the snapshot: after a boundary every tracked word holds the canary
(each corrupted word found is retired), so a word elsewhere cannot have
changed. The scan reads those pages' nonzero mask bytes, and the heap
words they track are gathered and tested against the canary at once.
"""

from __future__ import annotations

import numpy as np

from .config import GUARD_BYTES, EngineConfig
from .vheap import PAGE, MemoryImage, WORD

ROW = PAGE // WORD  # mask bytes per heap page

# EXPAND[mask]: the little-endian word mask whose byte i is 0xFF where
# bit i of mask is set; _EXPAND holds the same values as Python ints
EXPAND = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    * np.uint8(0xFF)
).view("<u8").ravel()
_EXPAND = EXPAND.tolist()


def byte_mask(lo: int, hi: int) -> int:
    """The mask bits of bytes [lo, hi) of a word, 0 <= lo < hi <= 8."""
    return ((1 << (hi - lo)) - 1) << lo


# plant_on_alloc caches the masks of slots of this capacity and below,
# so the cache holds at most a few thousand entries, whatever the sizes
MASK_CACHE_CAPACITY = 4096


def slot_masks(requested: int, capacity: int) -> bytes:
    """The mask bytes of a freshly allocated slot, guard region first:
    the guard's words all canary, the requested bytes none, an edge word
    canary above the request's last byte, then the tail's words."""
    edge = bytes([0xFF << (requested & 7) & 0xFF]) if requested & 7 else b""
    whole = b"\xff" * ((capacity - requested) >> 3)
    return b"\xff" * (GUARD_BYTES // WORD) + bytes(requested >> 3) + edge + whole


class CanaryBitmap:
    """One mask byte per eight-byte heap word; bit i set means byte i of
    the word is a detector-filled canary.

    The masks live in the memory image's shadow page store, which every
    write touches first, so they are snapshotted, restored and checked
    after a replay with the heap, page by page.
    """

    def __init__(self, image: MemoryImage):
        self.heap_base = image.heap_base
        self.shadow = image.shadow

    @property
    def bits(self) -> memoryview:
        """The shadow's logical prefix, one mask byte per heap word."""
        return memoryview(self.shadow.data)[: self.shadow.length]

    def mask(self, addr: int) -> int:
        """The mask byte of the heap word at addr."""
        return self.shadow.data[(addr - self.heap_base) >> 3]

    def clear_word(self, addr: int) -> None:
        w = (addr - self.heap_base) >> 3
        self.shadow.touch(w, 1)
        self.shadow.data[w] = 0

    def set_masks(self, addr: int, masks: bytes) -> None:
        """Store the mask bytes of the words from the word at addr on."""
        w = (addr - self.heap_base) >> 3
        self.shadow.touch(w, len(masks))
        self.shadow.data[w : w + len(masks)] = masks

    def _span(self, start_addr: int, end_addr: int, value: bool) -> None:
        """Set or clear the mask bits of exactly the bytes [start_addr, end_addr)."""
        lo, hi = start_addr - self.heap_base, end_addr - self.heap_base
        if hi <= lo:
            return
        w0, w1 = lo >> 3, (hi - 1) >> 3
        self.shadow.touch(w0, w1 - w0 + 1)
        masks = self.shadow.data
        if not (lo | hi) & 7:  # whole words, as every quarantine prefix is
            masks[w0 : w1 + 1] = (b"\xff" if value else b"\0") * (w1 - w0 + 1)
            return
        head = (0xFF << (lo & 7)) & 0xFF
        tail = 0xFF >> (7 - ((hi - 1) & 7))
        fill = 0xFF if value else 0x00
        if w0 == w1:
            head &= tail
        else:
            masks[w1] = masks[w1] & ~tail | fill & tail
            masks[w0 + 1 : w1] = bytes([fill]) * (w1 - w0 - 1)
        masks[w0] = masks[w0] & ~head | fill & head

    def clear_range(self, start: int, end: int) -> None:
        self._span(start, end, False)


class OverflowDetector:
    """Plants and verifies heap canaries; owns the shared mask shadow.

    The use-after-free quarantine plants its prefix regions through this
    detector, so the epoch scan below is the single evidence pass for
    both detectors; attribution of corrupted words happens afterwards.
    """

    def __init__(self, config: EngineConfig, image: MemoryImage):
        self.config = config
        self.image = image
        self.bitmap = CanaryBitmap(image)
        self._canary_byte = bytes([config.canary_byte])
        self._guard = self._canary_byte * GUARD_BYTES
        self._canary_int = int.from_bytes(config.canary_word, "little")
        self._canary = np.uint64(self._canary_int)
        self._slot_masks: dict[tuple[int, int], bytes] = {}  # (requested, capacity) -> slot_masks
        # (words with a nonzero mask on written pages, words compared) per epoch scan
        self.scan_records: list[tuple[int, int]] = []

    # -- canary regions -----------------------------------------------------

    def plant(self, start: int, end: int) -> None:
        """Fill the region [start, end) and set the mask bits of its bytes,
        with one touch of the heap and one of the shadow. The heap's
        logical length grows to cover the region, as a write's does."""
        image = self.image
        heap, lo, hi = image.heap_pages, start - image.heap_base, end - image.heap_base
        if hi > heap.length:
            image.ensure_heap(hi)
        heap.touch(lo, hi - lo)
        heap.data[lo:hi] = self._canary_byte * (hi - lo)
        self.bitmap._span(start, end, True)

    def damaged(self, addr: int, bytes_mask: int = 0xFF) -> bool:
        """The masked test: True when a byte of the word at addr that is
        both in bytes_mask and a tracked canary no longer holds the canary."""
        word = int.from_bytes(self.image.read(addr, WORD), "little")
        return bool((word ^ self._canary_int) & _EXPAND[self.bitmap.mask(addr) & bytes_mask])

    def corrupted(self, start: int, end: int) -> list[int]:
        """Words of the region [start, end) that fail the masked test over
        the region's bytes, as word addresses in ascending order."""
        base = self.image.heap_base
        if self.image.heap[start - base : end - base] == self._canary_byte * (end - start):
            return []  # an intact region, the common case, costs one comparison
        return [
            addr
            for addr in range(start & ~(WORD - 1), end, WORD)
            if self.damaged(addr, byte_mask(max(start - addr, 0), min(end - addr, WORD)))
        ]

    def plant_on_alloc(self, payload: int, requested: int, capacity: int) -> None:
        """Plant the guard region and the unrequested payload tail, each
        with one heap touch: the whole slot is never touched, as a large
        class's would save pages nobody writes. One shadow write sets the
        masks of the whole slot: the guard's and the tail's bytes marked,
        the requested bytes' cleared of stale bits from the slot's
        previous life; those of slots up to MASK_CACHE_CAPACITY are built
        once per (requested, capacity).

        The old guard and tail are overwritten unchecked, so corruption
        written there after the slot's free (an overflow from the slot
        below, say) is lost when the slot is reused before the next epoch
        scan: a documented false negative.
        """
        heap = self.image.heap_pages
        guard = payload - GUARD_BYTES - self.image.heap_base
        heap.touch(guard, GUARD_BYTES)
        heap.data[guard : guard + GUARD_BYTES] = self._guard
        if requested < capacity:
            tail = guard + GUARD_BYTES + requested
            heap.touch(tail, capacity - requested)
            heap.data[tail : tail + capacity - requested] = self._canary_byte * (capacity - requested)
        key = (requested, capacity)
        masks = self._slot_masks.get(key)
        if masks is None:
            masks = slot_masks(requested, capacity)
            if capacity <= MASK_CACHE_CAPACITY:
                self._slot_masks[key] = masks
        self.bitmap.set_masks(payload - GUARD_BYTES, masks)

    def check_on_free(self, payload: int, requested: int, capacity: int) -> list[int]:
        """Free-time verification of the guard region and the payload tail.

        A request that fills its size class (requested == capacity) has
        an empty tail, so only its guard is checked. An intact slot, the
        common case, costs two slice compares. Returns corrupted word
        addresses; the caller decides what to do.
        """
        heap, off, tail = self.image.heap, payload - self.image.heap_base, self._canary_byte * (capacity - requested)
        if heap[off - GUARD_BYTES : off] == self._guard and heap[off + requested : off + capacity] == tail:
            return []
        return self.corrupted(payload - GUARD_BYTES, payload) + self.corrupted(
            payload + requested, payload + capacity
        )

    def epoch_scan(self) -> list[int]:
        """Apply the masked test to every word with a nonzero mask on the
        heap pages written since the snapshot.

        Each written page's ROW mask bytes, clipped to the shadow's
        logical length, are taken in page order, so the words come out
        ascending; the heap words at the nonzero ones are gathered and
        tested in one array pass. Returns corrupted word addresses in
        ascending order.
        """
        shadow = self.image.shadow
        masks = np.frombuffer(shadow.data, dtype=np.uint8, count=shadow.length)
        rows = np.sort(np.fromiter(self.image.heap_pages.log, dtype=np.intp)) * ROW
        words = (rows[:, None] + np.arange(ROW)).ravel()
        words = words[words < len(masks)]
        words = words[masks[words] != 0]
        heap_words = np.frombuffer(self.image.heap, dtype="<u8")
        bad = words[(heap_words[words] ^ self._canary) & EXPAND[masks[words]] != 0]
        self.scan_records.append((len(words), len(words)))
        base = self.image.heap_base
        return [base + (w << 3) for w in bad.tolist()]

    def retire_words(self, words) -> None:
        """Stop tracking reported words that still fail the masked test.

        Keeps one error from being re-reported at every later boundary;
        words the detector has since legitimately refilled stay tracked.
        """
        for addr in words:
            if self.damaged(addr):
                self.bitmap.clear_word(addr)
