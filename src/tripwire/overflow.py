"""Buffer-overflow tripwires: canary regions, shadow bitmap, epoch scan.

A canary region is a byte range [start, end) the detectors fill with
the canary byte. Three kinds exist: every slot's guard region, the
unrequested tail of a payload below its slot capacity, and the
prefix the use-after-free quarantine canaries in a freed payload. A
shadow bitmap holds one bit per eight-byte heap word for every word a
region covers completely. A region has at most one partial word, at
an unaligned edge; it stays out of the bitmap, so the bitmap stays
strictly word-granular, and is compared byte by byte whenever its
region is verified (at a free or a quarantine eviction). The bitmap's
bytes live in the memory image's shadow page store: each bitmap write
touches its pages first, so the bitmap shares the heap's copy-on-write
snapshot, restore and per-page digests.

Normal execution never checks canaries on the write path, which is
what keeps per-write overhead at zero. Tracked words are verified in
one pass at epoch boundaries, and only on the heap pages written since
the snapshot: after a boundary every tracked word holds the canary
(each corrupted word found is retired), so a word elsewhere cannot have
changed. The scan reads those pages' bitmap bytes, and the heap words
their set bits track are gathered and compared with the canary at once.
"""

from __future__ import annotations

import numpy as np

from .config import GUARD_BYTES, EngineConfig
from .vheap import PAGE, MemoryImage, WORD

ROW = PAGE // WORD // 8  # bitmap bytes per heap page


def align_up(value: int) -> int:
    return (value + WORD - 1) & ~(WORD - 1)


class CanaryBitmap:
    """One bit per eight-byte heap word; set means "detector-filled canary".

    The bits live in the memory image's shadow page store, which every
    write touches first, so they are snapshotted, restored and hashed
    with the heap, page by page.
    """

    def __init__(self, image: MemoryImage):
        self.heap_base = image.heap_base
        self.shadow = image.shadow

    @property
    def bits(self) -> memoryview:
        """The bitmap's logical prefix, one byte per eight heap words."""
        return memoryview(self.shadow.data)[: self.shadow.length]

    def _word_index(self, addr: int) -> int:
        return (addr - self.heap_base) >> 3

    def clear_word(self, addr: int) -> None:
        w = self._word_index(addr)
        self.shadow.touch(w >> 3, 1)
        self.shadow.data[w >> 3] &= ~(1 << (w & 7))

    def test_word(self, addr: int) -> bool:
        w = self._word_index(addr)
        return bool(self.shadow.data[w >> 3] & (1 << (w & 7)))

    def _span(self, start_addr: int, end_addr: int, value: bool) -> None:
        """Set or clear the bits of the whole words in [start_addr, end_addr)."""
        w0 = (start_addr - self.heap_base + WORD - 1) >> 3
        w1 = (end_addr - self.heap_base) >> 3
        if w1 <= w0:
            return
        b0, b1 = w0 >> 3, (w1 - 1) >> 3
        head = (0xFF << (w0 & 7)) & 0xFF
        tail = 0xFF >> (7 - ((w1 - 1) & 7))
        fill = 0xFF if value else 0x00
        self.shadow.touch(b0, b1 - b0 + 1)
        bits = self.shadow.data
        if b0 == b1:
            head &= tail
        else:
            bits[b1] = bits[b1] & ~tail | fill & tail
            bits[b0 + 1 : b1] = bytes([fill]) * (b1 - b0 - 1)
        bits[b0] = bits[b0] & ~head | fill & head

    def set_range(self, start: int, end: int) -> None:
        self._span(start, end, True)

    def clear_range(self, start: int, end: int) -> None:
        self._span(start, end, False)

    def set_words(self, pages) -> np.ndarray:
        """Indices of the tracked heap words on the given heap pages, ascending.

        Each page's ROW bitmap bytes, clipped to the bitmap's logical
        length, are taken in page order; their nonzero bytes are
        unpacked lowest bit first, so the set bits come out in word order.
        """
        bits = np.frombuffer(self.shadow.data, dtype=np.uint8, count=self.shadow.length)
        rows = np.sort(np.fromiter(pages, dtype=np.intp)) * ROW
        candidates = (rows[:, None] + np.arange(ROW)).ravel()
        candidates = candidates[candidates < len(bits)]
        nonzero = candidates[bits[candidates] != 0]
        flags = np.unpackbits(bits[nonzero], bitorder="little").reshape(-1, 8)
        return (nonzero[:, None] * 8 + np.arange(8))[flags.view(np.bool_)]


class OverflowDetector:
    """Plants and verifies heap canaries; owns the shared shadow bitmap.

    The use-after-free quarantine plants its prefix regions through this
    detector, so the epoch scan below is the single evidence pass for
    both detectors; attribution of corrupted words happens afterwards.
    """

    def __init__(self, config: EngineConfig, image: MemoryImage):
        self.config = config
        self.image = image
        self.bitmap = CanaryBitmap(image)
        self.canary_word = config.canary_word
        self._canary = np.uint64(int.from_bytes(config.canary_word, "little"))
        # (set bits on written pages, words compared) per epoch scan
        self.scan_records: list[tuple[int, int]] = []

    # -- canary regions -----------------------------------------------------

    def plant(self, start: int, end: int) -> None:
        """Fill the region [start, end) and track its whole words."""
        self.image.write_fill(start, end - start, self.config.canary_byte)
        self.bitmap.set_range(start, end)

    def corrupted(self, start: int, end: int) -> list[int]:
        """Words of the region [start, end) that no longer hold the canary.

        Whole words count only while tracked; a partial word at an
        unaligned edge is compared byte by byte and reported by its
        aligned address. Returns word addresses in ascending order.
        """
        canary, image = self.canary_word, self.image
        lo, hi = align_up(start), end & ~(WORD - 1)
        out = []
        if start < lo:  # partial word at the start
            n = min(lo, end) - start
            if image.read(start, n) != canary[:n]:
                out.append(lo - WORD)
        if lo < hi:
            base, heap = image.heap_base, image.heap
            first, last = lo - base, hi - base
            # an intact region, the common case, costs one comparison
            if heap[first:last] != canary * ((last - first) >> 3):
                for off in range(first, last, WORD):
                    if heap[off : off + WORD] != canary and self.bitmap.test_word(base + off):
                        out.append(base + off)
        if lo <= hi < end and image.read(hi, end - hi) != canary[: end - hi]:
            out.append(hi)  # partial word at the end
        return out

    def plant_on_alloc(self, payload: int, requested: int, capacity: int) -> None:
        """Plant the guard region and the unrequested payload tail.

        Stale bits from the slot's previous life are cleared first.
        """
        self.plant(payload - GUARD_BYTES, payload)
        self.bitmap.clear_range(payload, payload + capacity)
        if requested < capacity:
            self.plant(payload + requested, payload + capacity)

    def check_on_free(self, payload: int, requested: int, capacity: int) -> list[int]:
        """Free-time verification of the guard region and the payload tail.

        A request that fills its size class (requested == capacity) has
        an empty tail, so only its guard is checked. Returns corrupted
        word addresses; the caller decides what to do.
        """
        return self.corrupted(payload - GUARD_BYTES, payload) + self.corrupted(
            payload + requested, payload + capacity
        )

    def epoch_scan(self) -> list[int]:
        """Compare the tracked words on the heap pages written since the
        snapshot against the canary word.

        The tracked words come from CanaryBitmap.set_words over the
        heap's written pages; the heap words at those indices are
        gathered and compared with the canary in one array pass.
        Returns corrupted word addresses in ascending order.
        """
        words = self.bitmap.set_words(self.image.heap_pages.written_pages())
        heap_words = np.frombuffer(self.image.heap, dtype="<u8")
        bad = words[heap_words[words] != self._canary]
        self.scan_records.append((len(words), len(words)))
        base = self.image.heap_base
        return [base + (w << 3) for w in bad.tolist()]

    def retire_words(self, words) -> None:
        """Stop tracking reported words that still hold corrupted bytes.

        Keeps one error from being re-reported at every later boundary;
        words the detector has since legitimately refilled stay tracked.
        """
        for addr in words:
            if self.image.read(addr, WORD) != self.canary_word:
                self.bitmap.clear_word(addr)


def touches_partial(start: int, end: int, addr: int, length: int) -> bool:
    """True when the write [addr, addr + length) overlaps the partial word
    at an unaligned edge of the region [start, end)."""
    lo, hi, stop = align_up(start), end & ~(WORD - 1), addr + length
    edges = ((start, min(lo, end)), (max(hi, start), end))  # empty when aligned
    return any(a < b and addr < b and a < stop for a, b in edges)
