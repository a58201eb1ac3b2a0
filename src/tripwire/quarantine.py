"""FIFO quarantine for freed objects (use-after-free tripwires).

Freed slots are withheld from reuse in a FIFO queue, and the leading
prefix of each payload, [payload, payload + min(128, capacity)) by
default, is planted as a canary region of the overflow detector: filled
with canaries and its bytes marked in the shared mask shadow, so a fill
prefix that is not a multiple of eight is tracked to its last byte like
any other. Slots leave the queue oldest-first whenever it exceeds its
object-count or capacity-sum threshold. Each evicted slot is checked
before the allocator may reuse it: its prefix's bytes against the
canary and its masks against all set, which costs two slice compares
when the slot is clean. A slot evicted with corrupted canaries,
or with a prefix word a scan already reported (retiring the word
cleared its mask), is withheld from reuse entirely.
Evidence is an unattributed use-after-free report per corrupted word,
carrying the object and the free event of its entry. This module is
the policy; the queue itself lives in the allocator's slot store, which
names an entry by its record.
"""

from __future__ import annotations

from .config import EngineConfig
from .errors import NotAHeapObject
from .overflow import OverflowDetector
from .reports import KIND_LEAK, KIND_UAF, ErrorReport
from .vheap import QUARANTINED, Allocator, ObjectView


def freed_report(view: ObjectView, word: int | None = None) -> ErrorReport:
    """Unattributed evidence on a freed object: a use-after-free write on
    the corrupted word, or, without one, the object found reachable while
    freed."""
    return ErrorReport(
        KIND_UAF if word is not None else KIND_LEAK,
        corrupted_addr=word,
        object_addr=view.payload,
        object_size=view.requested,
        free_event=view.free_event,
        reachable_freed=word is None,
    )


class QuarantineQueue:
    def __init__(
        self,
        config: EngineConfig,
        allocator: Allocator,
        detector: OverflowDetector,
        fill_enabled: bool = True,
    ):
        self.config = config
        self.allocator = allocator
        self.detector = detector
        # off when the queue only delays reuse for dangling detection
        self.fill_enabled = fill_enabled
        self._heap, self._shadow = allocator.image.heap, allocator.image.shadow
        self._fill = bytes([config.canary_byte]) * config.uaf_fill_prefix

    def entry_for(self, addr: int) -> ObjectView | None:
        """The view of the quarantined slot holding addr, if one does."""
        try:
            view = self.allocator.object_bounds(addr)
        except NotAHeapObject:
            return None
        return view if view.state == QUARANTINED else None

    def region(self, view: ObjectView) -> tuple[int, int]:
        """The canaried prefix of a quarantined payload, as [start, end)."""
        return view.payload, view.payload + min(self.config.uaf_fill_prefix, view.capacity)

    # -- free path --------------------------------------------------------

    def on_free(self, view: ObjectView, free_event: int) -> list[ErrorReport]:
        """Quarantine the freed slot of view, live or withheld, and plant
        its canaried prefix; then evict the oldest entries until both
        thresholds hold again. Returns evidence from the evictions. The
        caller has run the overflow free-time check."""
        if self.fill_enabled:
            self.detector.plant(*self.region(view))
        allocator = self.allocator
        count, total = allocator.enqueue(view, free_event)
        evidence: list[ErrorReport] = []
        max_count, max_bytes = self.config.quarantine_max_count, self.config.quarantine_max_bytes
        while count > max_count or total > max_bytes:
            record, payload, capacity = allocator.oldest()
            evidence += self.verify_and_release(record, payload, capacity)
            count, total = count - 1, total - capacity
        return evidence

    def verify_and_release(self, record: int, payload: int, capacity: int) -> list[ErrorReport]:
        """Evict the oldest entry, at record, checking its canaried prefix:
        its bytes against the canary and its masks against all set, two
        slice compares and, for a prefix that ends inside a word, a test
        of that word's prefix bits (its other bits may be tail canaries).
        A clean one goes to its class's free list with its prefix's mask
        bits cleared. A corrupted one is reported, from a view built for
        it, and withheld from reuse, and so, without a report, is one with
        a word a scan reported (retiring it cleared its mask)."""
        if self.fill_enabled:
            detector, end = self.detector, payload + min(self.config.uaf_fill_prefix, capacity)
            lo, hi = payload - self.config.heap_base, end - self.config.heap_base
            masks = self._shadow.data[lo >> 3 : hi >> 3]
            edge = (1 << (hi & 7)) - 1  # the prefix bits of a word the prefix ends inside
            whole = masks == b"\xff" * len(masks) and (not edge or self._shadow.data[hi >> 3] & edge == edge)
            if not (whole and self._heap[lo:hi] == self._fill[: hi - lo]):
                corrupted = detector.corrupted(payload, end)
                if corrupted or not whole:
                    view = self.allocator.object_bounds(payload)
                    self.allocator.dequeue(record, capacity, release=False)
                    return [freed_report(view, word) for word in corrupted]
            detector.bitmap.clear_range(payload, end)
        self.allocator.dequeue(record, capacity, release=True)
        return []

    # -- epoch-boundary attribution ----------------------------------------

    def split_scan_words(self, words: list[int]) -> tuple[list[ErrorReport], list[int]]:
        """Partition corrupted scan words into quarantine hits and the rest.

        A word is use-after-free evidence iff it falls inside the
        canaried prefix of some entry still in the queue. A region lies
        inside its slot's payload, so only the entry of the slot that
        holds the word can own it.
        """
        uaf: list[ErrorReport] = []
        rest: list[int] = []
        for word in words:
            entry = self.entry_for(word)
            if entry is not None and word in range(*self.region(entry)):
                uaf.append(freed_report(entry, word))
            else:
                rest.append(word)
        return uaf, rest
