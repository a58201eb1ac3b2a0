"""FIFO quarantine for freed objects (use-after-free tripwires).

Freed slots are withheld from reuse in a FIFO queue, and the leading
prefix of each payload, [payload, payload + min(128, capacity)) by
default, is planted as a canary region of the overflow detector: filled
with canaries and its bytes marked in the shared mask shadow, so a fill
prefix that is not a multiple of eight is tracked to its last byte
like any other. Slots leave the queue oldest-first
whenever the queue exceeds its object-count or capacity-sum threshold;
each evicted slot is verified before the allocator may reuse it. A
slot evicted with corrupted canaries is withheld from reuse entirely.
Evidence is an unattributed use-after-free report per corrupted word,
carrying the object and the free event of its entry.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .config import EngineConfig
from .errors import NotAHeapObject
from .overflow import OverflowDetector
from .reports import KIND_LEAK, KIND_UAF, ErrorReport
from .vheap import Allocator


class QuarantineEntry(NamedTuple):
    """A freed slot in the queue; a tuple, so that building one per free is cheap."""

    payload: int
    capacity: int
    requested: int
    free_event: int

    def report(self, word: int | None = None) -> ErrorReport:
        """Unattributed evidence on this freed object: a use-after-free
        write on the corrupted word, or, without one, the object found
        reachable while freed."""
        return ErrorReport(
            KIND_UAF if word is not None else KIND_LEAK,
            corrupted_addr=word,
            object_addr=self.payload,
            object_size=self.requested,
            free_event=self.free_event,
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
        self.entries: deque[QuarantineEntry] = deque()
        self.by_payload: dict[int, QuarantineEntry] = {}
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def entry_for(self, payload: int) -> QuarantineEntry | None:
        return self.by_payload.get(payload)

    def region(self, entry: QuarantineEntry) -> tuple[int, int]:
        """The canaried prefix of a quarantined payload, as [start, end)."""
        return entry.payload, entry.payload + min(self.config.uaf_fill_prefix, entry.capacity)

    # -- free path --------------------------------------------------------

    def on_free(self, entry: QuarantineEntry) -> list[ErrorReport]:
        """Quarantine a freed slot, then evict the oldest entries until
        both thresholds hold again; returns evidence from the evictions.

        The caller has already cleared the allocated bit and run the
        overflow free-time check. The canaried prefix is planted here.
        """
        if self.fill_enabled:
            self.detector.plant(*self.region(entry))
        entries = self.entries
        entries.append(entry)
        self.by_payload[entry.payload] = entry
        self.total_bytes += entry.capacity
        evidence: list[ErrorReport] = []
        max_count, max_bytes = self.config.quarantine_max_count, self.config.quarantine_max_bytes
        while len(entries) > max_count or self.total_bytes > max_bytes:
            oldest = entries.popleft()
            del self.by_payload[oldest.payload]
            self.total_bytes -= oldest.capacity
            evidence += self.verify_and_release(oldest)
        return evidence

    def verify_and_release(self, entry: QuarantineEntry) -> list[ErrorReport]:
        """Check the canaried prefix of an evicted entry.

        Clean entries go back to the allocator free list with their
        prefix's mask bits cleared. Corrupted entries are reported and
        withheld from reuse (their slot stays out of circulation).
        """
        if self.fill_enabled:
            start, end = self.region(entry)
            corrupted = self.detector.corrupted(start, end)
            if corrupted:
                return [entry.report(word) for word in corrupted]
            self.detector.bitmap.clear_range(start, end)
        self.allocator.release_slot(entry.payload)
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
            try:
                entry = self.entry_for(self.allocator.object_bounds(word).payload)
            except NotAHeapObject:
                entry = None
            if entry is not None and word in range(*self.region(entry)):
                uaf.append(entry.report(word))
            else:
                rest.append(word)
        return uaf, rest

    # -- snapshot -----------------------------------------------------------

    def snapshot(self):
        return tuple(self.entries), self.total_bytes

    def restore(self, snap) -> None:
        entries, total = snap
        self.entries = deque(entries)
        self.by_payload = {e.payload: e for e in entries}
        self.total_bytes = total
