"""Conservative reachability-based leak detection at epoch boundaries.

Marking is a breadth-first scan seeded from register values and every
eight-byte-aligned globals word: any value that resolves to a carved
slot (interior addresses included) is treated as a reference. Marked
live objects contribute every eight-byte-aligned word of their full
payload capacity to the work queue. Freed objects are never scanned,
but a freed object still sitting in quarantine is marked when reached
so the optional reachable-freed ("potential dangling pointer") report
can pick it up. The sweep then reports every allocated-but-unmarked
slot and clears all marks.

Marks are kept in a set outside modeled memory, and whether a slot is
allocated comes from the allocator's own slot metadata, so a mark and
sweep write no heap page and no program write can change their result
except through the pointers it stores.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import NotAHeapObject
from .quarantine import QuarantineQueue
from .replay import Evidence
from .vheap import Allocator, MemoryImage


class LeakScanner:
    def __init__(self, image: MemoryImage, allocator: Allocator, quarantine: QuarantineQueue | None):
        self.image = image
        self.allocator = allocator
        self.quarantine = quarantine
        self.heap_base = image.heap_base
        self.heap_end = image.heap_base + image.heap_size
        self.marked: set[int] = set()  # payloads marked since the last sweep

    def _roots(self, registers: dict[str, int]) -> list[int]:
        roots = [v for v in registers.values() if self.heap_base <= v < self.heap_end]
        words = np.frombuffer(self.image.globals, dtype="<u8")
        hits = words[(words >= self.heap_base) & (words < self.heap_end)]
        roots.extend(int(v) for v in hits)
        return roots

    def mark(self, registers: dict[str, int]) -> None:
        """BFS from the conservative root set, adding to the marked set.

        Expects no marks (sweep leaves none).
        """
        marked = self.marked
        # payloads are word-aligned; the heap is one fixed mapping of the
        # whole region that never resizes, so the view stays valid and
        # costs nothing for pages never touched
        heap_words = np.frombuffer(self.image.heap, dtype="<u8")
        pending = deque(self._roots(registers))
        while pending:
            value = pending.popleft()
            try:
                view = self.allocator.object_bounds(value)
            except NotAHeapObject:
                continue
            if view.payload in marked:
                continue
            if not view.allocated:
                if self.quarantine is not None and self.quarantine.entry_for(view.payload):
                    marked.add(view.payload)
                continue
            marked.add(view.payload)
            first = (view.payload - self.heap_base) >> 3
            words = heap_words[first : first + (view.capacity >> 3)]
            pending.extend(words[(words >= self.heap_base) & (words < self.heap_end)].tolist())

    def sweep(self, dangling: bool, suppress: set[int] = frozenset()) -> Evidence:
        """Collect allocated-but-unmarked slots, then clear all marks.

        suppress holds payload addresses already reported in an earlier
        epoch (and not since reallocated); they stay leaked but are not
        reported again.
        """
        evidence = Evidence()
        marked = self.marked
        for view in self.allocator.carved_slots():
            is_marked = view.payload in marked
            if view.allocated and not is_marked and view.payload not in suppress:
                evidence.leaked.append((view.payload, view.requested))
            if (
                dangling
                and not view.allocated
                and is_marked
                and self.quarantine is not None
                and view.payload not in suppress
            ):
                entry = self.quarantine.entry_for(view.payload)
                if entry is not None:
                    evidence.reachable_freed.append(entry)
        self.marked = set()
        evidence.leaked.sort()
        evidence.reachable_freed.sort(key=lambda e: e.payload)
        return evidence

