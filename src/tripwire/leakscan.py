"""Conservative reachability-based leak detection at epoch boundaries.

Marking is a breadth-first scan seeded from register values and every
eight-byte-aligned globals word: any value that resolves to a carved
slot (interior addresses and guard region included) is treated
as a reference. Marked live objects contribute every eight-byte-aligned
word of their full payload capacity to the next wave. Freed objects
are never scanned, but a freed object still sitting in quarantine is
marked when reached so the optional reachable-freed ("potential
dangling pointer") report can pick it up. The sweep then returns an
unattributed leak report for every allocated-but-unmarked slot and
clears all marks.

Both passes run over arrays: candidate values are resolved to slots a
wave at a time through the allocator's SlotTable, and the marks are a
bool array over its flat slot ids, kept outside modeled memory. Whether
a slot is allocated comes from the allocator's own slot metadata, so a
mark and sweep write no heap page and no program write can change
their result except through the pointers it stores.
"""

from __future__ import annotations

import numpy as np

from .quarantine import QuarantineQueue
from .reports import KIND_LEAK, ErrorReport
from .vheap import Allocator, MemoryImage, SlotTable


class LeakScanner:
    def __init__(self, image: MemoryImage, allocator: Allocator, quarantine: QuarantineQueue | None):
        self.image = image
        self.allocator = allocator
        self.quarantine = quarantine
        self.heap_base = image.heap_base
        self.heap_end = image.heap_base + image.heap_size
        # the last mark's SlotTable and its marks by flat slot id, for the sweep
        self.table: SlotTable | None = None
        self.marked = np.zeros(0, dtype=np.bool_)

    def _roots(self, registers: dict[str, int]) -> np.ndarray:
        regs = [v for v in registers.values() if self.heap_base <= v < self.heap_end]
        return np.concatenate(
            (np.array(regs, dtype=np.uint64), np.frombuffer(self.image.globals, dtype="<u8"))
        )

    def mark(self, registers: dict[str, int]) -> None:
        """Breadth-first marking from the conservative root set, a wave
        at a time.

        Each wave resolves its values to slot ids, drops the slots
        already marked, marks the allocated ones and the freed ones the
        quarantine still holds, and takes the next wave from the payload
        words of the allocated ones. The marks and the table they index
        stay valid until the next allocation or free; sweep uses both,
        so it expects no allocation or free in between.
        """
        table = self.allocator.slot_table()
        marked = np.zeros(len(table), dtype=np.bool_)
        wave = table.ids(self._roots(registers))
        while wave.size:
            wave = np.unique(wave)
            wave = wave[~marked[wave]]
            alive = table.allocated[wave]
            live, freed = wave[alive], wave[~alive]
            marked[live] = True
            if self.quarantine is not None and freed.size:
                held = [self.quarantine.entry_for(p) is not None for p in table.payloads(freed)]
                marked[freed[np.array(held)]] = True
            wave = table.ids(table.payload_pointers(live))
        self.table, self.marked = table, marked

    def sweep(self, dangling: bool, suppress: set[int] = frozenset()) -> list[ErrorReport]:
        """Report allocated-but-unmarked slots, then clear all marks.

        The leaked slots are allocated & ~marked and, with dangling, the
        reachable freed ones ~allocated & marked, each as one array
        pass; only those slots are looked at one by one. Their reports
        come leaked first, each group in address order (flat id order).
        suppress holds payload addresses already reported in an earlier
        epoch (and not since reallocated); they stay leaked but are not
        reported again.
        """
        table, marked = self.table, self.marked
        self.table, self.marked = None, np.zeros(0, dtype=np.bool_)
        leaked = np.flatnonzero(table.allocated & ~marked)
        found = [
            ErrorReport(KIND_LEAK, object_addr=payload, object_size=requested)
            for payload, requested in zip(table.payloads(leaked), table.requested(leaked))
            if payload not in suppress
        ]
        if dangling and self.quarantine is not None:
            for payload in table.payloads(np.flatnonzero(~table.allocated & marked)):
                entry = self.quarantine.entry_for(payload)
                if entry is not None and payload not in suppress:
                    found.append(entry.report())
        return found
