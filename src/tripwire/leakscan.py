"""Conservative reachability-based leak detection at epoch boundaries.

Marking is a breadth-first scan seeded from every word of the globals
store below its length, the globals then the registers set so far: any
value that resolves to a carved slot (interior addresses and guard
region included) is treated as a reference. Marked live objects
contribute every eight-byte-aligned word of their full payload
capacity to the next wave. Freed objects are never scanned, but a freed
object still sitting in quarantine is marked when reached so the
optional reachable-freed ("potential dangling pointer") report can
pick it up. The sweep then returns an unattributed leak report for
every allocated-but-unmarked slot and clears all marks.

Both passes run over arrays: candidate values are resolved to slots a
wave at a time through the allocator's SlotTable, and the marks are a
bool array over its flat slot ids, kept outside modeled memory. Whether
a slot is live or quarantined comes from the state of its record in
the allocator's slot store, copied into the table, so a mark and sweep
write no page and no program write can change their result except
through the pointers it stores.

A mark is incremental when it can be. It keeps its marks, and the
heap-range values it saw but did not mark: values into uncarved memory
or into freed slots the quarantine no longer holds. The next mark
starts from them, as in the mostly parallel marking of Boehm, Demers
and Shenker (PLDI 1991), when all of these hold:

- the heap and globals undo logs start at the state of the last mark:
  the image took exactly one snapshot since, and nothing wrote between
  that mark and the snapshot, as at an engine's epoch boundary;
- no changed word held a heap-range value at the snapshot, among the
  words the last mark read: the globals store's and the payloads of its
  marked live slots, with old values from the undo logs (a register
  first set since reads zero there);
- every marked slot has the state it had then, live or quarantined.

Under these the last marks are all still reachable, so the waves start
from them and from two sets of values: the new heap-range values of the
changed words, and the last mark's unmarked values resolved again. The
last set needs no write to matter: a stale pointer into a slot that is
reused since, or into memory a later malloc carves, makes an object
reachable. Otherwise, on a first mark, or for a scanner used without
snapshots, the full mark runs from the roots.
"""

from __future__ import annotations

import numpy as np

from .quarantine import freed_report
from .reports import KIND_LEAK, ErrorReport
from .vheap import WORD, Allocator, MemoryImage, SlotTable


class _Mark:
    """What a mark keeps for the next one to start from: its table (with
    a copy of the slot states) and marks, the heap-range values it saw
    but did not mark, and the image's snapshot count when it ran; the
    globals store's undo log keeps its roots' old values."""

    __slots__ = ("table", "marked", "misses", "snapshots")

    def __init__(self, table: SlotTable, marked: np.ndarray, misses: np.ndarray, snapshots: int):
        self.table, self.marked, self.misses, self.snapshots = table, marked, misses, snapshots


class LeakScanner:
    def __init__(self, image: MemoryImage, allocator: Allocator):
        self.image = image
        self.allocator = allocator
        self.heap_base = image.heap_base
        self.heap_end = image.heap_base + image.heap_size
        # the last mark's SlotTable and its marks by flat slot id, for the sweep
        self.table: SlotTable | None = None
        self.marked = np.zeros(0, dtype=np.bool_)
        self._last: _Mark | None = None

    def _in_heap(self, values: np.ndarray) -> np.ndarray:
        return values[(values >= self.heap_base) & (values < self.heap_end)]

    def _roots(self) -> np.ndarray:
        """The full mark's roots: the heap-range words of the globals
        store below its length, the globals then the registers set."""
        store = self.image.globals_pages
        return self._in_heap(np.frombuffer(store.data, dtype="<u8", count=store.length // WORD))

    def mark(self) -> None:
        """Mark from the conservative root set, or incrementally from the
        last mark (see the module docstring).

        The marks and the table they index stay valid until the next
        allocation or free; sweep uses both, so it expects no allocation
        or free in between.
        """
        table = self.allocator.slot_table()
        start = self._resume(table)
        marked, values = (np.zeros(len(table), dtype=np.bool_), self._roots()) if start is None else start
        misses = self._waves(table, marked, values)
        self.table, self.marked = table, marked
        self._last = _Mark(table, marked, misses, self.image.snapshots)

    def _resume(self, table: SlotTable) -> tuple[np.ndarray, np.ndarray] | None:
        """The marks and first wave of an incremental mark, or None when
        the full mark has to run."""
        last = self._last
        if last is None or self.image.snapshots != last.snapshots + 1:
            return None
        old = last.table
        n = len(old.carved)
        if n > len(table.carved) or (table.stride[:n] != old.stride).any() or (table.carved[:n] < old.carved).any():
            return None
        was = np.flatnonzero(last.marked)
        if len(table) == len(old):
            ids = was
        else:  # slots carved since shift the flat ids of later chunks
            chunk = np.searchsorted(old.first, was, side="right") - 1
            ids = was + (table.first[chunk] - old.first[chunk])
        if (table.state[ids] != old.state[was]).any():
            return None
        marked = np.zeros(len(table), dtype=np.bool_)
        marked[ids] = True
        _, globals_old, globals_new = self.image.globals_pages.changed_words()
        words, heap_old, heap_new = self.image.heap_pages.changed_words()
        owners = table.slot_ids(self.heap_base + WORD * words.astype(np.uint64), payload=True)
        scanned = owners >= 0  # the words in payloads of marked live slots
        scanned[scanned] = marked[owners[scanned]] & table.allocated[owners[scanned]]
        if self._in_heap(globals_old).size or self._in_heap(heap_old[scanned]).size:
            return None
        return marked, np.concatenate((
            self._in_heap(globals_new), self._in_heap(heap_new[scanned]), last.misses,
        ))

    def _waves(self, table: SlotTable, marked: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Mark breadth-first from the heap-range values, a wave at a time;
        return the values seen but not marked.

        Each wave resolves its values to slot ids, drops the slots
        already marked, marks the allocated ones and the freed ones the
        quarantine still holds, and takes the next wave from the payload
        words of the allocated ones.
        """
        misses = []
        while values.size:
            ids = table.slot_ids(values)
            found = ids >= 0
            wave = np.unique(ids[found])
            wave = wave[~marked[wave]]
            alive = table.allocated[wave]
            marked[wave[alive | table.held[wave]]] = True
            live = wave[alive]
            # unmarked now: no slot, or a freed slot the quarantine does not hold
            missed = ~found
            missed[found] = ~marked[ids[found]]
            misses.append(values[missed])
            values = table.payload_pointers(live)
        return np.concatenate(misses) if misses else np.zeros(0, dtype=np.uint64)

    def sweep(self, dangling: bool, suppress: set[int] = frozenset()) -> list[ErrorReport]:
        """Report allocated-but-unmarked slots, then clear all marks.

        The leaked slots are allocated & ~marked and, with dangling, the
        reachable quarantined ones held & marked, each as one array
        pass; only those slots are looked at one by one. Their reports
        come leaked first, each group in address order (flat id order).
        suppress holds payload addresses already reported in an earlier
        epoch (and not since reallocated); they stay leaked but are not
        reported again. The next mark may still start from these marks.
        """
        table, marked = self.table, self.marked
        self.table, self.marked = None, np.zeros(0, dtype=np.bool_)
        leaked = np.flatnonzero(table.allocated & ~marked)
        found = [
            ErrorReport(KIND_LEAK, object_addr=payload, object_size=requested)
            for payload, requested in zip(table.payloads(leaked), table.requested(leaked))
            if payload not in suppress
        ]
        if dangling:
            for payload in table.payloads(np.flatnonzero(table.held & marked)):
                if payload not in suppress:
                    found.append(freed_report(self.allocator.object_bounds(payload)))
        return found
