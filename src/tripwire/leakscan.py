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
every allocated-but-unmarked slot.

Both passes run over arrays: candidate values are resolved to slots a
wave at a time through the allocator's SlotTable, and the marks are a
bool array over its flat slot ids, kept outside modeled memory. Whether
a slot is live or quarantined comes from the state of its record in
the allocator's slot store, copied into the table, so a mark and sweep
write no page and no program write can change their result except
through the pointers it stores.

Besides its marks, a mark keeps a reference count per carved slot: the
number of heap-range words that resolve to the slot, guard region
included, among the words the mark reads (the globals store's below its
length and the payloads of its marked live slots). The heap-range
values among those words that resolve to no carved slot are kept as
misses, so that a slot carved later takes its count from them.

A mark resumes from the last one when the heap and globals undo logs
start at the state of the last mark (the image took exactly one
snapshot since, and nothing wrote between that mark and the snapshot,
as at an engine's epoch boundary) and when it reads fewer words than a
full mark would: each page of those undo logs, as saved and as now,
against the roots and the payloads of the last mark's marked live
slots. Otherwise, on a first mark, for a scanner used without
snapshots, or after an epoch that wrote about as much as the heap
holds, the full mark runs from the roots. A resumed mark works in three
steps:

- It brings the counts up to date. Misses that fall in a slot carved
  since count for it. Each changed word the last mark read takes back
  its old value, from the undo logs, and counts its new one (a register
  first set since was not read). A marked slot freed since takes back
  its payload words, and a marked quarantined slot allocated again
  since counts its payload. A marked slot that is neither live nor
  quarantined now is unmarked.
- It unmarks what lost its last reference. A marked slot whose count
  fell to zero is unmarked and takes back its payload words, in
  cascade. From the marked slots whose count fell but stays above zero,
  trial deletion, as in the synchronous cycle collection of Bacon and
  Rajan (ECOOP 2001), visits the marked slots they reach: those
  referenced from outside that subgraph keep their marks and so does
  all they reach; the rest are unmarked and take back their payload
  words.
- It marks forward, breadth first as the full mark does from the roots,
  from the slots whose count rose and those whose state changed, as in
  the mostly parallel marking of Boehm, Demers and Shenker (PLDI 1991).

So a resumed mark costs what the epoch changed and the subgraph trial
deletion visits, not what the heap holds. Flat ids move when an earlier
chunk carves more slots, and the kept marks, counts and states move
with them.
"""

from __future__ import annotations

import numpy as np

from .quarantine import freed_report
from .reports import KIND_LEAK, ErrorReport
from .vheap import LIVE, PAGE, QUARANTINED, WORD, Allocator, MemoryImage, SlotTable

_NONE = np.zeros(0, dtype=np.int64)


class _Mark:
    """What the last mark leaves for the next one besides its marks and
    counts: its table's chunk strides, carved counts, first flat ids and
    slot states, the words a full mark of its state reads, and the
    image's snapshot count when it ran; the undo logs keep the old values
    of the words it read."""

    __slots__ = ("stride", "carved", "first", "state", "reads", "snapshots")

    def __init__(self, table: SlotTable, reads: int, snapshots: int):
        # the table's arrays, which its refreshes replace but never write
        self.stride, self.carved, self.first, self.state = table.stride, table.carved, table.first, table.state
        self.reads, self.snapshots = reads, snapshots


def _without(values: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """values less drop, as multisets: one occurrence per value of drop."""
    values, drop = np.sort(values), np.sort(drop)
    # the i-th of equal values in drop takes the i-th of them in values
    at = np.searchsorted(values, drop) + np.arange(len(drop)) - np.searchsorted(drop, drop)
    keep = np.ones(len(values), dtype=np.bool_)
    keep[at] = False
    return values[keep]


class LeakScanner:
    def __init__(self, image: MemoryImage, allocator: Allocator):
        self.image = image
        self.allocator = allocator
        # the last mark's SlotTable and its marks by flat slot id, for the sweep
        self.table: SlotTable | None = None
        self.marked = np.zeros(0, dtype=np.bool_)
        self._last: _Mark | None = None
        # the marks, counts and misses the next mark starts from
        self._marks = np.zeros(0, dtype=np.bool_)
        self._counts = np.zeros(0, dtype=np.int64)
        self._misses = np.zeros(0, dtype=np.uint64)
        self._payloads = 0  # the payload words of the marked live slots
        self._added: list[np.ndarray] = []  # misses found and lost by the running mark
        self._lost: list[np.ndarray] = []
        # scratch by flat slot id: _distinct writes before it reads; the
        # others are all zero between uses
        self._scratch = np.zeros(0, dtype=np.int64)
        self._seen = np.zeros(0, dtype=np.bool_)
        self._inner = np.zeros(0, dtype=np.int64)

    def _roots(self) -> np.ndarray:
        """The full mark's roots: the heap-range words of the globals
        store below its length, the globals then the registers set."""
        store = self.image.globals_pages
        values = np.frombuffer(store.data, dtype="<u8", count=store.length // WORD)
        return values[self.table.in_heap(values)]

    def mark(self) -> None:
        """Mark from the conservative root set, or incrementally from the
        last mark (see the module docstring).

        The marks and the table they index stay valid until the next
        allocation or free; sweep uses both, so it expects no allocation
        or free in between.
        """
        self.table = table = self.allocator.slot_table()
        slots = len(table)
        if len(self._scratch) < slots:
            self._scratch = np.empty(2 * slots, dtype=np.int64)
            self._seen = np.zeros(2 * slots, dtype=np.bool_)
            self._inner = np.zeros(2 * slots, dtype=np.int64)
        self._added, self._lost = [], []
        rises = self._resume(table)
        if rises is None:
            self._marks = np.zeros(slots, dtype=np.bool_)
            self._counts = np.zeros(slots, dtype=np.int64)
            self._misses = np.zeros(0, dtype=np.uint64)
            self._payloads = 0
            rises = self._refer(self._roots(), 1)
        self._spread(rises)
        if self._added:
            self._misses = np.concatenate([self._misses, *self._added])
        if self._lost:
            self._misses = _without(self._misses, np.concatenate(self._lost))
        self.marked = self._marks
        # a full mark reads the roots and the payloads of the marked live slots
        self._last = _Mark(table, self.image.globals_pages.length // WORD + self._payloads, self.image.snapshots)

    def _resume(self, table: SlotTable) -> np.ndarray | None:
        """Bring the last mark's counts and marks up to date and unmark
        what lost its last reference; return the slots to mark forward
        from, or None when the full mark has to run (see the module
        docstring)."""
        last, heap, store = self._last, self.image.heap_pages, self.image.globals_pages
        if last is None or self.image.snapshots != last.snapshots + 1:
            return None
        # each page in the undo logs is read as saved and as now
        if 2 * (len(heap.log) + len(store.log)) * PAGE // WORD >= last.reads:
            return None
        state, marks = last.state, self._marks
        gone, found, rises = [], [], []  # values the mark reads no more, values it reads now, slots to mark from
        if table.carved is not last.carved:  # slots carved since
            k = len(last.carved)
            if (len(table.carved) < k or (table.stride[:k] != last.stride).any()
                    or (table.carved[:k] < last.carved).any()):
                return None
            # carried slots move up by the slots carved since in earlier chunks;
            # a slot not carved then had no state
            at = np.arange(len(state)) + np.repeat(table.first[:k] - last.first[:k], last.carved)
            marks, counts, state = (np.zeros(len(table), dtype=a.dtype) for a in (marks, self._counts, state))
            marks[at], counts[at], state[at] = self._marks, self._counts, last.state
            self._marks, self._counts = marks, counts
            if self._misses.size:  # misses in slots carved since count for them
                misses, self._misses = self._misses, np.zeros(0, dtype=np.uint64)
                rises.append(self._refer(misses, 1))
        # changed words the last mark read: the globals store's below its
        # length then, and the payload words of its marked live slots
        words, old, new = store.changed_words()
        gone.append(old[table.in_heap(old) & (words < store.snap_length // WORD)])
        found.append(new[table.in_heap(new)])
        words, old, new = heap.changed_words()
        was, now = table.in_heap(old), table.in_heap(new)
        pointer = was | now
        if pointer.any():
            words, old, new, was, now = words[pointer], old[pointer], new[pointer], was[pointer], now[pointer]
            owners = table.slot_ids(table.heap_base + WORD * words.astype(np.uint64), payload=True)
            read = owners >= 0
            read[read] = marks[owners[read]] & (state[owners[read]] == LIVE)
            gone.append(old[read & was])
            found.append(new[read & now])
        moved = np.flatnonzero(table.state != state)
        if moved.size:
            was, now, marked = state[moved] == LIVE, table.allocated[moved], marks[moved]
            freed, revived = moved[marked & was & ~now], moved[marked & ~was & now]
            gone.append(table.payload_pointers(freed))
            found.append(table.payload_pointers(revived))
            self._payloads += table.payload_words(revived) - table.payload_words(freed)
            marks[moved[marked & ~now & (table.state[moved] != QUARANTINED)]] = False
            rises.append(moved[~marked])
        self._unmark(self._refer(np.concatenate(gone), -1))
        rises.append(self._refer(np.concatenate(found), 1))
        return np.concatenate(rises)

    def _refer(self, values: np.ndarray, sign: int) -> np.ndarray:
        """Count heap-range values as references (sign 1) or take them
        back (sign -1); return the flat ids of the slots they resolve to.
        The values that resolve to none are the misses found or lost."""
        if not values.size:
            return _NONE
        ids = self.table.slot_ids(values)
        hit = ids >= 0
        if not hit.all():
            (self._added if sign > 0 else self._lost).append(values[~hit])
            ids = ids[hit]
        (np.add if sign > 0 else np.subtract).at(self._counts, ids, 1)
        return ids

    def _scan(self, ids: np.ndarray, sign: int) -> np.ndarray:
        """Count the payload words of the live slots of ids, sorted, as
        references (sign 1), or take them back (sign -1) as they unmark;
        return the flat ids the words resolve to."""
        self._payloads += sign * self.table.payload_words(ids)
        return self._refer(self.table.payload_pointers(ids), sign)

    def _distinct(self, ids: np.ndarray) -> np.ndarray:
        """The distinct ids among ids, sorted.

        Each id writes its position into a scratch array and keeps the
        positions that survive: work in proportion to ids, with no pass
        over the table.
        """
        at = np.arange(len(ids))
        self._scratch[ids] = at
        return np.sort(ids[self._scratch[ids] == at])

    def _spread(self, ids: np.ndarray) -> None:
        """Mark forward from ids, breadth first. Each wave marks those of
        its slots that are unmarked, referenced, and live or quarantined,
        and takes the next wave from the payload words of the live ones."""
        table, marks, counts = self.table, self._marks, self._counts
        while ids.size:
            ids = ids[~marks[ids] & (counts[ids] > 0)]
            state = table.state[ids]
            wave = self._distinct(ids[(state == LIVE) | (state == QUARANTINED)])
            marks[wave] = True
            ids = self._scan(wave[table.allocated[wave]], 1)

    def _targets(self, ids: np.ndarray) -> np.ndarray:
        """The marked slots the payload words of the live slots among ids,
        sorted, resolve to, once per word."""
        table = self.table
        values = table.payload_pointers(ids[table.allocated[ids]])
        targets = table.slot_ids(values)
        targets = targets[targets >= 0]
        return targets[self._marks[targets]]

    def _unmark(self, falls: np.ndarray) -> None:
        """Unmark the slots no longer reachable, from falls, the slots whose
        count fell: first those at zero, in cascade, then by trial deletion
        from those still above it."""
        table, marks, counts = self.table, self._marks, self._counts
        held = []
        while falls.size:
            falls = falls[marks[falls]]
            zero = counts[falls] == 0
            held.append(falls[~zero])
            gone = self._distinct(falls[zero])
            if not gone.size:
                break
            marks[gone] = False
            falls = self._scan(gone[table.allocated[gone]], -1)
        roots = np.concatenate(held) if held else _NONE
        roots = self._distinct(roots[marks[roots]])
        if not roots.size:
            return
        # the marked slots the roots reach, and the references among them
        seen, inner = self._seen, self._inner
        seen[roots] = True
        reached, frontier = [roots], roots
        while frontier.size:
            targets = self._targets(frontier)
            np.add.at(inner, targets, 1)
            frontier = self._distinct(targets[~seen[targets]])
            seen[frontier] = True
            reached.append(frontier)
        reached = np.concatenate(reached)
        outside = np.sort(reached[counts[reached] > inner[reached]])
        inner[reached] = 0
        seen[reached] = False
        # what a slot referenced from outside reaches stays marked
        seen[outside] = True
        frontier = outside
        while frontier.size:
            targets = self._targets(frontier)
            frontier = self._distinct(targets[~seen[targets]])
            seen[frontier] = True
        gone = np.sort(reached[~seen[reached]])
        seen[reached] = False
        marks[gone] = False
        self._scan(gone[table.allocated[gone]], -1)

    def sweep(self, dangling: bool, suppress: set[int] = frozenset()) -> list[ErrorReport]:
        """Report allocated-but-unmarked slots.

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
            for payload, requested in zip(*table.payloads(leaked))
            if payload not in suppress
        ]
        if dangling:
            for payload in table.payloads(np.flatnonzero((table.state == QUARANTINED) & marked))[0]:
                if payload not in suppress:
                    found.append(freed_report(self.allocator.object_bounds(payload)))
        return found
