"""Deterministic BiBOP-style virtual heap.

The modeled address space has two writable regions: a globals array of
eight-byte words and one large pre-reserved heap region. The allocator
carves the heap region into per-size-class chunks and bump-allocates
fixed-stride slots inside them, so the address returned for the N-th
allocation is a pure function of the preceding allocate/release
history. Each slot is laid out as:

    [guard region: 32 bytes][payload: capacity]

with capacity the next power of two >= max(request, min class). The
allocator never writes a slot; the overflow detector fills the guard
region with canaries. As in DieHard, slot metadata lives outside the
heap region, so no program write changes what the allocator, quarantine
or leak scanner believe about a slot. It is still ordinary memory, the
slot store, laid out below, so rollback restores it like the heap.

The heap image, the globals, the overflow detector's canary shadow (one
mask byte per heap word) and the slot store are four page stores
(PageStore): lazily zeroed reservations with a logical length and a
copy-on-write undo log of 4 KiB pages. The globals store holds the
registers too, past the globals. The stores share the image's snapshot
and restore, so a snapshot, a restore or the check of a replay costs
what the epoch wrote, not what the stores hold. Trace writes go through
MemoryImage.write_fill, write_word and write_register; the allocator
and the detectors write a store's data directly, after touching each
range they write, so the undo logs stay current on every path. The
heap's undo log keys are also the epoch scan's dirty set. With their
old bytes, the heap's and the globals' undo logs give the leak mark the
words an epoch changed.
"""

from __future__ import annotations

import hashlib
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import GUARD_BYTES, EngineConfig
from .errors import (
    NotAHeapObject,
    NotQuarantined,
    OutOfVirtualHeap,
    OversizeRequest,
    SegfaultModel,
)

WORD = 8

U64_MASK = (1 << 64) - 1

PAGE_SHIFT = 12
PAGE = 1 << PAGE_SHIFT
DIGEST_BYTES = 32
_ZERO_PAGE_DIGEST = hashlib.sha256(bytes(PAGE)).digest()
# Python exposes the flag from 3.13 on; 0x4000 is its value on Linux
_MAP_NORESERVE = getattr(mmap, "MAP_NORESERVE", 0x4000)


# _FILLS[b]: the one-byte bytes of b, so a fill of n bytes is one repeat
_FILLS = tuple(bytes([b]) for b in range(256))


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def _reserve(size: int, what: str, option: str) -> mmap.mmap:
    """Reserve size bytes of zero-filled, private address space for what;
    option is the CLI option that sets its size."""
    try:
        return mmap.mmap(
            -1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _MAP_NORESERVE
        )
    except (OSError, OverflowError) as err:
        raise OutOfVirtualHeap(
            f"cannot reserve {size} bytes of address space for {what} ({err}); lower {option}"
        ) from None


class PageStore:
    """A fixed, lazily zeroed memory reservation with a logical length
    and an undo log of 4 KiB pages.

    The reservation is one anonymous private mapping without swap
    accounting: the kernel zero-fills its pages on first touch, so pages
    nobody wrote cost neither time nor resident memory. Every byte past
    the logical length reads zero. Callers write `data` directly, after
    calling touch() on the range. A snapshot starts an undo log, and the
    first write to each page saves that page's bytes below the snapshot
    length (none for a page wholly past it). A restore writes each saved
    page back and zeroes the rest of it, which keeps the zero invariant
    without truncating anything. The store also keeps every page ever
    written, so digest() hashes only those and the last page.
    """

    def __init__(self, size: int, what: str, option: str):
        self.data = _reserve(size, what, option)
        self.length = 0
        # undo log of the latest snapshot: page index -> the page's bytes
        # below the snapshot length, empty for a page wholly past it; its
        # keys are the pages written since, restored ones included
        self.log: dict[int, bytes] = {}
        self._snap_len = 0
        self._written: set[int] = set()  # every page ever written; the rest read zero

    def touch(self, off: int, length: int) -> None:
        """Record a write of [off, off + length) before it happens:
        save each page on its first write since the snapshot."""
        first, last = off >> PAGE_SHIFT, (off + length - 1) >> PAGE_SHIFT
        saved = self.log
        if first == last and first in saved:
            return  # the common case: one page, already saved
        for page in range(first, last + 1):
            if page not in saved:  # the undo log's pages are already in _written
                self._written.add(page)
                start = page << PAGE_SHIFT
                saved[page] = self.data[start : min(start + PAGE, self._snap_len)]

    def digest(self) -> bytes:
        """The sha256 digest of every page below the logical length, in
        page order, each over the page's bytes below the length.

        Built at each call: a page never written holds zeros, so only
        the written pages and a last page the length cuts short are
        hashed.
        """
        end = self.length
        pages = -(-end // PAGE)
        hashed = {page for page in self._written if page < pages}
        if end % PAGE:
            hashed.add(pages - 1)
        table = bytearray(_ZERO_PAGE_DIGEST * pages)
        with memoryview(self.data) as view:
            for page in hashed:
                start, at = page << PAGE_SHIFT, page * DIGEST_BYTES
                table[at : at + DIGEST_BYTES] = hashlib.sha256(view[start : min(start + PAGE, end)]).digest()
        return bytes(table)

    def changed_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(word index, value at the snapshot, value now) of each word of
        the written pages below the logical length that differs from its
        value at the snapshot or lay past the snapshot length, from the
        undo log; indexes count words from the store's start."""
        saved = self.log
        per_page = PAGE // WORD
        pages = np.fromiter(saved, dtype=np.int64, count=len(saved))
        words = (pages[:, None] * per_page + np.arange(per_page)).ravel()
        # bytes past the snapshot length were zero at the snapshot
        old = np.frombuffer(b"".join(page.ljust(PAGE, b"\0") for page in saved.values()), dtype="<u8")
        now = np.frombuffer(self.data, dtype="<u8", count=self.length // WORD)
        inside = words < len(now)
        words, old = words[inside], old[inside]
        new = now[words]
        changed = (old != new) | (words >= self._snap_len // WORD)
        return words[changed], old[changed], new[changed]

    def snapshot(self) -> dict[int, bytes]:
        """Start a new undo log and return it. The log fills as pages are
        touched and stays valid until the next snapshot."""
        self.log = {}
        self._snap_len = self.length
        return self.log

    def restore(self, saved: dict[int, bytes]) -> None:
        """Write the saved pages back and return to the snapshot length.

        The undo log stays active and keeps its keys, so the replay that
        follows logs into it and its pages can be compared (epoch_writes).
        """
        if saved is not self.log:
            raise ValueError("only the latest snapshot can be restored")
        data, size = self.data, len(self.data)
        for page, old in saved.items():
            start = page << PAGE_SHIFT
            end = min(start + PAGE, size)
            data[start:end] = old.ljust(end - start, b"\0")
        self.length = self._snap_len


def _shadow_len(heap_len: int) -> int:  # one mask byte per heap word
    return heap_len // WORD


# The slot store, in eight-byte words. Page 0, which every snapshot
# saves up front, holds the quarantine's FIFO (head and tail record, 0
# for none, count and capacity sum), the chunk count and three words per
# class shift. From _RECORDS on, each chunk has a region sized for the
# most slots a chunk of any class holds: a record-sized head with its
# class shift (0: not acquired), then one record per slot, so records
# are dense and none crosses a page. A slot is on at most one list, its
# class's LIFO free list or the quarantine, so one link serves both.
Q_HEAD, Q_TAIL, Q_COUNT, Q_BYTES, CHUNKS = range(5)
_CLASS_WORDS = 5
BUMP, LIMIT, FREE = range(3)  # per class: next fresh slot, its chunk's end, top free record
_RECORDS = PAGE // WORD
REQUESTED, STATE, LINK, FREE_EVENT = range(4)  # the words of a record
RECORD_WORDS = 4
_PAGE_WORDS_SHIFT = PAGE_SHIFT - 3  # word index -> page
LIVE, QUARANTINED, FREE_LISTED, WITHHELD = 1, 2, 3, 4  # a record's state; withheld: freed, on no list


class MemoryImage:
    """The modeled program's writable memory, heap region plus globals,
    its registers and the allocator's slot store.

    Reads and writes are bounds-checked against the two mapped ranges;
    anything else raises SegfaultModel. Trace-driven writes to memory go
    through write_fill or write_word, so an observer installed by the
    engine (the replay watchpoint check) sees them. The detectors and the
    allocator write the stores' data directly, after a touch() of each
    range, and the observer never sees them. The stores: heap_pages
    (`heap` is its mapping), globals_pages (`globals` views the globals
    alone), shadow, resized with the heap, and slots, which grows by
    slot_region words per chunk. globals_pages has room for `registers`
    registers after the globals. They are numbered in order of first use
    (TraceEvent.ordinal), so its length covers exactly the registers set.
    """

    def __init__(self, config: EngineConfig, registers: int = 0):
        self.heap_base = config.heap_base
        self.heap_size = config.heap_size
        self.chunk_size = config.chunk_size
        self.globals_base = config.globals_base
        self.globals_size = 8 * config.globals_words
        self._heap_end = self.heap_base + self.heap_size
        self._globals_end = self.globals_base + self.globals_size
        self.heap_pages = PageStore(self.heap_size, "the heap", "--heap-size")
        self.heap = self.heap_pages.data
        self.shadow = PageStore(_shadow_len(self.heap_size), "the canary shadow", "--heap-size")
        self.globals_pages = PageStore(self.globals_size + WORD * registers, "the globals", "--globals-words")
        self.globals_pages.length = self.globals_size
        self.globals = memoryview(self.globals_pages.data)[: self.globals_size]
        self.slot_region = RECORD_WORDS * (1 + self.chunk_size // (GUARD_BYTES + config.min_class))
        chunks = self.heap_size // self.chunk_size
        self.slots = PageStore(WORD * (_RECORDS + chunks * self.slot_region), "the slot records", "--heap-size")
        self.slots.length = WORD * _RECORDS
        self.stores = self.heap_pages, self.globals_pages, self.shadow, self.slots
        self.write_observer = None
        self.snapshots = 0  # snapshots taken, so a reader of the undo logs knows where they start

    @property
    def heap_prefix(self) -> int:
        return self.heap_pages.length

    def ensure_heap(self, nbytes: int) -> None:
        """Raise the logical heap length to cover nbytes, in chunk steps,
        and the shadow's length with it."""
        if nbytes <= self.heap_pages.length:
            return
        length = -(-nbytes // self.chunk_size) * self.chunk_size
        self.heap_pages.length = length
        self.shadow.length = _shadow_len(length)

    def hash_into(self, h) -> None:
        """Feed the memory image to the hasher h: the logical heap length,
        the heap's page digests, which stand in for its bytes like one
        level of a Merkle tree, and the globals."""
        h.update(self.heap_pages.length.to_bytes(8, "little"))
        h.update(self.heap_pages.digest())
        h.update(self.globals)

    def epoch_writes(self) -> tuple:
        """Per page store (heap, globals, shadow, slots): its logical
        length and the current bytes of each page in its undo log.

        Two runs from one snapshot leave memory alike and wrote the same
        pages exactly when these are equal: pages outside the undo logs
        were written by neither, and a restore keeps the logs' keys.
        """
        return tuple(
            (store.length, {page: store.data[page << PAGE_SHIFT : (page + 1) << PAGE_SHIFT] for page in store.log})
            for store in self.stores
        )

    def _locate(self, addr: int, length: int) -> tuple[PageStore, int]:
        """The page store holding [addr, addr + length), and addr's offset in it."""
        if length < 0:
            raise SegfaultModel(addr, length)
        if self.heap_base <= addr and addr + length <= self._heap_end:
            return self.heap_pages, addr - self.heap_base
        if self.globals_base <= addr and addr + length <= self._globals_end:
            return self.globals_pages, addr - self.globals_base
        raise SegfaultModel(addr, length)

    def read(self, addr: int, length: int) -> bytes:
        store, off = self._locate(addr, length)
        return store.data[off : off + length]

    def write_fill(self, addr: int, length: int, fill: int) -> None:
        store, off = self.heap_pages, addr - self.heap_base
        if length < 0 or off < 0 or off + length > self.heap_size:
            store, off = self._locate(addr, length)  # the globals, or a fault before the fill is built
        if self.write_observer is not None:
            self.write_observer(addr, length)
        end = off + length
        if end > store.length:  # only the heap's: the globals' length covers their whole range
            self.ensure_heap(end)
        store.touch(off, length)
        store.data[off:end] = _FILLS[fill] * length

    def write_word(self, addr: int, value: int) -> None:
        store, off = self.heap_pages, addr - self.heap_base
        if off < 0 or off > self.heap_size - WORD:
            store, off = self.globals_pages, addr - self.globals_base
            if off < 0 or off > self.globals_size - WORD:
                raise SegfaultModel(addr, WORD)
        if self.write_observer is not None:
            self.write_observer(addr, WORD)
        end = off + WORD
        if end > store.length:
            self.ensure_heap(end)
        store.touch(off, WORD)
        store.data[off:end] = (value & U64_MASK).to_bytes(8, "little")

    def write_register(self, ordinal: int, value: int) -> None:
        """Set register ordinal, the ordinal-th word past the globals, and
        raise the globals store's length over it. No observer sees it."""
        store, off = self.globals_pages, self.globals_size + WORD * ordinal
        store.touch(off, WORD)
        if off + WORD > store.length:
            store.length = off + WORD
        store.data[off : off + WORD] = (value & U64_MASK).to_bytes(8, "little")

    def write_bytes(self, addr: int, data: bytes) -> None:
        """An internal write of data at addr. Nothing in the package calls
        it; perfbench/layers.py wraps it by name."""
        store, off = self._locate(addr, len(data))
        end = off + len(data)
        if end > store.length:
            self.ensure_heap(end)
        store.touch(off, len(data))
        store.data[off:end] = data

    def snapshot(self) -> tuple[dict[int, bytes], ...]:
        """Start new undo logs for the heap, the globals, the shadow and
        the slot store, and return them in that order."""
        self.snapshots += 1
        logs = tuple(store.snapshot() for store in self.stores)
        self.slots.touch(0, WORD)  # the slot store's header page, which most epochs write
        return logs

    def restore(self, snap: tuple[dict[int, bytes], ...]) -> None:
        """Return the heap, the globals, the shadow and the slot store to
        the latest snapshot."""
        for store, log in zip(self.stores, snap, strict=True):
            store.restore(log)



@dataclass(slots=True)
class ObjectView:
    """Resolved slot: payload bounds, and the requested size, state
    (allocated: state == LIVE) and last free event of its record, at
    word `record`."""

    slot: int
    payload: int
    capacity: int
    requested: int
    allocated: bool
    state: int
    free_event: int
    record: int


class _Chunk(NamedTuple):
    base: int
    class_shift: int
    stride: int
    carved: int


class SlotTable:
    """Every carved slot under a flat id, as numpy arrays.

    Flat ids number the slots chunk by chunk in chunk-acquisition order,
    and by address within a chunk: the order of carved_slots. slot_ids()
    resolves many addresses at once with the arithmetic of
    object_bounds. The slots' states are a copy; build a new table after
    any allocation, free or restore.
    """

    def __init__(self, config: EngineConfig, image: MemoryImage, chunks: list[_Chunk]):
        # the heap and the slot store are fixed mappings that never
        # resize, so views of them stay valid and cost nothing for pages
        # never touched
        self.heap_words = np.frombuffer(image.heap, dtype="<u8")
        self.slot_words = np.frombuffer(image.slots.data, dtype=np.uint64)
        self.heap_base = config.heap_base
        self.heap_end = config.heap_base + config.heap_size
        self.chunk_size = config.chunk_size
        # per chunk: heap offset of its first slot, stride, carved count,
        # the flat id of its first slot and the word of its first record
        self.base = np.arange(len(chunks), dtype=np.int64) * config.chunk_size
        self.stride = np.array([c.stride for c in chunks], dtype=np.int64)
        self.carved = np.array([c.carved for c in chunks], dtype=np.int64)
        self.first = np.concatenate(([0], np.cumsum(self.carved)))
        self.record = _RECORDS + RECORD_WORDS + image.slot_region * np.arange(len(chunks), dtype=np.int64)
        states = [
            self.slot_words[r + STATE : r + RECORD_WORDS * c.carved : RECORD_WORDS]
            for r, c in zip(self.record.tolist(), chunks)
        ]
        self.state = np.concatenate(states).astype(np.uint8) if states else np.zeros(0, dtype=np.uint8)
        self.allocated = self.state == LIVE
        self.held = self.state == QUARANTINED

    def __len__(self) -> int:
        return len(self.state)

    def _in_heap(self, values: np.ndarray) -> np.ndarray:
        return values[(values >= self.heap_base) & (values < self.heap_end)]

    def slot_ids(self, values: np.ndarray, payload: bool = False) -> np.ndarray:
        """The flat id of the carved slot holding each uint64 value of
        the heap region, or -1 where no carved slot does.

        A value anywhere in a slot, guard region included, resolves to
        it; with payload, a value in a guard region gives -1 too.
        """
        off = (values - self.heap_base).astype(np.int64)
        ids = np.full(len(off), -1, dtype=np.int64)
        chunk = off // self.chunk_size
        at = np.flatnonzero(chunk < len(self.base))
        chunk = chunk[at]
        off = off[at] - self.base[chunk]
        index = off // self.stride[chunk]
        inside = index < self.carved[chunk]
        if payload:
            inside &= off - index * self.stride[chunk] >= GUARD_BYTES
        ids[at[inside]] = self.first[chunk[inside]] + index[inside]
        return ids

    def _locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(chunk, index within the chunk) of each flat id."""
        chunk = np.searchsorted(self.first, ids, side="right") - 1
        return chunk, ids - self.first[chunk]

    def payloads(self, ids: np.ndarray) -> list[int]:
        chunk, index = self._locate(ids)
        offsets = self.base[chunk] + index * self.stride[chunk] + GUARD_BYTES
        return [self.heap_base + off for off in offsets.tolist()]

    def requested(self, ids: np.ndarray) -> list[int]:
        chunk, index = self._locate(ids)
        return self.slot_words[self.record[chunk] + RECORD_WORDS * index + REQUESTED].tolist()

    def payload_pointers(self, ids: np.ndarray) -> np.ndarray:
        """The payload words of the given slots that point into the heap
        region, as uint64.

        Words are gathered and filtered one chunk at a time, so only one
        chunk's share of the payloads is ever copied at once.
        """
        chunk, index = self._locate(ids)
        skip = GUARD_BYTES // WORD
        parts = []
        for c in np.unique(chunk).tolist():
            width = int(self.stride[c]) // WORD
            first = int(self.base[c]) // WORD
            rows = self.heap_words[first : first + int(self.carved[c]) * width].reshape(-1, width)
            parts.append(self._in_heap(rows[index[chunk == c], skip:].ravel()))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)


class _ClassState:
    """A size class's constants; its BUMP, LIMIT and FREE words start at `word`."""

    __slots__ = ("shift", "capacity", "stride", "slots", "word")

    def __init__(self, shift: int, chunk_size: int):
        self.shift = shift
        self.capacity = 1 << shift
        self.stride = GUARD_BYTES + self.capacity
        self.slots = chunk_size // self.stride  # per chunk
        self.word = _CLASS_WORDS + 3 * shift


class Allocator:
    """Power-of-two size classes over chunked regions of the heap, with
    all slot metadata in the image's slot store. A record is named by its
    first word; links hold record words, 0 for none."""

    def __init__(self, config: EngineConfig, image: MemoryImage):
        self.config = config
        self.image = image
        self._words = memoryview(image.slots.data).cast("Q")
        self._slots = image.slots
        self._region = image.slot_region
        self._classes: list[_ClassState | None] = [None] * 64  # by shift, once allocated
        self._heap_base, self._heap_size = config.heap_base, config.heap_size
        self._chunk_size = config.chunk_size
        self.last_capacity = 0  # the class capacity of the slot allocate() last returned

    # -- slot records -----------------------------------------------------

    def read_header(self, record: int) -> tuple[int, int]:
        """(requested size, state) of a carved slot, from its record.
        Nothing in the package calls it; perfbench/layers.py wraps it by
        name."""
        return self._words[record + REQUESTED], self._words[record + STATE]

    def _touch_record(self, record: int) -> None:
        if record >> _PAGE_WORDS_SHIFT not in self._slots.log:  # a logged page needs no touch()
            self._slots.touch(WORD * record, WORD * RECORD_WORDS)

    def set_allocated(self, payload: int, value: bool) -> None:
        """Mark a slot live, or freed but on no list (withheld) until a
        release_slot or the quarantine takes it."""
        record = self._slot_at(payload)[1]
        self._touch_record(record)
        self._words[record + STATE] = LIVE if value else WITHHELD

    # -- allocation -----------------------------------------------------

    def allocate(self, size: int) -> int:
        """Reuse the top slot of the class's free list, or carve the next
        one; returns the payload address. The record takes the requested
        size and the live state; the overflow detector plants canaries."""
        if size < 1:
            raise OversizeRequest(f"allocation size must be positive, got {size}")
        shift = (max(size, self.config.min_class) - 1).bit_length()  # of next_pow2
        if 1 << shift > self.config.max_class:
            raise OversizeRequest(f"{size} bytes exceeds the largest class ({self.config.max_class})")
        cls = self._classes[shift]
        if cls is None:
            cls = self._classes[shift] = _ClassState(shift, self._chunk_size)
        words, word, stride = self._words, cls.word, cls.stride
        record = words[word + FREE]
        if record:
            words[word + FREE] = words[record + LINK]
            chunk, at = divmod(record - _RECORDS, self._region)  # the record's slot, as in oldest()
            slot = self._heap_base + chunk * self._chunk_size + (at // RECORD_WORDS - 1) * stride
        else:
            slot = words[word + BUMP]
            if slot + stride > words[word + LIMIT]:
                slot = self._acquire_chunk(cls)
            words[word + BUMP] = slot + stride
            chunk, at = divmod(slot - self._heap_base, self._chunk_size)
            record = _RECORDS + chunk * self._region + RECORD_WORDS * (1 + at // stride)
        self._touch_record(record)
        words[record + REQUESTED] = size
        words[record + STATE] = LIVE
        self.last_capacity = cls.capacity
        return slot + GUARD_BYTES

    def _acquire_chunk(self, cls: _ClassState) -> int:
        """Give the class the next chunk and grow the slot store over its
        records; returns its base."""
        words = self._words
        chunk = words[CHUNKS]
        if chunk >= self._heap_size // self._chunk_size:
            raise OutOfVirtualHeap(f"heap region exhausted after {chunk} chunks")
        base = self._heap_base + chunk * self._chunk_size
        head = _RECORDS + chunk * self._region
        self._slots.length = WORD * (head + self._region)
        self._slots.touch(WORD * head, WORD)
        words[head] = cls.shift
        words[CHUNKS] = chunk + 1
        words[cls.word + LIMIT] = base + self._chunk_size
        self.image.ensure_heap(base + self._chunk_size - self._heap_base)
        return base

    def release_slot(self, payload: int) -> None:
        """Push a slot set_allocated(False) withheld on its free list (LIFO)."""
        try:
            slot, record, cls = self._slot_at(payload)
        except NotAHeapObject:
            raise NotQuarantined(f"0x{payload:x} was never carved from the heap")
        if slot + GUARD_BYTES != payload or self._words[record + STATE] != WITHHELD:
            raise NotQuarantined(f"0x{payload:x} is not the payload of a withheld slot")
        self._touch_record(record)
        self._push_free(record, cls)

    def _push_free(self, record: int, cls: _ClassState) -> None:
        """Put a record, already touched, on top of its class's free list."""
        words = self._words
        words[record + STATE] = FREE_LISTED
        words[record + LINK] = words[cls.word + FREE]
        words[cls.word + FREE] = record

    # -- the quarantine's FIFO ---------------------------------------------

    def enqueue(self, view: ObjectView, free_event: int) -> tuple[int, int]:
        """Append a freed slot, live or withheld, to the quarantine;
        returns its new (slot count, capacity sum)."""
        words, record = self._words, view.record
        self._touch_record(record)
        words[record + STATE] = QUARANTINED
        words[record + LINK] = 0
        words[record + FREE_EVENT] = free_event
        tail = words[Q_TAIL]
        if tail:
            self._touch_record(tail)
            words[tail + LINK] = record
        else:
            words[Q_HEAD] = record
        words[Q_TAIL] = record
        count = words[Q_COUNT] = words[Q_COUNT] + 1
        total = words[Q_BYTES] = words[Q_BYTES] + view.capacity
        return count, total

    def oldest(self) -> tuple[int, int, int]:
        """(record, payload, capacity) of the quarantine's oldest slot."""
        record = self._words[Q_HEAD]
        chunk, at = divmod(record - _RECORDS, self._region)
        cls = self._classes[self._words[record - at]]  # the chunk's head holds its class shift
        payload = self._heap_base + chunk * self._chunk_size + (at // RECORD_WORDS - 1) * cls.stride + GUARD_BYTES
        return record, payload, cls.capacity

    def dequeue(self, record: int, capacity: int, release: bool) -> None:
        """Take the oldest slot, at record, out of the quarantine: onto its
        class's free list with release, else withheld."""
        words = self._words
        self._touch_record(record)
        head = words[Q_HEAD] = words[record + LINK]
        if not head:
            words[Q_TAIL] = 0
        words[Q_COUNT] -= 1
        words[Q_BYTES] -= capacity
        if release:
            self._push_free(record, self._classes[capacity.bit_length() - 1])
        else:
            words[record + STATE] = WITHHELD

    # -- lookup ----------------------------------------------------------

    def _slot_at(self, addr: int) -> tuple[int, int, _ClassState]:
        """(slot address, record, class) of the carved slot holding addr."""
        off = addr - self._heap_base
        if not 0 <= off < self._heap_size:
            raise NotAHeapObject(f"0x{addr:x} outside the heap region")
        chunk, at = divmod(off, self._chunk_size)
        head = _RECORDS + chunk * self._region
        cls = self._classes[self._words[head]]  # None: not acquired
        if cls is None:
            raise NotAHeapObject(f"0x{addr:x} in an unassigned chunk")
        index = at // cls.stride
        record = head + RECORD_WORDS * (1 + index)
        if index >= cls.slots or not self._words[record + STATE]:
            raise NotAHeapObject(f"0x{addr:x} past the carve cursor")
        return addr - at + index * cls.stride, record, cls

    def object_bounds(self, addr: int) -> ObjectView:
        """Resolve any address inside a carved slot (interior included)."""
        slot, record, cls = self._slot_at(addr)
        words = self._words
        state = words[record + STATE]
        # slot, payload, capacity, requested, allocated, state, free_event, record
        return ObjectView(slot, slot + GUARD_BYTES, cls.capacity, words[record + REQUESTED], state == LIVE, state,
                          words[record + FREE_EVENT], record)

    @property
    def chunks(self) -> list[_Chunk]:
        """The chunks acquired, in order. A chunk is full unless its
        class's limit ends it: then its class's bump ends its carved slots."""
        words, out, base = self._words, [], self._heap_base
        for head in range(_RECORDS, _RECORDS + self._region * words[CHUNKS], self._region):
            cls = self._classes[words[head]]
            end = base + self._chunk_size
            carved = (words[cls.word + BUMP] - base) // cls.stride if words[cls.word + LIMIT] == end else cls.slots
            out.append(_Chunk(base, cls.shift, cls.stride, carved))
            base = end
        return out

    def carved_slots(self):
        """Yield an ObjectView for every slot ever carved, in address order
        within each chunk and chunk-acquisition order overall."""
        for chunk in self.chunks:
            for slot in range(chunk.base, chunk.base + chunk.carved * chunk.stride, chunk.stride):
                yield self.object_bounds(slot)

    def slot_table(self) -> SlotTable:
        """The carved slots as arrays, for passes over many addresses."""
        return SlotTable(self.config, self.image, self.chunks)
