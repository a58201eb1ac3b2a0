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
region with canaries. As in DieHard, slot metadata (requested size,
allocated state) lives outside modeled memory, so no program write
changes what the allocator, quarantine or leak scanner believe about
a slot. Engine bookkeeping (chunk table, slot metadata, free lists,
cursors) lives in ordinary Python objects, never at modeled heap
addresses.

The heap image, the globals and the overflow detector's canary shadow,
one mask byte per heap word, are three page stores (PageStore): lazily
zeroed reservations with a logical length and a copy-on-write undo log
of 4 KiB pages. The image's shadow follows the heap's logical length
at an eighth of it; the globals' length is fixed. All three share the
image's snapshot and restore, so a snapshot, a restore or the check of
a replay costs what the epoch wrote, not what the heap, the globals or
the shadow hold. The heap's undo log keys are also the epoch scan's
dirty set: a canary can have changed only on a page the epoch wrote.
With their old bytes, the heap's and the globals' undo logs give the
leak mark the words an epoch changed.
"""

from __future__ import annotations

import hashlib
import mmap
from array import array
from dataclasses import dataclass, field

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
        # below the snapshot length, empty for a page wholly past it
        self._saved: dict[int, bytes] = {}
        self._snap_len = 0
        self._written: set[int] = set()  # every page ever written; the rest read zero

    def touch(self, off: int, length: int) -> None:
        """Record a write of [off, off + length) before it happens:
        save each page on its first write since the snapshot."""
        first, last = off >> PAGE_SHIFT, (off + length - 1) >> PAGE_SHIFT
        saved = self._saved
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

    def written_pages(self):
        """The pages written since the snapshot: the undo log's keys,
        restored pages included; every page ever touched if there was none."""
        return self._saved.keys()

    def written_bytes(self) -> dict[int, bytes]:
        """The current bytes of each page in the undo log, by page index."""
        data = self.data
        return {page: data[page << PAGE_SHIFT : (page + 1) << PAGE_SHIFT] for page in self._saved}

    def changed_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(word index, value at the snapshot, value now) of each
        eight-byte word of the written pages that differs from its value
        at the snapshot, read from the undo log; indexes count words from
        the store's start."""
        saved = self._saved
        per_page = PAGE // WORD
        pages = np.fromiter(saved, dtype=np.int64, count=len(saved))
        words = (pages[:, None] * per_page + np.arange(per_page)).ravel()
        # bytes past the snapshot length were zero at the snapshot
        old = np.frombuffer(b"".join(page.ljust(PAGE, b"\0") for page in saved.values()), dtype="<u8")
        now = np.frombuffer(self.data, dtype="<u8", count=len(self.data) // WORD)
        inside = words < len(now)
        words, old = words[inside], old[inside]
        new = now[words]
        changed = old != new
        return words[changed], old[changed], new[changed]

    def snapshot(self) -> dict[int, bytes]:
        """Start a new undo log and return it. The log fills as pages are
        touched and stays valid until the next snapshot."""
        self._saved = {}
        self._snap_len = self.length
        return self._saved

    def restore(self, saved: dict[int, bytes]) -> None:
        """Write the saved pages back and return to the snapshot length.

        The undo log stays active, so the same snapshot can be restored
        again later.
        """
        if saved is not self._saved:
            raise ValueError("only the latest snapshot can be restored")
        data, size = self.data, len(self.data)
        for page, old in saved.items():
            start = page << PAGE_SHIFT
            end = min(start + PAGE, size)
            data[start:end] = old.ljust(end - start, b"\0")
        self.length = self._snap_len


def _shadow_len(heap_len: int) -> int:  # one mask byte per heap word
    return heap_len // WORD


class MemoryImage:
    """The modeled program's writable memory: heap region plus globals.

    All access is bounds-checked against the two mapped ranges; anything
    else raises SegfaultModel. Trace-driven writes pass internal=False so
    an observer installed by the engine (the replay watchpoint check) can
    see them; detector writes are internal and invisible to it.
    Every write goes through write_fill, write_bytes or write_word, which
    keep the undo logs current. The heap's bytes
    live in heap_pages (`heap` is its mapping) and the globals' in
    globals_pages (`globals`); shadow holds the canary masks and is
    resized with the heap. All three are snapshotted and restored together.
    """

    def __init__(self, config: EngineConfig):
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
        self.globals_pages = PageStore(self.globals_size, "the globals", "--globals-words")
        self.globals_pages.length = self.globals_size
        self.globals = self.globals_pages.data
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
        """Per page store (heap, globals, shadow): its logical length and
        the current bytes of each page in its undo log.

        Two runs from one snapshot leave memory alike and wrote the same
        pages exactly when these are equal: pages outside the undo logs
        were written by neither, and a restore keeps the logs' keys.
        """
        return tuple(
            (store.length, store.written_bytes())
            for store in (self.heap_pages, self.globals_pages, self.shadow)
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

    def write_fill(self, addr: int, length: int, fill: int, internal: bool = True) -> None:
        store, off = self._locate(addr, length)  # a bad length faults before the fill is built
        self._write(store, off, addr, _FILLS[fill] * length, internal)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """An internal write of data at addr. Nothing in the package calls
        it; perfbench/layers.py wraps it by name."""
        store, off = self._locate(addr, len(data))
        self._write(store, off, addr, data, True)

    def write_word(self, addr: int, value: int, internal: bool = True) -> None:
        store, off = self._locate(addr, WORD)
        self._write(store, off, addr, (value & U64_MASK).to_bytes(8, "little"), internal)

    def _write(self, store: PageStore, off: int, addr: int, data: bytes, internal: bool) -> None:
        """Write data at offset off of store, which _locate found for addr."""
        end = off + len(data)
        if not internal and self.write_observer is not None:
            self.write_observer(addr, len(data))
        if end > store.length:  # only the heap's: the globals' length is their whole range
            self.ensure_heap(end)
        store.touch(off, len(data))
        store.data[off:end] = data

    def snapshot(self) -> tuple[dict[int, bytes], dict[int, bytes], dict[int, bytes]]:
        """Start new undo logs for the heap, the globals and the shadow,
        and return them in that order."""
        self.snapshots += 1
        return self.heap_pages.snapshot(), self.globals_pages.snapshot(), self.shadow.snapshot()

    def restore(self, snap: tuple[dict[int, bytes], dict[int, bytes], dict[int, bytes]]) -> None:
        """Return the heap, the globals and the shadow to the latest snapshot."""
        heap_log, globals_log, shadow_log = snap
        self.heap_pages.restore(heap_log)
        self.globals_pages.restore(globals_log)
        self.shadow.restore(shadow_log)


@dataclass(slots=True)
class ObjectView:
    """Resolved slot: payload bounds plus the allocator's slot metadata,
    and the chunk and index that hold the metadata."""

    slot: int
    payload: int
    capacity: int
    requested: int
    allocated: bool
    class_shift: int
    chunk: _Chunk = field(repr=False, compare=False)
    index: int


@dataclass
class _Chunk:
    """A chunk of one size class and the metadata of its carved slots."""

    base: int
    class_shift: int
    stride: int
    requested: array = field(default_factory=lambda: array("Q"))
    allocated: bytearray = field(default_factory=bytearray)

    @property
    def carved(self) -> int:
        return len(self.allocated)


class SlotTable:
    """Every carved slot under a flat id, as numpy arrays.

    Flat ids number the slots chunk by chunk in chunk-acquisition order,
    and by address within a chunk: the order of carved_slots. slot_ids()
    resolves many addresses at once with the arithmetic of
    object_bounds. A table describes the allocator as it was when built;
    build a new one after any allocation, free or restore.
    """

    def __init__(self, config: EngineConfig, chunks: list[_Chunk], heap: mmap.mmap):
        self.chunks = chunks
        # the heap is one fixed mapping that never resizes, so a view of
        # it stays valid and costs nothing for pages never touched
        self.heap_words = np.frombuffer(heap, dtype="<u8")
        self.heap_base = config.heap_base
        self.heap_end = config.heap_base + config.heap_size
        self.chunk_size = config.chunk_size
        # per chunk: heap offset of its first slot, stride, carved count
        # and the flat id of its first slot
        self.base = np.array([c.base - config.heap_base for c in chunks], dtype=np.int64)
        self.stride = np.array([c.stride for c in chunks], dtype=np.int64)
        self.carved = np.array([c.carved for c in chunks], dtype=np.int64)
        self.first = np.concatenate(([0], np.cumsum(self.carved)))
        # a copy, so no chunk's bytearray stays exported
        self.allocated = np.frombuffer(b"".join(c.allocated for c in chunks), dtype=np.bool_)

    def __len__(self) -> int:
        return len(self.allocated)

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
        chunks = self.chunks
        return [chunks[c].requested[i] for c, i in zip(chunk.tolist(), index.tolist())]

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
    __slots__ = ("shift", "capacity", "stride", "bump", "limit", "free_list")

    def __init__(self, shift: int):
        self.shift = shift
        self.capacity = 1 << shift
        self.stride = GUARD_BYTES + self.capacity
        self.bump = 0  # next fresh slot address; 0 = no chunk yet
        self.limit = 0
        self.free_list: list[int] = []  # payload addrs, LIFO


class Allocator:
    """Power-of-two size classes over chunked regions of the heap."""

    def __init__(self, config: EngineConfig, image: MemoryImage):
        self.config = config
        self.image = image
        self.chunks: list[_Chunk] = []
        self.classes: dict[int, _ClassState] = {}
        self._free_set: set[int] = set()
        self._max_chunks = config.heap_size // config.chunk_size
        self._heap_base, self._heap_end = config.heap_base, config.heap_base + config.heap_size
        self._chunk_size = config.chunk_size

    # -- slot metadata ---------------------------------------------------

    def read_header(self, chunk: _Chunk, index: int) -> tuple[int, bool]:
        """(requested size, allocated) of a carved slot, from the
        allocator's own metadata. perfbench/layers.py wraps it by name to
        count slot lookups."""
        return chunk.requested[index], bool(chunk.allocated[index])

    def set_allocated(self, payload: int, value: bool) -> None:
        chunk, index = self._slot_at(payload)
        chunk.allocated[index] = value

    # -- allocation -----------------------------------------------------

    def class_for(self, size: int) -> _ClassState:
        if size < 1:
            raise OversizeRequest(f"allocation size must be positive, got {size}")
        shift = (max(size, self.config.min_class) - 1).bit_length()  # of next_pow2
        if 1 << shift > self.config.max_class:
            raise OversizeRequest(f"{size} bytes exceeds the largest class ({self.config.max_class})")
        state = self.classes.get(shift)
        if state is None:
            state = self.classes[shift] = _ClassState(shift)
        return state

    def allocate(self, size: int) -> int:
        """Carve or reuse a slot; returns the payload address.

        The slot's metadata records the requested size and the
        allocated state. Canary planting is the overflow detector's job
        and happens separately.
        """
        state = self.class_for(size)
        if state.free_list:
            payload = state.free_list.pop()
            self._free_set.discard(payload)
            # release_slot checked that payload starts a carved slot
            chunk = self.chunks[(payload - self._heap_base) // self._chunk_size]
            index = (payload - chunk.base) // chunk.stride
            chunk.requested[index] = size
            chunk.allocated[index] = True
        else:
            if state.bump + state.stride > state.limit:
                self._acquire_chunk(state)
            slot = state.bump
            state.bump += state.stride
            chunk = self.chunks[(slot - self.config.heap_base) // self.config.chunk_size]
            chunk.requested.append(size)
            chunk.allocated.append(True)
            payload = slot + GUARD_BYTES
        return payload

    def _acquire_chunk(self, state: _ClassState) -> None:
        if len(self.chunks) >= self._max_chunks:
            raise OutOfVirtualHeap(
                f"heap region exhausted after {len(self.chunks)} chunks"
            )
        base = self.config.heap_base + len(self.chunks) * self.config.chunk_size
        self.chunks.append(_Chunk(base, state.shift, state.stride))
        state.bump = base
        state.limit = base + self.config.chunk_size
        self.image.ensure_heap(state.limit - self.config.heap_base)

    def release_slot(self, payload: int) -> None:
        """Return a quarantine-evicted slot to its class free list (LIFO)."""
        try:
            chunk, index = self._slot_at(payload)
        except NotAHeapObject:
            raise NotQuarantined(f"0x{payload:x} was never carved from the heap")
        if chunk.base + index * chunk.stride + GUARD_BYTES != payload:
            raise NotQuarantined(f"0x{payload:x} is not a payload start")
        if chunk.allocated[index]:
            raise NotQuarantined(f"0x{payload:x} is still allocated")
        if payload in self._free_set:
            raise NotQuarantined(f"0x{payload:x} is already on a free list")
        self.classes[chunk.class_shift].free_list.append(payload)
        self._free_set.add(payload)

    def is_free_listed(self, payload: int) -> bool:
        return payload in self._free_set

    # -- lookup ----------------------------------------------------------

    def _slot_at(self, addr: int) -> tuple[_Chunk, int]:
        """The chunk and slot index of the carved slot holding addr."""
        if not self._heap_base <= addr < self._heap_end:
            raise NotAHeapObject(f"0x{addr:x} outside the heap region")
        chunk_idx = (addr - self._heap_base) // self._chunk_size
        if chunk_idx >= len(self.chunks):
            raise NotAHeapObject(f"0x{addr:x} in an unassigned chunk")
        chunk = self.chunks[chunk_idx]
        index = (addr - chunk.base) // chunk.stride
        if index >= chunk.carved:
            raise NotAHeapObject(f"0x{addr:x} past the carve cursor")
        return chunk, index

    def _view(self, chunk: _Chunk, index: int) -> ObjectView:
        slot = chunk.base + index * chunk.stride
        requested, allocated = self.read_header(chunk, index)
        # slot, payload, capacity, requested, allocated, class_shift, chunk, index
        return ObjectView(
            slot, slot + GUARD_BYTES, chunk.stride - GUARD_BYTES, requested, allocated, chunk.class_shift, chunk, index
        )

    def object_bounds(self, addr: int) -> ObjectView:
        """Resolve any address inside a carved slot (interior included)."""
        return self._view(*self._slot_at(addr))

    def carved_slots(self):
        """Yield an ObjectView for every slot ever carved, in address order
        within each chunk and chunk-acquisition order overall."""
        for chunk in self.chunks:
            for i in range(chunk.carved):
                yield self._view(chunk, i)

    def slot_table(self) -> SlotTable:
        """The carved slots as arrays, for passes over many addresses."""
        return SlotTable(self.config, self.chunks, self.image.heap)

    # -- snapshot ---------------------------------------------------------

    def snapshot(self):
        return (
            [(c.base, c.class_shift, c.stride, c.requested.tobytes(), bytes(c.allocated))
             for c in self.chunks],
            {s: (st.bump, st.limit, tuple(st.free_list)) for s, st in self.classes.items()},
        )

    def restore(self, snap) -> None:
        chunk_rows, class_rows = snap
        self.chunks = [_Chunk(b, s, t, array("Q", r), bytearray(a)) for (b, s, t, r, a) in chunk_rows]
        self.classes = {}
        self._free_set = set()
        for shift, (bump, limit, free_list) in class_rows.items():
            state = _ClassState(shift)
            state.bump = bump
            state.limit = limit
            state.free_list = list(free_list)
            self.classes[shift] = state
            self._free_set.update(free_list)
