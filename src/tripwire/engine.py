"""The execution engine: epochs at full speed, evidence checks at
boundaries, rollback and instrumented replay when evidence turns up.

Execution is divided into epochs. Each epoch starts with a snapshot:
undo logs for the memory image's page stores (heap, globals with the
registers past them, canary shadow, and the slot store with all
allocator and quarantine state), which save each page on its first
write and restore byte-exact, plus the event cursor and the file
positions as values. Bindings, call stacks and allocation sites are
read from the trace (TraceEvent.alloc, trace.CallStacks,
trace.AllocSites). Events then run at full speed with no per-write
checking. An epoch ends at an irrevocable external call, a modeled
segfault, the end of the trace, or right after a free whose check or
quarantine eviction finds corrupted canaries; the detectors inspect
state there. Their evidence is a list of unattributed reports
(reports.ErrorReport). When some evidence names a corrupted word, the
engine restores the snapshot, arms watchpoints on those words,
re-executes the epoch's events once (a write traps when it covers a
byte the shadow masks as canary in a watched word), fills in the
reports and begins the next epoch. The paper ends epochs only at
irrevocable calls, but the end of a checked replay is as safe a point
to snapshot, since nothing before it can need undoing. Leaks and
reachable freed objects have no word to watch, so evidence of only
those is reported without a replay; the leak sweep skips the ends at
frees, where it could report an object the next events root again.

A replay is checked by comparing, not hashing. Before a rollback the
engine records the state the epoch ended in (Engine._end_state): each
page store's logical length and the bytes of every page in its undo
log (registers included), the cursor, the files and the call model's
counter. After the replay it records the same again, and any
difference is a ReplayDivergence. A restore keeps the undo logs' keys,
so a replay that writes a page the epoch did not write differs even
with the same bytes. A clean boundary records nothing. The one state hash is the final one, taken once per
run over the heap's length and page digests and the globals
(MemoryImage.hash_into).

Identical (trace, config) inputs produce identical outcomes: the
allocator hands out addresses as a pure function of history, external
call results come from a deterministic model, and replay re-verifies
both against the recorded execution.
"""

from __future__ import annotations

import enum
import hashlib
from array import array
from dataclasses import dataclass

from .config import EngineConfig
from .epoch import Category, EpochSnapshot, SyscallModel
from .errors import (
    NotAHeapObject,
    OutOfVirtualHeap,
    OversizeRequest,
    ReplayDivergence,
    SegfaultModel,
)
from .leakscan import LeakScanner
from .overflow import OverflowDetector, byte_mask
from .quarantine import QuarantineQueue
from .replay import WatchpointSet, build_reports
from .reports import KIND_DOUBLE_FREE, KIND_LEAK, KIND_OVERFLOW, KIND_SEGFAULT, ErrorReport, sort_reports
from .trace import AllocSites, CallStacks, EventKind, TraceEvent, ValueExpr, parse_trace
from .vheap import QUARANTINED, WORD, Allocator, MemoryImage, ObjectView, U64_MASK


class Mode(enum.Enum):
    NORMAL = "normal"
    REPLAY = "replay"


@dataclass(frozen=True)
class ReplaySummary:
    """One rollback+replay episode, kept for inspection and tests."""

    epoch: int
    replay_start: int
    replay_stop: int
    armed_words: tuple[int, ...]
    unwatched_words: tuple[int, ...]
    trap_count: int


@dataclass(frozen=True)
class RunOutcome:
    reports: tuple[ErrorReport, ...]
    final_state_hash: str
    epochs: int
    events_total: int
    events_executed: int
    alloc_sequence: array  # of "Q": payload addresses in allocation order
    extcall_results: tuple[tuple[int, str, int], ...]
    scan_records: tuple[tuple[int, int], ...]


class Engine:
    """Single-use executor for one parsed trace under one config."""

    def __init__(
        self,
        events: list[TraceEvent],
        config: EngineConfig | None = None,
        force_rollback_epochs=(),
    ):
        self.events = events
        self.config = config or EngineConfig()
        self.force_rollback_epochs = frozenset(force_rollback_epochs)

        self.image = MemoryImage(self.config, registers=len(events))  # a trace has no more registers than events
        self.allocator = Allocator(self.config, self.image)
        self.overflow = OverflowDetector(self.config, self.image)
        self._canaries = self.config.detector_enabled("overflow")  # guard and tail, planted and checked
        # the queue also runs fill-free when only dangling detection
        # needs its delayed reuse
        self.quarantine = (
            QuarantineQueue(
                self.config,
                self.allocator,
                self.overflow,
                fill_enabled=self.config.detector_enabled("uaf"),
            )
            if self.config.detector_enabled("uaf") or self.config.dangling
            else None
        )
        self.leaks = LeakScanner(self.image, self.allocator)
        self.syscalls = SyscallModel()

        self.cursor = 0
        self.stacks = CallStacks(events)

        self.mode = Mode.NORMAL
        self.reports: list[ErrorReport] = []
        self.reported_evidence: set[int] = set()  # leak/dangling payloads already reported
        self.alloc_sequence = array("Q")  # payload by malloc ordinal (TraceEvent.alloc)
        self.sites = AllocSites(events, self.alloc_sequence)
        self.replay_summaries: list[ReplaySummary] = []

        self.epochs_begun = 0
        self.epoch_index = -1
        self.snapshot: EpochSnapshot | None = None
        self._wps: WatchpointSet | None = None
        self._ran = False

    # -- state ------------------------------------------------------------

    def _end_state(self) -> tuple:
        """The state an epoch ended in, which its replay must reproduce:
        what the epoch wrote to memory and registers, the cursor, the
        files and the call model's counter, compared as values."""
        return self.image.epoch_writes(), self.cursor, self.syscalls.files.snapshot(), self.syscalls.counter

    def full_state_hash(self) -> str:
        """The final state hash: sha256 over the memory image. Taken once,
        by _finish; perfbench/layers.py wraps it by name."""
        h = hashlib.sha256()
        self.image.hash_into(h)
        return h.hexdigest()

    # -- epoch lifecycle ---------------------------------------------------

    def _restore_snapshot(self, snap: EpochSnapshot) -> None:
        self.image.restore(snap.image)
        self.cursor = snap.event_cursor
        self.syscalls.files.restore(snap.files)

    def _begin_epoch(self) -> None:
        self.epoch_index = self.epochs_begun
        self.epochs_begun += 1
        self.snapshot = EpochSnapshot(self.cursor, self.image.snapshot(), self.syscalls.files.snapshot())
        self.syscalls.begin_epoch()

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunOutcome:
        if self._ran:
            raise RuntimeError("Engine instances are single use; build a new one")
        self._ran = True
        self._begin_epoch()
        events = self.events
        total = len(events)
        end, irrevocable = EventKind.END, Category.IRREVOCABLE  # an enum member costs a lookup per read
        while True:
            if self.cursor >= total:
                self._boundary(None)
                break
            ev = events[self.cursor]
            if ev.kind is end:
                self._boundary(ev)
                break
            if ev.category is irrevocable:
                if self._boundary(ev):
                    break
                continue
            try:
                evidence = self._execute(ev)
            except SegfaultModel as fault:
                self._boundary(ev, fault=fault)
                break
            self.cursor += 1
            if evidence:
                self._boundary(ev, found=evidence)
        return self._finish()

    def _finish(self) -> RunOutcome:
        return RunOutcome(
            reports=tuple(sort_reports(self.reports)),
            final_state_hash=self.full_state_hash(),
            epochs=self.epochs_begun,
            events_total=len(self.events),
            events_executed=self.cursor,
            alloc_sequence=self.alloc_sequence,
            extcall_results=tuple((eid, *call) for eid, call in self.syscalls.log.items()),
            scan_records=tuple(self.overflow.scan_records),
        )

    # -- boundaries -----------------------------------------------------------

    def _boundary(self, trigger: TraceEvent | None, fault: SegfaultModel | None = None,
                  found: list[ErrorReport] | None = None) -> bool:
        """End the current epoch at trigger, or after it when it is a free
        that found evidence. Returns True when the run is over."""
        if fault is not None and trigger is not None:
            self.reports.append(
                ErrorReport(
                    kind=KIND_SEGFAULT,
                    epoch=self.epoch_index,
                    corrupted_addr=fault.addr,
                    offending_events=((trigger.id, self.stacks.at(trigger.id)),),
                )
            )
        evidence = self._collect_evidence()  # at a free too: the next scan reads only the next epoch's pages
        if found:
            words = {r.corrupted_addr for r in found}  # the scan finds them again
            evidence = found + [r for r in evidence if r.corrupted_addr not in words]
        elif self.config.detector_enabled("leak"):
            self.leaks.mark()
            evidence += self.leaks.sweep(self.config.dangling, self.reported_evidence)
        watched = any(r.corrupted_addr is not None for r in evidence)
        if watched or self.epoch_index in self.force_rollback_epochs:
            # the evidence passes write no recorded state, so this is the
            # state the epoch ended in
            self._rollback_and_replay(evidence, self.cursor, self._end_state())
        elif evidence:
            self._emit_reports(evidence, {})  # no word to watch: nothing to replay
        self.syscalls.commit()
        if fault is not None or trigger is None or trigger.kind is EventKind.END:
            return True
        if not found:
            self.syscalls.apply_irrevocable(trigger)
            self.cursor += 1
            if trigger.call_name == "exit":
                return True
        self._begin_epoch()
        return False

    def _collect_evidence(self) -> list[ErrorReport]:
        """The epoch scan's unattributed reports: overflows, then uses
        after free."""
        evidence = []
        if self.config.detector_enabled("overflow") or self.config.detector_enabled("uaf"):
            words = self.overflow.epoch_scan()
            if self.quarantine is not None and self.quarantine.fill_enabled:
                uaf, rest = self.quarantine.split_scan_words(words)
            else:
                uaf, rest = [], words
            for word in rest:
                try:
                    view = self.allocator.object_bounds(word)
                    evidence.append(self._overflow_report(word, view))
                except NotAHeapObject:
                    evidence.append(ErrorReport(KIND_OVERFLOW, corrupted_addr=word))
            evidence += uaf
        return evidence

    @staticmethod
    def _overflow_report(word: int, view: ObjectView) -> ErrorReport:
        return ErrorReport(KIND_OVERFLOW, corrupted_addr=word, object_addr=view.payload, object_size=view.requested)

    # -- rollback and replay -----------------------------------------------

    def _rollback_and_replay(self, evidence: list[ErrorReport], stop: int, ended: tuple) -> None:
        """Restore the epoch snapshot and re-execute events up to stop,
        then check that the replay ended in ended, the _end_state taken
        before the rollback.

        Its one caller, _boundary, passes the cursor the epoch ended at
        as stop (exclusive): an irrevocable call's index, never
        re-executed, or a free's index + 1, so the free replays too.
        """
        self._restore_snapshot(self.snapshot)
        words = [r.corrupted_addr for r in evidence if r.corrupted_addr is not None]
        wps, unwatched = WatchpointSet.arm(words, self.config.max_watchpoints)
        self._wps = wps
        self.syscalls.begin_replay()
        self.mode = Mode.REPLAY
        self.image.write_observer = self._observe_write
        try:
            while self.cursor < stop:
                self._execute(self.events[self.cursor])
                self.cursor += 1
        finally:
            self.image.write_observer = None
            self.mode = Mode.NORMAL
        self.syscalls.finish_replay()
        if self._end_state() != ended:
            raise ReplayDivergence("replayed state differs from the recorded execution")
        self._emit_replay_reports(evidence)
        self.replay_summaries.append(
            ReplaySummary(
                epoch=self.epoch_index,
                replay_start=self.snapshot.event_cursor,
                replay_stop=stop,
                armed_words=tuple(sorted(wps.traps)),
                unwatched_words=tuple(unwatched),
                trap_count=sum(len(t) for t in wps.traps.values()),
            )
        )
        self._wps = None

    def _emit_replay_reports(self, evidence: list[ErrorReport]) -> None:
        self._emit_reports(evidence, self._wps.traps)
        # retire what was just reported so later boundaries stay quiet
        self.overflow.retire_words([r.corrupted_addr for r in evidence if r.corrupted_addr is not None])

    def _emit_reports(self, evidence: list[ErrorReport], traps: dict[int, list[int]]) -> None:
        self.reports += build_reports(self.epoch_index, evidence, traps, self.stacks, self.sites)
        self.reported_evidence.update(r.object_addr for r in evidence if r.kind == KIND_LEAK)

    def _observe_write(self, addr: int, length: int) -> None:
        for word in self._wps.overlapping(addr, length):
            if self._write_hits_canary(word, addr, length):
                self._wps.traps[word].append(self.cursor)  # the event replaying now

    def _write_hits_canary(self, word: int, addr: int, length: int) -> bool:
        """True when the write touches bytes the detectors currently own:
        a mask bit of the watched word among the write's bytes.

        Hardware would trap on every access to the watched word; the
        handler has to discard writes that were legal at that point of
        the replayed epoch (the canary did not exist yet, e.g. a store
        to a still-live object that is freed and canaried only later,
        or a store to the requested bytes of an edge word).
        """
        lo, hi = max(addr - word, 0), min(addr + length - word, WORD)
        return bool(self.overflow.bitmap.mask(word) & byte_mask(lo, hi))

    # -- event dispatch ------------------------------------------------------

    def _resolve(self, value: ValueExpr) -> int:
        if value.literal is not None:
            return value.literal & U64_MASK
        return (self.alloc_sequence[value.alloc] + value.delta) & U64_MASK

    def _execute(self, ev: TraceEvent) -> list[ErrorReport] | None:
        """Run one event; a free returns the evidence it found."""
        return _DISPATCH[ev.op](self, ev)

    def _exec_stack(self, ev: TraceEvent) -> None:
        """A push or pop changes no state: self.stacks derives the stack."""

    def _exec_write(self, ev: TraceEvent) -> None:
        self.image.write_fill(self.alloc_sequence[ev.alloc] + ev.offset, ev.length, ev.fill)

    def _exec_write_abs(self, ev: TraceEvent) -> None:
        self.image.write_fill(self.alloc_sequence[ev.alloc] + ev.delta, ev.length, ev.fill)

    def _exec_read(self, ev: TraceEvent) -> None:
        self.image.read(self.alloc_sequence[ev.alloc] + ev.offset, ev.length)

    def _exec_reg_set(self, ev: TraceEvent) -> None:
        self.image.write_register(ev.ordinal, self._resolve(ev.value))

    def _exec_global_set(self, ev: TraceEvent) -> None:
        addr = self.config.globals_base + 8 * ev.index
        self.image.write_word(addr, self._resolve(ev.value))

    def _exec_store(self, ev: TraceEvent) -> None:
        self.image.write_word(self.alloc_sequence[ev.alloc] + ev.offset, self._resolve(ev.value))

    def _exec_ext_call(self, ev: TraceEvent) -> None:
        self.syscalls.handle(ev)

    def _exec_end(self, ev: TraceEvent) -> None:
        raise AssertionError("the end event is a boundary, never executed")

    def _exec_malloc(self, ev: TraceEvent) -> None:
        try:
            payload = self.allocator.allocate(ev.size)
        except (OversizeRequest, OutOfVirtualHeap) as exc:
            raise type(exc)(f"event {ev.id} (line {ev.line_no}): {exc}") from exc
        if self._canaries:
            self.overflow.plant_on_alloc(payload, ev.size, self.allocator.last_capacity)
        if self.mode is Mode.NORMAL:
            self.alloc_sequence.append(payload)
            self.reported_evidence.discard(payload)
        elif self.alloc_sequence[ev.alloc] != payload:
            raise ReplayDivergence(f"event {ev.id}: replayed allocation at 0x{payload:x} diverges")

    def _exec_free(self, ev: TraceEvent) -> list[ErrorReport] | None:
        payload = self.alloc_sequence[ev.alloc]
        view = self.allocator.object_bounds(payload)
        if not view.allocated:
            if self.mode is Mode.NORMAL:
                prior = view.free_event if view.state == QUARANTINED else None
                site = self.sites.at(payload)
                self.reports.append(
                    ErrorReport(
                        kind=KIND_DOUBLE_FREE,
                        epoch=self.epoch_index,
                        object_addr=payload,
                        object_size=view.requested,
                        offending_events=((ev.id, self.stacks.at(ev.id)),),
                        alloc_stack=self.stacks.at(site),
                        alloc_event=site,
                        prior_free_stack=None if prior is None else self.stacks.at(prior),
                        prior_free_event=prior,
                    )
                )
            return None
        evidence = []
        if self._canaries:
            words = self.overflow.check_on_free(payload, view.requested, view.capacity)
            if words:
                evidence = [self._overflow_report(word, view) for word in words]
        if self.quarantine is not None:
            evidence += self.quarantine.on_free(view, ev.id)
        else:
            self.allocator.set_allocated(payload, False)
            self.allocator.release_slot(payload)
        return evidence


# Engine._execute's table: the handler of each event kind, indexed by TraceEvent.op
_HANDLERS = {
    EventKind.STACK_PUSH: Engine._exec_stack,
    EventKind.STACK_POP: Engine._exec_stack,
    EventKind.MALLOC: Engine._exec_malloc,
    EventKind.FREE: Engine._exec_free,
    EventKind.WRITE: Engine._exec_write,
    EventKind.WRITE_ABS: Engine._exec_write_abs,
    EventKind.READ: Engine._exec_read,
    EventKind.REG_SET: Engine._exec_reg_set,
    EventKind.GLOBAL_SET: Engine._exec_global_set,
    EventKind.EXT_CALL: Engine._exec_ext_call,
    EventKind.END: Engine._exec_end,
    EventKind.STORE: Engine._exec_store,
}
_DISPATCH = tuple(_HANDLERS[kind] for kind in EventKind)


def run_events(
    events: list[TraceEvent],
    config: EngineConfig | None = None,
    force_rollback_epochs=(),
) -> RunOutcome:
    return Engine(events, config, force_rollback_epochs).run()


def run_text(
    text: str,
    config: EngineConfig | None = None,
    force_rollback_epochs=(),
) -> RunOutcome:
    return run_events(parse_trace(text), config, force_rollback_epochs)
