"""Per-layer tracing from outside the package, and the plain-execution baseline.

`Tracer.attach(engine)` replaces methods of one `tripwire.Engine`
instance and of its components with wrappers that count calls or record
spans (name, start, end, parent span). Nothing under `src/` changes: the
engine calls its components through instance attributes, so the
wrappers see every call. Spans stay in memory; `layer_metrics` turns
them into the `<module>.<metric>` figures after the run.

`plain_run` executes the same parsed events on a bare `Allocator` and
`MemoryImage`, with no snapshots, detectors, quarantine or call model,
as the base of `baseline.overhead_x`.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

MIB = 1024 * 1024

# spans whose time counts as epoch-boundary work, not event execution
_BOUNDARY = ("engine._boundary", "engine._begin_epoch", "engine.full_state_hash")
_REPLAY = "engine._rollback_and_replay"


def median_and_tail(values) -> tuple[float, float, float, int]:
    """Median, and the highest percentile with at least ten samples beyond it.

    Returns (median, tail value, tail percentile, sample count). Below
    20 samples that percentile would not lie above the median, so the
    tail is the maximum instead, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 100.0, 0
    if n < 20:
        return statistics.median(ordered), ordered[-1], 100.0, n
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n, n


class Tracer:
    """Call counts and spans for the engines attached to it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._replay_start = 0.0
        self.materialized = 0

    def _timed(self, name: str, fn, before=None):
        spans, open_, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def attach(self, engine) -> None:
        """Wrap the methods of one engine instance and its components."""
        counts = self.counts

        def timed(obj, attr, name, before=None):
            setattr(obj, attr, self._timed(name, getattr(obj, attr), before))

        def counted(obj, attr, name):
            setattr(obj, attr, self._counted(name, getattr(obj, attr)))

        for attr in ("run", "_boundary", "_begin_epoch", "full_state_hash"):
            timed(engine, attr, f"engine.{attr}")

        def replay_events(evidence, stop, orig_hash):
            counts["replay.events"] += stop - engine.snapshot.event_cursor

        timed(engine, "_rollback_and_replay", _REPLAY, replay_events)

        def armed_words(evidence):
            traps = engine._wps.traps
            counts["replay.armed"] += len(traps)
            counts["replay.trapped"] += sum(1 for hits in traps.values() if hits)

        timed(engine, "_emit_replay_reports", "engine._emit_replay_reports", armed_words)

        image = engine.image
        timed(image, "snapshot", "vheap.snapshot",
              lambda: counts.update({"vheap.snapshot_bytes": len(image.heap) + len(image.globals)}))

        def restore_started(snap):
            counts["vheap.restore_bytes"] += len(snap[0]) + len(snap[1])
            self._replay_start = time.perf_counter()

        timed(image, "restore", "vheap.restore", restore_started)
        for attr in ("write_fill", "write_bytes", "write_word"):
            counted(image, attr, "vheap.write_calls")

        allocator = engine.allocator
        timed(allocator, "allocate", "vheap.allocate")
        counted(allocator, "object_bounds", "vheap.object_bounds_calls")
        counted(allocator, "read_header", "vheap.header_reads")

        overflow = engine.overflow
        timed(overflow, "epoch_scan", "overflow.scan")
        timed(overflow, "check_on_free", "overflow.check_on_free")
        timed(overflow, "plant_on_alloc", "overflow.plant")

        if engine.quarantine is not None:
            quarantine = engine.quarantine
            timed(quarantine, "on_free", "quarantine.on_free")
            counted(quarantine, "verify_and_release", "quarantine.evictions")
            timed(quarantine, "split_scan_words", "quarantine.split")

        def slots_swept(*args):
            counts["leakscan.slots_swept"] += sum(c.carved for c in allocator.chunks)

        timed(engine.leaks, "mark", "leakscan.mark")
        timed(engine.leaks, "sweep", "leakscan.sweep", slots_swept)

        syscalls = engine.syscalls
        counted(syscalls, "handle", "epoch.ext_calls")
        finish_replay = syscalls.finish_replay

        def finish_replay_timed():
            try:
                return finish_replay()
            finally:
                counts["replay.s"] += time.perf_counter() - self._replay_start

        syscalls.finish_replay = finish_replay_timed

    def collect(self, engine) -> None:
        """Fold in the records the engine keeps itself, once it has run or raised."""
        c = self.counts
        c["engine.epochs"] += engine.epochs_begun
        c["overflow.scan_set_bits"] += sum(bits for bits, _ in engine.overflow.scan_records)
        c["replay.unwatched_words"] += sum(len(s.unwatched_words) for s in engine.replay_summaries)
        self.materialized = max(self.materialized, len(engine.image.heap))

    # -- aggregation -----------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def boundary_ms(self) -> list[float]:
        """Per-epoch boundary cost: each boundary span minus the replays inside it."""
        per_span: dict[int, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == "engine._boundary":
                per_span[index] = per_span.get(index, 0.0) + (end - start)
            elif name == _REPLAY and parent in per_span:
                per_span[parent] -= end - start
        return [1e3 * v for v in per_span.values()]

    def execute_s(self) -> float:
        """Self time of `run` outside boundary and replay spans."""
        runs = {i for i, span in enumerate(self.spans) if span[0] == "engine.run"}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in runs)
        for name, start, end, parent in self.spans:
            if parent in runs and (name in _BOUNDARY or name == _REPLAY):
                total -= end - start
        return total


def layer_metrics(tracer: Tracer, parse_s: float, emit_s: float, events: int,
                  reports: int) -> dict[str, float]:
    """Per-layer figures of one traced pass over a workload's programs."""
    c = tracer.counts
    boundary_p50, boundary_tail, _, _ = median_and_tail(tracer.boundary_ms())
    return {
        "trace.parse_s": parse_s,
        "trace.events": events,
        "vheap.materialized_mb": tracer.materialized / MIB,
        "vheap.snapshot_s": tracer.total("vheap.snapshot"),
        "vheap.snapshot_mb": c["vheap.snapshot_bytes"] / MIB,
        "vheap.restore_s": tracer.total("vheap.restore"),
        "vheap.restore_mb": c["vheap.restore_bytes"] / MIB,
        "vheap.object_bounds_calls": c["vheap.object_bounds_calls"],
        "vheap.header_reads": c["vheap.header_reads"],
        "vheap.write_calls": c["vheap.write_calls"],
        "vheap.allocate_s": tracer.total("vheap.allocate"),
        "engine.epochs": c["engine.epochs"],
        "engine.state_hash_calls": c["engine.full_state_hash"],
        "engine.state_hash_s": tracer.total("engine.full_state_hash"),
        "engine.boundary_ms_p50": boundary_p50,
        "engine.boundary_ms_tail": boundary_tail,
        "engine.execute_s": tracer.execute_s(),
        "epoch.ext_calls": c["epoch.ext_calls"],
        "overflow.scan_s": tracer.total("overflow.scan"),
        "overflow.scan_set_bits": c["overflow.scan_set_bits"],
        "overflow.check_on_free_s": tracer.total("overflow.check_on_free"),
        "overflow.plant_s": tracer.total("overflow.plant"),
        "quarantine.on_free_s": tracer.total("quarantine.on_free"),
        "quarantine.evictions": c["quarantine.evictions"],
        "quarantine.split_s": tracer.total("quarantine.split"),
        "leakscan.mark_s": tracer.total("leakscan.mark"),
        "leakscan.sweep_s": tracer.total("leakscan.sweep"),
        "leakscan.slots_swept": c["leakscan.slots_swept"],
        "replay.rollbacks": c[_REPLAY],
        "replay.events_replayed": c["replay.events"],
        "replay.s": c["replay.s"],
        "replay.trap_ratio": c["replay.trapped"] / c["replay.armed"] if c["replay.armed"] else 0.0,
        "replay.unwatched_words": c["replay.unwatched_words"],
        "reports.emit_s": emit_s,
        "reports.count": reports,
    }


def plain_run(tw, config, events) -> None:
    """Execute events on a bare allocator and image: no epochs, no detectors.

    A free of an object that is not allocated is skipped, as the model
    has no undefined behaviour to fall back on; calls are not modeled.
    """
    kinds, mask = tw.EventKind, tw.vheap.U64_MASK
    image = tw.vheap.MemoryImage(config)
    allocator = tw.vheap.Allocator(config, image)
    bindings: dict[str, int] = {}
    registers: dict[str, int] = {}
    stack: list[str] = []

    def resolve(value) -> int:
        if value.literal is not None:
            return value.literal & mask
        return (bindings[value.var] + value.delta) & mask

    for ev in events:
        kind = ev.kind
        if kind is kinds.WRITE:
            image.write_fill(bindings[ev.var] + ev.offset, ev.length, ev.fill)
        elif kind is kinds.READ:
            image.read(bindings[ev.var] + ev.offset, ev.length)
        elif kind is kinds.MALLOC:
            bindings[ev.var] = allocator.allocate(ev.size)
        elif kind is kinds.FREE:
            payload = bindings[ev.var]
            if allocator.object_bounds(payload).allocated:
                allocator.set_allocated(payload, False)
                allocator.release_slot(payload)
        elif kind is kinds.WRITE_ABS:
            image.write_fill(bindings[ev.var] + ev.delta, ev.length, ev.fill)
        elif kind is kinds.REG_SET:
            registers[ev.reg] = resolve(ev.value)
        elif kind is kinds.GLOBAL_SET:
            image.write_word(config.globals_base + 8 * ev.index, resolve(ev.value))
        elif kind is kinds.STACK_PUSH:
            stack.append(ev.frame)
        elif kind is kinds.STACK_POP:
            stack.pop()
        elif kind is kinds.END:
            break
