"""Seeded error-injection fuzzing of rollback and replay.

Each trace mixes clean heap traffic with injected errors (out-of-bounds
writes, writes after free, double frees, dropped roots) and external
calls of every category, so runs see several rollbacks, evidence
retirements and boundaries. Whatever the detectors report, replay must
reproduce the recorded execution, and no trace may raise at all: not
ReplayDivergence, and not NotQuarantined, which an overflow into a
neighbour's header could once provoke. Every report on a heap object
must name the allocation site oracles.alloc_site reads from the trace,
and no epoch may roll back twice, even when every epoch is forced to.
"""

from __future__ import annotations

import random

import pytest

import tripwire as tw

from conftest import small_config
from oracles import alloc_site, stacks_at_events

SIZES = (1, 8, 20, 24, 32, 40, 100, 200, 256, 1000)
CALLS = (
    "call getpid",  # repeatable
    "call time",  # recordable
    "call open",
    "call mmap",
    "call write 1 16",  # revocable
    "call close 3",  # deferrable
    "call fork",  # irrevocable: ends the epoch
    "call lseek 1 0",
)


OPS = ("malloc", "free", "write", "overflow", "uaf", "double_free", "drop", "call")
WEIGHTS = (5, 3, 4, 3, 2, 1, 1, 2)


def error_trace(rng: random.Random, ops: int = 30, stores: bool = False, frames: bool = False) -> str:
    """A fuzzed trace of ops operations; with stores, some operations
    store pointers, offsets into objects and zeros into heap objects,
    live or freed, so the leak mark sees heap-held pointers. With
    frames, operations run in nested frames `f<k>`, pushed and popped
    between them, and a malloc may rebind the name of a freed object."""
    kinds, weights = (OPS + ("store",), WEIGHTS + (4,)) if stores else (OPS, WEIGHTS)
    lines = ["stack push main"]
    live: list[tuple[str, int]] = []
    freed: list[tuple[str, int]] = []
    rooted: dict[str, str] = {}  # var -> the global or register holding it
    count = depth = 0

    def pick(pool):
        return pool[rng.randrange(len(pool))]

    for _ in range(ops):
        if frames:
            step = rng.random()
            if step < 0.2:
                lines.append(f"stack push f{rng.randrange(4)}")
                depth += 1
            elif step < 0.35 and depth:
                lines.append("stack pop")
                depth -= 1
        op = rng.choices(kinds, weights)[0]
        if op == "malloc" or not live and op in ("free", "write", "overflow", "drop"):
            var, size = f"v{count}", rng.choice(SIZES)
            count += 1
            if frames and freed and rng.random() < 0.4:
                # rebind a freed name: its later uses mean the new object
                var = freed.pop(rng.randrange(len(freed)))[0]
            lines.append(f"malloc {var} {size}")
            root = rng.choice((f"global {count % 16}", f"reg r{count % 4}", None))
            if root is not None:
                lines.append(f"{root} = {var}")
                rooted[var] = root
            live.append((var, size))
        elif op == "free":
            var, size = live.pop(rng.randrange(len(live)))
            lines.append(f"free {var}")
            freed.append((var, size))
        elif op == "write":
            var, size = pick(live)
            off = rng.randrange(size)
            lines.append(f"write {var} {off} {rng.randint(1, size - off)} {rng.randrange(256):02x}")
        elif op == "overflow":
            var, size = pick(live)
            off = size + rng.randrange(0, 48)
            lines.append(f"write {var} {off} {rng.randint(1, 8)} {rng.randrange(256):02x}")
            if rng.random() < 0.5:
                live.remove((var, size))
                lines.append(f"free {var}")
                freed.append((var, size))
        elif op == "uaf" and freed:
            var, size = pick(freed)
            off = rng.randrange(min(size, 160))
            lines.append(f"write {var} {off} {rng.randint(1, 8)} {rng.randrange(256):02x}")
        elif op == "double_free" and freed:
            lines.append(f"free {pick(freed)[0]}")
        elif op == "drop":
            var, _ = pick(live)
            if var in rooted:
                lines.append(f"{rooted.pop(var)} = 0")
        elif op == "call":
            lines.append(rng.choice(CALLS))
        elif op == "store" and live:
            # mostly into a live object, sometimes into a freed one or past the request
            var, size = pick(freed) if freed and rng.random() < 0.15 else pick(live)
            off = rng.randrange(size + 16)
            target, target_size = pick(live + freed)
            value = rng.choice((target, f"{target}+{rng.randrange(target_size)}", "0"))
            lines.append(f"store {var} {off} = {value}")
    lines += ["stack pop"] * (depth + 1) + ["end"]
    return "\n".join(lines) + "\n"


def run_checking_sites(text: str, config: tw.EngineConfig, force_rollback_epochs=()) -> tw.Engine:
    """Run text and return the engine that ran it. Check each
    heap-object report's allocation site against the oracle's, and that
    no offending event of a report other than a leak comes before that
    site. A report the oracle cannot anchor (an unattributed word) must
    still name a malloc of its object from before its epoch closed.

    An epoch closes at an irrevocable call, the end of the run or, when
    a free found evidence, that free. The run is wrapped to record where
    each epoch begins: the event before is the one that closed the last.
    """
    events = tw.parse_trace(text)
    engine = tw.Engine(events, config, force_rollback_epochs)
    starts, begin_epoch = [], engine._begin_epoch

    def begin_recording():
        starts.append(engine.cursor)
        begin_epoch()

    engine._begin_epoch = begin_recording
    out = engine.run()
    stacks = stacks_at_events(events)
    closers = [start - 1 for start in starts[1:]] + [out.events_executed]
    for r in out.reports:
        if r.object_addr is None:
            continue
        site = alloc_site(events, out.alloc_sequence, r, closers)
        if site is None:
            site = r.alloc_event
            assert site is not None and site < closers[r.epoch], r
            assert out.alloc_sequence[events[site].alloc] == r.object_addr, r
        assert (r.alloc_event, r.alloc_stack) == (site, stacks[site]), r
        if r.kind != "leak":
            assert all(eid > site for eid, _ in r.offending_events), r
    return engine


@pytest.mark.parametrize("block", range(10))
def test_generated_error_traces_never_diverge_on_replay(block):
    for seed in range(30 * block, 30 * block + 30):
        rng = random.Random(seed)
        config = small_config(
            quarantine_max_count=rng.choice((1, 2, 4, 8)),
            max_watchpoints=rng.choice((1, 2)),
        )
        run_checking_sites(error_trace(rng), config)


def test_generated_traces_with_pointer_stores_never_diverge_on_replay():
    for seed in range(300):
        rng = random.Random(seed)
        config = small_config(
            quarantine_max_count=rng.choice((1, 2, 4, 8)),
            max_watchpoints=rng.choice((1, 2)),
            dangling=seed % 2 == 1,
        )
        run_checking_sites(error_trace(rng, 40, stores=True), config)


def test_generated_traces_with_frames_and_rebinding_never_diverge_on_replay():
    for seed in range(300):
        rng = random.Random(seed)
        config = small_config(
            quarantine_max_count=rng.choice((1, 2, 4, 8)),
            max_watchpoints=rng.choice((1, 2)),
            dangling=seed % 2 == 1,
        )
        run_checking_sites(error_trace(rng, 40, frames=True), config)


def test_every_epoch_rolled_back_replays_once():
    for seed in range(300):
        rng = random.Random(seed)
        config = small_config(
            quarantine_max_count=rng.choice((1, 2, 4, 8)),
            max_watchpoints=rng.choice((1, 2)),
            dangling=seed % 2 == 1,
        )
        text = error_trace(rng, 40, stores=seed % 4 >= 2, frames=seed % 3 == 0)
        engine = run_checking_sites(text, config, force_rollback_epochs=range(text.count("\n")))
        replayed = [s.epoch for s in engine.replay_summaries]
        assert len(replayed) == len(set(replayed)), seed
