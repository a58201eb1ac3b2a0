"""The final state hash recomputed from raw memory, and heap size as a limit.

final_state_hash is sha256 over the logical heap length, the page
digests and the globals. The engine hashes only the pages ever written
and takes every other page as zeros. These tests recompute it from the
raw bytes, so a page wrongly taken as zeros fails here even where the
golden digests, regenerated from the same engine, would pin it. The
canary shadow store's page digests are checked the same way against
the raw mask bytes, one per heap word.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import tripwire as tw
from tripwire.engine import Engine
from tripwire.trace import parse_trace
from tripwire.vheap import PAGE

from conftest import small_config
from corpus import ALL_CASES
from test_replay_fuzz import error_trace


def from_scratch_hash(image) -> str:
    heap = image.heap[: image.heap_prefix]
    h = hashlib.sha256(image.heap_prefix.to_bytes(8, "little"))
    for start in range(0, len(heap), PAGE):
        h.update(hashlib.sha256(heap[start : start + PAGE]).digest())
    h.update(image.globals)
    return h.hexdigest()


def assert_shadow_digest_matches_bits(engine) -> None:
    masks = bytes(engine.overflow.bitmap.bits)
    assert len(masks) == engine.image.heap_prefix // 8  # one mask byte per heap word
    expected = b"".join(hashlib.sha256(masks[i : i + PAGE]).digest() for i in range(0, len(masks), PAGE))
    assert engine.image.shadow.digest() == expected


def fuzz_case(
    seed: int, ops: int = 30, stores: bool = False, frames: bool = False, **overrides
) -> tuple[str, tw.EngineConfig]:
    """The trace and config of test_replay_fuzz for one seed."""
    rng = random.Random(seed)
    config = small_config(
        quarantine_max_count=rng.choice((1, 2, 4, 8)),
        max_watchpoints=rng.choice((1, 2)),
        **overrides,
    )
    return error_trace(rng, ops, stores, frames), config


def record_end_states(engine) -> list:
    """Keep, in a list returned now, the end state each of the engine's
    rollbacks checks its replay against."""
    ended = []
    rollback = engine._rollback_and_replay

    def recorded(evidence, stop, end_state):
        ended.append(end_state)
        return rollback(evidence, stop, end_state)

    engine._rollback_and_replay = recorded
    return ended


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_corpus_final_hash_matches_raw_memory(case):
    engine = Engine(parse_trace(case.text), tw.EngineConfig())
    outcome = engine.run()
    assert outcome.final_state_hash == from_scratch_hash(engine.image)
    assert_shadow_digest_matches_bits(engine)


@pytest.mark.parametrize("block", range(4))
def test_fuzzed_final_hash_matches_raw_memory(block):
    for seed in range(50 * block, 50 * block + 50):
        text, config = fuzz_case(seed)
        engine = Engine(parse_trace(text), config)
        outcome = engine.run()
        assert outcome.final_state_hash == from_scratch_hash(engine.image), seed
        assert_shadow_digest_matches_bits(engine)


def test_heap_size_is_only_a_limit():
    heap_size = small_config().heap_size
    reported = 0
    for seed in range(10):
        engines, ended = [], []
        for size in (heap_size, 16 * heap_size):
            text, config = fuzz_case(seed, heap_size=size)
            events = parse_trace(text)
            # an epoch ends at an event, so this rolls every epoch back
            # and compares the state each replay was checked against
            engine = Engine(events, config, force_rollback_epochs=range(len(events) + 1))
            ended.append(record_end_states(engine))
            engines.append(engine)
        small, large = (engine.run() for engine in engines)
        assert small.reports == large.reports
        assert small.final_state_hash == large.final_state_hash
        assert engines[0].replay_summaries == engines[1].replay_summaries
        assert ended[0] == ended[1] and ended[0]
        reported += bool(small.reports)
    assert reported >= 5
