from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripwire as tw
from tripwire.engine import Engine
from tripwire.trace import parse_trace
from tripwire.vheap import FREE_LISTED, LIVE, QUARANTINED, WITHHELD, next_pow2

from conftest import small_config
from oracles import quarantine_fifo

CANARY = 0xCA


def harness(**overrides):
    return Engine([], small_config(**overrides))


def alloc(eng, size):
    payload = eng.allocator.allocate(size)
    eng.overflow.plant_on_alloc(payload, size, next_pow2(max(size, eng.config.min_class)))
    return payload


def free(eng, payload, event=0):
    return eng.quarantine.on_free(eng.allocator.object_bounds(payload), event)


def free_listed(eng, payload) -> bool:
    return eng.allocator.object_bounds(payload).state == FREE_LISTED


def test_small_object_fully_canaried():
    eng = harness()
    a = alloc(eng, 64)
    free(eng, a)
    assert eng.image.read(a, 64) == bytes([CANARY]) * 64


def test_large_object_only_first_128_bytes_canaried():
    eng = harness()
    a = alloc(eng, 256)
    eng.image.write_fill(a, 256, 0x11)
    free(eng, a)
    assert eng.image.read(a, 128) == bytes([CANARY]) * 128
    assert eng.image.read(a + 128, 128) == bytes([0x11]) * 128


def test_count_threshold_evicts_first_freed():
    eng = harness(quarantine_max_count=8)
    payloads = [alloc(eng, 16) for _ in range(9)]
    for p in payloads[:8]:
        assert free(eng, p) == []
        assert quarantine_fifo(eng)[1] <= 8
    free(eng, payloads[8])
    assert quarantine_fifo(eng)[1] == 8
    assert eng.quarantine.entry_for(payloads[0]) is None  # oldest left
    assert free_listed(eng, payloads[0])
    assert eng.quarantine.entry_for(payloads[1]) is not None


def test_capacity_threshold_drains_until_under():
    eng = harness(quarantine_max_bytes=4096, quarantine_max_count=1024)
    payloads = [alloc(eng, 1024) for _ in range(5)]
    for p in payloads[:4]:
        free(eng, p)
    assert quarantine_fifo(eng)[2] == 4096
    free(eng, payloads[4])  # 5120 > 4096: evict oldest once
    assert quarantine_fifo(eng)[2] == 4096
    assert free_listed(eng, payloads[0])


def test_evicted_clean_slot_is_reusable_at_same_address():
    eng = harness(quarantine_max_count=1)
    a = alloc(eng, 32)
    free(eng, a)
    b = alloc(eng, 30)
    free(eng, b)  # evicts a
    assert alloc(eng, 30) == a


def test_corrupted_eviction_returns_evidence_and_withholds_slot():
    eng = harness(quarantine_max_count=1)
    a = alloc(eng, 64)
    free(eng, a, event=3)
    eng.image.write_fill(a, 4, 0x00)  # dangling write
    b = alloc(eng, 64)
    reports = free(eng, b)  # evicts a, finds the corruption
    assert [(r.kind, r.corrupted_addr, r.object_addr) for r in reports] == [("use-after-free", a, a)]
    assert reports[0].free_event == 3
    assert not free_listed(eng, a)  # withheld from reuse
    assert alloc(eng, 64) != a


SCAN_THEN_EVICT = """
malloc a 64
free a
write a 0 1 11
call fork
malloc b 64
free b
malloc c 64
reg r0 = c
write a 8 1 22
end
"""


def test_slot_whose_word_a_scan_reported_is_withheld_at_eviction():
    # the scan at the fork reports the use after free and retires its word,
    # so the eviction at b's free finds the prefix clean; it withholds the
    # slot all the same, c lands elsewhere and the later dangling write is found
    out = tw.run_text(SCAN_THEN_EVICT, small_config(quarantine_max_count=1))
    a, _, c = out.alloc_sequence
    assert c != a
    assert [(r.kind, r.corrupted_addr, [eid for eid, _ in r.offending_events]) for r in out.reports] == [
        ("use-after-free", a, [2]),
        ("overflow", a + 8, [8]),
    ]


def test_write_beyond_fill_prefix_goes_undetected():
    # documented false negative: dangling write past the canaried prefix
    eng = harness(quarantine_max_count=1)
    a = alloc(eng, 256)
    free(eng, a)
    eng.image.write_fill(a + 200, 4, 0x00)
    b = alloc(eng, 256)
    assert free(eng, b) == []  # eviction of a saw nothing
    assert free_listed(eng, a)


def test_epoch_scan_attribution_uaf_vs_overflow():
    eng = harness()
    a = alloc(eng, 64)
    live = alloc(eng, 24)
    free(eng, a, event=5)
    eng.image.write_fill(a, 8, 0x00)  # dangling write
    eng.image.write_fill(live + 24, 8, 0x00)  # overflow
    words = eng.overflow.epoch_scan()
    uaf, rest = eng.quarantine.split_scan_words(words)
    assert [(r.kind, r.corrupted_addr, r.object_addr) for r in uaf] == [("use-after-free", a, a)]
    assert uaf[0].free_event == 5
    assert rest == [live + 24]


def test_empty_quarantine_attributes_nothing():
    eng = harness()
    uaf, rest = eng.quarantine.split_scan_words([eng.config.heap_base])
    assert uaf == [] and rest == [eng.config.heap_base]


def test_scan_words_outside_every_canaried_prefix_are_not_uaf():
    eng = harness()
    a = alloc(eng, 256)
    free(eng, a)  # quarantined, canaried prefix [a, a + 128)
    past_prefix = a + 128
    uncarved = a + 256 + 32  # guard word of the next slot, never carved
    uaf, rest = eng.quarantine.split_scan_words([a, past_prefix, uncarved])
    assert [r.corrupted_addr for r in uaf] == [a]
    assert rest == [past_prefix, uncarved]


def test_freed_address_never_returned_while_quarantined():
    eng = harness(quarantine_max_count=4)
    freed = []
    for i in range(30):
        p = alloc(eng, 48)
        freed.append(p)
        evicted = free(eng, p)
        assert evicted == []
        for held in quarantine_fifo(eng)[0]:
            fresh = alloc(eng, 48)
            assert fresh != held
    # delay guarantee held throughout; queue stayed bounded
    assert quarantine_fifo(eng)[1] <= 4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=30))
def test_fifo_eviction_order_matches_insertion_order(sizes):
    eng = harness(quarantine_max_count=3)
    evicted_order = []
    original = eng.quarantine.verify_and_release

    def spying_release(record, payload, capacity):
        evicted_order.append(payload)
        return original(record, payload, capacity)

    eng.quarantine.verify_and_release = spying_release
    freed_order = []
    for size in sizes:
        p = alloc(eng, size)
        freed_order.append(p)
        free(eng, p)
    assert evicted_order == freed_order[: len(evicted_order)]


def test_threshold_safety_after_every_free():
    eng = harness(quarantine_max_count=5, quarantine_max_bytes=2048)
    rng = random.Random(11)
    for _ in range(60):
        p = alloc(eng, rng.randint(1, 900))
        free(eng, p)
        assert quarantine_fifo(eng)[1] <= 5
        assert quarantine_fifo(eng)[2] <= 2048


def test_double_free_reported_with_both_stacks():
    text = """
    stack push main
    stack push first_drop
    malloc a 64
    free a
    stack pop
    stack push second_drop
    free a
    stack pop
    stack pop
    end
    """
    out = tw.run_text(text, small_config())
    (report,) = [r for r in out.reports if r.kind == "double-free"]
    assert report.offending_events == ((6, ("main", "second_drop")),)
    assert report.prior_free_stack == ("main", "first_drop")
    assert report.prior_free_event == 3


def test_double_free_does_not_roll_back():
    events = tw.parse_trace("malloc a 16\nfree a\nfree a\nend\n")
    eng = Engine(events, small_config())
    out = eng.run()
    assert [r.kind for r in out.reports] == ["double-free"]
    assert eng.replay_summaries == []


UAF_AT_PREFIX_EDGE = """
malloc a 100
reg r0 = a
free a
writeabs a+96 1 ff
call fork
end
"""


def test_fill_prefix_not_a_multiple_of_eight_tracks_its_last_bytes():
    # a 100-byte fill prefix ends inside the word at a+96, whose bytes
    # 96..99 are prefix canaries; a dangling write to one is found by the
    # epoch scan while the object is still quarantined
    engine = Engine(parse_trace(UAF_AT_PREFIX_EDGE), tw.EngineConfig(uaf_fill_prefix=100))
    out = engine.run()
    a = out.alloc_sequence[0]
    assert [(r.kind, r.corrupted_addr, r.object_addr) for r in out.reports] == [
        ("use-after-free", a + 96, a)
    ]
    assert [eid for eid, _ in out.reports[0].offending_events] == [3]
    assert out.reports[0].free_event == 2


def test_eviction_checks_the_fill_prefix_to_its_last_byte():
    eng = harness(quarantine_max_count=1, uaf_fill_prefix=100)
    a = alloc(eng, 128)
    free(eng, a)
    eng.image.write_fill(a + 100, 4, 0x00)  # past the prefix: no canaries
    b = alloc(eng, 128)
    assert free(eng, b) == []  # evicts a, clean
    assert free_listed(eng, a)
    eng.image.write_fill(b + 99, 1, 0x00)  # the prefix's last byte
    reports = free(eng, alloc(eng, 128))  # evicts b
    assert [(r.kind, r.corrupted_addr) for r in reports] == [("use-after-free", b + 96)]


# -- the allocator and the queue against a reference model --------------------

GUARD = 32
STATE_NAMES = {LIVE: "live", QUARANTINED: "quarantined", FREE_LISTED: "free", WITHHELD: "withheld"}


class SlotModel:
    """A pure-Python allocator and quarantine: per-class bump chunks and
    LIFO free lists, and a FIFO with count and byte thresholds whose
    evictions go to the free lists unless dangling writes left them
    corrupted, in which case they are reported and withheld, or a
    retirement cleared the masks of a word of their prefix, whole or at
    its edge, in which case they are withheld unreported."""

    def __init__(self, config):
        self.config = config
        self.chunks = 0
        self.bump: dict[int, tuple[int, int]] = {}  # class capacity -> (next slot, chunk end)
        self.free_lists: dict[int, list[int]] = {}
        self.queue: list[int] = []
        self.state: dict[int, str] = {}
        self.requested: dict[int, int] = {}
        # per quarantined payload: the prefix offsets of the bytes that hold
        # no canary, and the offsets of the words whose masks are cleared
        self.bad: dict[int, set[int]] = {}
        self.retired: dict[int, set[int]] = {}

    def capacity(self, payload: int) -> int:
        return next_pow2(max(self.requested[payload], self.config.min_class))

    def prefix(self, payload: int) -> int:
        return min(self.config.uaf_fill_prefix, self.capacity(payload))

    def malloc(self, size: int) -> int:
        cap = next_pow2(max(size, self.config.min_class))
        free = self.free_lists.setdefault(cap, [])
        if free:
            payload = free.pop()
        else:
            slot, end = self.bump.get(cap, (0, 0))
            if slot + GUARD + cap > end:
                slot = self.config.heap_base + self.chunks * self.config.chunk_size
                end = slot + self.config.chunk_size
                self.chunks += 1
            self.bump[cap] = (slot + GUARD + cap, end)
            payload = slot + GUARD
        self.state[payload], self.requested[payload] = "live", size
        return payload

    def free(self, payload: int) -> list[tuple[int, int]]:
        """Quarantine payload; returns the evictions' reports as (object,
        corrupted word)."""
        self.queue.append(payload)
        self.state[payload] = "quarantined"
        self.bad[payload], self.retired[payload] = set(), set()
        reports = []
        while (len(self.queue) > self.config.quarantine_max_count
               or sum(map(self.capacity, self.queue)) > self.config.quarantine_max_bytes):
            oldest = self.queue.pop(0)
            bad, retired = self.bad.pop(oldest), self.retired.pop(oldest)
            # a retired word has no mask left, so its bytes are not checked;
            # the masks compared are those of every word the prefix covers
            words = sorted({off & ~7 for off in bad} - retired)
            if words or any(word < self.prefix(oldest) for word in retired):
                self.state[oldest] = "withheld"
                reports += [(oldest, oldest + word) for word in words]
            else:
                self.state[oldest] = "free"
                self.free_lists[self.capacity(oldest)].append(oldest)
        return reports

    def copy(self) -> SlotModel:
        twin = SlotModel(self.config)
        twin.chunks, twin.bump = self.chunks, dict(self.bump)
        twin.free_lists = {cap: list(free) for cap, free in self.free_lists.items()}
        twin.queue = list(self.queue)
        twin.bad = {payload: set(offs) for payload, offs in self.bad.items()}
        twin.retired = {payload: set(words) for payload, words in self.retired.items()}
        twin.state, twin.requested = dict(self.state), dict(self.requested)
        return twin


def assert_matches(eng, model: SlotModel) -> None:
    views = list(eng.allocator.carved_slots())
    assert {v.payload: (STATE_NAMES[v.state], v.requested) for v in views} == {
        p: (state, model.requested[p]) for p, state in model.state.items()
    }
    assert quarantine_fifo(eng) == (model.queue, len(model.queue), sum(map(model.capacity, model.queue)))


_model_steps = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.sampled_from((17, 24, 40, 300, 5000))),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.sampled_from(("dangle", "heal", "retire")), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        st.just(("snapshot",)),
        st.just(("restore",)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from((64, 300, 1024, 1 << 20)), st.sampled_from((128, 20)), _model_steps)
# two slots of one class evicted to its free list, then reused: LIFO
@example(1, 1 << 20, 128, [("malloc", 40)] * 3 + [("free", 0)] * 3 + [("malloc", 40)])
# the queue's old tail, in another chunk, is linked to a slot freed after
# the snapshot; the restore must unlink it
@example(3, 1 << 20, 128, [("malloc", 5000), ("malloc", 40), ("free", 0), ("snapshot",), ("free", 0), ("restore",)])
# a 20-byte prefix: a retired whole word withholds its slot, and so does
# a retired edge word (bytes 16..19), whose prefix bits are compared
@example(1, 1 << 20, 20, [("malloc", 40)] * 3 + [("free", 0), ("dangle", 0, 9), ("retire", 0, 0), ("heal", 0, 0),
                          ("free", 0), ("dangle", 0, 17), ("retire", 0, 0), ("free", 0)])
# a healed byte leaves its slot clean
@example(1, 1 << 20, 128, [("malloc", 40)] * 2 + [("free", 0), ("dangle", 0, 60), ("heal", 0, 0), ("free", 0)])
def test_allocator_and_queue_match_a_reference_model(max_count, max_bytes, prefix, steps):
    # LIFO free lists, a FIFO quarantine under both thresholds, evictions
    # withheld for changed bytes (reported) and for cleared masks (not
    # reported), and restores of the image's undo log, which must bring
    # all of it back: the same payloads, states and queue
    eng = harness(quarantine_max_count=max_count, quarantine_max_bytes=max_bytes, uaf_fill_prefix=prefix)
    model = SlotModel(eng.config)
    saved = snap = None
    for step in steps:
        live = sorted(p for p, state in model.state.items() if state == "live")
        if step[0] == "malloc":
            assert eng.allocator.allocate(step[1]) == model.malloc(step[1])
        elif step[0] == "free" and live:
            payload = live[step[1] % len(live)]
            evidence = eng.quarantine.on_free(eng.allocator.object_bounds(payload), 0)
            assert [(r.object_addr, r.corrupted_addr) for r in evidence] == model.free(payload)
        elif step[0] == "dangle" and model.queue:
            payload = model.queue[step[1] % len(model.queue)]
            off = step[2] % model.prefix(payload)
            eng.image.write_fill(payload + off, 1, 0x00)
            model.bad[payload].add(off)
        elif step[0] in ("heal", "retire") and model.queue:
            payload = model.queue[step[1] % len(model.queue)]
            bad = sorted(model.bad[payload])
            if not bad:
                continue
            off = bad[step[2] % len(bad)]
            if step[0] == "heal":  # the canary byte written back
                eng.image.write_fill(payload + off, 1, CANARY)
                model.bad[payload].discard(off)
            else:  # a scan reported the word, and the replay retired it
                eng.overflow.retire_words([payload + (off & ~7)])
                model.retired[payload].add(off & ~7)
        elif step[0] == "snapshot":
            snap, saved = eng.image.snapshot(), model.copy()
        elif step[0] == "restore" and snap is not None:
            eng.image.restore(snap)
            model = saved.copy()
            assert_matches(eng, model)
        assert quarantine_fifo(eng)[0] == model.queue
    assert_matches(eng, model)
