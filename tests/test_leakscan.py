from __future__ import annotations

import random

import numpy as np

import tripwire as tw
from tripwire.engine import Engine
from tripwire.leakscan import LeakScanner
from tripwire.vheap import GUARD_BYTES, next_pow2

from conftest import small_config
from oracles import reachability_closure, reachable_quarantined
from test_replay_fuzz import error_trace


def harness(**overrides):
    # the image keeps a register word per event: room for three registers
    return Engine(tw.parse_trace("reg r0 = 0\nreg r1 = 0\nreg r2 = 0\n"), small_config(**overrides))


def alloc(eng, size):
    payload = eng.allocator.allocate(size)
    eng.overflow.plant_on_alloc(payload, size, next_pow2(max(size, eng.config.min_class)))
    return payload


def free(eng, payload):
    eng.quarantine.on_free(eng.allocator.object_bounds(payload), 0)


def set_registers(eng, *values):
    """Set registers 0, 1, ... to values, as reg events would."""
    for ordinal, value in enumerate(values):
        eng.image.write_register(ordinal, value)


def scan(eng, *registers, dangling=False):
    set_registers(eng, *registers)
    eng.leaks.mark()
    return eng.leaks.sweep(dangling)


def leaked(found):
    """(payload, requested size) of each leak a sweep reported, in its order."""
    assert all(r.kind == "leak" for r in found)
    return [(r.object_addr, r.object_size) for r in found if not r.reachable_freed]


def reachable_freed(found):
    """The payload of each reachable freed object a sweep reported, in its order."""
    return [r.object_addr for r in found if r.reachable_freed]


def test_two_hop_reachability_marks_both():
    eng = harness()
    a = alloc(eng, 32)
    b = alloc(eng, 32)
    eng.image.write_word(a, b)  # a holds a pointer to b
    found = scan(eng, a)
    assert leaked(found) == []


def test_interior_global_reference_resolves_to_owner():
    eng = harness()
    a = alloc(eng, 32)
    eng.image.write_word(eng.config.globals_base + 8 * 3, a + 17)
    found = scan(eng)
    assert leaked(found) == []


def test_cycle_terminates_and_marks_both():
    eng = harness()
    a = alloc(eng, 32)
    b = alloc(eng, 32)
    eng.image.write_word(a, b)
    eng.image.write_word(b, a)
    found = scan(eng, a)
    assert leaked(found) == []


def test_unreferenced_object_is_leaked():
    eng = harness()
    a = alloc(eng, 24)
    found = scan(eng)
    assert leaked(found) == [(a, 24)]


def test_empty_heap_has_no_findings():
    eng = harness()
    assert not scan(eng, 12345)


def test_object_referenced_only_from_freed_object_is_leaked():
    # freed objects are never scanned, so their payload references are dead
    eng = harness()
    holder = alloc(eng, 256)
    target = alloc(eng, 32)
    eng.image.write_word(holder + 132, target)  # beyond the 128-byte refill
    free(eng, holder)
    found = scan(eng, holder)
    assert (target, 32) in leaked(found)


def test_reachable_freed_object_reported_only_with_option():
    eng = harness()
    a = alloc(eng, 64)
    free(eng, a)
    assert not scan(eng, a, dangling=False)
    found = scan(eng, a, dangling=True)
    assert reachable_freed(found) == [a]
    assert leaked(found) == []


def test_mark_sweep_is_idempotent():
    eng = harness()
    a = alloc(eng, 24)
    b = alloc(eng, 24)
    eng.image.write_word(eng.config.globals_base, b)
    first = scan(eng)
    second = scan(eng)
    assert leaked(first) == leaked(second) == [(a, 24)]


def test_integer_that_looks_like_a_pointer_suppresses_leak():
    # conservative false negative, by design
    eng = harness()
    a = alloc(eng, 24)
    found = scan(eng, a + 4)  # not even a real pointer, still in range
    assert leaked(found) == []


def test_marks_cleared_after_sweep():
    eng = harness()
    a = alloc(eng, 24)
    set_registers(eng, a)
    eng.leaks.mark()
    assert eng.leaks.marked.sum() == 1
    assert leaked(eng.leaks.sweep(False)) == []
    assert not eng.leaks.marked.any()
    assert leaked(scan(eng, 0)) == [(a, 24)]  # r0 no longer points at a


def test_mark_and_sweep_write_no_heap_page():
    eng = harness(dangling=True)
    a = alloc(eng, 24)
    b = alloc(eng, 4000)
    lost = alloc(eng, 100)
    freed = alloc(eng, 64)
    free(eng, freed)
    eng.image.write_word(a, b)
    eng.image.write_word(eng.config.globals_base, a)
    digest = eng.image.heap_pages.digest()
    heap_log, _, shadow_log, slot_log = eng.image.snapshot()
    found = scan(eng, freed, dangling=True)
    assert leaked(found) == [(lost, 100)]
    assert reachable_freed(found) == [freed]
    assert heap_log == {}
    assert shadow_log == {}
    assert list(slot_log) == [0]  # the header page every snapshot saves: no record written
    assert eng.image.heap_pages.digest() == digest


def test_random_heaps_match_reachability_closure():
    rng = random.Random(2024)
    for _ in range(30):
        dangling = rng.random() < 0.5
        eng = harness(quarantine_max_count=rng.choice((2, 1024)))
        sizes = {}
        for _ in range(rng.randint(1, 60)):
            # mostly small classes, some of the largest, so chains cross chunks
            size = rng.randint(16, 128) if rng.random() < 0.8 else rng.randint(129, 16 * 1024)
            sizes[alloc(eng, size)] = size
        payloads = list(sizes)
        last = max(payloads)
        capacity = eng.allocator.object_bounds(last).capacity
        strays = (
            last + capacity + 40,  # the next slot of its chunk, never carved
            eng.config.heap_base + eng.image.heap_prefix + 64,  # an unassigned chunk
        )

        def value():
            if rng.random() < 0.1:
                return rng.choice(strays)
            target = rng.choice(payloads)
            # payload start, interior or guard region
            return target + rng.choice((0, 0, 17, -32, -24, -16, -8))

        for payload in payloads:
            for _ in range(rng.randint(0, 2)):
                word = rng.randrange(eng.allocator.object_bounds(payload).capacity // 8)
                eng.image.write_word(payload + 8 * word, value())
        for payload in rng.sample(payloads, rng.randint(0, len(payloads) // 3)):
            free(eng, payload)
        set_registers(eng, *(value() for _ in range(rng.randint(0, 3))))
        for i in range(rng.randint(0, 3)):
            eng.image.write_word(eng.config.globals_base + 8 * i, value())
        expected = reachability_closure(eng)
        quarantined = reachable_quarantined(eng)
        found = scan(eng, dangling=dangling)
        assert leaked(found) == sorted((p, sizes[p]) for p in expected)
        if dangling:
            assert reachable_freed(found) == sorted(quarantined)
        else:
            assert reachable_freed(found) == []


def test_leak_sites_from_replay_pick_last_allocation():
    # slot reuse: the second binding's stack must win
    text = """
    stack push main
    stack push first_site
    malloc a 32
    stack pop
    free a
    call fork
    stack push second_site
    malloc b 32
    stack pop
    stack pop
    end
    """
    # force eviction so b reuses a's slot: count threshold 1
    config = small_config(quarantine_max_count=1)
    events = tw.parse_trace(text)
    eng = Engine(events, config)
    out = eng.run()
    # a freed+evicted in epoch 0; b reuses the address in epoch 1, leaks at end
    (leak,) = [r for r in out.reports if r.kind == "leak"]
    assert leak.alloc_stack == ("main", "second_site")
    assert leak.epoch == 1
    assert out.alloc_sequence[0] != out.alloc_sequence[1]  # not same-slot reuse


def test_leak_from_prior_epoch_names_its_malloc_without_a_replay():
    text = """
    stack push main
    malloc a 32
    reg r0 = a
    call fork
    reg r0 = 0
    stack pop
    end
    """
    eng = Engine(tw.parse_trace(text), small_config())
    out = eng.run()
    (leak,) = [r for r in out.reports if r.kind == "leak"]
    assert leak.epoch == 1
    assert leak.offending_events == ((1, ("main",)),)
    assert (leak.alloc_event, leak.alloc_stack) == (1, ("main",))
    assert eng.replay_summaries == []


def test_with_the_heap_at_zero_only_registers_set_hold_the_value_zero():
    # value 0 points into the guard of the first slot when the heap starts
    # at 0; a register word not yet set reads 0 too, but is no root
    config = tw.EngineConfig(heap_base=0, globals_base=256 * 1024 * 1024, globals_words=1)
    unset = "global 0 = 0x20000000\nmalloc a 16\nend\n"
    (leak,) = tw.run_text(unset, config).reports
    assert (leak.kind, leak.object_addr) == ("leak", 32)
    # first set in the second epoch: the mark there cannot resume from the
    # first, which no register held, without reading the new register
    assert tw.run_text("global 0 = 0x20000000\ncall fork\nmalloc a 16\nreg r0 = 0\nend\n", config).reports == ()


def test_a_mark_runs_in_full_unless_one_snapshot_separates_it_from_the_last():
    eng = harness()
    a = alloc(eng, 32)
    b = alloc(eng, 32)
    eng.image.snapshot()
    eng.image.write_word(a, b)
    assert leaked(scan(eng, a)) == []
    eng.image.write_word(a, 0)  # no snapshot since: the undo log predates the mark
    assert leaked(scan(eng, a)) == [(b, 32)]
    eng.image.snapshot()
    eng.image.write_word(a, b)
    eng.image.snapshot()  # two snapshots since: the first one's log is gone
    assert leaked(scan(eng, a)) == []


def marks_and_sweeps(scanner):
    """A mark's marks, then its sweeps without and with dangling."""
    scanner.mark()
    table, marked = scanner.table, scanner.marked.copy()
    plain = scanner.sweep(False)
    scanner.table, scanner.marked = table, marked
    return marked, plain, scanner.sweep(True)


# random_epochs writes globals 0 to 6; a ballast is rooted past them
CYCLE_ROOT = 6
BALLAST_ROOT = 7


def with_ballast(eng, objects=24):
    """Root objects 16 KiB objects, one per global from BALLAST_ROOT on:
    a heap whose full mark reads more words than a resumed mark after any
    epoch of random_epochs, so that every mark after the first resumes."""
    for i in range(objects):
        eng.image.write_word(eng.config.globals_base + 8 * (BALLAST_ROOT + i), alloc(eng, 16 * 1024))
    return eng


def random_epochs(rng, eng, epochs):
    """Yield after each of epochs random epochs of allocations, frees
    through the quarantine, pointer and plain word writes, register and
    global changes, and cycles of two objects linked both ways, rooted in
    global CYCLE_ROOT and later unrooted; the caller ends each epoch at a
    boundary."""
    live, freed = [], []
    config = eng.config
    cycle_root = config.globals_base + 8 * CYCLE_ROOT

    def stray():
        if live and rng.random() < 0.5:  # the next slot of a class, not carved yet
            stride = GUARD_BYTES + eng.allocator.object_bounds(rng.choice(live)).capacity
            chunk = [c for c in eng.allocator.chunks if c.stride == stride][-1]  # the class's current one
            return chunk.base + chunk.carved * stride + GUARD_BYTES + 8 * rng.randrange(2)
        return config.heap_base + eng.image.heap_prefix + rng.choice((40, config.chunk_size + 8))

    def pointer():
        if not live and not freed or rng.random() < 0.2:
            return stray()
        target = rng.choice(live + freed if freed and rng.random() < 0.3 else live)
        return target + rng.choice((0, 0, 8, 17, -GUARD_BYTES, -8))  # payload, interior or guard

    def payload_word_of(target):
        return target + 8 * rng.randrange(eng.allocator.object_bounds(target).capacity // 8)

    def payload_word():
        return payload_word_of(rng.choice(live))

    for _ in range(epochs):
        for _ in range(rng.randint(0, 10)):
            op = rng.choices(("alloc", "free", "store", "clear", "reg", "global", "cycle"), (4, 2, 5, 2, 2, 3, 2))[0]
            if op == "alloc" or not live:
                live.append(alloc(eng, rng.choice((16, 24, 40, 100, 300, 2000))))
            elif op == "free":
                payload = live.pop(rng.randrange(len(live)))
                free(eng, payload)
                freed.append(payload)
            elif op == "store":
                eng.image.write_word(payload_word(), pointer())
            elif op == "clear":
                eng.image.write_word(payload_word(), rng.choice((0, 12345)))
            elif op == "reg":
                ordinal = rng.randrange(3)
                choice = rng.random()
                if choice < 0.5:
                    eng.image.write_register(ordinal, pointer())
                elif choice < 0.8:
                    eng.image.write_register(ordinal, rng.randrange(1 << 16))
                else:  # cleared: a trace cannot unset a register
                    eng.image.write_register(ordinal, 0)
            elif op == "global":
                value = pointer() if rng.random() < 0.6 else 0
                eng.image.write_word(config.globals_base + 8 * rng.randrange(CYCLE_ROOT), value)
            elif int.from_bytes(eng.image.read(cycle_root, 8), "little"):
                eng.image.write_word(cycle_root, 0)  # drop the cycle's root
            elif len(live) >= 2:
                a, b = rng.sample(live, 2)
                eng.image.write_word(payload_word_of(a), b)
                eng.image.write_word(payload_word_of(b), a)
                eng.image.write_word(cycle_root, a)
        yield


def full_marks(monkeypatch) -> list:
    """The scanners that run a full mark from here on, once per mark."""
    full = []
    roots = LeakScanner._roots

    def counted_roots(scanner):
        full.append(scanner)
        return roots(scanner)

    monkeypatch.setattr(LeakScanner, "_roots", counted_roots)
    return full


def test_incremental_marks_match_a_fresh_full_mark(monkeypatch):
    full = full_marks(monkeypatch)
    scanners = []
    for seed in range(150):
        rng = random.Random(seed)
        eng = with_ballast(harness(quarantine_max_count=rng.choice((1, 2, 4, 1024))))
        scanners.append(eng.leaks)
        eng.image.snapshot()
        for _ in random_epochs(rng, eng, rng.randint(2, 8)):
            fresh = LeakScanner(eng.image, eng.allocator)
            got, want = marks_and_sweeps(eng.leaks), marks_and_sweeps(fresh)
            assert np.array_equal(got[0], want[0]), seed
            assert got[1:] == want[1:], seed
            assert eng.leaks._last.reads == fresh._last.reads, seed  # the words a full mark would read
            eng.image.snapshot()
    assert [full.count(scanner) for scanner in scanners] == [1] * len(scanners)  # each engine's first mark


def first_mark(eng, monkeypatch) -> list:
    """Mark, then start an epoch as a boundary does; return the list
    full_marks() keeps from then on."""
    eng.leaks.mark()
    eng.image.snapshot()
    return full_marks(monkeypatch)


def resumed_mark(eng, full):
    """Mark at the end of an epoch that first_mark or the last call
    started, and start the next: assert that the mark resumed and that
    its marks and both sweeps equal a fresh scanner's full mark; return
    them."""
    got = marks_and_sweeps(eng.leaks)
    want = marks_and_sweeps(LeakScanner(eng.image, eng.allocator))
    assert eng.leaks not in full
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    eng.image.snapshot()
    return got


def linked(eng, *payloads):
    """Each payload's first word points at the next payload."""
    for holder, target in zip(payloads, payloads[1:]):
        eng.image.write_word(holder, target)


def test_a_mark_resumes_after_a_marked_slot_is_freed(monkeypatch):
    for evicted in (False, True):  # the slot stays in the quarantine, or goes to its free list
        eng = with_ballast(harness(quarantine_max_count=1, dangling=True), objects=4)
        a, b, c = alloc(eng, 32), alloc(eng, 32), alloc(eng, 32)
        linked(eng, a, b)
        eng.image.write_word(eng.config.globals_base, a)
        full = first_mark(eng, monkeypatch)
        free(eng, a)  # global 0 still points at it
        if evicted:
            free(eng, c)  # the quarantine holds one slot
        _, plain, dangling = resumed_mark(eng, full)
        assert leaked(plain) == [(b, 32)] + ([] if evicted else [(c, 32)])
        assert reachable_freed(dangling) == ([] if evicted else [a])


def test_a_mark_resumes_after_a_global_or_register_drops_a_heap_value(monkeypatch):
    for ordinal, root in ((None, 3), (1, None)):
        eng = with_ballast(harness(), objects=4)
        a, b = alloc(eng, 32), alloc(eng, 32)
        linked(eng, a, b)
        set_registers(eng, 0, 0)
        if root is not None:
            eng.image.write_word(eng.config.globals_base + 8 * root, a)
        else:
            eng.image.write_register(ordinal, a)
        full = first_mark(eng, monkeypatch)
        if root is not None:
            eng.image.write_word(eng.config.globals_base + 8 * root, 12345)
        else:
            eng.image.write_register(ordinal, 0)
        _, plain, _ = resumed_mark(eng, full)
        assert leaked(plain) == [(a, 32), (b, 32)]


def test_a_mark_resumes_after_a_heap_pointer_is_overwritten(monkeypatch):
    eng = with_ballast(harness(), objects=4)
    a, b, c = alloc(eng, 64), alloc(eng, 32), alloc(eng, 32)
    linked(eng, a, b, c)
    eng.image.write_word(eng.config.globals_base, a)
    full = first_mark(eng, monkeypatch)
    eng.image.write_word(a, c)  # b is lost; c is held by a now
    _, plain, _ = resumed_mark(eng, full)
    assert leaked(plain) == [(b, 32)]


def test_a_mark_resumes_after_a_cycle_loses_its_roots(monkeypatch):
    eng = with_ballast(harness(), objects=4)
    a, b, c = alloc(eng, 32), alloc(eng, 32), alloc(eng, 32)
    linked(eng, a, b, a)  # a and b point at each other
    linked(eng, c, a)
    eng.image.write_word(eng.config.globals_base, a)
    eng.image.write_word(eng.config.globals_base + 8, c)
    full = first_mark(eng, monkeypatch)
    eng.image.write_word(eng.config.globals_base, 0)  # c still holds the cycle
    _, plain, _ = resumed_mark(eng, full)
    assert leaked(plain) == []
    eng.image.write_word(eng.config.globals_base + 8, 0)  # nothing does now
    _, plain, _ = resumed_mark(eng, full)
    assert leaked(plain) == [(a, 32), (b, 32), (c, 32)]


def test_a_mark_runs_in_full_after_an_epoch_that_wrote_more_than_a_full_mark_reads(monkeypatch):
    eng = harness()
    a = alloc(eng, 32)
    eng.image.write_word(eng.config.globals_base, a)
    full = first_mark(eng, monkeypatch)
    eng.image.write_word(eng.config.globals_base, 0)  # one globals page: more words than the roots and a
    assert leaked(scan(eng)) == [(a, 32)]
    assert full == [eng.leaks]


def test_nothing_writes_heap_or_globals_between_a_mark_and_the_next_snapshot():
    # a resumed mark reads only the pages written since the last one, so
    # the heap and globals must not change between a mark and the undo
    # logs that the next epoch's snapshot starts
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        config = small_config(quarantine_max_count=rng.choice((1, 2, 4, 8)), dangling=seed % 2 == 1)
        engine = Engine(tw.parse_trace(error_trace(rng, 40, stores=seed % 4 >= 2, frames=seed % 3 == 0)), config)
        mark, snapshot, marked = engine.leaks.mark, engine.image.snapshot, []

        def mark_noting():
            mark()
            marked.append(engine.image.epoch_writes()[:2])  # heap and globals

        def snapshot_checking():
            nonlocal checked
            if marked:
                assert engine.image.epoch_writes()[:2] == marked.pop(), seed
                checked += 1
            return snapshot()

        engine.leaks.mark, engine.image.snapshot = mark_noting, snapshot_checking
        engine.run()
    assert checked > 100
