from __future__ import annotations

import random

import numpy as np

import tripwire as tw
from tripwire.engine import Engine
from tripwire.leakscan import LeakScanner
from tripwire.vheap import GUARD_BYTES, next_pow2

from conftest import small_config
from oracles import reachability_closure, reachable_quarantined


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


def random_epochs(rng, eng, epochs):
    """Yield after each of epochs random epochs of allocations, frees
    through the quarantine, pointer and plain word writes, and register
    and global changes; the caller ends each epoch at a boundary."""
    live, freed = [], []
    config = eng.config

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

    def payload_word():
        target = rng.choice(live)
        return target + 8 * rng.randrange(eng.allocator.object_bounds(target).capacity // 8)

    for _ in range(epochs):
        for _ in range(rng.randint(0, 10)):
            op = rng.choices(("alloc", "free", "store", "clear", "reg", "global"), (4, 2, 5, 2, 2, 3))[0]
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
            else:
                value = pointer() if rng.random() < 0.6 else 0
                eng.image.write_word(config.globals_base + 8 * rng.randrange(6), value)
        yield


def test_incremental_marks_match_a_fresh_full_mark(monkeypatch):
    full = []
    roots = LeakScanner._roots

    def counted_roots(scanner):
        full.append(scanner)
        return roots(scanner)

    monkeypatch.setattr(LeakScanner, "_roots", counted_roots)
    scanners, boundaries = set(), 0
    for seed in range(150):
        rng = random.Random(seed)
        eng = harness(quarantine_max_count=rng.choice((1, 2, 4, 1024)))
        scanners.add(eng.leaks)
        eng.image.snapshot()
        for _ in random_epochs(rng, eng, rng.randint(2, 8)):
            got = marks_and_sweeps(eng.leaks)
            want = marks_and_sweeps(LeakScanner(eng.image, eng.allocator))
            assert np.array_equal(got[0], want[0]), seed
            assert got[1:] == want[1:], seed
            eng.image.snapshot()
            boundaries += 1
    full_marks = sum(scanner in scanners for scanner in full)
    assert 0 < full_marks < boundaries  # both paths ran
