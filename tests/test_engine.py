from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

import tripwire as tw
from tripwire.engine import Engine, Mode
from tripwire.errors import ConfigError, OutOfVirtualHeap, OversizeRequest
from tripwire.trace import EventKind, parse_trace
from tripwire.vheap import MemoryImage

from conftest import small_config
from corpus import CLEAN_CASES

CLEAN = """
stack push main
malloc a 24
write a 0 24 41
read a 0 24
free a
stack pop
end
"""

OVERFLOW = """
stack push main
malloc a 24
write a 24 1 42
free a
stack pop
end
"""


def test_clean_trace_produces_zero_reports():
    out = tw.run_text(CLEAN, small_config())
    assert out.reports == ()
    assert out.epochs == 1


def test_overflow_report_names_the_write_event():
    out = tw.run_text(OVERFLOW, small_config())
    (report,) = out.reports
    assert report.kind == "overflow"
    assert [eid for eid, _ in report.offending_events] == [2]
    assert report.object_addr == out.alloc_sequence[0]
    assert report.object_size == 24


def test_identical_runs_are_byte_identical():
    config = small_config()
    engines = [Engine(parse_trace(OVERFLOW), config) for _ in range(2)]
    first, second = (engine.run() for engine in engines)
    assert first.reports == second.reports
    assert first.final_state_hash == second.final_state_hash
    assert engines[0].replay_summaries == engines[1].replay_summaries and engines[0].replay_summaries
    assert tw.emit_text(first.reports) == tw.emit_text(second.reports)
    assert tw.emit_json(
        first.reports, epochs=first.epochs, final_state_hash=first.final_state_hash,
        events=first.events_total, config=config,
    ) == tw.emit_json(
        second.reports, epochs=second.epochs, final_state_hash=second.final_state_hash,
        events=second.events_total, config=config,
    )


def test_offending_event_kinds_satisfy_attribution_invariant():
    text = """
    malloc a 24
    malloc b 64
    write a 24 1 42
    free b
    write b 0 1 09
    end
    """
    events = parse_trace(text)
    out = tw.run_events(events, small_config())
    writes = {EventKind.WRITE, EventKind.WRITE_ABS}
    for report in out.reports:
        for event_id, _ in report.offending_events:
            kind = events[event_id].kind
            if report.kind in ("overflow", "use-after-free"):
                assert kind in writes
            elif report.kind == "leak":
                assert kind is EventKind.MALLOC


def test_mid_epoch_detection_resumes_execution():
    # the free at event 2 triggers rollback; events after it still run
    text = """
    malloc a 24
    write a 24 1 42
    free a
    malloc b 16
    reg r0 = b
    call getpid
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    assert [r.kind for r in out.reports] == ["overflow"]
    assert len(out.alloc_sequence) == 2
    assert out.extcall_results[-1][1] == "getpid"
    assert out.events_executed == len(events) - 1  # stopped at end


def test_exit_call_terminates_the_run():
    text = """
    malloc a 16
    free a
    call exit 0
    malloc b 999999
    """
    out = tw.run_text(text, small_config())
    assert out.reports == ()
    assert out.events_executed == 3  # the oversize malloc never ran
    assert out.epochs == 1


def test_segfault_ends_epoch_and_still_scans():
    # the overflow write happens before the fault; both get reported
    text = """
    stack push main
    malloc a 24
    reg r0 = a
    write a 24 1 42
    writeabs a+100000000 8 00
    free a
    end
    """
    out = tw.run_text(text, small_config())
    kinds = sorted(r.kind for r in out.reports)
    assert kinds == ["overflow", "segfault"]
    seg = next(r for r in out.reports if r.kind == "segfault")
    assert seg.offending_events[0][0] == 4
    assert seg.offending_events[0][1] == ("main",)
    over = next(r for r in out.reports if r.kind == "overflow")
    assert [eid for eid, _ in over.offending_events] == [3]


def test_segfault_on_read_also_ends_run():
    out = tw.run_text("malloc a 16\nread a 0 100000000\nend\n", small_config())
    (seg,) = [r for r in out.reports if r.kind == "segfault"]
    assert seg.offending_events[0][0] == 1


def test_global_store_out_of_range_is_a_segfault():
    config = small_config()
    out = tw.run_text(f"global {config.globals_words} = 7\nend\n", config)
    assert [r.kind for r in out.reports] == ["segfault"]


def test_store_writes_one_little_endian_word_at_the_binding_plus_offset():
    eng = Engine(parse_trace("malloc a 64\nmalloc b 16\nreg r0 = a\nstore a 8 = b+3\nend\n"), small_config())
    out = eng.run()
    a, b = out.alloc_sequence
    assert eng.image.read(a + 8, 8) == (b + 3).to_bytes(8, "little")
    assert out.reports == ()  # b is reachable through a


def test_store_out_of_range_is_a_segfault():
    out = tw.run_text("malloc a 16\nreg r0 = a\nstore a 100000000 = 7\nend\n", small_config())
    (seg,) = out.reports
    assert seg.kind == "segfault" and seg.offending_events[0][0] == 2


def test_oversize_malloc_is_a_trace_error_with_event_context():
    with pytest.raises(OversizeRequest) as exc:
        tw.run_text("malloc a 999999999\nend\n", small_config())
    assert "event 0" in str(exc.value)


def test_oversized_heap_is_a_resource_limit_not_a_crash():
    # 4 EiB exceeds any address space, so the reservation fails and
    # reserves nothing
    with pytest.raises(OutOfVirtualHeap, match="--heap-size"):
        Engine(parse_trace(CLEAN), tw.EngineConfig(heap_size=2**62))


def test_a_globals_reservation_failure_names_the_globals_option():
    # 2**59 bytes of globals exceed any address space; the heap and its
    # shadow are reserved first and succeed
    config = tw.EngineConfig(globals_words=1 << 56, heap_base=1 << 62)
    with pytest.raises(OutOfVirtualHeap, match="for the globals .*; lower --globals-words$"):
        MemoryImage(config)


@pytest.mark.parametrize("geometry", [
    dict(heap_base=-(1 << 32)),
    dict(heap_base=(1 << 64) - (1 << 20)),  # the heap would end past 2**64
    dict(globals_base=-4096),
])
def test_regions_outside_the_64_bit_address_space_are_config_errors(geometry):
    with pytest.raises(ConfigError, match="64-bit"):
        tw.EngineConfig(**geometry)


def test_writes_through_registers_dont_exist_only_vars_do():
    # regs hold values; only write/writeabs touch memory via vars
    out = tw.run_text("malloc a 16\nreg r0 = a+4\nwrite a 4 4 99\nfree a\nend\n", small_config())
    assert out.reports == ()


def test_dangling_option_reports_reachable_freed():
    text = """
    stack push main
    malloc a 64
    reg r0 = a
    free a
    stack pop
    end
    """
    quiet = tw.run_text(text, small_config())
    assert quiet.reports == ()
    loud = tw.run_text(text, small_config(dangling=True))
    (report,) = loud.reports
    assert report.kind == "leak" and report.reachable_freed
    assert report.free_event == 3
    assert report.alloc_event == 1  # the latest malloc of its payload, read from the trace


def test_no_duplicate_reports_across_epochs():
    # the same corrupted guard and the same leak must be reported once
    # even though three more boundaries follow
    text = """
    malloc a 32
    malloc pad 32
    writeabs a+32 8 00
    malloc leaked 24
    reg r0 = a
    reg r1 = pad
    call fork
    call fork
    call fork
    end
    """
    out = tw.run_text(text, small_config())
    kinds = [r.kind for r in out.reports]
    assert sorted(kinds) == ["leak", "overflow"]
    assert out.epochs == 4


def test_reallocated_address_can_be_reported_again():
    # leak at epoch 0; slot reused and leaked again at the end: two reports
    config = small_config(quarantine_max_count=1)
    text = """
    malloc a 24
    call fork
    free a
    malloc pad 24
    free pad
    malloc b 24
    end
    """
    out = tw.run_text(text, config)
    leaks = [r for r in out.reports if r.kind == "leak"]
    assert len(leaks) == 2
    assert leaks[0].object_addr == leaks[1].object_addr  # same slot, two lives


def test_a_forced_rollback_of_a_leak_only_epoch_gives_the_same_reports():
    # a leak has no word to watch, so it is reported without a replay
    # unless the epoch is forced to roll back
    text = """
    stack push main
    malloc a 24
    call fork
    stack push make
    malloc b 40
    stack pop
    reg r0 = b
    reg r0 = 0
    end
    """
    plain = Engine(parse_trace(text), small_config())
    forced = Engine(parse_trace(text), small_config(), force_rollback_epochs=(0, 1))
    out, forced_out = plain.run(), forced.run()
    assert out == forced_out
    assert plain.replay_summaries == []
    assert [s.epoch for s in forced.replay_summaries] == [0, 1]
    sites = [(r.kind, r.epoch, r.alloc_event, r.alloc_stack, r.offending_events) for r in out.reports]
    assert sites == [
        ("leak", 0, 1, ("main",), ((1, ("main",)),)),
        ("leak", 1, 4, ("main", "make"), ((4, ("main", "make")),)),
    ]


@pytest.mark.parametrize("text, site, stack", [
    # a's slot leaves quarantine and b reuses it, so freeing a again is a
    # double free of b's payload: b's malloc is the latest
    ("""
    stack push main
    malloc a 24
    free a
    malloc pad 24
    free pad
    stack push reuse
    malloc b 24
    stack pop
    free b
    free a
    stack pop
    end
    """, 6, ("main", "reuse")),
    # the malloc ran in an earlier epoch
    ("""
    stack push main
    malloc a 24
    call fork
    free a
    free a
    stack pop
    end
    """, 1, ("main",)),
], ids=["slot_reuse", "prior_epoch"])
def test_a_double_free_names_the_latest_malloc_of_its_payload(text, site, stack):
    out = tw.run_text(text, small_config(quarantine_max_count=1))
    (report,) = [r for r in out.reports if r.kind == "double-free"]
    assert out.alloc_sequence.count(report.object_addr) == 1 + (site == 6)
    assert (report.alloc_event, report.alloc_stack) == (site, stack)
    assert f"allocated by event {site}:" in tw.emit_text(out.reports)


def test_a_malloc_and_a_free_touch_each_store_once_per_range():
    # the undo-log touches of each page store, per event, as (store,
    # offset, length): a malloc touches the guard and the unrequested
    # tail, never the whole slot, and the slot's masks once; a
    # quarantined free the prefix and its masks; a free that evicts also
    # clears the evicted prefix's masks. The chunk's acquisition logs the
    # page of its records, and the snapshot the slot store's header page.
    config = small_config(quarantine_max_count=1)
    engine = Engine(parse_trace("malloc a 24\nfree a\nmalloc b 24\nfree b\nend\n"), config)
    image, touched = engine.image, []
    for name, store in zip(("heap", "globals", "shadow", "slots"), image.stores):
        def touch(off, length, _name=name, _touch=store.touch):
            touched.append((_name, off, length))
            _touch(off, length)

        store.touch = touch
    # the allocator itself writes no heap byte
    allocate = engine.allocator.allocate

    def allocate_writing_no_heap(size):
        heap, before = bytes(image.heap[: config.chunk_size]), len(touched)
        payload = allocate(size)
        assert bytes(image.heap[: config.chunk_size]) == heap
        assert [t for t in touched[before:] if t[0] == "heap"] == []
        return payload

    engine.allocator.allocate = allocate_writing_no_heap
    per_event = []
    execute = engine._execute

    def counted_execute(ev):
        before = len(touched)
        result = execute(ev)
        per_event.append(touched[before:])
        return result

    engine._execute = counted_execute
    out = engine.run()
    assert out.reports == ()
    a, b = (payload - config.heap_base for payload in out.alloc_sequence)

    def planted(p):  # guard, tail, then the masks of the whole slot
        return [("heap", p - 32, 32), ("heap", p + 24, 8), ("shadow", (p - 32) // 8, 8)]

    records = 8 * 512  # the first chunk's records start on the store's second page
    assert per_event == [
        [("slots", records, 8), *planted(a)],
        [("heap", a, 32), ("shadow", a // 8, 4)],
        planted(b),
        [("heap", b, 32), ("shadow", b // 8, 4), ("shadow", a // 8, 4)],
    ]


def test_normal_mode_writes_make_no_canary_checks():
    # every entry point to canary state, the shadow's mask lookup
    # included, is counted while a trace write runs: none may be reached
    # in normal mode, and replay must reach the mask lookup
    text = """
    stack push main
    malloc a 24
    malloc b 100
    malloc c 64
    write a 0 24 41
    write a 24 1 42
    free a
    write b 104 4 55
    global 0 = b
    free c
    write c 8 4 25
    call fork
    write b 0 100 07
    stack pop
    end
    """
    eng = Engine(parse_trace(text), small_config())
    writes: Counter[Mode] = Counter()
    checks: Counter[tuple[Mode, str]] = Counter()
    running: list[Mode] = []  # mode of the trace write in progress

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            if running:
                checks[running[-1], name] += 1
            return fn(*args, **kwargs)

        return wrapper

    class CountedBitmap:
        def __init__(self, bitmap):
            self._bitmap = bitmap

        def __getattr__(self, name):
            if running:
                checks[running[-1], name] += 1
            return getattr(self._bitmap, name)

    def trace_write(write):
        def wrapper(*args, **kwargs):
            writes[eng.mode] += 1
            running.append(eng.mode)
            try:
                return write(*args, **kwargs)
            finally:
                running.pop()

        return wrapper

    eng.overflow.bitmap = CountedBitmap(eng.overflow.bitmap)
    eng.overflow.corrupted = counted(eng.overflow.corrupted, "corrupted")
    eng.overflow.damaged = counted(eng.overflow.damaged, "damaged")
    eng.image.write_fill = trace_write(eng.image.write_fill)
    eng.image.write_word = trace_write(eng.image.write_word)

    out = eng.run()
    assert sorted(r.kind for r in out.reports) == ["overflow", "overflow", "use-after-free"]
    assert writes[Mode.NORMAL] == 6 and writes[Mode.REPLAY] > 0
    assert sum(n for (mode, _), n in checks.items() if mode is Mode.NORMAL) == 0
    assert checks[Mode.REPLAY, "mask"] >= 1


def run_counting_checks(text: str, **kwargs):
    """Run text; return the outcome, the number of end-state records
    taken for replay checks and the number of state hashes."""
    eng = Engine(parse_trace(text), small_config(), **kwargs)
    calls = Counter()

    def counted(name):
        method = getattr(eng, name)

        def wrapper():
            calls[name] += 1
            return method()

        setattr(eng, name, wrapper)

    counted("_end_state")
    counted("full_state_hash")
    return eng.run(), calls["_end_state"], calls["full_state_hash"]


def three_epochs(first_write: str) -> str:
    return "\n".join(
        ["malloc a 32", "malloc b 32", "reg r0 = a", "reg r1 = b", first_write,
         "call fork", "write a 0 32 41", "call fork", "end"]
    )


def test_clean_boundaries_take_no_state_hash():
    # nor any record: the one state hash is the final one
    out, records, hashes = run_counting_checks(three_epochs("write b 0 32 41"))
    assert out.reports == () and out.epochs == 3
    assert (records, hashes) == (0, 1)


def test_a_boundary_rollback_takes_two_end_states():
    # one before the rollback, one to check the replay against it; the
    # write hits b's guard and b is never freed, so the epoch scan finds it
    out, records, hashes = run_counting_checks(three_epochs("writeabs a+32 8 00"))
    assert [r.kind for r in out.reports] == ["overflow"] and out.epochs == 3
    assert (records, hashes) == (2, 1)


def test_a_clean_epoch_scans_only_the_page_it_wrote():
    lines = [f"malloc v{i} {24 + i * 37 % 1000}" for i in range(2000)]
    lines += ["call fork", "write v1000 0 8 41", "end"]
    out = tw.run_text("\n".join(lines), small_config(detectors=frozenset({"overflow"})))
    assert out.reports == () and out.epochs == 2
    first, last = out.scan_records
    assert first[1] > 2000  # the allocating epoch wrote every page
    assert 0 < last[1] <= 512  # one page's words


def test_engine_is_single_use():
    eng = Engine(parse_trace("end\n"), small_config())
    eng.run()
    with pytest.raises(RuntimeError):
        eng.run()


def test_dropping_an_engine_frees_its_heap_without_the_cycle_collector():
    # the heap mapping holds every page the run touched; no reference
    # cycle may keep it alive once the engine is gone
    engine = Engine(parse_trace(OVERFLOW), small_config())
    engine.run()
    image = weakref.ref(engine.image)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert image() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("case", CLEAN_CASES, ids=lambda case: case.name)
def test_components_are_called_through_instance_attributes(case):
    # tools wrap these attributes on a built engine; the event dispatch
    # must look them up at each call, not keep what __init__ saw
    engine = Engine(parse_trace(case.text), tw.EngineConfig())
    calls: Counter[str] = Counter()

    def counted(obj, attr, name=None):
        fn = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            calls[name or attr] += 1
            return fn(*args, **kwargs)

        setattr(obj, attr, wrapper)

    write_fill = engine.image.write_fill

    def trace_write_fill(addr, length, fill):
        calls["trace write_fill"] += 1
        return write_fill(addr, length, fill)

    engine.image.write_fill = trace_write_fill
    counted(engine.allocator, "allocate")
    counted(engine.overflow, "plant_on_alloc")
    counted(engine.quarantine, "on_free")
    counted(engine, "_boundary")
    outcome = engine.run()
    assert outcome.reports == ()
    executed = Counter(ev.kind for ev in engine.events[: outcome.events_executed])
    assert calls["allocate"] == calls["plant_on_alloc"] == executed[EventKind.MALLOC]
    assert calls["on_free"] == executed[EventKind.FREE]
    assert calls["trace write_fill"] == executed[EventKind.WRITE] + executed[EventKind.WRITE_ABS]
    assert calls["_boundary"] == outcome.epochs
