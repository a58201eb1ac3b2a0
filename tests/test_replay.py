from __future__ import annotations

import pytest

import tripwire as tw
from tripwire.engine import Engine, Mode
from tripwire.errors import ReplayDivergence
from tripwire.replay import WatchpointSet
from tripwire.reports import KIND_UAF
from tripwire.trace import EventKind, parse_trace

from conftest import small_config
from oracles import stacks_at_events


def test_watch_check_traps_overlapping_write():
    wps, unwatched = WatchpointSet.arm([0x1000], limit=4)
    assert unwatched == []
    assert wps.overlapping(0x0FFE, 4) == [0x1000]
    assert wps.overlapping(0x0FF9, 8) == [0x1000]  # last byte is the word's first
    assert wps.overlapping(0x1007, 1) == [0x1000]  # the word's last byte
    assert wps.overlapping(0x0FF8, 8) == []  # ends where the word starts
    assert wps.overlapping(0x1008, 8) == []  # starts where the word ends
    assert wps.overlapping(0x0FF0, 8) == []


def test_one_write_spanning_two_watched_words_traps_both():
    wps, _ = WatchpointSet.arm([0x1000, 0x1008], limit=4)
    assert wps.overlapping(0x1004, 8) == [0x1000, 0x1008]
    # on the engine path: one dangling write spans two prefix canary words
    text = "stack push main\nmalloc obj 64\nfree obj\nwriteabs obj+4 8 25\nend\n"
    eng = Engine(parse_trace(text), small_config())
    out = eng.run()
    (summary,) = eng.replay_summaries
    assert len(summary.armed_words) == 2 and summary.trap_count == 2
    assert [r.kind for r in out.reports] == [KIND_UAF, KIND_UAF]
    assert [r.offending_events for r in out.reports] == [((3, ("main",)),)] * 2


def test_arm_limit_orders_by_address():
    wps, unwatched = WatchpointSet.arm([0x5000, 0x1000, 0x3000, 0x2000, 0x4000], limit=4)
    assert sorted(wps.traps) == [0x1000, 0x2000, 0x3000, 0x4000]
    assert wps.overlapping(0x1000, 0x4000) == [0x1000, 0x2000, 0x3000, 0x4000]
    assert unwatched == [0x5000]


def test_canary_replant_during_replay_does_not_trap():
    # a's interior canary word is corrupted and re-planted during the
    # replayed free/alloc cycle; only the trace write may trap
    text = """
    malloc a 24
    write a 24 8 00
    free a
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    (report,) = out.reports
    assert report.kind == "overflow"
    assert [eid for eid, _ in report.offending_events] == [1]
    (summary,) = eng.replay_summaries
    assert summary.trap_count == 1  # the quarantine refill did not trap


def test_uaf_report_accumulates_every_dangling_write():
    text = """
    stack push main
    malloc a 64
    free a
    write a 0 4 11
    write a 2 2 22
    stack pop
    end
    """
    out = tw.run_text(text, small_config())
    (report,) = out.reports
    assert report.kind == "use-after-free"
    assert [eid for eid, _ in report.offending_events] == [3, 4]
    assert report.free_event == 2
    assert report.alloc_event == 1


def test_site_log_records_replayed_alloc_and_free_sites():
    text = """
    stack push main
    stack push maker
    malloc a 64
    stack pop
    stack push dropper
    free a
    stack pop
    write a 0 1 00
    stack pop
    end
    """
    out = tw.run_text(text, small_config())
    (report,) = out.reports
    assert report.alloc_stack == ("main", "maker")
    assert report.free_stack == ("main", "dropper")


def test_trap_stacks_match_pushpop_derivation():
    text = """
    stack push main
    malloc a 24
    stack push helper
    stack push inner
    write a 24 1 00
    stack pop
    stack pop
    free a
    stack pop
    end
    """
    events = parse_trace(text)
    out = tw.run_events(events, small_config())
    (report,) = out.reports
    (event_id, stack) = report.offending_events[0]
    assert stack == stacks_at_events(events)[event_id] == ("main", "helper", "inner")


def test_uaf_three_frames_deep_names_the_oracles_stacks():
    text = "stack push main\n"
    for step, line in (("make", "malloc a 64"), ("drop", "free a"), ("use", "write a 8 4 00")):
        pushes = "".join(f"stack push {step}{depth}\n" for depth in range(3))
        text += pushes + line + "\n" + "stack pop\n" * 3
    events = parse_trace(text + "stack pop\nend\n")
    (report,) = tw.run_events(events, small_config()).reports
    assert report.kind == KIND_UAF
    ((write_event, write_stack),) = report.offending_events
    assert events[write_event].kind is EventKind.WRITE
    assert write_stack == stacks_at_events(events)[write_event] == ("main", "use0", "use1", "use2")
    assert report.alloc_stack == stacks_at_events(events)[report.alloc_event] == ("main", "make0", "make1", "make2")
    assert report.free_stack == stacks_at_events(events)[report.free_event] == ("main", "drop0", "drop1", "drop2")


def test_replay_purity_log_does_not_grow():
    text = """
    malloc a 24
    call time
    call close 3
    write a 24 1 00
    free a
    call time
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    # mid-epoch rollback replayed one time + one close; afterwards the
    # second time call appended normally: 2 recordables + 1 deferrable
    assert [r.kind for r in out.reports] == ["overflow"]
    times = [res for _, name, res in out.extcall_results if name == "time"]
    assert times == [1000, 1001]
    assert eng.syscalls.files.files[3].open is False  # applied exactly once


def test_watchpoints_disarmed_after_replay():
    events = parse_trace("malloc a 24\nwrite a 24 1 00\nfree a\nwrite a 0 1 07\nend\n")
    eng = Engine(events, small_config())
    out = eng.run()
    # the dangling write at event 3 happens after the rollback completed;
    # it corrupts a quarantined canary and is caught at the end boundary
    kinds = sorted(r.kind for r in out.reports)
    assert kinds == ["overflow", "use-after-free"]
    assert len(eng.replay_summaries) == 2


def test_unwatched_words_reported_without_attribution():
    lines = []
    for i in range(5):
        lines.append(f"malloc v{i} 24")
        lines.append(f"write v{i} 24 1 aa")
        lines.append(f"reg r{i} = v{i}")
    lines.append("end")
    events = parse_trace("\n".join(lines))
    eng = Engine(events, small_config())
    out = eng.run()
    attributed = [r for r in out.reports if not r.unattributed]
    unattributed = [r for r in out.reports if r.unattributed]
    assert len(attributed) == 4 and len(unattributed) == 1
    assert unattributed[0].offending_events == ()
    (summary,) = eng.replay_summaries
    # the unwatched word is the highest by address order
    assert max(summary.unwatched_words) > max(summary.armed_words)


def test_evidence_at_a_free_ends_the_epoch_with_one_replay():
    # the free's evidence ends epoch 0 after the free, with the one replay
    # the forced rollback asks for; the leak waits for the end boundary
    events = parse_trace("malloc a 200\nwrite a 200 1 42\nfree a\nmalloc b 40\nend\n")
    eng = Engine(events, small_config(), force_rollback_epochs=(0,))
    out = eng.run()
    assert out.epochs == 2
    replayed = [s.epoch for s in eng.replay_summaries]
    assert len(replayed) == len(set(replayed))
    overflow, leak = sorted(out.reports, key=lambda r: r.kind != "overflow")
    assert overflow.kind == "overflow" and overflow.epoch == 0
    assert [eid for eid, _ in overflow.offending_events] == [1]
    assert leak.kind == "leak" and leak.epoch == 1 and leak.object_addr == out.alloc_sequence[1]
    assert [eid for eid, _ in leak.offending_events] == [3]


def stray_in_replay(eng, stray) -> None:
    """Call stray() before each write event that eng replays."""
    execute = eng._execute

    def execute_with_stray(ev):
        if eng.mode is Mode.REPLAY and ev.kind is EventKind.WRITE:
            stray()
        return execute(ev)

    eng._execute = execute_with_stray


# epoch 1 writes one word, on the first page of big
BIG = "malloc big 16000\nglobal 0 = big\ncall fork\nwrite big 0 8 11\nend\n"


def run_with_stray_write(fill: int) -> None:
    # replay of epoch 1 also makes a stray write two pages further
    # into big, which the recorded epoch never wrote
    eng = Engine(parse_trace(BIG), small_config(), force_rollback_epochs={1})
    stray_in_replay(eng, lambda: eng.image.write_fill(eng.alloc_sequence[eng.events[0].alloc] + 8192, 8, fill))
    eng.run()


def test_write_made_only_during_replay_is_a_divergence():
    with pytest.raises(ReplayDivergence, match="replayed state differs"):
        run_with_stray_write(0x5A)


def test_write_of_the_same_bytes_to_a_page_the_epoch_never_wrote_is_a_divergence():
    # the page already holds zeros, so only the undo log's new key differs
    with pytest.raises(ReplayDivergence, match="replayed state differs"):
        run_with_stray_write(0x00)


@pytest.mark.parametrize(
    "text,force",
    [(BIG, {1}), ("malloc a 24\nwrite a 24 1 42\nfree a\nend\n", ())],
    ids=["boundary", "free"],
)
def test_replay_that_leaves_a_register_different_is_a_divergence(text, force):
    eng = Engine(parse_trace(text), small_config(), force_rollback_epochs=force)
    stray_in_replay(eng, lambda: eng.image.write_register(0, 1))
    with pytest.raises(ReplayDivergence, match="replayed state differs"):
        eng.run()


def test_replayed_malloc_that_gets_another_address_is_a_divergence():
    # epoch 1 writes, then mallocs; its replay allocates an extra object
    # at the write, so the replayed malloc gets the next slot
    text = "malloc a 16\nglobal 0 = a\ncall fork\nwrite a 0 8 11\nmalloc b 16\nglobal 1 = b\nend\n"
    eng = Engine(parse_trace(text), small_config(), force_rollback_epochs={1})
    stray_in_replay(eng, lambda: eng.allocator.allocate(16))
    with pytest.raises(ReplayDivergence, match=r"event 4: replayed allocation at 0x[0-9a-f]+ diverges"):
        eng.run()
