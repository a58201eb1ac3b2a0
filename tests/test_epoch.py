from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripwire as tw
from tripwire.engine import Engine
from tripwire.epoch import Category, ModeledFileTable, SyscallModel, classify
from tripwire.errors import LogUnderrun, ReplayDivergence
from tripwire.trace import parse_trace

from conftest import small_config
from oracles import quarantine_fifo


@pytest.mark.parametrize(
    "name,expected",
    [
        ("getpid", Category.REPEATABLE),
        ("sleep", Category.REPEATABLE),
        ("pause", Category.REPEATABLE),
        ("mmap", Category.RECORDABLE),
        ("gettimeofday", Category.RECORDABLE),
        ("time", Category.RECORDABLE),
        ("clone", Category.RECORDABLE),
        ("open", Category.RECORDABLE),
        ("write", Category.REVOCABLE),
        ("read", Category.REVOCABLE),
        ("close", Category.DEFERRABLE),
        ("munmap", Category.DEFERRABLE),
        ("fork", Category.IRREVOCABLE),
        ("exec", Category.IRREVOCABLE),
        ("exit", Category.IRREVOCABLE),
        ("lseek", Category.IRREVOCABLE),
        ("pipe", Category.IRREVOCABLE),
        ("flock", Category.IRREVOCABLE),
        ("socket", Category.IRREVOCABLE),
        ("socketpair", Category.IRREVOCABLE),
        ("frobnicate", Category.IRREVOCABLE),  # unknown: conservative
    ],
)
def test_call_taxonomy(name, expected):
    assert classify(name) is expected


def test_fcntl_is_argument_sensitive():
    assert classify("fcntl", ("F_GETFL",)) is Category.REPEATABLE
    assert classify("fcntl", ("F_GETFD", "3")) is Category.REPEATABLE
    assert classify("fcntl", ("F_SETFL",)) is Category.IRREVOCABLE
    assert classify("fcntl", ()) is Category.IRREVOCABLE


def test_recordable_results_replayed_in_order():
    text = """
    malloc a 24
    call time
    call time
    write a 24 1 00
    free a
    end
    """
    # the overflow at free forces a mid-epoch rollback; replay must feed
    # both time results from the log without advancing the counter
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    times = [(eid, res) for eid, name, res in out.extcall_results if name == "time"]
    assert times == [(1, 1000), (2, 1001)]
    assert len(eng.replay_summaries) == 1
    assert [r.kind for r in out.reports] == ["overflow"]


def test_deferred_close_applies_exactly_once_at_commit():
    events = parse_trace("call open f\ncall close 3\ncall fork\nend\n")
    eng = Engine(events, small_config())
    eng.run()
    assert eng.syscalls.files.files[3].open is False


def test_deferred_close_leaves_file_open_within_epoch():
    model = SyscallModel()
    open_ev = parse_trace("call open f\n")[0]
    fd = model.handle(open_ev)
    close_ev = parse_trace(f"call close {fd}\n")[0]
    model.handle(close_ev)
    assert model.files.files[fd].open is True
    model.commit()
    assert model.files.files[fd].open is False


class ScanFileTable:
    """The file table as it was: open_new scans up from fd 3 for the
    first fd that is absent or closed."""

    def __init__(self):
        self.files = {0: [0, True], 1: [0, True], 2: [0, True]}

    def open_new(self):
        fd = 3
        while fd in self.files and self.files[fd][1]:
            fd += 1
        self.files[fd] = [0, True]
        return fd

    def reopen(self, fd):
        self.files[fd] = [0, True]

    def advance(self, fd, nbytes):
        self.files.setdefault(fd, [0, True])[0] += nbytes

    def set_position(self, fd, position):
        self.files.setdefault(fd, [0, True])[0] = position

    def close(self, fd):
        self.files.setdefault(fd, [0, True])[1] = False

    def snapshot(self):
        return {fd: tuple(state) for fd, state in self.files.items()}

    def restore(self, snap):
        self.files = {fd: list(state) for fd, state in snap.items()}


_fds = st.integers(min_value=-1, max_value=8)
_file_ops = st.lists(
    st.one_of(
        st.just(("open_new",)),
        st.tuples(st.just("reopen"), _fds),
        st.tuples(st.just("advance"), _fds, st.integers(0, 9)),
        st.tuples(st.just("set_position"), _fds, st.integers(0, 9)),
        st.tuples(st.just("close"), _fds),
        st.just(("snapshot",)),
        st.just(("restore",)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_file_ops)
# an fd closed at the snapshot, handed out again, then closed by the restore
@example([("open_new",), ("close", 3), ("snapshot",), ("open_new",), ("restore",), ("open_new",)])
def test_open_new_hands_out_the_fds_of_a_linear_scan(ops):
    table, scan = ModeledFileTable(), ScanFileTable()
    snaps = table.snapshot(), scan.snapshot()
    for op, *args in ops:
        if op == "snapshot":
            snaps = table.snapshot(), scan.snapshot()
        elif op == "restore":
            table.restore(snaps[0])
            scan.restore(snaps[1])
        else:
            assert getattr(table, op)(*args) == getattr(scan, op)(*args)
        assert table.snapshot() == scan.snapshot()


def test_deferred_calls_survive_rollback_and_apply_once():
    # epoch 0: open + close (deferred) + an overflow caught at epoch end;
    # the rollback replays the close as a no-op, commit applies it once
    text = """
    malloc a 32
    call open f
    call close 3
    writeabs a-32 8 00
    reg r0 = a
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    assert [r.kind for r in out.reports] == ["overflow"]
    assert eng.syscalls.files.files[3].open is False
    assert len(eng.replay_summaries) == 1


def test_revocable_write_position_restored_by_rollback():
    # write advances fd 3 by 100; replay re-advances from the restored
    # position, so the final position is exactly 100 either way
    text = """
    malloc a 24
    call write 3 100
    write a 24 1 00
    free a
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    assert eng.syscalls.files.files[3].position == 100
    assert len(eng.replay_summaries) == 1
    assert [r.kind for r in out.reports] == ["overflow"]


def test_lseek_is_a_boundary_and_sets_position():
    events = parse_trace("call write 3 50\ncall lseek 3 7\ncall write 3 10\nend\n")
    eng = Engine(events, small_config())
    out = eng.run()
    assert out.epochs == 2
    assert eng.syscalls.files.files[3].position == 17


def test_open_returns_lowest_free_fd_and_replays_it():
    events = parse_trace("call open f\ncall open g\ncall write 4 8\nend\n")
    eng = Engine(events, small_config(), force_rollback_epochs={0})
    out = eng.run()
    fds = [res for _, name, res in out.extcall_results if name == "open"]
    assert fds == [3, 4]
    assert eng.syscalls.files.files[4].position == 8


def raw_state(eng) -> tuple:
    """What a restore must bring back, read from raw memory, the cursor
    and the files, not through the engine's replay record: the heap
    prefix, the globals and the registers set, the shadow's mask bytes
    and the slot store, which holds the allocator's and the quarantine's
    state."""
    image = eng.image
    return (
        image.heap[: image.heap_prefix],
        image.globals_pages.data[: image.globals_pages.length],
        bytes(eng.overflow.bitmap.bits),
        bytes(image.slots.data),
        eng.cursor,
        eng.syscalls.files.snapshot(),
    )


def test_registers_set_in_an_earlier_epoch_cost_a_boundary_nothing():
    # 8,000 registers set in epoch 0, then three epochs that set none:
    # their snapshots save no globals page, and their leak marks resume
    # from the last one instead of reading every root again
    text = "malloc a 16\n" + "".join(f"reg r{i} = a\n" for i in range(8000))
    text += "call fork\nmalloc b 16\nwrite b 0 8 11\nfree b\n" * 3 + "end\n"
    eng = Engine(parse_trace(text), small_config())
    globals_logs, full_marks = [], []
    boundary, roots = eng._boundary, eng.leaks._roots

    def noted_boundary(*args, **kwargs):
        globals_logs.append(len(eng.snapshot.image[1]))  # the ending epoch's globals pages
        return boundary(*args, **kwargs)

    def noted_roots():
        full_marks.append(eng.cursor)
        return roots()

    eng._boundary, eng.leaks._roots = noted_boundary, noted_roots
    out = eng.run()
    assert out.reports == () and out.epochs == 4
    assert globals_logs[0] > 0 and globals_logs[1:] == [0, 0, 0]
    assert full_marks == [8001]  # the first mark, at the first fork; the next three resume


def test_snapshot_then_immediate_rollback_preserves_state():
    eng = Engine([], small_config())
    eng._begin_epoch()
    before = raw_state(eng), eng._end_state()
    eng._restore_snapshot(eng.snapshot)
    assert (raw_state(eng), eng._end_state()) == before


def _heap_writes(eng, payload):
    rng = random.Random(5)
    for _ in range(1000):
        eng.image.write_fill(payload + rng.randrange(4096), 1, rng.randrange(256))


def _quarantined_free(eng, payload):
    eng.quarantine.on_free(eng.allocator.object_bounds(payload), 0)


# one change per piece of state rollback restores, made after the snapshot;
# the canary region is planted over bytes that already hold the canary, so
# only its bitmap bits change
STATE_MUTATIONS = {
    "heap_bytes": _heap_writes,
    "cursor": lambda eng, p: setattr(eng, "cursor", eng.cursor + 1),
    "register": lambda eng, p: eng.image.write_register(0, p),
    "global_word": lambda eng, p: eng.image.write_word(eng.config.globals_base + 8, 1),
    "canary_region": lambda eng, p: eng.overflow.plant(p + 64, p + 128),
    "allocation": lambda eng, p: eng.allocator.allocate(16),
    "quarantined_free": _quarantined_free,
    "file_position": lambda eng, p: eng.syscalls.files.advance(3, 10),
}


@pytest.mark.parametrize("mutation", STATE_MUTATIONS)
def test_snapshot_survives_a_thousand_heap_writes(mutation):
    # every piece of state is in the record a replay is checked against
    # (a change moves it) and is restored byte for byte
    eng = Engine(parse_trace("malloc a 16\nend\n"), small_config())
    payload = eng.allocator.allocate(4096)
    eng.image.write_fill(payload + 64, 64, eng.config.canary_byte)
    eng._begin_epoch()
    before = raw_state(eng)
    STATE_MUTATIONS[mutation](eng, payload)
    assert raw_state(eng) != before
    mutated = eng._end_state()
    eng._restore_snapshot(eng.snapshot)
    assert eng._end_state() != mutated
    assert raw_state(eng) == before


def test_first_epoch_begins_before_event_zero():
    out = tw.run_text("", small_config())
    assert out.epochs == 1
    out = tw.run_text("malloc a 16\nfree a\nend\n", small_config())
    assert out.epochs == 1  # no irrevocable call: the whole trace is one epoch


def test_boundary_minimality_epochs_track_irrevocable_calls():
    # repeatable/recordable/revocable/deferrable calls do not end epochs
    text = """
    call getpid
    call time
    call write 3 10
    call close 3
    call fcntl F_GETFL
    call fork
    call gettimeofday
    call socketpair
    end
    """
    out = tw.run_text(text, small_config())
    assert out.epochs == 3  # boundaries: fork, socketpair (+ end of trace)


def test_leak_with_detector_disabled_commits_clean():
    config = small_config(detectors=frozenset({"overflow", "uaf"}))
    out = tw.run_text("malloc a 16\nend\n", config)
    assert out.reports == ()


def test_log_underrun_is_a_hard_failure():
    model = SyscallModel()
    model.begin_replay()
    ev = parse_trace("call time\n")[0]
    with pytest.raises(LogUnderrun):
        model.handle(ev)


def test_replay_that_skips_a_logged_call_diverges_at_finish():
    model = SyscallModel()
    first, second = parse_trace("call time\ncall getpid\n")
    model.handle(first)
    model.handle(second)
    model.begin_replay()
    assert model.handle(first) == 1000
    with pytest.raises(ReplayDivergence, match="re-ran 1 of 2"):
        model.finish_replay()


def test_rollback_restores_quarantine_fifo_exactly():
    text = """
    malloc a 16
    malloc b 16
    malloc c 16
    free a
    free b
    writeabs c-32 8 00
    reg r0 = c
    end
    """
    events = parse_trace(text)
    eng = Engine(events, small_config())
    out = eng.run()
    assert [r.kind for r in out.reports] == ["overflow"]
    # after the replayed epoch the quarantine holds a then b, FIFO intact
    assert quarantine_fifo(eng)[0] == [
        out.alloc_sequence[0],
        out.alloc_sequence[1],
    ]
