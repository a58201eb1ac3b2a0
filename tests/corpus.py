"""The effectiveness corpus: traces with injected errors and clean twins.

Each case is built with TraceBuilder so the expected event ids are
correct by construction (the builder counts events exactly the way the
parser assigns ids). The rendered .trace files shipped under
tests/traces/ are generated from these builders; a guard test keeps
them in sync. Run `python tests/corpus.py` to re-render.

`golden_digests.json` holds the sha256 of the CLI's standard output
for every corpus trace under each flag set in GOLDEN_FLAGS; a test
compares against it, so a refactor that changes any report text, JSON
field or state hash fails tier-1. The flag sets in HASH_MASKED have
`final_state_hash` masked before the digest is taken, so they pin
everything but the hash and stay unchanged when only hashes move. Run
`python tests/corpus.py --golden` to regenerate it, only when an output
change is intended.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

TRACES_DIR = Path(__file__).parent / "traces"
GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"

# CLI flag sets whose standard output the golden digests pin, by name
GOLDEN_FLAGS = {
    "text": ("--output", "text", "--dump-state-hash"),
    "json": ("--output", "json"),
    "dangling": ("--dangling", "--quarantine-count", "2", "--max-watchpoints", "1", "--dump-state-hash"),
    "json_hashless": ("--output", "json"),
}
HASH_MASKED = frozenset({"json_hashless"})
_HASH_FIELD = re.compile(r'"final_state_hash": "[0-9a-f]*"')


class TraceBuilder:
    def __init__(self, header: str = ""):
        self.lines: list[str] = [f"# {header}"] if header else []
        self.count = 0

    def ev(self, line: str) -> int:
        self.lines.append(line)
        self.count += 1
        return self.count - 1

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    # (kind, expected offending event ids) per expected report
    expected: tuple[tuple[str, tuple[int, ...]], ...] = ()
    alloc_events: tuple[int, ...] = ()
    free_events: tuple[int, ...] = ()


def _overflow_cases() -> list[Case]:
    cases = []

    t = TraceBuilder("interior canary hit, caught at free time")
    t.ev("stack push main")
    a = t.ev("malloc buf 24")
    t.ev("write buf 0 24 41")
    bad = t.ev("write buf 24 1 42")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_free_time_interior", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("interior canary hit, never freed, caught at epoch end")
    t.ev("stack push main")
    a = t.ev("malloc buf 100")
    bad = t.ev("write buf 104 4 55")  # first fully tracked interior word
    t.ev("reg keep = buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_epoch_end_interior", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("power-of-two object, neighbor guard word clobbered")
    t.ev("stack push main")
    a = t.ev("malloc left 32")
    b = t.ev("malloc right 32")
    bad = t.ev("writeabs left+32 8 00")
    t.ev("free left")
    t.ev("free right")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_neighbor_guard", t.text(), (("overflow", (bad,)),), (a, b)))

    t = TraceBuilder("write straddles the requested boundary")
    t.ev("stack push main")
    a = t.ev("malloc buf 20")
    bad = t.ev("write buf 16 16 77")  # bytes 16..31: tail lands on canaries
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    # two corrupted words: the partial word 16..23 and the tracked 24..31
    cases.append(
        Case("of_straddling_write", t.text(), (("overflow", (bad,)), ("overflow", (bad,))), (a,))
    )

    t = TraceBuilder("overflow in the second epoch")
    t.ev("stack push main")
    t.ev("call time")
    t.ev("call fork")
    a = t.ev("malloc buf 24")
    bad = t.ev("write buf 24 2 13")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_second_epoch", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("two overflows into two objects in one epoch")
    t.ev("stack push main")
    a = t.ev("malloc one 24")
    b = t.ev("malloc two 100")
    bad1 = t.ev("write one 24 1 31")
    bad2 = t.ev("write two 104 8 32")
    t.ev("reg k0 = one")
    t.ev("reg k1 = two")
    t.ev("stack pop")
    t.ev("end")
    cases.append(
        Case("of_two_objects", t.text(), (("overflow", (bad1,)), ("overflow", (bad2,))), (a, b))
    )

    t = TraceBuilder("underflow into the object's own guard word")
    t.ev("stack push main")
    a = t.ev("malloc buf 48")
    bad = t.ev("writeabs buf-32 4 99")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_own_guard_underflow", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("long overrun corrupts several canary words")
    t.ev("stack push main")
    a = t.ev("malloc buf 40")  # capacity 64: canaries at 40..63
    bad = t.ev("write buf 40 24 e1")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(
        Case(
            "of_multiword_overrun",
            t.text(),
            (("overflow", (bad,)), ("overflow", (bad,)), ("overflow", (bad,))),
            (a,),
        )
    )

    t = TraceBuilder("deep call stack at the overflowing write")
    t.ev("stack push main")
    t.ev("stack push parser")
    a = t.ev("malloc tok 24")
    t.ev("stack push fill")
    bad = t.ev("write tok 24 1 af")
    t.ev("stack pop")
    t.ev("stack pop")
    t.ev("free tok")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_deep_stack", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("tiny request rounds to the minimum class")
    t.ev("stack push main")
    a = t.ev("malloc tiny 8")  # capacity 16: canaries at 8..15
    bad = t.ev("write tiny 8 1 21")
    t.ev("free tiny")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_min_class", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("far jump lands in the next object's interior canaries")
    t.ev("stack push main")
    a = t.ev("malloc near 32")
    b = t.ev("malloc far 24")
    # near's payload + 88 == far's payload + 24 (one 32-class stride apart)
    bad = t.ev("writeabs near+88 4 44")
    t.ev("free near")
    t.ev("free far")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_nonadjacent_victim", t.text(), (("overflow", (bad,)),), (a, b)))

    t = TraceBuilder("overflow with interleaved reads and calls")
    t.ev("stack push main")
    a = t.ev("malloc buf 24")
    t.ev("call getpid")
    t.ev("read buf 0 24")
    bad = t.ev("write buf 25 2 66")
    t.ev("call time")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_interleaved_calls", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("same word written twice, both writes attributed")
    t.ev("stack push main")
    a = t.ev("malloc buf 24")
    bad1 = t.ev("write buf 24 1 01")
    bad2 = t.ev("write buf 25 1 02")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_two_writes_one_word", t.text(), (("overflow", (bad1, bad2)),), (a,)))

    t = TraceBuilder("large object, canary tail near capacity end")
    t.ev("stack push main")
    a = t.ev("malloc big 2000")  # capacity 2048
    t.ev("write big 0 2000 d0")
    bad = t.ev("write big 2040 8 d1")
    t.ev("free big")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_large_object_tail", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("overflow after the object crossed an epoch boundary")
    t.ev("stack push main")
    a = t.ev("malloc buf 24")
    t.ev("reg keep = buf")
    t.ev("call fork")
    bad = t.ev("write buf 26 1 09")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("of_prior_epoch_alloc", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("overflow caught at free time, then a leak found at the same epoch's end")
    a = t.ev("malloc a 200")
    bad = t.ev("write a 200 1 42")
    t.ev("free a")
    b = t.ev("malloc b 40")
    t.ev("end")
    cases.append(
        Case("of_then_leak_same_epoch", t.text(), (("overflow", (bad,)), ("leak", (b,))), (a, b))
    )

    t = TraceBuilder("off-by-one on a live object: one canary byte of the edge word")
    a = t.ev("malloc a 100")
    t.ev("reg r0 = a")
    bad = t.ev("write a 100 1 ff")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("of_off_by_one_live", t.text(), (("overflow", (bad,)),), (a,)))

    return cases


def _clean_cases() -> list[Case]:
    cases = []

    cases.append(Case("clean_empty", TraceBuilder("empty program").text()))

    t = TraceBuilder("allocate, fill exactly, free")
    t.ev("stack push main")
    t.ev("malloc buf 24")
    t.ev("write buf 0 24 41")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_fill_exact", t.text()))

    t = TraceBuilder("the requested bytes of a live object's edge word, none of its canaries")
    t.ev("malloc a 100")
    t.ev("reg r0 = a")
    t.ev("write a 96 4 ee")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("clean_edge_word_requested_bytes", t.text()))

    t = TraceBuilder("exact power-of-two sizes, last byte touched")
    t.ev("stack push main")
    for i, size in enumerate((16, 32, 64, 1024)):
        t.ev(f"malloc p{i} {size}")
        t.ev(f"write p{i} {size - 1} 1 7f")
        t.ev(f"free p{i}")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_pow2_boundaries", t.text()))

    t = TraceBuilder("nested frames, registers and globals")
    t.ev("stack push main")
    t.ev("stack push setup")
    t.ev("malloc cfg 48")
    t.ev("reg r0 = cfg+8")
    t.ev("global 0 = cfg")
    t.ev("global 1 = 123456")
    t.ev("stack pop")
    t.ev("write cfg 8 8 10")
    t.ev("free cfg")
    t.ev("global 0 = 0")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_frames_regs_globals", t.text()))

    t = TraceBuilder("external call medley across epochs")
    t.ev("stack push main")
    t.ev("call getpid")
    t.ev("call time")
    t.ev("call open logfile")
    t.ev("call write 3 512")
    t.ev("call read 0 64")
    t.ev("call close 3")
    t.ev("malloc buf 128")
    t.ev("global 9 = buf")  # rooted across the fork boundary
    t.ev("write buf 0 128 00")
    t.ev("call fork")
    t.ev("write buf 64 64 ff")
    t.ev("free buf")
    t.ev("global 9 = 0")
    t.ev("call gettimeofday")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_call_medley", t.text()))

    t = TraceBuilder("unfreed objects rooted in globals")
    t.ev("stack push main")
    for i in range(6):
        t.ev(f"malloc keep{i} {16 + 8 * i}")
        t.ev(f"global {i} = keep{i}")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_rooted_survivors", t.text()))

    t = TraceBuilder("alloc and free cycles reuse classes")
    t.ev("stack push main")
    for round_ in range(3):
        for i in range(4):
            t.ev(f"malloc c{round_}_{i} 24")
        for i in range(4):
            t.ev(f"free c{round_}_{i}")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_alloc_free_cycles", t.text()))

    t = TraceBuilder("payload data that looks like canaries")
    t.ev("stack push main")
    t.ev("malloc buf 64")
    t.ev("write buf 0 64 ca")  # canary byte in bounds is legal data
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_canary_valued_data", t.text()))

    t = TraceBuilder("read-heavy workload, reads find no evidence")
    t.ev("stack push main")
    t.ev("malloc buf 100")
    t.ev("write buf 0 100 31")
    for off in (0, 50, 99):
        t.ev(f"read buf {off} 1")
    t.ev("read buf 0 100")
    t.ev("free buf")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_read_heavy", t.text()))

    t = TraceBuilder("repeatable fcntl probe then an lseek boundary")
    t.ev("stack push main")
    t.ev("call fcntl F_GETFL 3")
    t.ev("call write 3 100")
    t.ev("call lseek 3 0")
    t.ev("call write 3 10")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_fcntl_lseek", t.text()))

    t = TraceBuilder("globals and registers only, no heap traffic")
    t.ev("stack push main")
    t.ev("global 3 = 777")
    t.ev("reg acc = 41")
    t.ev("global 4 = 778")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_no_heap", t.text()))

    t = TraceBuilder("clean exit mid-trace")
    t.ev("stack push main")
    t.ev("malloc buf 32")
    t.ev("write buf 0 32 05")
    t.ev("free buf")
    t.ev("call exit 0")
    cases.append(Case("clean_exit", t.text()))

    t = TraceBuilder("interior pointers stored and dropped")
    t.ev("stack push main")
    t.ev("malloc node 64")
    t.ev("reg cursor = node+17")
    t.ev("write node 0 64 aa")
    t.ev("free node")
    t.ev("reg cursor = 0")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("clean_interior_pointer", t.text()))

    return cases


def _uaf_cases() -> tuple[list[Case], Case]:
    cases = []

    t = TraceBuilder("dangling write at offset zero")
    t.ev("stack push main")
    a = t.ev("malloc obj 64")
    f = t.ev("free obj")
    bad = t.ev("write obj 0 4 11")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("uaf_offset_zero", t.text(), (("use-after-free", (bad,)),), (a,), (f,)))

    t = TraceBuilder("two dangling writes to one word, both attributed")
    t.ev("stack push main")
    a = t.ev("malloc obj 64")
    f = t.ev("free obj")
    bad1 = t.ev("write obj 0 2 22")
    bad2 = t.ev("write obj 4 2 23")
    t.ev("stack pop")
    t.ev("end")
    cases.append(
        Case("uaf_two_writes_one_word", t.text(), (("use-after-free", (bad1, bad2)),), (a,), (f,))
    )

    t = TraceBuilder("dangling write deep inside the 128-byte prefix")
    t.ev("stack push main")
    a = t.ev("malloc obj 256")
    t.ev("write obj 0 256 0f")
    f = t.ev("free obj")
    bad = t.ev("write obj 64 8 24")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("uaf_mid_prefix", t.text(), (("use-after-free", (bad,)),), (a,), (f,)))

    t = TraceBuilder("dangling write spans two canary words")
    t.ev("stack push main")
    a = t.ev("malloc obj 64")
    f = t.ev("free obj")
    bad = t.ev("writeabs obj+4 8 25")
    t.ev("stack pop")
    t.ev("end")
    cases.append(
        Case(
            "uaf_spanning_write",
            t.text(),
            (("use-after-free", (bad,)), ("use-after-free", (bad,))),
            (a,),
            (f,),
        )
    )

    t = TraceBuilder("two freed objects, each written after free")
    t.ev("stack push main")
    a1 = t.ev("malloc one 32")
    a2 = t.ev("malloc two 32")
    f1 = t.ev("free one")
    f2 = t.ev("free two")
    bad1 = t.ev("write one 0 1 26")
    bad2 = t.ev("write two 8 1 27")
    t.ev("stack pop")
    t.ev("end")
    cases.append(
        Case(
            "uaf_two_objects",
            t.text(),
            (("use-after-free", (bad1,)), ("use-after-free", (bad2,))),
            (a1, a2),
            (f1, f2),
        )
    )

    t = TraceBuilder("dangling write to the last tracked prefix word")
    t.ev("stack push main")
    a = t.ev("malloc obj 512")
    f = t.ev("free obj")
    bad = t.ev("write obj 120 8 28")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("uaf_prefix_last_word", t.text(), (("use-after-free", (bad,)),), (a,), (f,)))

    t = TraceBuilder("dangling write beyond the canaried prefix: not detected")
    t.ev("stack push main")
    t.ev("malloc obj 256")
    t.ev("free obj")
    t.ev("write obj 200 4 29")
    t.ev("stack pop")
    t.ev("end")
    negative = Case("uaf_beyond_prefix_negative", t.text())

    return cases, negative


def _header_cases() -> list[Case]:
    """Program writes into [payload - 24, payload), the words that held
    the in-band slot header; the guard region now covers them."""
    cases = []

    t = TraceBuilder("overflow across a freed neighbour's guard region; its size stays 24")
    a = t.ev("malloc v1 24")
    b = t.ev("malloc v2 24")
    t.ev("free v2")
    t.ev("malloc v4 1")
    t.ev("malloc v5 24")
    # the low three words of v2's guard region, the last one partly
    bad = t.ev("write v1 38 13 a1")
    t.ev("free v4")
    t.ev("free v5")
    t.ev("end")
    cases.append(
        Case("of_header_clobber_size", t.text(), (("leak", (a,)),) + (("overflow", (bad,)),) * 3, (a, b))
    )

    t = TraceBuilder("overflow into a freed neighbour's guard region, then it is freed again")
    t.ev("malloc v1 24")
    a = t.ev("malloc v2 24")
    t.ev("malloc v3 24")
    f = t.ev("free v2")
    bad_write = t.ev("write v1 48 1 01")
    bad = t.ev("free v2")
    t.ev("free v3")
    t.ev("free v1")
    t.ev("end")
    cases.append(
        Case("df_header_clobber", t.text(), (("overflow", (bad_write,)), ("double-free", (bad,))), (a,), (f,))
    )

    t = TraceBuilder("underflow over the guard words that held the header")
    a = t.ev("malloc a 24")
    t.ev("reg r0 = a")
    bad = t.ev("writeabs a-24 24 ff")
    t.ev("call fork")
    t.ev("free a")
    t.ev("end")
    cases.append(Case("of_header_underflow", t.text(), (("overflow", (bad,)),) * 3, (a,)))

    for below in (8, 16, 24):
        t = TraceBuilder(f"one-word underflow at {below} bytes below the payload")
        a = t.ev("malloc a 24")
        t.ev("reg r0 = a")
        bad = t.ev(f"writeabs a-{below} 8 ff")
        t.ev("call fork")
        t.ev("free a")
        t.ev("end")
        cases.append(Case(f"of_header_underflow_{below}", t.text(), (("overflow", (bad,)),), (a,)))

    t = TraceBuilder("underflow into a full-class object's guard; its slot may be reused before the boundary")
    a = t.ev("malloc a 32")
    t.ev("reg r0 = a")
    bad = t.ev("writeabs a-8 8 00")
    t.ev("free a")
    t.ev("malloc x 32")
    t.ev("free x")
    t.ev("malloc c 32")
    t.ev("reg r1 = c")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("of_pow2_guard_underflow", t.text(), (("overflow", (bad,)),), (a,)))

    return cases


def _store_cases() -> list[Case]:
    """Pointers held in heap objects, written with `store`."""
    cases = []

    t = TraceBuilder("a stale global into a slot that a later malloc reuses keeps the new object")
    t.ev("malloc a 1048576")
    t.ev("global 0 = a")
    t.ev("free a")
    t.comment("sixteen more MiB through the quarantine evict a's slot")
    for i in range(16):
        t.ev(f"malloc x{i} 1048576")
        t.ev(f"free x{i}")
    t.ev("call fork")
    t.ev("malloc b 1048576")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("leak_stale_root_reuse", t.text()))

    t = TraceBuilder("the only pointer to b, held in a, is overwritten in a later epoch")
    a = t.ev("malloc a 64")
    t.ev("global 0 = a")
    b = t.ev("malloc b 32")
    t.ev("store a 0 = b")
    t.ev("call fork")
    t.ev("store a 0 = 0")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("leak_heap_pointer_overwritten", t.text(), (("leak", (b,)),), (a, b)))

    t = TraceBuilder("a list linked by stores loses its only root: every node leaks")
    nodes = tuple(t.ev(f"malloc n{i} 48") for i in range(4))
    for i in range(3):
        t.ev(f"store n{i} 8 = n{i + 1}")
    t.ev("global 0 = n0")
    t.ev("call fork")
    t.ev("global 0 = 0")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("leak_list_head_dropped", t.text(), tuple(("leak", (n,)) for n in nodes), nodes))

    t = TraceBuilder("a rooted object takes the only pointer to a fresh one")
    t.ev("malloc a 64")
    t.ev("global 0 = a")
    t.ev("call fork")
    t.ev("malloc c 32")
    t.ev("store a 8 = c")
    t.ev("call fork")
    t.ev("end")
    cases.append(Case("clean_store_to_new_object", t.text()))

    t = TraceBuilder("a pointer stored into the canaried prefix of a freed object")
    t.ev("stack push main")
    a = t.ev("malloc a 64")
    t.ev("malloc b 32")
    t.ev("global 0 = b")
    f = t.ev("free a")
    bad = t.ev("store a 8 = b")
    t.ev("stack pop")
    t.ev("end")
    cases.append(Case("uaf_store_into_freed", t.text(), (("use-after-free", (bad,)),), (a,), (f,)))

    return cases


OVERFLOW_CASES = _overflow_cases()
CLEAN_CASES = _clean_cases()
UAF_CASES, UAF_NEGATIVE = _uaf_cases()
HEADER_CASES = _header_cases()
STORE_CASES = _store_cases()

ALL_CASES = OVERFLOW_CASES + CLEAN_CASES + UAF_CASES + [UAF_NEGATIVE] + HEADER_CASES + STORE_CASES


def render(directory: Path = TRACES_DIR) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for case in ALL_CASES:
        (directory / f"{case.name}.trace").write_text(case.text, encoding="utf-8")


def stdout_digest(trace: Path, flags: tuple[str, ...], mask_hash: bool = False) -> str:
    """sha256 of what `tripwire run TRACE FLAGS...` writes to standard output,
    with the JSON `final_state_hash` value blanked when mask_hash is set."""
    from tripwire.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["run", str(trace), *flags])
    out = buf.getvalue()
    if mask_hash:
        out, count = _HASH_FIELD.subn('"final_state_hash": ""', out)
        assert count == 1, f"{trace.name}: expected one final_state_hash field"
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def golden_digests(directory: Path = TRACES_DIR) -> dict[str, dict[str, str]]:
    """{flag set name: {case name: stdout digest}} over the rendered traces."""
    return {
        name: {
            case.name: stdout_digest(directory / f"{case.name}.trace", flags, name in HASH_MASKED)
            for case in ALL_CASES
        }
        for name, flags in GOLDEN_FLAGS.items()
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        GOLDEN_PATH.write_text(json.dumps(golden_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(GOLDEN_FLAGS)} x {len(ALL_CASES)} digests to {GOLDEN_PATH}")
    else:
        render()
        print(f"rendered {len(ALL_CASES)} traces to {TRACES_DIR}")
