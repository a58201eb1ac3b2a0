"""Compare two builds of tripwire over the fuzzed error traces.

A change that must keep output stable, or change it only for a named
cause, is checked by dumping every fuzzed run under the old build and
under the new one, then diffing the dumps field by field:

    PYTHONPATH=OLD/src python tests/fuzz_compare.py dump old.jsonl
    PYTHONPATH=src python tests/fuzz_compare.py dump new.jsonl
    PYTHONPATH=src python tests/fuzz_compare.py diff old.jsonl new.jsonl

`dump` runs `test_replay_fuzz.error_trace` for each seed (0-1499 by
default, `--seeds START:STOP`) at 30 and 60 operations, each without
and with dangling detection, with pointer stores among the operations
under `--stores` and with nested frames and rebound variable names
under `--frames`, with the quarantine count and watchpoint
budget drawn from the seed as the fuzz test draws them: 6,000 runs by
default. `--detectors LIST` enables only the listed detectors (all
three by default; without `uaf`, a run without dangling detection frees
straight to the free lists and one with it quarantines without canary
fills), and `--quarantine-bytes N` sets the quarantine's capacity-sum
threshold, which the fuzzed traces reach only when it is small. It writes one JSON line per run: the reports as the CLI's JSON
renders them, the final state hash, the scan records, the allocation
sequence, the call results, the exception (type and message) if the
run raised, and, also when it raised, the sha256 of the canary shadow
at the end of the run, and `edge_word_write`: whether a
trace write overlapped the edge word of a slot whose request is not a
multiple of eight, the bytes [payload + requested, align_up(payload +
requested)) that a word-granular shadow leaves untracked. The flag is
computed through `allocator.object_bounds`, so both builds flag the
same runs. Two more flags are built the same way, from what both builds
share: `prior_epoch_object`, whether some detector evidence is on an
object that no malloc of the detecting epoch, before the detection,
returned (so its allocation site lies in an earlier epoch), and
`double_free`, whether the run reports a double free. Two flags mark
the runs whose reports depend on where an epoch ends: `mid_epoch_end`,
whether some free or quarantine eviction in normal execution returned
evidence, and `pre_malloc_trap`, whether some report other than a leak
lists an offending event before its allocation site (a write into the
slot's previous object). One more, `reused_reported_slot`, marks the
runs where a quarantine eviction in normal execution put a slot on the
free lists after a use after free on it had been reported, so that a
later malloc could take a slot a dangling pointer still writes into,
and later objects may lie at other addresses than under a build that
withholds the slot. Two fields check the
parser: `events`, the sha256 of every parsed event's fields, and
`parse_error`, what parsing the trace with one line broken raises
(`type: message`, or null). The broken line and the way it is broken
are drawn from the run id: drop the line's last token, or replace an
integer token with `zz`, a fill byte with `-1` or a name with `9x`.

`diff` counts, per field, the runs whose values differ, and how many
of those carry one of the flags under either build. It first drops
each report's epoch, since where epochs end may differ, and the
`prior_epoch` key of each `alloc_site`, and reads an `alloc_site` with
no stack, which marked a site an older build's replay did not see, as
no site. A field that only one dump has, such as the `replay_hashes`
of builds that hashed the state at each rollback, is reported as
skipped. It lists up to ten run ids per field that differ in a run not
flagged, and counts the parse errors that changed by old and new
message. It counts the reports, by (kind, corrupted word, object,
allocation event), that only the old or only the new build gives, in
all runs and in the runs flagged `reused_reported_slot` under neither
build. For each key both builds report, it sets aside each report
whose offending events a report of the other build lists too, and
counts the keys left with reports under both builds, by cause: a
`pre_malloc_trap` run whose new events are the old ones after the
allocation site ("pre-malloc trap dropped"); a `mid_epoch_end` or
`reused_reported_slot` run where some report of the key is
unattributed under either build, since the free's words and the scan's
share one replay's watchpoints and a withheld slot's words join a
scan's, or where the new events left are some of the old, the rest
having come after the epoch's end ("budget shared"); or neither
("other"). Last it counts the unattributed reports of the flagged runs
under each build.

This is a tool, not a test: it imports the fuzz generator from the
tests directory, so run it from the repository root as above.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
from collections import Counter

import tripwire as tw
from tripwire.config import parse_detectors
from tripwire.engine import Engine
from tripwire.errors import NotAHeapObject
from tripwire.reports import KIND_UAF, emit_json
from tripwire.trace import EventKind, parse_trace
from tripwire.vheap import FREE_LISTED

from test_state_hash import fuzz_case

FIELDS = (
    "reports",
    "final_state_hash",
    "scan_records",
    "alloc_sequence",
    "extcall_results",
    "error",
    "bitmap_sha256",
    "events",
    "parse_error",
)
FLAGS = (
    "edge_word_write",
    "prior_epoch_object",
    "double_free",
    "mid_epoch_end",
    "pre_malloc_trap",
    "reused_reported_slot",
)


def fuzz_runs(seeds: range, stores: bool = False, frames: bool = False, **overrides):
    """(run id, trace text, config) for every run of the comparison;
    overrides are EngineConfig fields."""
    for seed in seeds:
        for ops in (30, 60):
            for dangling in (False, True):
                run_id = f"{seed}/{ops}/{'dangling' if dangling else 'plain'}"
                yield (run_id, *fuzz_case(seed, ops, stores, frames, dangling=dangling, **overrides))


def events_digest(events) -> str:
    """sha256 of every field of the parsed events, as any build names them."""
    h = hashlib.sha256()
    for ev in events:
        value = ev.value and (ev.value.literal, ev.value.var, ev.value.delta)
        h.update(repr((
            ev.id, ev.kind.value, ev.line_no, ev.var, ev.size, ev.offset, ev.delta, ev.length,
            ev.fill, ev.frame, ev.reg, ev.index, value, ev.call_name, tuple(ev.call_args),
        )).encode())
    return h.hexdigest()


def operand_roles(tokens: list[str]) -> dict[int, str]:
    """Position -> "int", "fill" or "name" for the operands of one trace line."""
    keyword, value = tokens[0], tokens[-1]
    value_role = "int" if value[0].isdigit() else "name" if "+" not in value else None
    roles = {
        "stack": {2: "name"},
        "malloc": {1: "name", 2: "int"},
        "free": {1: "name"},
        "write": {1: "name", 2: "int", 3: "int", 4: "fill"},
        "writeabs": {2: "int", 3: "fill"},
        "read": {1: "name", 2: "int", 3: "int"},
        "reg": {1: "name", 3: value_role},
        "global": {1: "int", 3: value_role},
        "store": {1: "name", 2: "int", 4: value_role},
        "call": {1: "name"},
    }.get(keyword, {})
    return {at: role for at, role in roles.items() if role is not None and at < len(tokens)}


def parse_error(text: str, run_id: str) -> str | None:
    """Break one line of text, chosen from run_id; what parsing it raises."""
    rng = random.Random(run_id)
    lines = text.splitlines()
    numbered = [(i, line.split("#", 1)[0].split()) for i, line in enumerate(lines)]
    numbered = [(i, tokens) for i, tokens in numbered if tokens]
    mutation = rng.choice(("drop", "int", "fill", "name"))
    if mutation == "drop":
        at, tokens = rng.choice(numbered)
        tokens = tokens[:-1]
    else:
        sites = [(i, tokens, pos) for i, tokens in numbered
                 for pos, role in operand_roles(tokens).items() if role == mutation]
        at, tokens, pos = rng.choice(sites)
        tokens = tokens[:pos] + [{"int": "zz", "fill": "-1", "name": "9x"}[mutation]] + tokens[pos + 1:]
    lines[at] = " ".join(tokens)
    try:
        parse_trace("\n".join(lines))
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return None


def edge_words_hit(allocator, addr: int, length: int) -> bool:
    """True when [addr, addr + length) overlaps the edge word of a carved
    slot: [payload + requested, align_up(payload + requested)) for a
    request that is not a multiple of eight."""
    end = addr + length
    while addr < end:
        try:
            view = allocator.object_bounds(addr)
        except NotAHeapObject:
            return False
        edge = view.payload + view.requested
        if edge % 8 and addr < (edge + 7) & ~7 and edge < end:
            return True
        addr = view.payload + view.capacity  # the next slot's start
    return False


def watch_edge_words(engine) -> list[int]:
    """Record, on the engine's image, the trace writes that hit an edge word."""
    image, hit = engine.image, []

    def watched(write, length_of):
        def wrapper(addr, *args, **internal):  # every call is a trace write; older builds pass internal=False
            if edge_words_hit(engine.allocator, addr, length_of(args)):
                hit.append(addr)
            return write(addr, *args, **internal)

        return wrapper

    image.write_fill = watched(image.write_fill, lambda args: args[0])
    image.write_word = watched(image.write_word, lambda args: 8)
    return hit


def watch_evidence(engine) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Record, for the evidence the engine reports on heap objects, each
    object, the first event of the epoch that found it and the event the
    replay or report ran up to; and the id of each free that returned
    evidence in normal execution."""
    found, freed = [], []
    emit, execute = engine._emit_reports, engine._execute

    def emit_noting(evidence, traps):
        start = engine.snapshot.event_cursor
        found.extend((r.object_addr, start, engine.cursor) for r in evidence if r.object_addr is not None)
        return emit(evidence, traps)

    def execute_noting(ev):
        evidence = execute(ev)
        if evidence and engine.mode.name == "NORMAL":
            freed.append(ev.id)
        return evidence

    engine._emit_reports, engine._execute = emit_noting, execute_noting
    return found, freed


def watch_reuse(engine) -> list[int]:
    """Record the payload of each slot that a normal-mode eviction put on
    the free lists after a use after free on it was reported."""
    reused = []
    if engine.quarantine is not None:
        release = engine.quarantine.verify_and_release

        def release_noting(*args):
            # older builds pass the entry's view, newer ones (record, payload, capacity)
            payload = args[0].payload if len(args) == 1 else args[1]
            free_event = engine.allocator.object_bounds(payload).free_event
            evidence = release(*args)
            if engine.mode.name == "NORMAL" and engine.allocator.object_bounds(payload).state == FREE_LISTED:
                if any(r.kind == KIND_UAF and r.object_addr == payload and r.free_event == free_event
                       for r in engine.reports):
                    reused.append(payload)
            return evidence

        engine.quarantine.verify_and_release = release_noting
    return reused


def malloc_in(events, alloc_sequence, payload: int, start: int, stop: int) -> bool:
    """True when a malloc among events [start, stop) returned payload."""
    return any(
        ev.kind is EventKind.MALLOC and ev.alloc < len(alloc_sequence) and alloc_sequence[ev.alloc] == payload
        for ev in events[start:stop]
    )


def run_one(text: str, config: tw.EngineConfig, run_id: str = "") -> dict:
    events = parse_trace(text)
    engine = Engine(events, config)
    hit = watch_edge_words(engine)
    found, freed = watch_evidence(engine)
    reused = watch_reuse(engine)
    record = dict.fromkeys(FIELDS)
    try:
        out = engine.run()
    except Exception as err:  # a run that raises is recorded, not fatal
        record["error"] = f"{type(err).__name__}: {err}"
    else:
        record.update(
            reports=json.loads(emit_json(out.reports, epochs=out.epochs, final_state_hash=out.final_state_hash,
                                         events=out.events_total, config=config))["reports"],
            final_state_hash=out.final_state_hash,
            scan_records=[list(r) for r in out.scan_records],
            alloc_sequence=list(out.alloc_sequence),
            extcall_results=[list(r) for r in out.extcall_results],
        )
    record["bitmap_sha256"] = hashlib.sha256(engine.overflow.bitmap.bits).hexdigest()
    record["edge_word_write"] = bool(hit)
    record["prior_epoch_object"] = any(
        not malloc_in(events, engine.alloc_sequence, *evidence) for evidence in found
    )
    record["double_free"] = any(r["kind"] == "double-free" for r in record["reports"] or ())
    record["mid_epoch_end"] = bool(freed)
    record["pre_malloc_trap"] = any(
        r["kind"] != "leak" and r["alloc_site"] is not None
        and any(e["event_id"] < r["alloc_site"]["event_id"] for e in r["offending_events"])
        for r in record["reports"] or ()
    )
    record["reused_reported_slot"] = bool(reused)
    record["events"] = events_digest(events)
    record["parse_error"] = parse_error(text, run_id)
    return record


def dump(path: str, seeds: range, stores: bool = False, frames: bool = False, **overrides) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for run_id, text, config in fuzz_runs(seeds, stores, frames, **overrides):
            record = run_one(text, config, run_id)
            f.write(json.dumps({"run": run_id, **record}, sort_keys=True) + "\n")


def load(path: str) -> dict[str, dict]:
    """The runs of a dump by id, each report without its epoch, its
    `alloc_site` without its `prior_epoch` key, and None where it named
    no stack."""
    with open(path, encoding="utf-8") as f:
        runs = {rec["run"]: rec for rec in map(json.loads, f)}
    for rec in runs.values():
        for report in rec["reports"] or ():
            del report["epoch"]
            site = report["alloc_site"]
            if site is not None:
                site.pop("prior_epoch", None)
                if site["stack"] is None:
                    report["alloc_site"] = None
    return runs


def diff(old_path: str, new_path: str) -> None:
    old, new = load(old_path), load(new_path)
    if old.keys() != new.keys():
        raise SystemExit(f"the dumps cover different runs ({len(old)} and {len(new)})")
    flags = {flag: {run for run in old if old[run].get(flag) or new[run].get(flag)} for flag in FLAGS}
    flagged = set().union(*flags.values())
    present = [set().union(*dumped.values()) - {"run", *FLAGS} for dumped in (old, new)]
    both = present[0] & present[1]
    fields = [name for name in FIELDS if name in both] + sorted(both - set(FIELDS))
    differ, differ_flagged = Counter(), Counter()
    elsewhere: dict[str, list[str]] = {name: [] for name in fields}
    for run in old:
        for name in fields:
            if old[run][name] != new[run][name]:
                differ[name] += 1
                if run in flagged:
                    differ_flagged[name] += 1
                else:
                    elsewhere[name].append(run)
    for label, dumped in (("old", old), ("new", new)):
        raised = Counter(rec["error"].split(":")[0] for rec in dumped.values() if rec["error"])
        print(f"{label}: {raised.total()} of {len(dumped)} runs raised {dict(sorted(raised.items()))}")
    print("runs flagged: " + ", ".join(f"{flag} {len(runs)}" for flag, runs in flags.items()) + f", any {len(flagged)}")
    print(f"{'field':<18} {'differ':>7} {'in flagged runs':>16}")
    for name in fields:
        print(f"{name:<18} {differ[name]:>7} {differ_flagged[name]:>16}")
    for label, only in (("old", present[0] - both), ("new", present[1] - both)):
        for name in sorted(only):
            print(f"{name:<18} skipped: only in the {label} dump")
    for name in fields:
        if elsewhere[name]:
            print(f"{name} differs outside flagged runs: {' '.join(elsewhere[name][:10])}")
    changed = Counter(
        (without_line(old[run]["parse_error"]), without_line(new[run]["parse_error"]))
        for run in old if old[run]["parse_error"] != new[run]["parse_error"]
    )
    for (was, now), count in changed.most_common():
        print(f"parse_error in {count} runs: {was} -> {now}")
    lost, added, causes = Counter(), Counter(), Counter()
    for run in old:
        was, now = (by_key(rec["reports"]) for rec in (old[run], new[run]))
        for counts, ours, theirs in ((lost, was, now), (added, now, was)):
            for key in ours:
                gone = max(len(ours[key]) - len(theirs.get(key, ())), 0)
                counts["all"] += gone
                counts["unflagged"] += 0 if run in flags["reused_reported_slot"] else gone
        run_flags = {flag for flag, runs in flags.items() if run in runs}
        for key in was.keys() & now.keys():
            cause = event_change(was[key], now[key], run_flags)
            if cause is not None:
                causes[cause] += 1
    print(f"reports by (kind, word, object, allocation event): {lost['all']} only old, {added['all']} only new; "
          f"in runs not flagged reused_reported_slot: {lost['unflagged']} only old, {added['unflagged']} only new")
    print(f"keys whose offending events differ, by cause: {dict(sorted(causes.items()))}")
    unattributed = [sum(r["unattributed"] for run in flagged for r in dumped[run]["reports"] or ())
                    for dumped in (old, new)]
    print(f"unattributed reports in flagged runs: {unattributed[0]} old, {unattributed[1]} new")


def report_key(report: dict) -> tuple:
    """What a report says was found, without when or how replay
    attributed it: a write into an edge word may be found at an earlier
    boundary by one build and at the object's free by the other."""
    site = report["alloc_site"]
    return report["kind"], report["corrupted_addr"], report["object_addr"], site and site["event_id"]


def by_key(reports) -> dict[tuple, list[dict]]:
    """A run's reports grouped by report_key, in report order."""
    grouped: dict[tuple, list[dict]] = {}
    for report in reports or ():
        grouped.setdefault(report_key(report), []).append(report)
    return grouped


def event_ids(report: dict) -> list[int]:
    return [event["event_id"] for event in report["offending_events"]]


def event_change(was: list[dict], now: list[dict], run_flags: set[str]) -> str | None:
    """Why the reports of one key list different offending events, once
    each report whose events the other build lists too is set aside;
    None when one build's are all set aside (the rest count as reports
    only the other build gives)."""
    old_rest, new_rest = [], [event_ids(report) for report in now]
    for ids in map(event_ids, was):
        if ids in new_rest:
            new_rest.remove(ids)
        else:
            old_rest.append(ids)
    if not old_rest or not new_rest:
        return None
    site = now[0]["alloc_site"] and now[0]["alloc_site"]["event_id"]
    old_ids, new_ids = (sorted(set().union(*rest)) for rest in (old_rest, new_rest))
    if "pre_malloc_trap" in run_flags and site is not None and [e for e in old_ids if e > site] == new_ids:
        return "pre-malloc trap dropped"
    unattributed = not all(report["offending_events"] for report in was + now)
    if run_flags & {"mid_epoch_end", "reused_reported_slot"} and (unattributed or set(new_ids) < set(old_ids)):
        return "budget shared"
    return "other"


def without_line(error: str | None) -> str | None:
    """A parse error without its line number, so equal causes count together."""
    return error and re.sub(r": line \d+: ", ": ", error)


def _seed_range(text: str) -> range:
    start, stop = text.split(":")
    return range(int(start), int(stop))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("dump", help="run every fuzzed case and write one JSON line per run")
    d.add_argument("out")
    d.add_argument("--seeds", type=_seed_range, default=range(1500), help="START:STOP (default 0:1500)")
    d.add_argument("--stores", action="store_true", help="generate traces with pointer stores")
    d.add_argument("--frames", action="store_true", help="generate traces with nested frames and rebinding")
    d.add_argument("--detectors", type=parse_detectors, help="comma-separated detectors to enable (default: all)")
    d.add_argument("--quarantine-bytes", type=int, help="the quarantine's capacity-sum threshold")
    c = sub.add_parser("diff", help="count the runs whose fields differ between two dumps")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args()
    if args.mode == "dump":
        overrides = {"detectors": args.detectors, "quarantine_max_bytes": args.quarantine_bytes}
        overrides = {name: value for name, value in overrides.items() if value is not None}
        dump(args.out, args.seeds, args.stores, args.frames, **overrides)
    else:
        diff(args.old, args.new)


if __name__ == "__main__":
    main()
