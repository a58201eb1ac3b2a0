"""Compare two builds of tripwire over the fuzzed error traces.

A change that must keep output stable, or change it only for a named
cause, is checked by dumping every fuzzed run under the old build and
under the new one, then diffing the dumps field by field:

    PYTHONPATH=OLD/src python tests/fuzz_compare.py dump old.jsonl
    PYTHONPATH=src python tests/fuzz_compare.py dump new.jsonl
    PYTHONPATH=src python tests/fuzz_compare.py diff old.jsonl new.jsonl

`dump` runs `test_replay_fuzz.error_trace` for each seed (0-1499 by
default, `--seeds START:STOP`) at 30 and 60 operations, each without
and with dangling detection, with the quarantine count and watchpoint
budget drawn from the seed as the fuzz test draws them: 6,000 runs by
default. It writes one JSON line per run: the reports as the CLI's JSON
renders them, the final state hash, the scan records, the allocation
sequence, the call results, the exception (type and message) if the
run raised, and, also when it raised, the state hash each replay
checked (its summary's orig_hash, in replay order), the sha256 of the
canary bitmap at the end of the run, and whether a trace write
overlapped the span [payload - 24, payload) of a slot carved at the
time of the write, the span that held the in-band slot header before
the guard region grew to cover it. Two fields check the parser:
`events`, the sha256 of every parsed event's fields, and
`parse_error`, what parsing the trace with one line broken raises
(`type: message`, or null). The
broken line and the way it is broken are drawn from the run id: drop
the line's last token, or replace an integer token with `zz`, a fill
byte with `-1` or a name with `9x`.

`diff` counts, per field, the runs whose values differ, and how many
of those wrote into a header under either build. It lists up to ten
run ids per field that differ in a run that wrote into no header, and
counts the parse errors that changed by old and new message. It sorts
the reports that differ into three groups: overflows the new build adds
on a header word, reports that are identical except that the new build
leaves them unattributed, and all others.

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
from tripwire.engine import Engine
from tripwire.errors import NotAHeapObject
from tripwire.reports import report_to_dict
from tripwire.trace import parse_trace
from tripwire.vheap import WORD

from test_state_hash import fuzz_case

FIELDS = (
    "reports",
    "final_state_hash",
    "replay_hashes",
    "scan_records",
    "alloc_sequence",
    "extcall_results",
    "error",
    "bitmap_sha256",
    "events",
    "parse_error",
)

# the span of the in-band header, [payload - HEADER_SPAN, payload), in
# the builds that wrote one
HEADER_SPAN = 24


def fuzz_runs(seeds: range):
    """(run id, trace text, config) for every run of the comparison."""
    for seed in seeds:
        for ops in (30, 60):
            for dangling in (False, True):
                run_id = f"{seed}/{ops}/{'dangling' if dangling else 'plain'}"
                yield (run_id, *fuzz_case(seed, ops, dangling=dangling))


def writes_header(allocator, addr: int, length: int) -> bool:
    """True when [addr, addr + length) overlaps the header of a carved slot.

    Headers are whole words, so testing the first byte and every word
    start in the range finds each one the write touches.
    """
    for at in (addr, *range((addr + WORD - 1) & ~(WORD - 1), addr + length, WORD)):
        try:
            payload = allocator.object_bounds(at).payload
        except NotAHeapObject:
            continue
        if payload - HEADER_SPAN <= at < payload:
            return True
    return False


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


def run_one(text: str, config: tw.EngineConfig, run_id: str = "") -> dict:
    events = parse_trace(text)
    engine = Engine(events, config)
    hit = []
    write_fill = engine.image.write_fill

    def watched_write_fill(addr, length, fill, internal=True):
        if not internal and not hit and writes_header(engine.allocator, addr, length):
            hit.append(addr)
        return write_fill(addr, length, fill, internal)

    engine.image.write_fill = watched_write_fill
    record = dict.fromkeys(FIELDS)
    try:
        out = engine.run()
    except Exception as err:  # a run that raises is recorded, not fatal
        record["error"] = f"{type(err).__name__}: {err}"
    else:
        record.update(
            reports=[report_to_dict(r) for r in out.reports],
            final_state_hash=out.final_state_hash,
            scan_records=[list(r) for r in out.scan_records],
            alloc_sequence=list(out.alloc_sequence),
            extcall_results=[list(r) for r in out.extcall_results],
        )
    record["replay_hashes"] = [s.orig_hash for s in engine.replay_summaries]
    record["bitmap_sha256"] = hashlib.sha256(engine.overflow.bitmap.bits).hexdigest()
    record["header_hit"] = bool(hit)
    record["events"] = events_digest(events)
    record["parse_error"] = parse_error(text, run_id)
    return record


def dump(path: str, seeds: range) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for run_id, text, config in fuzz_runs(seeds):
            record = run_one(text, config, run_id)
            f.write(json.dumps({"run": run_id, **record}, sort_keys=True) + "\n")


def load(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as f:
        return {rec["run"]: rec for rec in map(json.loads, f)}


def diff(old_path: str, new_path: str) -> None:
    old, new = load(old_path), load(new_path)
    if old.keys() != new.keys():
        raise SystemExit(f"the dumps cover different runs ({len(old)} and {len(new)})")
    hits = {run for run in old if old[run]["header_hit"] or new[run]["header_hit"]}
    differ, differ_hit = Counter(), Counter()
    elsewhere: dict[str, list[str]] = {name: [] for name in FIELDS}
    for run in old:
        for name in FIELDS:
            if old[run][name] != new[run][name]:
                differ[name] += 1
                if run in hits:
                    differ_hit[name] += 1
                else:
                    elsewhere[name].append(run)
    for label, dumped in (("old", old), ("new", new)):
        raised = Counter(rec["error"].split(":")[0] for rec in dumped.values() if rec["error"])
        print(f"{label}: {raised.total()} of {len(dumped)} runs raised {dict(sorted(raised.items()))}")
    print(f"runs with a trace write into a header: {len(hits)}")
    print(f"{'field':<18} {'differ':>7} {'in header runs':>15}")
    for name in FIELDS:
        print(f"{name:<18} {differ[name]:>7} {differ_hit[name]:>15}")
    for name in FIELDS:
        if elsewhere[name]:
            print(f"{name} differs outside header runs: {' '.join(elsewhere[name][:10])}")
    changed = Counter(
        (without_line(old[run]["parse_error"]), without_line(new[run]["parse_error"]))
        for run in old if old[run]["parse_error"] != new[run]["parse_error"]
    )
    for (was, now), count in changed.most_common():
        print(f"parse_error in {count} runs: {was} -> {now}")
    reports, runs, other_runs = Counter(), Counter(), []
    for run in old:
        groups = report_groups(old[run]["reports"], new[run]["reports"])
        reports.update(groups)
        runs.update(groups.keys())
        if "other" in groups:
            other_runs.append(run)
    for group in ("header overflow", "unattributed", "other"):
        print(f"reports in group {group!r}: {reports[group]} in {runs[group]} runs")
    if other_runs:
        print(f"runs with other report differences: {' '.join(other_runs[:10])}")


def on_header_word(report: dict) -> bool:
    """True for an overflow report whose corrupted word lies in the header
    span of the object it names."""
    at, payload = report["corrupted_addr"], report["object_addr"]
    return (report["kind"] == "overflow" and payload is not None
            and payload - HEADER_SPAN <= at < payload)


def unattributed(report: dict) -> str:
    """The JSON of a report as it reads when no watchpoint attributed it."""
    return json.dumps({**report, "offending_events": [], "unattributed": True}, sort_keys=True)


def report_groups(old: list[dict] | None, new: list[dict] | None) -> Counter:
    """Sort the reports that differ between two runs into groups.

    Counts, with multiplicity, the reports only the new run has that are
    overflows on a header word ("header overflow"), the old run's reports
    that the new run has with no writing event and the unattributed note
    ("unattributed"), and every other report that only one side has
    ("other").
    """
    as_json = [Counter(json.dumps(r, sort_keys=True) for r in reports or ()) for reports in (old, new)]
    gone, added = as_json[0] - as_json[1], as_json[1] - as_json[0]
    groups = Counter()
    for text, count in gone.items():
        bare = unattributed(json.loads(text))
        paired = min(count, added[bare])
        added[bare] -= paired
        groups["unattributed"] += paired
        groups["other"] += count - paired
    for text, count in added.items():
        groups["header overflow" if on_header_word(json.loads(text)) else "other"] += count
    return +groups


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
    c = sub.add_parser("diff", help="count the runs whose fields differ between two dumps")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args()
    if args.mode == "dump":
        dump(args.out, args.seeds)
    else:
        diff(args.old, args.new)


if __name__ == "__main__":
    main()
