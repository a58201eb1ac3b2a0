"""Ground-truth verdict check: do a program's reports match what was injected?

A clean program passes only with no reports at all. An error program
passes when

- each injected error is found: some report of its kind names the
  injected event (a leak report names the object instead, by address),
  or, when its epoch's replay ran out of watchpoints, an unattributed
  report of its kind covers a word that the injected write touched and
  that the replay left unwatched;
- every report traces back to an injected error: each event it names is
  an injected event of its kind whose write covers the reported word, or
  it is unattributed and its word lies inside an injected write of its
  kind, or it is a leak of an object whose root was dropped.

Payload addresses come from `RunOutcome.alloc_sequence`, which lists the
payload of every malloc in trace order.
"""

from __future__ import annotations

from workloads import DOUBLE_FREE, LEAK, OVERFLOW, UAF, Injected, Program

WORD = 8


def _touches(word: int, lo: int, hi: int) -> bool:
    return word < hi and lo < word + WORD


def check(program: Program, outcome, replay_summaries) -> list[str]:
    """Return the problems found; an empty list means the verdict is right."""
    if not program.injected:
        return [f"false positive: {r.kind} in epoch {r.epoch}" for r in outcome.reports]

    def span(inj: Injected) -> tuple[int, int]:
        payload = outcome.alloc_sequence[inj.alloc]
        return payload + inj.lo, payload + inj.hi

    unwatched = {(s.epoch, w) for s in replay_summaries for w in s.unwatched_words}
    by_event = {(inj.kind, inj.event): inj for inj in program.injected}
    leaks = {outcome.alloc_sequence[inj.alloc]: inj for inj in program.injected if inj.kind == LEAK}
    writes = [inj for inj in program.injected if inj.kind in (OVERFLOW, UAF)]
    problems = []
    found: set[Injected] = set()

    for r in outcome.reports:
        named = [by_event.get((r.kind, ev)) for ev, _ in r.offending_events]
        if r.kind == LEAK:
            ok = r.object_addr in leaks and not r.reachable_freed
            found.add(leaks.get(r.object_addr))
        elif r.kind == DOUBLE_FREE:
            ok = bool(named) and all(named)
            found.update(named)
        elif r.kind in (OVERFLOW, UAF) and r.offending_events:
            ok = all(inj is not None and _touches(r.corrupted_addr, *span(inj)) for inj in named)
            found.update(named)
        elif r.kind in (OVERFLOW, UAF):
            covering = [
                inj for inj in writes
                if inj.kind == r.kind and _touches(r.corrupted_addr, *span(inj))
            ]
            ok = bool(covering)
            if (r.epoch, r.corrupted_addr) in unwatched:
                found.update(covering)
        else:
            ok = False
        if not ok:
            problems.append(
                f"report traces back to no injected error: {r.kind} in epoch {r.epoch}, "
                f"events {[ev for ev, _ in r.offending_events]}, word {r.corrupted_addr}"
            )
    for inj in program.injected:
        if inj not in found:
            problems.append(f"missed injected {inj.kind} at event {inj.event} (epoch {inj.epoch})")
    return problems
