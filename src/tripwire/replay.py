"""Replay instrumentation: simulated watchpoints and report attribution.

During re-execution the engine arms up to a small fixed number of
watchpoints (four by default, mirroring the x86 debug-register budget)
on corrupted canary words, ordered by address. Every trace-driven write
is checked for overlap with the armed words; engine-internal writes
such as canary planting never reach the check. Traps do not stop the
replay: the whole epoch range re-executes so one report can accumulate
every write that hit a watched word. Allocation sites are recorded,
as event ids like the traps, only here, never during normal execution,
in a plain dict the engine passes to build_reports.

Evidence is a list of unattributed reports.ErrorReport: each detector
fills in what it found, a freed object's free event included, and
build_reports adds what replay learned.
"""

from __future__ import annotations

from dataclasses import replace

from . import reports as rp
from .trace import CallStacks
from .vheap import WORD


class WatchpointSet:
    """Armed word watchpoints plus the traps they collected."""

    def __init__(self, words: list[int]):
        # word -> the event id of each trapped write
        self.traps: dict[int, list[int]] = {word: [] for word in words}
        self._words = sorted(self.traps)

    @classmethod
    def arm(cls, words: list[int], limit: int) -> tuple["WatchpointSet", list[int]]:
        """Arm the first `limit` corrupted words by address order.

        Returns the set and the words left unwatched (reported without
        event attribution).
        """
        ordered = sorted(words)
        return cls(ordered[:limit]), ordered[limit:]

    def overlapping(self, addr: int, length: int) -> list[int]:
        end = addr + length
        return [w for w in self._words if w < end and addr < w + WORD]


def build_reports(
    epoch: int,
    evidence: list[rp.ErrorReport],
    traps: dict[int, list[int]],
    alloc_sites: dict[int, int],
    stacks: CallStacks,
) -> list[rp.ErrorReport]:
    """Attribute each unattributed report: its epoch, the events behind
    it, the allocation site of its object and the call stack of each.

    A corrupted word's report lists the writes that trapped on it, and
    is marked unattributed when none did; a leak's lists its allocation
    when replay saw it. alloc_sites maps a payload to the event id of
    its latest allocation that replay executed; a freed object's report
    already carries the free event of its quarantine entry.
    """
    out = []
    for report in evidence:
        word, site = report.corrupted_addr, alloc_sites.get(report.object_addr)
        if word is not None:
            events = traps.get(word, ())
        elif not report.reachable_freed and site is not None:
            events = (site,)
        else:
            events = ()
        out.append(
            replace(
                report,
                epoch=epoch,
                offending_events=tuple((eid, stacks.at(eid)) for eid in events),
                alloc_stack=stacks.at(site) if site is not None else None,
                alloc_event=site,
                alloc_prior_epoch=report.object_addr is not None and site is None,
                free_stack=None if report.free_event is None else stacks.at(report.free_event),
                unattributed=word is not None and not events,
            )
        )
    return out
