"""Replay instrumentation: simulated watchpoints and report attribution.

During re-execution the engine arms up to a small fixed number of
watchpoints (four by default, mirroring the x86 debug-register budget)
on corrupted canary words, ordered by address. Every trace-driven write
is checked for overlap with the armed words; engine-internal writes
such as canary planting never reach the check. Traps do not stop the
replay: the whole epoch range re-executes so one report can accumulate
every write that hit a watched word.

Evidence is a list of unattributed reports.ErrorReport: each detector
fills in what it found, a freed object's free event included, and
build_reports adds the traps replay collected and what the trace tells:
call stacks and allocation sites. Evidence with no corrupted word
(leaks, reachable freed objects) needs no replay and gets no traps.
"""

from __future__ import annotations

from . import reports as rp
from .trace import AllocSites, CallStacks
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


def build_reports(epoch: int, evidence: list[rp.ErrorReport], traps: dict[int, list[int]],
                  stacks: CallStacks, sites: AllocSites) -> list[rp.ErrorReport]:
    """Attribute each unattributed report: its epoch, the events behind
    it, the allocation site of its object and the call stack of each.

    A corrupted word's report lists the writes that trapped on it after
    its object's allocation (an earlier one hit the slot's previous
    object), and is marked unattributed when none did; a leak's lists
    its allocation. An object's allocation site is the latest malloc run
    so far that returned its payload; a freed object's report already
    carries the free event of its quarantine entry.
    """
    out = []
    for report in evidence:
        word, site = report.corrupted_addr, sites.at(report.object_addr)
        if word is not None:
            events = [eid for eid in traps.get(word, ()) if site is None or eid > site]
        else:  # a leaked object's allocation is its offending event
            events = () if report.reachable_freed else (site,)
        out.append(
            rp.ErrorReport(
                report.kind,
                epoch=epoch,
                corrupted_addr=word,
                object_addr=report.object_addr,
                object_size=report.object_size,
                offending_events=tuple((eid, stacks.at(eid)) for eid in events),
                alloc_stack=stacks.at(site) if site is not None else None,
                alloc_event=site,
                free_stack=None if report.free_event is None else stacks.at(report.free_event),
                free_event=report.free_event,
                prior_free_stack=report.prior_free_stack,
                prior_free_event=report.prior_free_event,
                unattributed=word is not None and not events,
                reachable_freed=report.reachable_freed,
            )
        )
    return out
