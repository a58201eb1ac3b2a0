"""Replay instrumentation: simulated watchpoints and report attribution.

During re-execution the engine arms up to a small fixed number of
watchpoints (four by default, mirroring the x86 debug-register budget)
on corrupted canary words, ordered by address. Every trace-driven write
is checked for overlap with the armed words; engine-internal writes
such as canary planting never reach the check. Traps do not stop the
replay: the whole epoch range re-executes so one report can accumulate
every write that hit a watched word. Allocation call sites are
recorded only here, never during normal execution, in a plain dict the
engine passes to build_reports.

Evidence is a list of unattributed reports.ErrorReport: each detector
fills in what it found, a freed object's free site included, and
build_reports adds what replay learned.
"""

from __future__ import annotations

from dataclasses import replace

from . import reports as rp
from .vheap import WORD


class WatchpointSet:
    """Armed word watchpoints plus the traps they collected."""

    def __init__(self, words: list[int]):
        # word -> (event id, call stack) per trapped write, as in offending_events
        self.traps: dict[int, list[tuple[int, tuple[str, ...]]]] = {word: [] for word in words}
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

    def record(self, word: int, event_id: int, stack: tuple[str, ...]) -> None:
        self.traps[word].append((event_id, stack))


def build_reports(
    epoch: int,
    evidence: list[rp.ErrorReport],
    traps: dict[int, list[tuple[int, tuple[str, ...]]]],
    alloc_sites: dict[int, tuple[tuple[str, ...], int]],
) -> list[rp.ErrorReport]:
    """Attribute each unattributed report: its epoch, the events behind
    it and the allocation site of its object.

    A corrupted word's report lists the writes that trapped on it, and
    is marked unattributed when none did; a leak's lists its allocation
    when replay saw it. alloc_sites maps a payload to the (stack, event
    id) of its latest allocation that replay executed; a freed object's
    report already carries the free site of its quarantine entry.
    """
    out = []
    for report in evidence:
        word, site = report.corrupted_addr, alloc_sites.get(report.object_addr)
        if word is not None:
            events = tuple(traps.get(word, ()))
        elif not report.reachable_freed and site is not None:
            events = ((site[1], site[0]),)
        else:
            events = ()
        out.append(
            replace(
                report,
                epoch=epoch,
                offending_events=events,
                alloc_stack=site[0] if site else None,
                alloc_event=site[1] if site else None,
                alloc_prior_epoch=report.object_addr is not None and site is None,
                unattributed=word is not None and not events,
            )
        )
    return out
