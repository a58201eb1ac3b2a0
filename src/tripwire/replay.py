"""Replay instrumentation: simulated watchpoints, evidence, and reports.

During re-execution the engine arms up to a small fixed number of
watchpoints (four by default, mirroring the x86 debug-register budget)
on corrupted canary words, ordered by address. Every trace-driven write
is checked for overlap with the armed words; engine-internal writes
such as canary planting never reach the check. Traps do not stop the
replay: the whole epoch range re-executes so one report can accumulate
every write that hit a watched word. Allocation call sites are
recorded only here, never during normal execution, in a plain dict the
engine passes to build_reports; a freed object's site is the one its
quarantine entry holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import reports as rp
from .quarantine import QuarantineEntry, UafItem
from .vheap import WORD


@dataclass
class Trap:
    event_id: int
    stack: tuple[str, ...]


class WatchpointSet:
    """Armed word watchpoints plus the traps they collected."""

    def __init__(self, words: list[int]):
        self.traps: dict[int, list[Trap]] = {word: [] for word in words}
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
        self.traps[word].append(Trap(event_id, stack))


@dataclass
class Evidence:
    """What one check found: the reason for a rollback and its reports."""

    # (corrupted word, owning payload, owning requested size)
    overflow: list[tuple[int, int | None, int | None]] = field(default_factory=list)
    uaf: list[UafItem] = field(default_factory=list)
    leaked: list[tuple[int, int]] = field(default_factory=list)  # (payload, requested)
    reachable_freed: list[QuarantineEntry] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.overflow or self.uaf or self.leaked or self.reachable_freed)

    def canary_words(self) -> list[int]:
        """The corrupted canary words, overflow first."""
        return [w for w, _, _ in self.overflow] + [item.word for item in self.uaf]


def build_reports(
    epoch: int,
    evidence: Evidence,
    traps: dict[int, list[Trap]],
    alloc_sites: dict[int, tuple[tuple[str, ...], int]],
) -> list[rp.ErrorReport]:
    """One report per finding, overflow, use-after-free, leak, reachable freed.

    A corrupted word's report lists the writes that trapped on it; a
    leak's lists its allocation when replay saw it. alloc_sites maps a
    payload to the (stack, event id) of its latest allocation that
    replay executed; a freed object's free site is its quarantine
    entry's.
    """
    findings = [(rp.KIND_OVERFLOW, w, p, size, None) for w, p, size in evidence.overflow]
    findings += [(rp.KIND_UAF, i.word, i.entry.payload, i.entry.requested, i.entry) for i in evidence.uaf]
    findings += [(rp.KIND_LEAK, None, p, size, None) for p, size in evidence.leaked]
    findings += [(rp.KIND_LEAK, None, e.payload, e.requested, e) for e in evidence.reachable_freed]
    out = []
    for kind, word, payload, size, freed in findings:
        site = alloc_sites.get(payload)
        if word is not None:
            events = tuple((t.event_id, t.stack) for t in traps.get(word, ()))
        elif freed is None and site is not None:
            events = ((site[1], site[0]),)
        else:
            events = ()
        out.append(
            rp.ErrorReport(
                kind=kind,
                epoch=epoch,
                corrupted_addr=word,
                object_addr=payload,
                object_size=size,
                offending_events=events,
                alloc_stack=site[0] if site else None,
                alloc_event=site[1] if site else None,
                alloc_prior_epoch=payload is not None and site is None,
                free_stack=freed.free_stack if freed else None,
                free_event=freed.free_event if freed else None,
                unattributed=word is not None and not events,
                reachable_freed=kind == rp.KIND_LEAK and freed is not None,
            )
        )
    return out
