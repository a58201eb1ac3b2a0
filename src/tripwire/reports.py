"""Findings: the report record, stable text rendering, and JSON output."""

from __future__ import annotations

import json
from dataclasses import dataclass

KIND_OVERFLOW = "overflow"
KIND_UAF = "use-after-free"
KIND_LEAK = "leak"
KIND_DOUBLE_FREE = "double-free"
KIND_SEGFAULT = "segfault"

_KIND_RANK = {
    KIND_OVERFLOW: 0,
    KIND_UAF: 1,
    KIND_LEAK: 2,
    KIND_DOUBLE_FREE: 3,
    KIND_SEGFAULT: 4,
}

_KIND_TITLE = {
    KIND_OVERFLOW: "heap buffer overflow",
    KIND_UAF: "use after free",
    KIND_LEAK: "memory leak",
    KIND_DOUBLE_FREE: "double free",
    KIND_SEGFAULT: "segmentation fault",
}


@dataclass(frozen=True)
class ErrorReport:
    """One error. A detector's evidence is a report without the epoch,
    offending events and allocation site; replay.build_reports adds
    them, the site from the trace."""

    kind: str
    epoch: int = -1  # -1 until replay attributes the report
    corrupted_addr: int | None = None
    object_addr: int | None = None
    object_size: int | None = None
    # (event id, call stack at that event), ascending by event id
    offending_events: tuple[tuple[int, tuple[str, ...]], ...] = ()
    alloc_stack: tuple[str, ...] | None = None
    alloc_event: int | None = None
    free_stack: tuple[str, ...] | None = None
    free_event: int | None = None
    prior_free_stack: tuple[str, ...] | None = None
    prior_free_event: int | None = None
    unattributed: bool = False
    reachable_freed: bool = False


def sort_reports(reports) -> list[ErrorReport]:
    return sorted(
        reports,
        key=lambda r: (
            r.epoch,
            r.corrupted_addr if r.corrupted_addr is not None else (r.object_addr or 0),
            _KIND_RANK.get(r.kind, 9),
            r.offending_events[0][0] if r.offending_events else -1,
        ),
    )


def _stack_lines(stack: tuple[str, ...], indent: str = "      ") -> list[str]:
    if not stack:
        return [f"{indent}(top level)"]
    return [f"{indent}{frame}" for frame in reversed(stack)]


def _render_one(r: ErrorReport) -> list[str]:
    title = _KIND_TITLE.get(r.kind, r.kind)
    if r.kind == KIND_LEAK and r.reachable_freed:
        title = "reachable freed object (potential dangling pointer)"
    lines = [f"{title} (epoch {r.epoch})"]
    if r.corrupted_addr is not None:
        label = "address" if r.kind == KIND_SEGFAULT else "corrupted word"
        lines.append(f"  {label}: 0x{r.corrupted_addr:016x}")
    if r.object_addr is not None:
        size = f" ({r.object_size} bytes requested)" if r.object_size is not None else ""
        lines.append(f"  object: 0x{r.object_addr:016x}{size}")
    for event_id, stack in r.offending_events:
        verb = {
            KIND_DOUBLE_FREE: "freed again by",
            KIND_SEGFAULT: "faulted at",
            KIND_LEAK: "allocated by",
        }.get(r.kind, "written by")
        lines.append(f"  {verb} event {event_id}:")
        lines.extend(_stack_lines(stack))
    if r.unattributed:
        lines.append("  note: no watchpoint available; offending writes not attributed")
    sites = (("allocated", r.alloc_stack, r.alloc_event), ("freed", r.free_stack, r.free_event),
             ("first freed", r.prior_free_stack, r.prior_free_event))
    for label, stack, event_id in sites:
        # a leak's offending event is its allocation already
        if stack is not None and not (label == "allocated" and r.kind == KIND_LEAK and r.offending_events):
            lines.append(f"  {label} by event {event_id}:")
            lines.extend(_stack_lines(stack))
    return lines


def emit_text(reports) -> str:
    """Stable, diff-able human report; one block per finding."""
    ordered = sort_reports(reports)
    if not ordered:
        return "no errors detected\n"
    blocks = ["\n".join(_render_one(r)) for r in ordered]
    return "\n\n".join(blocks) + "\n"


def _site(stack: tuple[str, ...] | None, event_id: int | None) -> dict | None:
    return None if stack is None else {"stack": list(stack), "event_id": event_id}


def report_to_dict(r: ErrorReport) -> dict:
    return {
        "kind": r.kind,
        "epoch": r.epoch,
        "corrupted_addr": r.corrupted_addr,
        "object_addr": r.object_addr,
        "object_size": r.object_size,
        "offending_events": [
            {"event_id": event_id, "stack": list(stack)} for event_id, stack in r.offending_events
        ],
        "alloc_site": _site(r.alloc_stack, r.alloc_event),
        "free_site": _site(r.free_stack, r.free_event),
        "prior_free_site": _site(r.prior_free_stack, r.prior_free_event),
        "unattributed": r.unattributed,
        "reachable_freed": r.reachable_freed,
    }


def emit_json(reports, *, epochs: int, final_state_hash: str, events: int, config) -> str:
    doc = {
        "reports": [report_to_dict(r) for r in sort_reports(reports)],
        "epochs": epochs,
        "final_state_hash": final_state_hash,
        "events": events,
        "config": config.to_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
