"""Findings: the report record, stable text rendering, and JSON output.

The JSON report is rendered directly from the fields, as the text
json.dumps(doc, indent=2, sort_keys=True) writes, whose pure-Python
encoder (the C one does not indent) cost more than the replays behind
the reports. test_reports.test_json_layout_is_the_canonical_encoders
pins the layout to json.dumps; the golden digests pin the content.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _str  # a str as json.dumps writes it

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

# what an offending event did, in the text report; a write otherwise
_KIND_VERB = {
    KIND_DOUBLE_FREE: "freed again by",
    KIND_SEGFAULT: "faulted at",
    KIND_LEAK: "allocated by",
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
    verb = _KIND_VERB.get(r.kind, "written by")
    for event_id, stack in r.offending_events:
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


_PAD4, _PAD6, _PAD8, _PAD10 = " " * 4, " " * 6, " " * 8, " " * 10


def _int(v: int | None) -> str:
    return "null" if v is None else int.__repr__(v)


def _list(items: list[str], pad: str) -> str:
    """A JSON list of rendered items, closing at pad, items two spaces in."""
    if not items:
        return "[]"
    sep = f",\n{pad}  "
    return f"[\n{pad}  {sep.join(items)}\n{pad}]"


def _stack_json(stack: tuple[str, ...], pad: str, memo: dict) -> str:
    text = memo.get((stack, pad))
    if text is None:
        text = memo[stack, pad] = _list([_str(frame) for frame in stack], pad)
    return text


def _site_json(stack: tuple[str, ...] | None, event_id: int | None, memo: dict) -> str:
    if stack is None:
        return "null"
    return f'{{\n        "event_id": {_int(event_id)},\n        "stack": {_stack_json(stack, _PAD8, memo)}\n      }}'


def _report_json(r: ErrorReport, memo: dict) -> str:
    events = [
        f'{{\n          "event_id": {_int(event_id)},\n          "stack": {_stack_json(stack, _PAD10, memo)}\n        }}'
        for event_id, stack in r.offending_events
    ]
    return (
        f'{{\n      "alloc_site": {_site_json(r.alloc_stack, r.alloc_event, memo)},'
        f'\n      "corrupted_addr": {_int(r.corrupted_addr)},'
        f'\n      "epoch": {_int(r.epoch)},'
        f'\n      "free_site": {_site_json(r.free_stack, r.free_event, memo)},'
        f'\n      "kind": {_str(r.kind)},'
        f'\n      "object_addr": {_int(r.object_addr)},'
        f'\n      "object_size": {_int(r.object_size)},'
        f'\n      "offending_events": {_list(events, _PAD6)},'
        f'\n      "prior_free_site": {_site_json(r.prior_free_stack, r.prior_free_event, memo)},'
        f'\n      "reachable_freed": {"true" if r.reachable_freed else "false"},'
        f'\n      "unattributed": {"true" if r.unattributed else "false"}'
        "\n    }"
    )


def _setting_json(value: bool | int | list[str]) -> str:
    if isinstance(value, list):
        return _list([_str(item) for item in value], _PAD4)
    return ("true" if value else "false") if isinstance(value, bool) else int.__repr__(value)


def emit_json(reports, *, epochs: int, final_state_hash: str, events: int, config) -> str:
    """The report document: the configuration, the epoch and event counts,
    the final state hash and the sorted reports, every object's keys sorted."""
    memo: dict = {}  # (stack, pad) -> its text, for this call only
    body = _list([_report_json(r, memo) for r in sort_reports(reports)], "  ")
    # the settings too: with an indent, json.dumps runs its pure-Python encoder
    settings = ",".join(f"\n    {_str(name)}: {_setting_json(value)}" for name, value in sorted(config.to_dict().items()))
    return (
        f'{{\n  "config": {{{settings}\n  }},\n  "epochs": {_int(epochs)},\n  "events": {_int(events)},'
        f'\n  "final_state_hash": {_str(final_state_hash)},\n  "reports": {body}\n}}\n'
    )
