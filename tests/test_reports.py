from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout

import jsonschema
import pytest

import tripwire as tw
from tripwire import cli
from tripwire.cli import main
from tripwire.reports import KIND_OVERFLOW, KIND_SEGFAULT, KIND_UAF, ErrorReport, emit_json, emit_text, sort_reports

from conftest import small_config
from corpus import ALL_CASES, GOLDEN_FLAGS, TRACES_DIR
from test_replay_fuzz import error_trace

REPORT_SCHEMA = {
    "type": "object",
    "required": ["reports", "epochs", "final_state_hash", "events", "config"],
    "additionalProperties": False,
    "properties": {
        "epochs": {"type": "integer", "minimum": 1},
        "events": {"type": "integer", "minimum": 0},
        "final_state_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "config": {"type": "object"},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "kind", "epoch", "corrupted_addr", "object_addr", "object_size",
                    "offending_events", "alloc_site", "free_site", "prior_free_site",
                    "unattributed", "reachable_freed",
                ],
                "additionalProperties": False,
                "properties": {
                    "kind": {
                        "enum": ["overflow", "use-after-free", "leak", "double-free", "segfault"]
                    },
                    "epoch": {"type": "integer", "minimum": 0},
                    "corrupted_addr": {"type": ["integer", "null"]},
                    "object_addr": {"type": ["integer", "null"]},
                    "object_size": {"type": ["integer", "null"]},
                    "offending_events": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["event_id", "stack"],
                            "properties": {
                                "event_id": {"type": "integer", "minimum": 0},
                                "stack": {"type": "array", "items": {"type": "string"}},
                            },
                        },
                    },
                    "alloc_site": {"type": ["object", "null"]},
                    "free_site": {"type": ["object", "null"]},
                    "prior_free_site": {"type": ["object", "null"]},
                    "unattributed": {"type": "boolean"},
                    "reachable_freed": {"type": "boolean"},
                },
            },
        },
    },
}

UAF_TRACE = """stack push main
malloc a 64
free a
write a 0 4 11
stack pop
end
"""


def test_zero_reports_single_line():
    assert emit_text([]) == "no errors detected\n"


def test_overflow_block_has_figure_content_categories():
    out = tw.run_text("stack push main\nmalloc a 24\nwrite a 24 1 42\nfree a\nstack pop\nend\n",
                      small_config())
    text = emit_text(out.reports)
    assert "heap buffer overflow (epoch 0)" in text
    assert f"corrupted word: 0x{out.reports[0].corrupted_addr:016x}" in text
    assert "written by event 2:" in text
    assert "allocated by event 1:" in text
    assert "main" in text


def test_prior_epoch_allocation_named_in_text_and_json():
    config = small_config()
    out = tw.run_text("malloc a 32\nreg r0 = a\ncall fork\nreg r0 = 0\nend\n", config)
    assert emit_text(out.reports).splitlines()[2:] == ["  allocated by event 0:", "      (top level)"]
    doc = json.loads(
        emit_json(out.reports, epochs=out.epochs, final_state_hash=out.final_state_hash,
                  events=out.events_total, config=config)
    )
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["reports"][0]["alloc_site"] == {"stack": [], "event_id": 0}


def test_report_ordering_is_epoch_then_address_then_kind():
    reports = [
        ErrorReport(kind="leak", epoch=1, object_addr=0x100),
        ErrorReport(kind="overflow", epoch=0, corrupted_addr=0x500),
        ErrorReport(kind="overflow", epoch=0, corrupted_addr=0x200),
        ErrorReport(kind="use-after-free", epoch=0, corrupted_addr=0x200),
    ]
    ordered = sort_reports(reports)
    assert [(r.epoch, r.corrupted_addr or r.object_addr, r.kind) for r in ordered] == [
        (0, 0x200, "overflow"),
        (0, 0x200, "use-after-free"),
        (0, 0x500, "overflow"),
        (1, 0x100, "leak"),
    ]


def test_json_round_trips_and_validates():
    config = small_config()
    out = tw.run_text(UAF_TRACE, config)
    doc = json.loads(
        emit_json(out.reports, epochs=out.epochs, final_state_hash=out.final_state_hash,
                  events=out.events_total, config=config)
    )
    jsonschema.validate(doc, REPORT_SCHEMA)
    (report,) = doc["reports"]
    assert report["kind"] == "use-after-free"
    assert report["offending_events"][0]["event_id"] == 3
    assert report["alloc_site"]["event_id"] == 1
    assert report["free_site"]["event_id"] == 2
    assert doc["final_state_hash"] == out.final_state_hash


def test_empty_run_json_shape():
    config = small_config()
    out = tw.run_text("", config)
    doc = json.loads(
        emit_json(out.reports, epochs=out.epochs, final_state_hash=out.final_state_hash,
                  events=out.events_total, config=config)
    )
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["reports"] == []
    assert doc["epochs"] == 1


def assert_canonical(text: str) -> dict:
    """The report text is what json.dumps writes for its document."""
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


def test_json_layout_is_the_canonical_encoders():
    for flags in {flags for flags in GOLDEN_FLAGS.values() if "json" in flags}:
        for case in ALL_CASES:
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(["run", str(TRACES_DIR / f"{case.name}.trace"), *flags])
            jsonschema.validate(assert_canonical(buf.getvalue()), REPORT_SCHEMA)
    reported = 0
    for seed in range(200):
        rng = random.Random(seed)
        config = small_config(dangling=True, quarantine_max_count=2, max_watchpoints=1) if seed % 2 else small_config()
        out = tw.run_text(error_trace(rng, 40, stores=seed % 4 >= 2, frames=seed % 3 == 0), config)
        text = emit_json(out.reports, epochs=out.epochs, final_state_hash=out.final_state_hash,
                         events=out.events_total, config=config)
        reported += len(assert_canonical(text)["reports"])
    assert reported > 1000


def test_json_layout_of_reports_the_corpus_never_gives():
    reports = [
        ErrorReport(KIND_SEGFAULT, epoch=0, corrupted_addr=0x8, offending_events=((9, ("main", "f")),)),
        ErrorReport(KIND_OVERFLOW, epoch=1, corrupted_addr=0x10008, unattributed=True),  # in no heap object
        ErrorReport(KIND_UAF, epoch=2, corrupted_addr=0x1_0000_0040, object_addr=0x1_0000_0040, object_size=24,
                    offending_events=((5, ()),), alloc_stack=(), alloc_event=0, free_stack=(), free_event=2,
                    prior_free_stack=(), prior_free_event=1),
        ErrorReport('odd "kind" \\ \u00e9', epoch=3, object_addr=0x1_0000_0100,
                    offending_events=((4, ('quote"d', "back\\slash", "na\u00efve \u2603", "tab\tline\n")),)),
    ]
    config = small_config()
    doc = assert_canonical(emit_json(reports, epochs=4, final_state_hash="0" * 64, events=10, config=config))
    segfault, stray, uaf, odd = doc["reports"]
    assert (segfault["kind"], segfault["object_addr"], segfault["object_size"], segfault["alloc_site"]) == (
        "segfault", None, None, None)
    assert segfault["offending_events"] == [{"event_id": 9, "stack": ["main", "f"]}]
    assert (stray["object_addr"], stray["offending_events"], stray["unattributed"]) == (None, [], True)
    assert uaf["offending_events"] == [{"event_id": 5, "stack": []}]
    assert [uaf[site] for site in ("alloc_site", "free_site", "prior_free_site")] == [
        {"event_id": 0, "stack": []}, {"event_id": 2, "stack": []}, {"event_id": 1, "stack": []}]
    assert odd["kind"] == reports[3].kind
    assert odd["offending_events"][0]["stack"] == list(reports[3].offending_events[0][1])
    empty = assert_canonical(emit_json([], epochs=1, final_state_hash="", events=0, config=config))
    assert empty["reports"] == [] and empty["config"] == json.loads(json.dumps(config.to_dict()))


# -- CLI ---------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_run_without_options_builds_the_default_config(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "clean.trace", "end\n")
    configs = []
    run_events = cli.run_events
    monkeypatch.setattr(cli, "run_events", lambda events, config: configs.append(config) or run_events(events, config))
    assert main(["run", path]) == 0
    assert main(["run", path, "--quarantine-bytes", "4096", "--quarantine-count", "7", "--uaf-fill", "64"]) == 0
    assert configs == [
        tw.EngineConfig(),
        tw.EngineConfig(quarantine_max_bytes=4096, quarantine_max_count=7, uaf_fill_prefix=64),
    ]


def test_cli_clean_run_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "clean.trace", "malloc a 16\nfree a\nend\n")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "no errors detected\n"


def test_cli_error_run_exits_one_with_json(tmp_path, capsys):
    path = _write(tmp_path, "of.trace", "malloc a 24\nwrite a 24 1 42\nfree a\nend\n")
    assert main(["run", path, "--output", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["reports"][0]["kind"] == "overflow"


def test_cli_parse_error_exits_two_with_line_number(tmp_path, capsys):
    path = _write(tmp_path, "bad.trace", "malloc a 16\nwrite b 0 1 00\n")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "unbound" in err


def test_cli_unknown_flag_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "clean.trace", "end\n")
    assert main(["run", path, "--bogus"]) == 2


def test_cli_detector_selection_and_dangling(tmp_path, capsys):
    trace = "stack push main\nmalloc a 64\nreg r0 = a\nfree a\nwrite a 24 1 99\nstack pop\nend\n"
    path = _write(tmp_path, "dangle.trace", trace)
    # leak detector alone, dangling off: silence
    assert main(["run", path, "--detectors", "leak"]) == 0
    capsys.readouterr()
    # with --dangling the reachable freed object is the only finding
    assert main(["run", path, "--detectors", "leak", "--dangling"]) == 1
    out = capsys.readouterr().out
    assert "reachable freed object" in out
    assert "overflow" not in out


def test_cli_invalid_detectors_rejected(tmp_path, capsys):
    path = _write(tmp_path, "clean.trace", "end\n")
    assert main(["run", path, "--detectors", "overflow,psychic"]) == 2
    assert "unknown detectors" in capsys.readouterr().err


def test_cli_oversized_heap_exits_two_with_one_line(tmp_path, capsys):
    path = _write(tmp_path, "clean.trace", "malloc a 16\nend\n")
    assert main(["run", path, "--heap-size", str(2**62)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tripwire: ")
    assert "--heap-size" in lines[0]


def test_cli_dump_state_hash(tmp_path, capsys):
    path = _write(tmp_path, "clean.trace", "end\n")
    assert main(["run", path, "--dump-state-hash"]) == 0
    out = capsys.readouterr().out
    assert "final state hash: " in out


def test_cli_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "of.trace", "malloc a 24\nwrite a 24 1 42\nfree a\nend\n")
    main(["run", path, "--output", "json"])
    first = capsys.readouterr().out
    main(["run", path, "--output", "json"])
    assert capsys.readouterr().out == first


def test_cli_trace_runtime_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "oversize.trace", "malloc a 99999999\nend\n")
    assert main(["run", path]) == 2
    assert "event 0" in capsys.readouterr().err


def test_cli_custom_canary_byte(tmp_path, capsys):
    path = _write(tmp_path, "of.trace", "malloc a 24\nwrite a 24 1 ca\nfree a\nend\n")
    # writing 0xCA over an 0xCA canary is invisible by default
    assert main(["run", path]) == 0
    capsys.readouterr()
    # with a different canary byte the same write is evidence
    assert main(["run", path, "--canary-byte", "0x5A"]) == 1


@pytest.mark.parametrize("flag,value", [
    ("--quarantine-count", "0"),
    ("--max-watchpoints", "0"),
    ("--uaf-fill", "0"),
    ("--min-class", "24"),
    ("--heap-base", "0x10000000000000000"),
])
def test_cli_invalid_config_values_exit_two(tmp_path, flag, value, capsys):
    path = _write(tmp_path, "clean.trace", "end\n")
    assert main(["run", path, flag, value]) == 2
