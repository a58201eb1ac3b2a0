"""Guards on the effectiveness corpus: rendered files, verdicts, output digests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripwire as tw

from corpus import ALL_CASES, GOLDEN_FLAGS, GOLDEN_PATH, TRACES_DIR, golden_digests


def test_rendered_traces_match_the_builders():
    on_disk = {p.name: p.read_text(encoding="utf-8") for p in TRACES_DIR.iterdir()}
    assert on_disk == {f"{case.name}.trace": case.text for case in ALL_CASES}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_case_reports_match_expected(case):
    out = tw.run_text(case.text, tw.EngineConfig())
    got = sorted((r.kind, tuple(eid for eid, _ in r.offending_events)) for r in out.reports)
    assert got == sorted(case.expected)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_case_reports_name_the_builders_malloc_and_free_events(case):
    out = tw.run_text(case.text, tw.EngineConfig())
    for r in out.reports:
        if r.object_addr is not None:
            assert r.alloc_event in case.alloc_events
            assert r.alloc_stack is not None
        if r.free_event is not None:
            assert r.free_event in case.free_events


# (kind, offending event ids, object size) per report. An allocator that
# read a clobbered in-band header back stopped on these at quarantine
# count 2, on the first with "still allocated" and on the second with a
# KeyError
HEADER_CLOBBER_REPORTS = {
    "of_header_clobber_size": (("leak", (0,), 24),) + (("overflow", (5,), 24),) * 3,
    "df_header_clobber": (("overflow", (4,), 24), ("double-free", (5,), 24)),
}


@pytest.mark.parametrize("name", sorted(HEADER_CLOBBER_REPORTS))
def test_header_clobber_reports_at_quarantine_count_two(name):
    (case,) = [case for case in ALL_CASES if case.name == name]
    out = tw.run_text(case.text, tw.EngineConfig(quarantine_max_count=2))
    got = sorted(
        (r.kind, tuple(eid for eid, _ in r.offending_events), r.object_size) for r in out.reports
    )
    assert got == sorted(HEADER_CLOBBER_REPORTS[name])


def test_full_class_guard_underflow_is_reported_when_the_slot_is_reused():
    # at quarantine count 1 the slot leaves quarantine and is planted
    # again before the boundary, so only the check at its free sees it
    (case,) = [case for case in ALL_CASES if case.name == "of_pow2_guard_underflow"]
    out = tw.run_text(case.text, tw.EngineConfig(quarantine_max_count=1))
    got = [(r.kind, tuple(eid for eid, _ in r.offending_events)) for r in out.reports]
    assert got == list(case.expected)


def test_cli_output_matches_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(GOLDEN_FLAGS)
    assert golden_digests() == golden


def test_python_dash_m_runs_the_cli():
    case = next(case for case in ALL_CASES if case.expected)
    src = str(Path(tw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "tripwire", "run", str(TRACES_DIR / f"{case.name}.trace"), *GOLDEN_FLAGS["text"]],
        capture_output=True, env=env, check=False,
    )
    assert done.returncode == 1, done.stderr
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert hashlib.sha256(done.stdout).hexdigest() == golden["text"][case.name]


def test_off_by_one_on_a_live_object_names_its_edge_word():
    (case,) = [case for case in ALL_CASES if case.name == "of_off_by_one_live"]
    out = tw.run_text(case.text, tw.EngineConfig())
    (report,) = out.reports
    assert (report.kind, report.corrupted_addr) == ("overflow", out.alloc_sequence[0] + 96)
    assert [eid for eid, _ in report.offending_events] == [2]


def test_writing_the_requested_bytes_of_an_edge_word_is_clean():
    (case,) = [case for case in ALL_CASES if case.name == "clean_edge_word_requested_bytes"]
    engine = tw.Engine(tw.parse_trace(case.text), tw.EngineConfig())
    out = engine.run()
    assert out.reports == () and engine.replay_summaries == []  # nothing replayed, nothing trapped


def test_stale_root_reuse_reallocates_the_slot_the_global_points_into():
    (case,) = [case for case in ALL_CASES if case.name == "leak_stale_root_reuse"]
    out = tw.run_text(case.text, tw.EngineConfig())
    assert out.reports == ()
    assert out.alloc_sequence[-1] == out.alloc_sequence[0]  # b took a's slot
