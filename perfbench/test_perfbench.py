"""Tests for the benchmark's own code, at a desk-sized geometry."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import run
import verdict
import workloads
from layers import Tracer, layer_metrics, median_and_tail, plain_run
from tripwire import Engine, EngineConfig, emit_json, parse_trace
import tripwire

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = dict(heap_size=4 * 1024 * 1024, chunk_size=64 * 1024, globals_words=256, max_class=16 * 1024)


def small_programs(seed: int) -> dict[str, list[workloads.Program]]:
    rng = random.Random(seed)
    return {
        "long_epochs": [workloads.long_epochs_program(
            rng, events=1500, epochs=3, target_live=40, globals_words=256)],
        "boundary_heavy": [workloads.boundary_heavy_program(
            rng, live=60, epochs=6, max_shift=13, globals_words=256)],
        "error_dense": workloads.error_dense(seed, programs=6, globals_words=256),
    }


def execute(program, config):
    engine = Engine(parse_trace(program.text), config)
    return engine, engine.run()


def test_same_seed_gives_same_trace_text():
    first, again, other = small_programs(7), small_programs(7), small_programs(8)
    for name in first:
        assert [p.text for p in first[name]] == [p.text for p in again[name]]
        assert [p.text for p in first[name]] != [p.text for p in other[name]]
    assert [p.text for p in workloads.error_dense(3, programs=2)] == [
        p.text for p in workloads.error_dense(3, programs=2)
    ]


def test_generated_event_counts_match_the_parser():
    for programs in small_programs(1).values():
        for program in programs:
            assert len(parse_trace(program.text)) == program.events


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clean_generators_give_zero_reports_at_small_geometry(seed):
    config = EngineConfig(quarantine_max_count=16, **SMALL)
    programs = small_programs(seed)
    for program in programs["long_epochs"] + programs["boundary_heavy"]:
        engine, outcome = execute(program, config)
        assert outcome.reports == ()
        assert verdict.check(program, outcome, engine.replay_summaries) == []


def a_judged_error_program():
    config = EngineConfig(**SMALL)
    for seed in range(20):
        for program in small_programs(seed)["error_dense"]:
            try:
                engine, outcome = execute(program, config)
            except tripwire.TripwireError:
                continue
            if outcome.reports and program.injected:
                return program, engine, outcome
    raise AssertionError("no error program ran to completion")


def test_verdict_accepts_a_correct_run():
    program, engine, outcome = a_judged_error_program()
    assert verdict.check(program, outcome, engine.replay_summaries) == []


def test_verdict_rejects_tampered_reports():
    program, engine, outcome = a_judged_error_program()
    summaries = engine.replay_summaries
    first = outcome.reports[0]

    dropped = dataclasses.replace(outcome, reports=outcome.reports[1:])
    assert any("missed" in p for p in verdict.check(program, dropped, summaries))

    unrelated = len(parse_trace(program.text)) - 1  # the final `end` event
    moved = dataclasses.replace(
        first, offending_events=((unrelated, ()),), object_addr=1, corrupted_addr=1
    )
    tampered = dataclasses.replace(outcome, reports=(moved,) + outcome.reports[1:])
    assert any("traces back" in p for p in verdict.check(program, tampered, summaries))

    clean = dataclasses.replace(program, injected=())
    assert verdict.check(clean, outcome, summaries)


def test_traced_run_matches_untraced_output_and_names_every_layer():
    config = EngineConfig(**SMALL)
    tracer = Tracer()
    for program in small_programs(4)["error_dense"] + small_programs(4)["long_epochs"]:
        docs = []
        for traced in (False, True):
            engine = Engine(parse_trace(program.text), config)
            if traced:
                tracer.attach(engine)
            try:
                outcome = engine.run()
                docs.append(emit_json(outcome.reports, epochs=outcome.epochs, events=outcome.events_total,
                                      final_state_hash=outcome.final_state_hash, config=config))
            except tripwire.TripwireError as exc:
                docs.append(repr(exc))
            if traced:
                tracer.collect(engine)
        assert docs[0] == docs[1]
        plain_run(tripwire, config, parse_trace(program.text))
    metrics = layer_metrics(tracer, parse_s=0.0, emit_s=0.0, events=1, reports=0)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(metrics) | {
        "baseline.plain_us_per_event", "baseline.overhead_x", "tracing.overhead_s"
    }
    assert metrics["engine.epochs"] > 0 and metrics["replay.rollbacks"] > 0


def test_median_and_tail_keeps_ten_samples_beyond_the_tail():
    values = list(range(100))
    p50, tail, pct, n = median_and_tail(values)
    assert (p50, n) == (49.5, 100)
    assert sum(v > tail for v in values) == 10 and pct == 90.0
    assert median_and_tail([3.0, 1.0, 2.0])[1:] == (3.0, 100.0, 3)


def test_every_metric_name_is_well_formed():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == set(run.END_TO_END)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) and len(name) <= 64 for name in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
