"""Benchmark entry point: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `tripwire` is imported from its `src/`.
The workload's programs are generated from the seed, run in this one
process and thread, and every verdict is checked against the injected
ground truth. Programs that raise, and programs whose reports disagree
with the ground truth, are written to `.perfbench_out/` as repro traces.

With `--trace 0` the programs run in whole passes until the next pass
would end after `--seconds`; each program's time is its fastest pass.
The set-up is timed nine times, spread over the run, and the
end-to-end metrics are printed.
With `--trace 1` the programs run once untraced, three times on the
plain-execution baseline, and once with per-layer tracing attached, and
the per-layer metrics are printed. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

A report digest or final state hash that differs between passes, or
between the traced and untraced runs, is a benchmark error: exit 3 with
no result. Exit 2 means the program under test could not be found.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import verdict
import workloads
from layers import Tracer, layer_metrics, median_and_tail, plain_run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 9
BASELINE_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "us_per_event": "us",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if "_ms_" in name:
        return "ms"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith(("_ratio", "_x")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_tripwire():
    """Import `tripwire` afresh from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "tripwire" or m.startswith("tripwire.")]:
        del sys.modules[name]
    tw = importlib.import_module("tripwire")
    if Path(tw.__file__).resolve().parent != SRC / "tripwire":
        raise BenchError(f"imported tripwire from {tw.__file__}, not from {SRC}")
    return tw


def setup(workload: str, seed: int, start: float = _START):
    """Import the package afresh and generate the inputs; also returns the time taken."""
    tw = load_tripwire()
    programs = workloads.WORKLOADS[workload](seed)
    return tw, programs, time.perf_counter() - start


def setup_again(workload: str, seed: int, programs) -> float:
    """Time one more set-up; the same seed must give the same traces."""
    gc.collect()
    _, again, elapsed = setup(workload, seed, time.perf_counter())
    if [p.text for p in again] != [p.text for p in programs]:
        raise BenchError("the same seed generated different traces")
    return elapsed


@dataclass
class Run:
    parse_s: float
    run_s: float
    emit_s: float
    digest: str  # report JSON and final state hash, or the exception raised
    failure: str | None
    detail: str  # traceback of the failure
    outcome: object
    replay_summaries: list

    @property
    def total_s(self) -> float:
        return self.parse_s + self.run_s + self.emit_s


def run_program(tw, config, program, tracer=None) -> Run:
    """parse_trace + Engine.run + emit_json for one program, timed."""
    gc.collect()
    t0 = time.perf_counter()
    events = tw.parse_trace(program.text)
    t1 = time.perf_counter()
    engine = tw.Engine(events, config)
    if tracer is not None:
        tracer.attach(engine)
    outcome = doc = failure = None
    detail = ""
    try:
        outcome = engine.run()
    except Exception as exc:  # any internal error fails this program, not the run
        failure = f"{type(exc).__name__}: {exc}"
        detail = traceback.format_exc()
    t2 = time.perf_counter()
    if outcome is not None:
        doc = tw.emit_json(
            outcome.reports,
            epochs=outcome.epochs,
            final_state_hash=outcome.final_state_hash,
            events=outcome.events_total,
            config=config,
        )
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.collect(engine)
    digest = failure or hashlib.sha256(doc.encode()).hexdigest() + outcome.final_state_hash
    return Run(t1 - t0, t2 - t1, t3 - t2, digest, failure, detail, outcome, engine.replay_summaries)


def judge(workload: str, seed: int, programs, runs: list[Run]) -> tuple[int, int]:
    """Check every verdict; write a repro for each failing program.

    Returns the number of failing programs, and how many of those ran to
    the end but reported something other than the ground truth.
    """
    failing = wrong = 0
    for index, (program, run) in enumerate(zip(programs, runs)):
        problems = [run.failure] if run.failure else verdict.check(
            program, run.outcome, run.replay_summaries
        )
        if not problems:
            continue
        failing += 1
        wrong += run.failure is None
        path = OUT / f"{workload}-seed{seed}" / f"program{index:03d}.trace"
        path.parent.mkdir(parents=True, exist_ok=True)
        header = [f"workload {workload}, seed {seed}, program {index}", *problems]
        header += run.detail.splitlines()
        path.write_text("".join(f"# {line}\n" for line in header) + program.text)
        print(f"FAIL program {index}: {problems[0]} (repro: {path.relative_to(ROOT)})")
    return failing, wrong


def same_digests(a: list[Run], b: list[Run], what: str) -> None:
    for index, (x, y) in enumerate(zip(a, b)):
        if x.digest != y.digest:
            raise BenchError(f"program {index}: output differs between {what}")


def end_to_end(tw, config, programs, seconds: float, first_setup: float, workload, seed):
    # the repeated set-ups are spread over the run, between timed programs,
    # so that their median does not hang on one moment of the host's speed
    setup_times = [first_setup]
    passes: list[list[Run]] = []
    begin = time.perf_counter()
    while True:
        runs = []
        for program in programs:
            runs.append(run_program(tw, config, program))
            due = seconds * len(setup_times) / SETUP_ROUNDS
            if len(setup_times) < SETUP_ROUNDS and time.perf_counter() - begin > due:
                setup_times.append(setup_again(workload, seed, programs))
        passes.append(runs)
        same_digests(passes[0], passes[-1], "passes")
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setup_times) < SETUP_ROUNDS:
        setup_times.append(setup_again(workload, seed, programs))
    failing, wrong = judge(workload, seed, programs, passes[0])
    events = sum(p.events for p in programs)
    # each program's time is its fastest pass: the host's speed swings within
    # seconds, and the slow passes measure the host, not the program
    best = [min(runs[i].total_s for runs in passes) for i in range(len(programs))]
    # programs that raised stopped early, so their time per event means little
    judged = [i for i, r in enumerate(passes[0]) if r.failure is None]
    judged_events = sum(programs[i].events for i in judged)
    p50, tail, pct, n = median_and_tail([1e3 * best[i] for i in judged])
    attempted = len(programs) * len(passes)
    failed = failing * len(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "us_per_event": 1e6 * sum(best[i] for i in judged) / judged_events,
        "verdict_ms_p50": p50,
        "verdict_ms_tail": tail,
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "us_per_event": f"fastest of {len(passes)} passes per program, over {judged_events} "
                        f"events of {len(judged)} programs that did not raise",
        "verdict_ms_p50": f"n={n}",
        "verdict_ms_tail": f"p{pct:.1f}, n={n}",
        "ok_ratio": f"{len(programs) - failing} of {len(programs)} programs; "
                    f"failed_ratio {failed / attempted:.4f}",
        "peak_rss_mb": "ru_maxrss",
    }
    print(f"{workload} seed {seed}: {len(programs)} programs, {events} events, "
          f"{len(passes)} passes in {time.perf_counter() - begin:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name]:<5} ({notes[name]})")
    return metrics, END_TO_END, attempted, failed, wrong


def per_layer(tw, config, programs, workload, seed):
    tracer = Tracer()
    untraced, traced = [], []
    for program in programs:  # interleaved, so warm-up favours neither side
        untraced.append(run_program(tw, config, program))
        traced.append(run_program(tw, config, program, tracer))
    same_digests(untraced, traced, "the traced and untraced runs")
    failing, wrong = judge(workload, seed, programs, untraced)
    parsed = [tw.parse_trace(p.text) for p in programs]
    plain = []
    for _ in range(BASELINE_ROUNDS):
        gc.collect()
        t0 = time.perf_counter()
        for events in parsed:
            plain_run(tw, config, events)
        plain.append(time.perf_counter() - t0)

    events = sum(p.events for p in programs)
    metrics = layer_metrics(
        tracer,
        parse_s=sum(r.parse_s for r in traced),
        emit_s=sum(r.emit_s for r in traced),
        events=events,
        reports=sum(len(r.outcome.reports) for r in traced if r.outcome is not None),
    )
    plain_us = 1e6 * statistics.median(plain) / events
    engine_us = 1e6 * sum(r.run_s for r in untraced) / events
    metrics["baseline.plain_us_per_event"] = plain_us
    metrics["baseline.overhead_x"] = engine_us / plain_us
    metrics["tracing.overhead_s"] = sum(r.total_s for r in traced) - sum(r.total_s for r in untraced)
    print(f"{workload} seed {seed}: {len(programs)} programs, {events} events, traced once")
    print(f"  baseline.overhead_x = engine run {engine_us:.2f} us/event "
          f"/ plain {plain_us:.2f} us/event (median of {len(plain)})")
    _, _, pct, n = median_and_tail(tracer.boundary_ms())
    print(f"  engine.boundary_ms_tail is p{pct:.1f} of {n} epoch boundaries")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6f} {unit_of(name)}")
    return metrics, {name: unit_of(name) for name in metrics}, len(programs), failing, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tripwire" / "__init__.py").is_file():
        print(f"perfbench: no tripwire package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        tw, programs, first_setup = setup(args.workload, args.seed)
        config = tw.EngineConfig()
        if args.trace:
            metrics, units, attempted, failed, wrong = per_layer(
                tw, config, programs, args.workload, args.seed
            )
        else:
            metrics, units, attempted, failed, wrong = end_to_end(
                tw, config, programs, args.seconds, first_setup, args.workload, args.seed
            )
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
