"""Paired in-process timing of two trees on the benchmark's programs.

    python tests/bench_ab.py --parent REV [--workloads long_epochs,boundary_heavy,error_dense] \
        [--seed 9001] [--rounds 10] [--best-of 3] [--min-seconds 2] [--out FILE [--key NAME]]

Run from the repository root. The parent revision is exported with
`git archive` into `.bench_build/<rev>/`, as `tests/bench_pairs.py`
does; the change is this checkout's working tree. A run of a tree
against itself (`--parent HEAD` on a clean checkout) shows how far the
method resolves on this host.

Each workload's programs are generated once, from this checkout's
`perfbench/workloads.py`, so both trees run the same text. Each round
starts one fresh interpreter per tree, one at a time, the parent first
in even rounds and the change first in odd ones. The interpreter
imports `tripwire` from its tree's `src/` and makes passes over the
programs, at least k of them and for at least --min-seconds. Each pass
times every program: `parse_trace`, then the construction and run of
an `Engine` under the default `EngineConfig`, each with
`perf_counter_ns` and `process_time_ns`, each after a garbage
collection, so that the parse's garbage is not collected inside the run
timer. A program's time is the best of its passes.

For each workload and timer the tool prints the median, over every
round and program, of the change's time over the parent's, with a 95%
interval from a bootstrap that resamples whole rounds. A ratio below 1
means the change is faster. An interval wider than 0.10 (+-5%) is
called unresolved: that workload cannot show a change of 5% on this
host. With --out the result is written as JSON, under --key if the
file already holds a JSON object.

This is a tool, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import BUILD, ROOT, WORKLOADS, export, host

TIMERS = ("run_wall", "run_cpu", "parse_wall", "parse_cpu")
RESOLVED_WIDTH = 0.10  # an interval wider than +-5% cannot resolve a 5% change


def worker(src: str, programs_path: str, best_of: int, min_seconds: float) -> None:
    """Time every program of one workload in this interpreter; print JSON.

    Passes over all the programs repeat until there have been best_of
    of them and min_seconds have gone by.
    """
    sys.path.insert(0, src)
    import tripwire as tw

    if not Path(tw.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported tripwire from {tw.__file__}, not from {src}")
    config = tw.EngineConfig()
    texts = json.loads(Path(programs_path).read_text(encoding="utf-8"))
    rows = [dict.fromkeys(TIMERS, float("inf")) for _ in texts]
    passes, deadline = 0, time.monotonic() + min_seconds
    while passes < best_of or time.monotonic() < deadline:
        passes += 1
        for text, best in zip(texts, rows):
            gc.collect()
            w0, c0 = time.perf_counter_ns(), time.process_time_ns()
            events = tw.parse_trace(text)
            w1, c1 = time.perf_counter_ns(), time.process_time_ns()
            # collect what the parse left outside both timers, so that
            # collector work does not move from one timer to the other
            gc.collect()
            w2, c2 = time.perf_counter_ns(), time.process_time_ns()
            try:
                best["digest"] = tw.Engine(events, config).run().final_state_hash
            except Exception as exc:  # timed like any program; the digest says it raised
                best["digest"] = f"{type(exc).__name__}: {exc}"
            w3, c3 = time.perf_counter_ns(), time.process_time_ns()
            for name, value in zip(TIMERS, (w3 - w2, c3 - c2, w1 - w0, c1 - c0)):
                best[name] = min(best[name], value)
    print(json.dumps({"passes": passes, "programs": rows}))


def time_tree(src: Path, programs_path: Path, best_of: int, min_seconds: float) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(src), str(programs_path), str(best_of), str(min_seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarise(rounds: list[dict], timer: str, resamples: int) -> dict:
    """Median change/parent ratio over rounds and programs, with a 95%
    bootstrap interval over rounds."""
    ratios = np.array([
        [c[timer] / p[timer] for p, c in zip(r["parent"]["programs"], r["change"]["programs"])]
        for r in rounds
    ])
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(rounds), size=(resamples, len(rounds)))
    boot = np.median(ratios[picks].reshape(resamples, -1), axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {
        "median_ratio": round(float(np.median(ratios)), 4),
        "ci95": [round(float(lo), 4), round(float(hi), 4)],
        "resolved": bool(hi - lo <= RESOLVED_WIDTH),
        # each round's sum over the programs, per tree
        "parent_ms": [round(sum(p[timer] for p in r["parent"]["programs"]) / 1e6, 2) for r in rounds],
        "change_ms": [round(sum(p[timer] for p in r["change"]["programs"]) / 1e6, 2) for r in rounds],
    }


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        _, _, src, programs_path, best_of, min_seconds = sys.argv
        worker(src, programs_path, int(best_of), float(min_seconds))
        return
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--best-of", type=int, default=3, help="at least this many passes per interpreter")
    ap.add_argument("--min-seconds", type=float, default=2.0, help="and passes for at least this long")
    ap.add_argument("--resamples", type=int, default=2000)
    ap.add_argument("--out", help="write the result here as JSON")
    ap.add_argument("--key", default="bench_ab", help="key under which to store it if --out exists")
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for an interval")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as generators

    checkout, short = export(args.parent)
    sides = {"parent": checkout / "src", "change": ROOT / "src"}
    started = time.monotonic()
    result = {
        "what": f"Engine construction and run (run_*) and parse_trace (parse_*) per program, "
                f"best of at least {args.best_of} passes and {args.min_seconds:g} s, change/parent; "
                f"workloads from perfbench/workloads.py, seed {args.seed}",
        "parent": short,
        "host": host(),
        "method": f"{args.rounds} rounds of one fresh interpreter per tree, alternating which "
                  f"runs first; median of per-program ratios over rounds and programs, 95% "
                  f"interval from {args.resamples} bootstrap resamples of whole rounds",
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        programs_path = BUILD / f"ab-{workload}-{args.seed}.json"
        programs_path.parent.mkdir(parents=True, exist_ok=True)
        programs = generators.WORKLOADS[workload](args.seed)
        programs_path.write_text(json.dumps([p.text for p in programs]), encoding="utf-8")
        rounds = []
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            rounds.append({
                side: time_tree(sides[side], programs_path, args.best_of, args.min_seconds)
                for side in order
            })
        first = rounds[0]
        entry = {
            "programs": len(programs),
            "passes": {side: [r[side]["passes"] for r in rounds] for side in sides},
            # final state hashes (or errors) that differ between the trees
            "digests_differ": sum(
                p["digest"] != c["digest"]
                for p, c in zip(first["parent"]["programs"], first["change"]["programs"])
            ),
        }
        for timer in TIMERS:
            entry[timer] = summarise(rounds, timer, args.resamples)
        result["workloads"][workload] = entry
        run = entry["run_wall"]
        print(f"{workload}: Engine.run change/parent {run['median_ratio']:.4f} "
              f"[{run['ci95'][0]:.4f}, {run['ci95'][1]:.4f}]"
              f"{'' if run['resolved'] else ' (unresolved)'}; cpu "
              f"{entry['run_cpu']['median_ratio']:.4f}; parse {entry['parse_wall']['median_ratio']:.4f}",
              file=sys.stderr)
    result["minutes"] = round((time.monotonic() - started) / 60, 1)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else None
        if isinstance(doc, dict):
            doc[args.key] = result
        else:
            doc = result
        out.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
