"""Run the benchmark in alternating parent/change pairs and summarise them.

    python tests/bench_pairs.py --parent REV --out BENCH_N.json \
        [--workloads long_epochs,boundary_heavy,error_dense] [--pairs 10] \
        [--seed 9001] [--seconds 30] [--change-note TEXT] [--claim WORKLOAD:METRIC]

Run from the repository root. The parent revision is exported with
`git archive` into `.bench_build/<rev>/`, which git ignores; a plain
export registers nothing in `.git`, so deleting the directory is all
the clean-up there is. The change is this checkout's working tree.
Each pair runs `perfbench/run.py --workload W --seed S --seconds T`
once in each checkout, one run at a time, with the interpreter running
this script; even pairs run the parent first, odd pairs the change
first. A run that exits non-zero stops the tool with its standard
error.

The output file has the layout of `BENCH_7.json`: per workload and
end-to-end metric of `BENCHMARK.json`, each side's quartiles
(inclusive method), the pairs the change wins and ties, the ratio of
the medians, and whether the change's median is within the metric's
bound of the parent's; every run's final JSON line is kept under
"runs". With --claim, "claim_met" says whether the change won at least
nine pairs in ten on that metric and its median moved the better way
by more than the parent's interquartile range.

This is a tool, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("long_epochs", "boundary_heavy", "error_dense")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str) -> tuple[Path, str]:
    """The checkout of rev under .bench_build/, made once; and its short id."""
    short = git("rev-parse", "--short", f"{rev}^{{commit}}")
    dest = BUILD / short
    if not dest.exists():
        partial = BUILD / f"{short}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(
            ["git", "archive", short], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, filter="data")
        partial.rename(dest)
    return dest, short


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pair-by-pair and median comparison of one metric on one workload."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_change_ratio": round(cm / pm, 4) if pm else None,
        "within_bound": sign * (cm - pm) <= bound * abs(pm),
    }


def claim_met(parent: list[float], change: list[float], row: dict) -> bool:
    """At least nine wins in ten, and the medians apart by more than the
    parent's interquartile range, the better way."""
    q1, _, q3 = row["parent_q1_median_q3"]
    sign = 1 if row["better"] == "lower" else -1
    moved = sign * (statistics.median(parent) - statistics.median(change))
    return row["change_wins"] >= math.ceil(0.9 * row["pairs"]) and moved > q3 - q1


def summarise(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for workload in workloads:
        rows = [r for r in runs if r["workload"] == workload]
        entry = {}
        for m in metrics:
            parent = [r["parent"]["metrics"][m["name"]]["value"] for r in rows]
            change = [r["change"]["metrics"][m["name"]]["value"] for r in rows]
            entry[m["name"]] = compare(parent, change, m["better"], m["bound"])
        entry["correct_all_runs"] = all(r[side]["correct"] for r in rows for side in ("parent", "change"))
        entry["failed_total"] = {side: sum(r[side]["failed"] for r in rows) for side in ("parent", "change")}
        summary[workload] = entry
    return summary


def host() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"{os.cpu_count()}-core {platform.machine()} ({cpu}), {platform.system()} "
            f"{platform.release()}, Python {platform.python_version()}, numpy {np.__version__}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="where to write the summary JSON")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--change-note", default="", help="what the change does, for the record")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    workloads = args.workloads.split(",")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkout, short = export(args.parent)
    sides = {"parent": checkout, "change": ROOT}

    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            record = {"workload": workload, "pair": pair, "first": order[0]}
            for side in order:
                record[side] = run_once(sides[side], workload, args.seed, args.seconds)
            runs.append(record)
            print(f"{workload} pair {pair}: " + ", ".join(
                f"{side} {record[side]['metrics']['us_per_event']['value']:.1f} us/event"
                for side in order), file=sys.stderr)

    summary = summarise(runs, workloads, metrics)
    doc = {
        "what": f"perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} "
                "(end-to-end, --trace 0), final JSON line of each run",
        "parent": short,
        "change": args.change_note,
        "host": host(),
        "method": f"{args.pairs} pairs per workload; even pairs run parent first, "
                  "odd pairs change first; one run at a time",
        "claim": "none",
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = f"{metric} on {workload} improves"
        rows = [r for r in runs if r["workload"] == workload]
        doc["claim_met"] = claim_met(
            [r["parent"]["metrics"][metric]["value"] for r in rows],
            [r["change"]["metrics"][metric]["value"] for r in rows],
            summary[workload][metric],
        )
    doc["summary"] = summary
    doc["runs"] = runs
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
