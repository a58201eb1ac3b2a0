"""Per-detector cost in process: Engine.run against plain execution.

    PYTHONPATH=src python tests/detector_overhead.py \
        [--workloads long_epochs,boundary_heavy,error_dense] [--seed 9001] [--best-of 5]

Run from the repository root; `tripwire` is imported from PYTHONPATH,
so pointing it at another checkout's `src/` measures that tree. Each
workload's programs are generated from `perfbench/workloads.py` and
parsed once. Then, for each setting, every program runs once per pass,
after a garbage collection, and the setting's time is the best of
--best-of passes: `perfbench/layers.plain_run` (a bare allocator and
image: no epochs, detectors, quarantine or call model), and
`Engine.run` under the default `EngineConfig` with only overflow, only
uaf, only leak, and all three detectors. The settings take turns within
each pass, so drift on the host touches them alike.

It prints one table row per workload: plain µs per event, then each
engine setting as a ratio over plain at the same tree. The base is not
fixed across trees: `plain_run` calls the same `write_fill`,
`allocate`, `object_bounds`, `set_allocated` and `release_slot` as the
engine, so a faster `vheap` moves it too; compare the ratios of one row.

This is a tool, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = {"overflow": ("overflow",), "uaf": ("uaf",), "leak": ("leak",), "all three": ("overflow", "uaf", "leak")}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="long_epochs,boundary_heavy,error_dense")
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--best-of", type=int, default=5)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "perfbench"))
    import tripwire as tw
    import workloads
    from layers import plain_run

    configs = {name: tw.EngineConfig(detectors=frozenset(dets)) for name, dets in SETTINGS.items()}
    base = tw.EngineConfig()
    print(f"tripwire from {Path(tw.__file__).parent}; seed {args.seed}, best of {args.best_of} passes")
    print("| workload | plain µs/event | " + " | ".join(SETTINGS) + " |")
    print("|---|---|" + "---|" * len(SETTINGS))
    for workload in args.workloads.split(","):
        programs = workloads.WORKLOADS[workload](args.seed)
        parsed = [tw.parse_trace(p.text) for p in programs]
        events = sum(p.events for p in programs)
        runners = {"plain": lambda events: plain_run(tw, base, events)}
        for name, config in configs.items():
            runners[name] = lambda events, config=config: tw.Engine(events, config).run()
        best = dict.fromkeys(runners, float("inf"))
        for _ in range(args.best_of):
            for name, run in runners.items():
                total = 0.0
                for program in parsed:
                    gc.collect()
                    t0 = time.perf_counter()
                    run(program)
                    total += time.perf_counter() - t0
                best[name] = min(best[name], total)
        plain_us = 1e6 * best["plain"] / events
        ratios = " | ".join(f"{best[name] / best['plain']:.2f}x" for name in SETTINGS)
        print(f"| `{workload}` | {plain_us:.2f} | {ratios} |", flush=True)


if __name__ == "__main__":
    main()
