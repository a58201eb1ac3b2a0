"""Input shapes whose cost should grow no faster than the input: each
one-construct trace at n and 4n, and the cost ratio between them.

    PYTHONPATH=src python tests/scaling.py [--n 2000] [--repeat 3]

Run from the repository root; `tripwire` is imported from PYTHONPATH,
so pointing it at another checkout's `src/` measures that tree. Each
shape is a trace built from one construct repeated n times, run under
the default `EngineConfig` with room for 4n globals. The time of every
epoch boundary is taken by wrapping `Engine._boundary` on the instance
(it includes the next epoch's snapshot); each setting runs --repeat
times after a garbage collection, and the run with the least total
boundary time counts. The shapes:

- registers: one object, n distinct registers that point at it, then
  200 `call fork` boundaries whose epochs set no register;
- open/fork: n `call open f / call fork` pairs, so n boundaries, each
  with one more modeled file than the last;
- variables: n 16-byte objects, each bound to its own variable and
  rooted in its own global, then 200 `call fork` boundaries;
- drop-one-root: the same n rooted objects, then 200 epochs that each
  clear one global, free its object and end at a `call fork`.

It prints, per shape, the boundary count, the median boundary in ms and
the total boundary time in s at n and at 4n, and the ratio of each
(4n over n). A shape whose boundary count is fixed costs nothing per
boundary for the rest of the input when its median ratio reads 1.0;
open/fork grows its boundary count with n, so linear cost reads 4.0 on
its total.

This is a tool, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

import tripwire as tw
from tripwire.engine import Engine

FORKS = 200


def registers(n: int) -> str:
    return "malloc a 16\n" + "".join(f"reg r{i} = a\n" for i in range(n)) + "call fork\n" * FORKS + "end\n"


def open_fork(n: int) -> str:
    return "call open f\ncall fork\n" * n + "end\n"


def rooted(n: int) -> str:
    return "".join(f"malloc v{i} 16\nglobal {i} = v{i}\n" for i in range(n))


def variables(n: int) -> str:
    return rooted(n) + "call fork\n" * FORKS + "end\n"


def drop_one_root(n: int) -> str:
    drops = "".join(f"global {i} = 0\nfree v{i}\ncall fork\n" for i in range(min(FORKS, n)))
    return rooted(n) + "call fork\n" + drops + "end\n"


SHAPES = {"registers": registers, "open/fork": open_fork, "variables": variables, "drop-one-root": drop_one_root}


def boundary_times(text: str, config: tw.EngineConfig) -> list[float]:
    """Seconds spent in each epoch boundary of one run of text."""
    engine = Engine(tw.parse_trace(text), config)
    boundary, times = engine._boundary, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return boundary(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    engine._boundary = timed
    gc.collect()
    engine.run()
    return times


def best(text: str, config: tw.EngineConfig, repeat: int) -> list[float]:
    return min((boundary_times(text, config) for _ in range(repeat)), key=sum)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    small, large = args.n, 4 * args.n
    config = tw.EngineConfig(globals_words=large)
    print(f"| shape | boundaries at {small} / {large} | median ms at {small} | at {large} | ratio "
          f"| total s at {small} | at {large} | ratio |")
    print("|---|---|---|---|---|---|---|---|")
    for name, build in SHAPES.items():
        a, b = (best(build(n), config, args.repeat) for n in (small, large))
        ma, mb = statistics.median(a) * 1e3, statistics.median(b) * 1e3
        print(f"| {name} | {len(a)} / {len(b)} | {ma:.3f} | {mb:.3f} | {mb / ma:.2f}x "
              f"| {sum(a):.3f} | {sum(b):.3f} | {sum(b) / sum(a):.2f}x |", flush=True)


if __name__ == "__main__":
    main()
