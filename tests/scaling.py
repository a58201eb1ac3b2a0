"""Input shapes whose cost should grow no faster than the input: each
one-construct trace at n and at factor times n, and the cost ratio
between them.

    PYTHONPATH=src python tests/scaling.py [--n 2000] [--factor 4] [--repeat 3]

Run from the repository root; `tripwire` is imported from PYTHONPATH,
so pointing it at another checkout's `src/` measures that tree. Each
shape is a trace built from one construct repeated n times, run under
the default `EngineConfig` with room for factor times n globals. The
time of every epoch boundary is taken by wrapping `Engine._boundary` on
the instance (it includes the next epoch's snapshot), and the leak
marks that run in full are counted by wrapping the instance's
`LeakScanner._roots`; each setting runs --repeat times after a garbage
collection, and the run with the least total boundary time counts. The
shapes:

- registers: one object, n distinct registers that point at it, then
  200 `call fork` boundaries whose epochs set no register;
- open/fork: n `call open f / call fork` pairs, so n boundaries, each
  with one more modeled file than the last;
- variables: n 16-byte objects, each bound to its own variable and
  rooted in its own global, then 200 `call fork` boundaries;
- drop-one-root: the same n rooted objects, then 200 epochs that each
  clear one global, free its object and end at a `call fork`;
- chain: n 32-byte objects, each holding the next through a `store`,
  the first rooted in global 0, then 200 `call fork` boundaries.

Every run also ends at the trace's `end`, so registers, variables and
chain run 201 boundaries, open/fork n + 1 and drop-one-root
min(n, 200) + 2. It prints, per shape, the boundary count, the leak
marks that ran in full and that resumed, the median boundary in ms and
the total boundary time in s at n and at factor times n, and the ratio
of each (the larger n over the smaller). A shape whose boundary count
is fixed costs nothing per boundary for the rest of the input when its
median ratio reads 1.0; open/fork grows its boundary count with n, so
linear cost reads the factor on its total.

This is a tool, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from typing import NamedTuple

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


def chain(n: int) -> str:
    links = "".join(f"malloc v{i} 32\nstore v{i - 1} 0 = v{i}\n" for i in range(1, n))
    return "malloc v0 32\nglobal 0 = v0\n" + links + "call fork\n" * FORKS + "end\n"


SHAPES = {
    "registers": registers, "open/fork": open_fork, "variables": variables, "drop-one-root": drop_one_root,
    "chain": chain,
}


class Run(NamedTuple):
    times: list[float]  # seconds spent in each epoch boundary
    full_marks: int
    marks: int


def measure(text: str, config: tw.EngineConfig) -> Run:
    """Time each epoch boundary of one run of text, and count its leak
    marks and the ones that ran in full."""
    engine = Engine(tw.parse_trace(text), config)
    boundary, mark, roots = engine._boundary, engine.leaks.mark, engine.leaks._roots
    times, marks, full = [], [], []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return boundary(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    def counted_mark():
        marks.append(None)
        mark()

    def counted_roots():
        full.append(None)
        return roots()

    engine._boundary, engine.leaks.mark, engine.leaks._roots = timed, counted_mark, counted_roots
    gc.collect()
    engine.run()
    return Run(times, len(full), len(marks))


def best(text: str, config: tw.EngineConfig, repeat: int) -> Run:
    return min((measure(text, config) for _ in range(repeat)), key=lambda run: sum(run.times))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--factor", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    small, large = args.n, args.factor * args.n
    config = tw.EngineConfig(globals_words=large)
    print(f"| shape | boundaries at {small} / {large} | marks full / resumed at {small} | at {large} "
          f"| median ms at {small} | at {large} | ratio | total s at {small} | at {large} | ratio |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, build in SHAPES.items():
        a, b = (best(build(n), config, args.repeat) for n in (small, large))
        ma, mb = statistics.median(a.times) * 1e3, statistics.median(b.times) * 1e3
        ta, tb = sum(a.times), sum(b.times)
        print(f"| {name} | {len(a.times)} / {len(b.times)} "
              f"| {a.full_marks} / {a.marks - a.full_marks} | {b.full_marks} / {b.marks - b.full_marks} "
              f"| {ma:.3f} | {mb:.3f} | {mb / ma:.2f}x | {ta:.3f} | {tb:.3f} | {tb / ta:.2f}x |", flush=True)


if __name__ == "__main__":
    main()
