"""Seeded trace generators for the three benchmark workloads.

Every generator takes a `random.Random` and returns `Program`s: trace
text plus the ground truth the verdict check compares reports against.
The same seed always yields the same text. Only the structure sizes
(events, epochs, live objects, programs) are fixed per workload; the
content (sizes, offsets, fills, call mix, where errors go) comes from
the seed.

Clean programs keep every live object rooted in its own globals slot,
write only inside requested bytes and never touch freed memory, so any
report on them is a false positive. Error programs inject only inside
the detectors' documented coverage:

- no write uses the canary byte 0xCA as its fill, and no fill is 0x01,
  the only byte that can forge a heap address inside a payload word
  (heap words start zeroed, and the default heap spans
  0x1_0000_0000..0x1_1000_0000);
- an overflow starts at the requested size of a non-power-of-two
  object and ends inside its slot, covering at least one whole
  canary word;
- a use-after-free write and a double free target an object that is
  still in quarantine (error programs free far fewer than 1024
  objects), and the write stays inside the canaried prefix;
- a leak drops the only root of an object no register points at.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OVERFLOW = "overflow"
UAF = "use-after-free"
LEAK = "leak"
DOUBLE_FREE = "double-free"

CANARY_BYTE = 0xCA
UAF_PREFIX = 128
FILLS = tuple(b for b in range(256) if b not in (0x01, CANARY_BYTE))
BOUNDARY_CALLS = ("call fork", "call lseek 3 0", "call socketpair")


def _capacity(size: int, min_class: int = 16) -> int:
    size = max(size, min_class)
    return 1 << (size - 1).bit_length()


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class Injected:
    """One injected error and where its report must point.

    `event` is the event the report must name: the bad write, the second
    free, or (for a leak) the malloc of the dropped object. `alloc` is
    the target's position among the trace's mallocs, which maps it to a
    payload address through `RunOutcome.alloc_sequence`. Writes also
    carry the written payload byte range [lo, hi).
    """

    kind: str
    event: int
    epoch: int
    alloc: int
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class Program:
    text: str
    events: int
    injected: tuple[Injected, ...] = ()


@dataclass
class _Obj:
    var: str
    size: int
    alloc: int
    event: int
    slot: int = -1
    hit: bool = False  # already the target of an injected error


class _Writer:
    """Emits events while tracking ids, epochs, roots and registers."""

    def __init__(self, rng: random.Random, globals_words: int):
        self.rng = rng
        self.lines: list[str] = []
        self.epoch = 0
        self.mallocs = 0
        self.depth = 0
        self.live: list[_Obj] = []
        self.freed: list[_Obj] = []
        self.free_slots = list(range(globals_words - 1, -1, -1))
        self.reg_targets: dict[str, _Obj] = {}
        self.injected: list[Injected] = []

    @property
    def count(self) -> int:
        return len(self.lines)

    def ev(self, line: str) -> int:
        self.lines.append(line)
        return len(self.lines) - 1

    def fill(self) -> str:
        return f"{self.rng.choice(FILLS):02x}"

    # -- clean operations ---------------------------------------------------

    def malloc(self, size: int) -> _Obj:
        obj = _Obj(f"v{self.mallocs}", size, self.mallocs, self.count)
        self.ev(f"malloc {obj.var} {size}")
        self.mallocs += 1
        obj.slot = self.free_slots.pop()
        self.ev(f"global {obj.slot} = {obj.var}")
        self.live.append(obj)
        return obj

    def free(self, obj: _Obj) -> None:
        self.live.remove(obj)
        self.ev(f"free {obj.var}")
        self.ev(f"global {obj.slot} = 0")
        self.free_slots.append(obj.slot)
        self.freed.append(obj)

    def write(self) -> None:
        obj = self.rng.choice(self.live)
        off = self.rng.randrange(obj.size)
        length = self.rng.randint(1, min(obj.size - off, 64))
        self.ev(f"write {obj.var} {off} {length} {self.fill()}")

    def read(self) -> None:
        obj = self.rng.choice(self.live)
        off = self.rng.randrange(obj.size)
        self.ev(f"read {obj.var} {off} {self.rng.randint(1, min(obj.size - off, 64))}")

    def reg(self) -> None:
        reg = f"r{self.rng.randrange(4)}"
        if self.live and self.rng.random() < 0.5:
            obj = self.rng.choice(self.live)
            self.ev(f"reg {reg} = {obj.var}+{self.rng.randrange(obj.size)}")
            self.reg_targets[reg] = obj
        else:
            self.ev(f"reg {reg} = {self.rng.randrange(1 << 16)}")
            self.reg_targets.pop(reg, None)

    def stack(self) -> None:
        if self.depth and self.rng.random() < 0.5:
            self.ev("stack pop")
            self.depth -= 1
        else:
            self.ev(f"stack push f{self.rng.randrange(8)}")
            self.depth += 1

    def call(self) -> None:
        name = self.rng.choice(("getpid", "time", "open", "close", "read", "write", "fcntl"))
        if name == "open":
            self.ev("call open scratch")
        elif name == "close":
            self.ev(f"call close {self.rng.randrange(3, 6)}")
        elif name in ("read", "write"):
            self.ev(f"call {name} {self.rng.randrange(6)} {self.rng.randrange(1, 512)}")
        elif name == "fcntl":
            self.ev("call fcntl F_GETFL 3")
        else:
            self.ev(f"call {name}")

    def boundary(self) -> None:
        self.ev(self.rng.choice(BOUNDARY_CALLS))
        self.epoch += 1

    def program(self) -> Program:
        self.ev("end")
        return Program("\n".join(self.lines) + "\n", self.count, tuple(self.injected))

    # -- injected errors -------------------------------------------------------

    def overflow(self, size: int) -> bool:
        """Overrun a fresh non-power-of-two object; half the time free it next."""
        obj = self.malloc(size)
        obj.hit = True
        cap = _capacity(size)
        end = min(_align8(size) + 8 * self.rng.randint(1, 2), cap)
        event = self.ev(f"write {obj.var} {size} {end - size} {self.fill()}")
        self.injected.append(Injected(OVERFLOW, event, self.epoch, obj.alloc, size, end))
        if self.rng.random() < 0.5:
            self.free(obj)
        return True

    def _target(self, pool: list[_Obj]) -> _Obj | None:
        candidates = [o for o in pool if not o.hit]
        if not candidates:
            return None
        obj = self.rng.choice(candidates)
        obj.hit = True
        return obj

    def use_after_free(self) -> bool:
        obj = self._target(self.freed)
        if obj is None:
            return False
        prefix = min(UAF_PREFIX, _capacity(obj.size))
        off = self.rng.randrange(prefix)
        end = min(prefix, off + self.rng.randint(1, 16))
        event = self.ev(f"write {obj.var} {off} {end - off} {self.fill()}")
        self.injected.append(Injected(UAF, event, self.epoch, obj.alloc, off, end))
        return True

    def double_free(self) -> bool:
        obj = self._target(self.freed)
        if obj is None:
            return False
        event = self.ev(f"free {obj.var}")
        self.injected.append(Injected(DOUBLE_FREE, event, self.epoch, obj.alloc))
        return True

    def leak(self) -> bool:
        pinned = {id(o) for o in self.reg_targets.values()}
        obj = self._target([o for o in self.live if id(o) not in pinned])
        if obj is None:
            return False
        self.live.remove(obj)
        self.ev(f"global {obj.slot} = 0")
        self.free_slots.append(obj.slot)
        self.injected.append(Injected(LEAK, obj.event, self.epoch, obj.alloc))
        return True


def _clean_step(b: _Writer, sizes, target_live: int, weights) -> None:
    """One weighted clean operation that keeps the live set near target.

    weights are for malloc, free, write, read, reg, stack and call.
    """
    if not b.live:
        b.malloc(b.rng.choice(sizes))
        return
    weights = list(weights)
    if len(b.live) < target_live // 2:
        weights[1] = 0
    elif len(b.live) > target_live:
        weights[0] = 0
    ops = (
        lambda: b.malloc(b.rng.choice(sizes)),
        lambda: b.free(b.rng.choice(b.live)),
        b.write, b.read, b.reg, b.stack, b.call,
    )
    b.rng.choices(ops, weights)[0]()


# -- long_epochs -------------------------------------------------------------

LONG_SIZES = (8, 15, 24, 40, 64, 100)
LONG_WEIGHTS = (8, 8, 12, 5, 2, 2, 1)


def long_epochs_program(
    rng: random.Random, events: int = 40000, epochs: int = 5, target_live: int = 200,
    globals_words: int = 4096,
) -> Program:
    """A long clean program: malloc/free churn, writes over reads, rare boundaries."""
    b = _Writer(rng, globals_words)
    b.ev("stack push main")
    per_epoch = events // epochs
    for epoch in range(epochs):
        while b.count < per_epoch * (epoch + 1) - 1:
            _clean_step(b, LONG_SIZES, target_live, LONG_WEIGHTS)
        if epoch < epochs - 1:
            b.boundary()
    return b.program()


# -- boundary_heavy ----------------------------------------------------------

# every size class, 16 B .. 1 MiB; object counts fall off towards the large
# classes so that thousands of objects fit in memory
HEAVY_CLASS_SHIFTS = tuple(range(4, 21))


def _heavy_size(rng: random.Random, shift: int) -> int:
    cap = 1 << shift
    return rng.randint(cap - cap // 8, cap) if shift > 4 else rng.randint(1, cap)


def boundary_heavy_program(
    rng: random.Random, live: int = 2000, epochs: int = 40, dirty: int = 4,
    max_shift: int = 20, globals_words: int = 4096,
) -> Program:
    """One clean program: build a large rooted heap, then many short epochs."""
    b = _Writer(rng, globals_words)
    b.ev("stack push main")
    shifts = [s for s in HEAVY_CLASS_SHIFTS if s <= max_shift]
    weights = [2.0 ** (-0.8 * (s - 4)) for s in shifts]
    # a fixed object count per class, so that only sizes and order vary by seed
    build = [s for s, w in zip(shifts, weights) for _ in range(max(1, round(live * w / sum(weights))))]
    rng.shuffle(build)
    for shift in build:
        b.malloc(_heavy_size(rng, shift))
    for _ in range(epochs):
        b.boundary()
        for _ in range(dirty):
            b.write()
        if rng.random() < 0.25:
            b.read()
        if rng.random() < 0.25:
            b.call()
        if rng.random() < 0.1:  # replace a small object by one of its class
            old = rng.choice([o for o in b.live if o.size <= 256])
            b.free(old)
            b.malloc(_heavy_size(rng, _capacity(old.size).bit_length() - 1))
    return b.program()


# -- error_dense -------------------------------------------------------------

DENSE_SIZES = (8, 24, 40, 100, 200)
DENSE_OVERFLOW_SIZES = (20, 40, 100, 200)  # non-power-of-two, whole canary word after
DENSE_WEIGHTS = (4, 3, 6, 2, 2, 2, 2)


def error_dense_program(
    rng: random.Random, plan: list[list[str]], per_epoch: int = 33, globals_words: int = 4096,
) -> Program:
    """A short program; plan lists the error kinds to inject in each epoch."""
    b = _Writer(rng, globals_words)
    inject = {
        OVERFLOW: lambda: b.overflow(rng.choice(DENSE_OVERFLOW_SIZES)),
        UAF: b.use_after_free,
        LEAK: b.leak,
        DOUBLE_FREE: b.double_free,
    }
    b.ev("stack push main")
    for epoch, kinds in enumerate(plan):
        start = b.count
        pending = list(kinds)
        slots = sorted(rng.sample(range(per_epoch - 4), len(pending)))
        step = 0
        while b.count - start < per_epoch or slots:
            if slots and step >= slots[0]:
                slots.pop(0)
                # a kind with no target yet falls back to an overflow
                if not inject[pending.pop()]():
                    inject[OVERFLOW]()
            else:
                _clean_step(b, DENSE_SIZES, 8, DENSE_WEIGHTS)
            step += 1
        if epoch < len(plan) - 1:
            b.boundary()
    return b.program()


# -- workloads ---------------------------------------------------------------

def long_epochs(seed: int) -> list[Program]:
    rng = random.Random(f"long_epochs/{seed}")
    return [long_epochs_program(rng) for _ in range(3)]


def boundary_heavy(seed: int) -> list[Program]:
    rng = random.Random(f"boundary_heavy/{seed}")
    return [boundary_heavy_program(rng)]


def error_dense(seed: int, programs: int = 100, epochs: int = 3, **kw) -> list[Program]:
    """Short error programs whose error mix is the same for every seed.

    Per-epoch error counts (1, 2 or 3) and error kinds are dealt from
    shuffled decks, so a seed changes which program and epoch gets which
    errors, not how many of each the workload holds.
    """
    rng = random.Random(f"error_dense/{seed}")
    counts = [1 + i % 3 for i in range(programs * epochs)]
    rng.shuffle(counts)
    kinds = [(OVERFLOW, UAF, LEAK, DOUBLE_FREE)[i % 4] for i in range(sum(counts))]
    rng.shuffle(kinds)
    deck = iter(kinds)
    plans = [
        [[next(deck) for _ in range(counts[p * epochs + e])] for e in range(epochs)]
        for p in range(programs)
    ]
    return [error_dense_program(rng, plan, **kw) for plan in plans]


WORKLOADS = {
    "long_epochs": long_epochs,
    "boundary_heavy": boundary_heavy,
    "error_dense": error_dense,
}
