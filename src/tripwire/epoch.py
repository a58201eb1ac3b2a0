"""Epoch machinery: external-call taxonomy, modeled files, call log, snapshots.

External calls fall into five categories. Repeatable calls are pure and
re-execute freely. Recordable calls take their result from the call log
during replay. Revocable calls (file read/write) advance modeled file
positions that the epoch snapshot can restore. Deferrable calls
(close/munmap) queue until commit and become no-ops during replay.
Everything else is irrevocable and forces an epoch boundary, including
any unknown call name, conservatively.

The call log lasts the whole run: every call's event id, name and
result, in execution order. Rollback leaves it be; replay checks against it.
An epoch's calls are those logged since its snapshot (begin_epoch).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CallArgumentError, LogUnderrun, ReplayDivergence

if TYPE_CHECKING:  # the trace parser imports this module for the call taxonomy
    from .trace import TraceEvent


class Category(enum.Enum):
    REPEATABLE = "repeatable"
    RECORDABLE = "recordable"
    REVOCABLE = "revocable"
    DEFERRABLE = "deferrable"
    IRREVOCABLE = "irrevocable"


_REPEATABLE = {"getpid", "sleep", "pause"}
_RECORDABLE = {"mmap", "gettimeofday", "time", "clone", "open"}
_REVOCABLE = {"write", "read"}
_DEFERRABLE = {"close", "munmap"}

_REPEATABLE_RESULTS = {"getpid": 4242, "sleep": 0, "pause": 0, "fcntl": 0}


def classify(name: str, args: tuple[str, ...] = ()) -> Category:
    """Pure five-way classification, argument-sensitive for fcntl."""
    if name == "fcntl":
        if args and args[0].startswith("F_GET"):
            return Category.REPEATABLE
        return Category.IRREVOCABLE
    if name in _REPEATABLE:
        return Category.REPEATABLE
    if name in _RECORDABLE:
        return Category.RECORDABLE
    if name in _REVOCABLE:
        return Category.REVOCABLE
    if name in _DEFERRABLE:
        return Category.DEFERRABLE
    # fork, exec, exit, lseek, pipe, flock, socket calls and any unknown name
    return Category.IRREVOCABLE


@dataclass
class FileState:
    position: int = 0
    open: bool = True


class ModeledFileTable:
    """fd -> (position, open) map standing in for real descriptors.

    open_new hands out the lowest fd from 3 up that is absent or closed.
    Closed fds wait in a min-heap, checked when they reach its top (an
    fd there may have been reopened since), and the lowest absent fd is
    a cursor that only moves up, since entries are only ever added;
    restore rebuilds both.
    """

    FIRST_FD = 3

    def __init__(self):
        self.files: dict[int, FileState] = {0: FileState(), 1: FileState(), 2: FileState()}
        self._closed: list[int] = []  # min-heap of fds >= FIRST_FD, each closed when pushed
        self._absent = self.FIRST_FD  # the lowest fd >= FIRST_FD with no entry

    def _entry(self, fd: int) -> FileState:
        state = self.files.get(fd)
        if state is None:
            state = self._add(fd)
        return state

    def _add(self, fd: int) -> FileState:
        """A new open entry for fd, replacing any it had."""
        state = self.files[fd] = FileState()
        while self._absent in self.files:
            self._absent += 1
        return state

    def open_new(self) -> int:
        closed, files = self._closed, self.files
        while closed and files[closed[0]].open:
            heapq.heappop(closed)  # reopened since it was closed
        fd = heapq.heappop(closed) if closed and closed[0] < self._absent else self._absent
        self._add(fd)
        return fd

    def reopen(self, fd: int) -> None:
        self._add(fd)

    def advance(self, fd: int, nbytes: int) -> None:
        self._entry(fd).position += nbytes

    def set_position(self, fd: int, position: int) -> None:
        self._entry(fd).position = position

    def close(self, fd: int) -> None:
        state = self._entry(fd)
        if state.open and fd >= self.FIRST_FD:
            heapq.heappush(self._closed, fd)
        state.open = False

    def snapshot(self):
        return {fd: (s.position, s.open) for fd, s in self.files.items()}

    def restore(self, snap) -> None:
        self.files = {fd: FileState(pos, op) for fd, (pos, op) in snap.items()}
        self._closed = sorted(fd for fd, (_, op) in snap.items() if not op and fd >= self.FIRST_FD)
        self._absent = self.FIRST_FD
        while self._absent in self.files:
            self._absent += 1


class SyscallModel:
    """Executes non-irrevocable calls and keeps the call log.

    A deterministic run-global counter provides the results of time-like
    recordable calls and is deliberately outside snapshots, like real time.
    """

    def __init__(self):
        self.files = ModeledFileTable()
        self.log: dict[int, tuple[str, int]] = {}  # event id -> (name, result)
        self.deferred: list[TraceEvent] = []
        self.replaying = False
        self._epoch_start = 0  # len(log) when the current epoch began
        self._replayed = 0  # calls re-run by the current replay
        self.counter = 1000

    @staticmethod
    def _int_arg(event: TraceEvent, index: int, default: int | None = None) -> int:
        if index >= len(event.call_args):
            if default is None:
                raise CallArgumentError(
                    f"event {event.id}: call {event.call_name} needs argument {index + 1}"
                )
            return default
        try:
            return int(event.call_args[index], 0)
        except ValueError:
            raise CallArgumentError(
                f"event {event.id}: call {event.call_name} argument {event.call_args[index]!r} is not an integer"
            )

    def handle(self, event: TraceEvent) -> int:
        """Run a call that does not end an epoch and return its result:
        log it, or during replay check it against the log. A replayed
        recordable call returns its logged result."""
        name, category = event.call_name, event.category
        logged = self.log.get(event.id, (name, None))[1] if self.replaying else None
        if self.replaying and category is Category.RECORDABLE:
            if logged is None:
                raise LogUnderrun(f"event {event.id}: no recorded result for {name}")
            result = logged
            if name == "open":
                self.files.reopen(result)
        elif category is Category.REPEATABLE:
            result = _REPEATABLE_RESULTS.get(name, 0)
        elif category is Category.RECORDABLE:
            if name == "open":
                result = self.files.open_new()
            else:
                result = self.counter
                self.counter += 1
        elif category is Category.REVOCABLE:
            fd = self._int_arg(event, 0)
            result = self._int_arg(event, 1, default=0)
            self.files.advance(fd, result)
        elif category is Category.DEFERRABLE:
            if not self.replaying:
                self.deferred.append(event)
            result = 0
        else:
            raise AssertionError(f"irrevocable call reached handle(): {name}")

        if not self.replaying:
            self.log[event.id] = (name, result)
        elif result != logged:
            raise ReplayDivergence(
                f"event {event.id}: call {name} returned {result}, expected {logged}"
            )
        else:
            self._replayed += 1
        return result

    def apply_irrevocable(self, event: TraceEvent) -> None:
        """Run and log the modeled effect of the epoch-ending call,
        post-commit."""
        result = 0
        if event.call_name == "lseek":
            fd = self._int_arg(event, 0)
            result = self._int_arg(event, 1, default=0)
            self.files.set_position(fd, result)
        self.log[event.id] = (event.call_name, result)

    def begin_epoch(self) -> None:
        """The calls logged from here on are the new epoch's, for its replay to re-run."""
        self._epoch_start = len(self.log)

    def begin_replay(self) -> None:
        self.replaying = True
        self._replayed = 0

    def finish_replay(self) -> None:
        """End the replay; it must have re-run every call the epoch logged."""
        self.replaying = False
        logged = len(self.log) - self._epoch_start
        if self._replayed != logged:
            raise ReplayDivergence(f"replay re-ran {self._replayed} of {logged} logged calls")

    def commit(self) -> None:
        """Apply deferred calls exactly once, then clear them."""
        for event in self.deferred:
            if event.call_name == "close":
                try:
                    fd = int(event.call_args[0], 0)
                except (IndexError, ValueError):
                    raise CallArgumentError(f"event {event.id}: close needs an fd argument")
                self.files.close(fd)
        self.deferred = []


@dataclass
class EpochSnapshot:
    """Everything rollback restores: the event cursor, the memory image's
    undo logs (heap, globals with the registers, shadow, slot store) and
    the modeled files as values. The call log and the allocation
    sequence are deliberately absent: replay checks against them."""

    event_cursor: int
    image: tuple[dict[int, bytes], ...]
    files: dict[int, tuple[int, bool]]
