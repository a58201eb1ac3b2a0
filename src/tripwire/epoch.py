"""Epoch machinery: external-call taxonomy, modeled files, call log, snapshots.

External calls fall into five categories. Repeatable calls are pure and
re-execute freely. Recordable calls log their result during normal
execution and replay it from the log. Revocable calls (file read/write)
advance modeled file positions that the epoch snapshot can restore.
Deferrable calls (close/munmap) queue until commit and become no-ops
during replay. Everything else is irrevocable and forces an epoch
boundary, including any unknown call name, conservatively.
"""

from __future__ import annotations

import enum
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
    """fd -> (position, open) map standing in for real descriptors."""

    def __init__(self):
        self.files: dict[int, FileState] = {0: FileState(), 1: FileState(), 2: FileState()}

    def _entry(self, fd: int) -> FileState:
        state = self.files.get(fd)
        if state is None:
            state = self.files[fd] = FileState()
        return state

    def open_new(self) -> int:
        fd = 3
        while fd in self.files and self.files[fd].open:
            fd += 1
        self.files[fd] = FileState()
        return fd

    def reopen(self, fd: int) -> None:
        self.files[fd] = FileState()

    def advance(self, fd: int, nbytes: int) -> None:
        self._entry(fd).position += nbytes

    def set_position(self, fd: int, position: int) -> None:
        self._entry(fd).position = position

    def close(self, fd: int) -> None:
        self._entry(fd).open = False

    def snapshot(self):
        return {fd: (s.position, s.open) for fd, s in self.files.items()}

    def restore(self, snap) -> None:
        self.files = {fd: FileState(pos, op) for fd, (pos, op) in snap.items()}


@dataclass(frozen=True)
class ExtCallRecord:
    event_id: int
    name: str
    result: int
    args: tuple[str, ...]


class SyscallModel:
    """Executes non-irrevocable calls and keeps the per-epoch log.

    The log survives rollback (replay feeds on it) and is cleared when
    an epoch commits; a deterministic run-global counter provides the
    results of time-like recordable calls and is deliberately outside
    snapshots, the way real time is.
    """

    def __init__(self):
        self.files = ModeledFileTable()
        self.recordables: list[ExtCallRecord] = []
        self.deferred: list[ExtCallRecord] = []
        self.replay_cursor = 0
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

    def handle(self, event: TraceEvent, category: Category, replay: bool) -> int:
        name = event.call_name
        if category is Category.REPEATABLE:
            return _REPEATABLE_RESULTS.get(name, 0)

        if category is Category.RECORDABLE:
            if replay:
                return self._replay_recordable(event)
            if name == "open":
                result = self.files.open_new()
            else:
                result = self.counter
                self.counter += 1
            record = ExtCallRecord(event.id, name, result, event.call_args)
            self.recordables.append(record)
            return result

        if category is Category.REVOCABLE:
            fd = self._int_arg(event, 0)
            nbytes = self._int_arg(event, 1, default=0)
            self.files.advance(fd, nbytes)
            return nbytes

        if category is Category.DEFERRABLE:
            if not replay:
                self.deferred.append(ExtCallRecord(event.id, name, 0, event.call_args))
            return 0

        raise AssertionError(f"irrevocable call reached handle(): {name}")

    def _replay_recordable(self, event: TraceEvent) -> int:
        if self.replay_cursor >= len(self.recordables):
            raise LogUnderrun(f"event {event.id}: no recorded result for {event.call_name}")
        record = self.recordables[self.replay_cursor]
        if record.name != event.call_name or record.event_id != event.id:
            raise ReplayDivergence(
                f"event {event.id}: replay expected {record.name} (event {record.event_id})"
            )
        self.replay_cursor += 1
        if event.call_name == "open":
            self.files.reopen(record.result)
        return record.result

    def apply_irrevocable(self, event: TraceEvent) -> int:
        """Run the modeled effect of the epoch-ending call, post-commit."""
        if event.call_name == "lseek":
            fd = self._int_arg(event, 0)
            position = self._int_arg(event, 1, default=0)
            self.files.set_position(fd, position)
            return position
        return 0

    def begin_replay(self) -> None:
        self.replay_cursor = 0

    def finish_replay(self) -> None:
        if self.replay_cursor != len(self.recordables):
            raise ReplayDivergence(
                f"replay consumed {self.replay_cursor} of {len(self.recordables)} recorded results"
            )

    def commit(self) -> None:
        """Apply deferred calls exactly once, then clear the epoch log."""
        for record in self.deferred:
            if record.name == "close":
                self.files.close(self._int_arg_record(record))
        self.recordables = []
        self.deferred = []
        self.replay_cursor = 0

    @staticmethod
    def _int_arg_record(record: ExtCallRecord) -> int:
        try:
            return int(record.args[0], 0)
        except (IndexError, ValueError):
            raise CallArgumentError(f"event {record.event_id}: close needs an fd argument")


@dataclass
class EpochSnapshot:
    """Everything rollback restores; the call log is deliberately absent."""

    event_cursor: int
    image: tuple[dict[int, bytes], bytes, dict[int, bytes]]  # heap undo log, globals, shadow undo log
    registers: dict[str, int]
    call_stack: tuple[str, ...]
    bindings: list[int | None]  # by variable slot
    allocator: object
    quarantine: object
    files: dict
    alloc_seq_len: int
