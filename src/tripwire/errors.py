"""Exception types shared across the engine."""

from __future__ import annotations


class TripwireError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TripwireError):
    """Invalid engine configuration."""


class TraceError(TripwireError):
    """A trace could not be parsed or validated."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class TraceSyntaxError(TraceError):
    """Malformed token or event form in a trace line."""


class UnboundVariable(TraceError):
    """A trace event names a variable with no prior malloc binding."""


class StackUnderflow(TraceError):
    """A stack pop with no matching push."""


class SegfaultModel(TripwireError):
    """Modeled access to an unmapped address; ends the current epoch."""

    def __init__(self, addr: int, length: int):
        super().__init__(f"unmapped access at 0x{addr:x} (+{length})")
        self.addr = addr
        self.length = length


class OutOfVirtualHeap(TripwireError):
    """The pre-reserved heap region is exhausted."""


class OversizeRequest(TripwireError):
    """Allocation request above the largest size class."""


class NotQuarantined(TripwireError):
    """release_slot called for a slot that is not withheld."""


class NotAHeapObject(TripwireError):
    """Address is in the heap region but inside no carved slot."""


class CallArgumentError(TripwireError):
    """An external call event carried arguments the model cannot use."""


class LogUnderrun(TripwireError):
    """Replay requested more recorded call results than were logged."""


class ReplayDivergence(TripwireError):
    """Replay produced state that differs from the recorded execution."""
