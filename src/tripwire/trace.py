"""Trace language: event records and the line-oriented parser.

Traces are straight-line programs, one event per line, that model the
application under test: stack pushes/pops, heap traffic through named
variables, register and global stores, and external calls. A `#`
starts a comment that runs to the end of the line; blank lines and
comment-only lines are skipped. The forms, one per line:

    stack push <name>                     push a call frame
    stack pop                             pop one; the stack must not be empty
    malloc <var> <size>                   bind <var>; size >= 1
    free <var>                            <var> must be bound
    write <var> <offset> <len> <fill>     <len> bytes at <var> + <offset>; len >= 1
    writeabs <var>(+|-)<delta> <len> <fill>
                                          the same, at <var> plus or minus <delta>
    read <var> <offset> <len>             len >= 1
    reg <name> = <value>                  store <value> in a register
    global <index> = <value>              store <value> in global word <index>
    store <var> <offset> = <value>        store <value> as the 8-byte word at
                                          <var> + <offset>, e.g. a pointer
    call <name> [<arg> ...]               external call; args are kept as tokens
    end                                   end of the program

Operands: <size>, <offset>, <len>, <index> and <delta> are integers as
`int(tok, 0)` reads them (`0x10`, `0b1`, `1_000`), never negative. A
<fill> is exactly two ASCII hex digits. <var>, <name> and the frame,
register and call names are identifiers, `[A-Za-z_][A-Za-z0-9_]*`. A
<value> is an integer literal when it starts with a digit, else
`<var>` or `<var>+<delta>`. `malloc` binds its variable, rebinding
included; every other use of a variable (free, write, writeabs, read,
store, and a <value>) needs it bound by an earlier malloc.

A trace is compiled once: each line becomes a `__slots__` record of its
kind, with a dense 0-based event id in file order. A malloc's `alloc`
is its ordinal among the trace's mallocs, any other use of a variable
carries the `alloc` of the malloc that last bound it, a `reg` event
its register's `ordinal` in order of first use, and each call event
its `Category`. Bindings and stack depth are checked here, so
execution never sees an unbound name or an impossible pop, and
`CallStacks` derives the call stack at an event for reports.
"""

from __future__ import annotations

import enum
import re

from .epoch import classify
from .errors import StackUnderflow, TraceSyntaxError, UnboundVariable


class EventKind(enum.Enum):
    STACK_PUSH = "stack_push"
    STACK_POP = "stack_pop"
    MALLOC = "malloc"
    FREE = "free"
    WRITE = "write"
    WRITE_ABS = "writeabs"
    READ = "read"
    REG_SET = "reg"
    GLOBAL_SET = "global"
    EXT_CALL = "call"
    END = "end"
    STORE = "store"


_KINDS = tuple(EventKind)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VAR_DELTA_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)([+-])([0-9][0-9xXa-fA-F]*)\Z")
_HEX = "0123456789abcdefABCDEF"
_FILLS = {a + b: int(a + b, 16) for a in _HEX for b in _HEX}


class ValueExpr:
    """Right-hand side of a reg, global or store event: a literal or var+delta."""

    __slots__ = ("var", "alloc", "delta", "literal")

    def __init__(self, var: str | None = None, alloc: int | None = None, delta: int = 0,
                 literal: int | None = None):
        self.var, self.alloc, self.delta, self.literal = var, alloc, delta, literal


class TraceEvent:
    """One compiled trace line. Each kind is a subclass with its own fields.

    A field that a kind does not have reads as None (`call_args` as
    `()`). `kind` and `op`, the kind's position in `EventKind`, are
    class attributes; the engine dispatches on `op`.
    """

    __slots__ = ("id", "line_no")
    kind: EventKind
    op: int
    var = alloc = size = offset = delta = length = fill = None
    frame = reg = ordinal = index = value = call_name = category = None
    call_args: tuple[str, ...] = ()

    def __init_subclass__(cls, kind: EventKind, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind
        cls.op = _KINDS.index(kind)

    def __repr__(self) -> str:
        names = ("id", "line_no", *type(self).__slots__)
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"


class StackPush(TraceEvent, kind=EventKind.STACK_PUSH):
    __slots__ = ("frame",)

    def __init__(self, id, line_no, frame):
        self.id, self.line_no, self.frame = id, line_no, frame


class StackPop(TraceEvent, kind=EventKind.STACK_POP):
    __slots__ = ()

    def __init__(self, id, line_no):
        self.id, self.line_no = id, line_no


class Malloc(TraceEvent, kind=EventKind.MALLOC):
    __slots__ = ("var", "alloc", "size")

    def __init__(self, id, line_no, var, alloc, size):
        self.id, self.line_no, self.var, self.alloc, self.size = id, line_no, var, alloc, size


class Free(TraceEvent, kind=EventKind.FREE):
    __slots__ = ("var", "alloc")

    def __init__(self, id, line_no, var, alloc):
        self.id, self.line_no, self.var, self.alloc = id, line_no, var, alloc


class Write(TraceEvent, kind=EventKind.WRITE):
    __slots__ = ("var", "alloc", "offset", "length", "fill")

    def __init__(self, id, line_no, var, alloc, offset, length, fill):
        self.id, self.line_no, self.var, self.alloc = id, line_no, var, alloc
        self.offset, self.length, self.fill = offset, length, fill


class WriteAbs(TraceEvent, kind=EventKind.WRITE_ABS):
    __slots__ = ("var", "alloc", "delta", "length", "fill")

    def __init__(self, id, line_no, var, alloc, delta, length, fill):
        self.id, self.line_no, self.var, self.alloc = id, line_no, var, alloc
        self.delta, self.length, self.fill = delta, length, fill


class Read(TraceEvent, kind=EventKind.READ):
    __slots__ = ("var", "alloc", "offset", "length")

    def __init__(self, id, line_no, var, alloc, offset, length):
        self.id, self.line_no, self.var, self.alloc = id, line_no, var, alloc
        self.offset, self.length = offset, length


class RegSet(TraceEvent, kind=EventKind.REG_SET):
    __slots__ = ("reg", "ordinal", "value")

    def __init__(self, id, line_no, reg, ordinal, value):
        self.id, self.line_no, self.reg, self.ordinal, self.value = id, line_no, reg, ordinal, value


class GlobalSet(TraceEvent, kind=EventKind.GLOBAL_SET):
    __slots__ = ("index", "value")

    def __init__(self, id, line_no, index, value):
        self.id, self.line_no, self.index, self.value = id, line_no, index, value


class Store(TraceEvent, kind=EventKind.STORE):
    __slots__ = ("var", "alloc", "offset", "value")

    def __init__(self, id, line_no, var, alloc, offset, value):
        self.id, self.line_no, self.var, self.alloc = id, line_no, var, alloc
        self.offset, self.value = offset, value


class ExtCall(TraceEvent, kind=EventKind.EXT_CALL):
    __slots__ = ("call_name", "call_args", "category")

    def __init__(self, id, line_no, call_name, call_args, category):
        self.id, self.line_no, self.call_name = id, line_no, call_name
        self.call_args, self.category = call_args, category


class End(TraceEvent, kind=EventKind.END):
    __slots__ = ()

    def __init__(self, id, line_no):
        self.id, self.line_no = id, line_no


def _form_error(line_no: int, form: str, raw: str) -> TraceSyntaxError:
    return TraceSyntaxError(line_no, f"expected `{form}`, got {raw.strip()!r}")


class _Parser:
    """The state of one `parse_trace` call, and one method per keyword.

    Each method takes the line's tokens, the event id, the line number
    and the line without its comment, and returns the event.
    """

    __slots__ = ("allocs", "mallocs", "regs", "names", "ints", "depth")

    def __init__(self):
        self.allocs: dict[str, int] = {}  # bound variable -> ordinal of the malloc that bound it
        self.mallocs = 0
        self.regs: dict[str, int] = {}  # register name -> its ordinal, in order of first use
        self.names: set[str] = set()  # tokens already found to be identifiers
        self.ints: dict[str, int] = {}  # integer tokens already parsed
        self.depth = 0

    # -- operands ------------------------------------------------------------

    def name(self, token: str, line_no: int, what: str) -> str:
        if token not in self.names:
            if not _NAME_RE.match(token):
                raise TraceSyntaxError(line_no, f"{what} must be an identifier, got {token!r}")
            self.names.add(token)
        return token

    def uint(self, token: str, line_no: int, what: str, minimum: int = 0) -> int:
        value = self.ints.get(token)
        if value is None:
            try:
                value = int(token, 0)
            except ValueError:
                raise TraceSyntaxError(line_no, f"{what} must be an integer, got {token!r}") from None
            self.ints[token] = value
        if value < minimum:
            raise TraceSyntaxError(line_no, f"{what} must be >= {minimum}, got {value}")
        return value

    def bound(self, var: str, line_no: int, use: str) -> int:
        """The malloc ordinal of a bound variable; `use` words the error ("free of")."""
        alloc = self.allocs.get(var)
        if alloc is None:
            self.name(var, line_no, "variable")
            raise UnboundVariable(line_no, f"{use} unbound variable {var!r}")
        return alloc

    def value(self, token: str, line_no: int) -> ValueExpr:
        if token[0].isdigit():
            return ValueExpr(literal=self.uint(token, line_no, "literal value"))
        var, plus, delta = token.partition("+")
        alloc = self.bound(var, line_no, "use of")
        return ValueExpr(var, alloc, self.uint(delta, line_no, "delta") if plus else 0)

    @staticmethod
    def fill(token: str, line_no: int) -> int:
        fill = _FILLS.get(token)
        if fill is None:
            raise TraceSyntaxError(line_no, f"fill byte must be two hex digits, got {token!r}")
        return fill

    # -- one method per keyword ----------------------------------------------

    def stack(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        op = t[1] if len(t) > 1 else None
        if op == "push":
            if len(t) != 3:
                raise _form_error(line_no, "stack push <name>", raw)
            frame = self.name(t[2], line_no, "frame name")
            self.depth += 1
            return StackPush(eid, line_no, frame)
        if op == "pop":
            if len(t) != 2:
                raise _form_error(line_no, "stack pop", raw)
            if not self.depth:
                raise StackUnderflow(line_no, "stack pop on empty stack")
            self.depth -= 1
            return StackPop(eid, line_no)
        raise _form_error(line_no, "stack push|pop", raw)

    def malloc(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 3:
            raise _form_error(line_no, "malloc <var> <size>", raw)
        var = t[1]
        if var not in self.allocs:
            self.name(var, line_no, "variable")
        size = self.uint(t[2], line_no, "size", 1)
        alloc = self.allocs[var] = self.mallocs
        self.mallocs += 1
        return Malloc(eid, line_no, var, alloc, size)

    def free(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 2:
            raise _form_error(line_no, "free <var>", raw)
        return Free(eid, line_no, t[1], self.bound(t[1], line_no, "free of"))

    def write(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 5:
            raise _form_error(line_no, "write <var> <offset> <len> <bytehex>", raw)
        return Write(
            eid, line_no, t[1], self.bound(t[1], line_no, "write to"),
            self.uint(t[2], line_no, "offset"), self.uint(t[3], line_no, "length", 1),
            self.fill(t[4], line_no),
        )

    def writeabs(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 4:
            raise _form_error(line_no, "writeabs <var>(+|-)<delta> <len> <bytehex>", raw)
        m = _VAR_DELTA_RE.match(t[1])
        if not m:
            raise TraceSyntaxError(line_no, f"expected <var>(+|-)<delta>, got {t[1]!r}")
        var, sign, magnitude = m.groups()
        alloc = self.bound(var, line_no, "use of")
        delta = self.uint(magnitude, line_no, "delta")
        return WriteAbs(
            eid, line_no, var, alloc, delta if sign == "+" else -delta,
            self.uint(t[2], line_no, "length", 1), self.fill(t[3], line_no),
        )

    def read(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 4:
            raise _form_error(line_no, "read <var> <offset> <len>", raw)
        return Read(
            eid, line_no, t[1], self.bound(t[1], line_no, "read of"),
            self.uint(t[2], line_no, "offset"), self.uint(t[3], line_no, "length", 1),
        )

    def reg(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 4 or t[2] != "=":
            raise _form_error(line_no, "reg <name> = <value>", raw)
        reg = self.name(t[1], line_no, "register name")
        ordinal = self.regs.setdefault(reg, len(self.regs))
        return RegSet(eid, line_no, reg, ordinal, self.value(t[3], line_no))

    def global_(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 4 or t[2] != "=":
            raise _form_error(line_no, "global <index> = <value>", raw)
        index = self.uint(t[1], line_no, "global index")
        return GlobalSet(eid, line_no, index, self.value(t[3], line_no))

    def store(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 5 or t[3] != "=":
            raise _form_error(line_no, "store <var> <offset> = <value>", raw)
        return Store(
            eid, line_no, t[1], self.bound(t[1], line_no, "store to"),
            self.uint(t[2], line_no, "offset"), self.value(t[4], line_no),
        )

    def call(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) == 1:
            raise TraceSyntaxError(line_no, "expected `call <name> [<arg> ...]`")
        name = self.name(t[1], line_no, "call name")
        args = tuple(t[2:])
        return ExtCall(eid, line_no, name, args, classify(name, args))

    def end(self, t: list[str], eid: int, line_no: int, raw: str) -> TraceEvent:
        if len(t) != 1:
            raise _form_error(line_no, "end", raw)
        return End(eid, line_no)


_FORMS = {
    "stack": _Parser.stack,
    "malloc": _Parser.malloc,
    "free": _Parser.free,
    "write": _Parser.write,
    "writeabs": _Parser.writeabs,
    "read": _Parser.read,
    "reg": _Parser.reg,
    "global": _Parser.global_,
    "store": _Parser.store,
    "call": _Parser.call,
    "end": _Parser.end,
}


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse trace source into events with dense 0-based ids.

    Rejects malformed lines with the line number and reason. An empty
    source yields an empty list, which the engine treats as an
    immediate end-of-trace.
    """
    parser = _Parser()
    events: list[TraceEvent] = []
    append = events.append
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if tokens:
            form = _FORMS.get(tokens[0])
            if form is None:
                raise TraceSyntaxError(line_no, f"unknown event {tokens[0]!r}")
            append(form(parser, tokens, len(events), line_no, raw))
    return events



class CallStacks:
    """The call stack at each event of a trace, from its pushes and pops.

    The first `at` gives each event the id of its innermost open push
    (-1 at top level) in one pass; a push's own entry is its caller's
    push, so a stack is a chain of entries.
    """

    def __init__(self, events: list[TraceEvent]):
        self.events = events
        self._innermost: list[int] = []

    def at(self, event_id: int) -> tuple[str, ...]:
        """The frames open when event event_id runs, outermost first."""
        innermost = self._innermost
        if not innermost:
            top = -1
            for ev in self.events:
                innermost.append(top)
                if ev.kind is EventKind.STACK_PUSH:
                    top = ev.id
                elif ev.kind is EventKind.STACK_POP:
                    top = innermost[top]
        frames = []
        push = innermost[event_id]
        while push >= 0:
            frames.append(self.events[push].frame)
            push = innermost[push]
        return tuple(reversed(frames))


class AllocSites:
    """The latest malloc event of each payload, given the payload of each
    malloc ordinal run so far. Each lookup folds in the mallocs run since
    the last one, so a run that looks nothing up pays nothing."""

    def __init__(self, events: list[TraceEvent], payloads):
        self.payloads = payloads
        self._mallocs = (ev for ev in events if ev.kind is EventKind.MALLOC)
        self._latest: dict[int, int] = {}
        self._folded = 0

    def at(self, payload: int | None) -> int | None:
        """The event id of the latest malloc so far that returned payload."""
        for ordinal in range(self._folded, len(self.payloads)):
            self._latest[self.payloads[ordinal]] = next(self._mallocs).id
        self._folded = len(self.payloads)
        return self._latest.get(payload)
