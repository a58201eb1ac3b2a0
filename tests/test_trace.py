from __future__ import annotations

import random
from array import array

import pytest

from tripwire.epoch import Category, classify
from tripwire.errors import StackUnderflow, TraceError, TraceSyntaxError, UnboundVariable
from tripwire.trace import AllocSites, CallStacks, EventKind, parse_trace

from oracles import stacks_at_events
from test_replay_fuzz import error_trace


def test_malloc_line_binds_variable():
    events = parse_trace("malloc a 24\n")
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is EventKind.MALLOC
    assert ev.var == "a"
    assert ev.size == 24


def test_empty_source_gives_empty_event_list():
    assert parse_trace("") == []
    assert parse_trace("\n# only a comment\n\n") == []


def test_six_line_trace_has_dense_ids():
    text = """
    stack push main
    malloc a 24
    write a 0 8 41
    free a
    stack pop
    end
    """
    events = parse_trace(text)
    assert [ev.id for ev in events] == [0, 1, 2, 3, 4, 5]
    assert [ev.kind for ev in events] == [
        EventKind.STACK_PUSH,
        EventKind.MALLOC,
        EventKind.WRITE,
        EventKind.FREE,
        EventKind.STACK_POP,
        EventKind.END,
    ]


def test_comments_and_blanks_do_not_consume_ids():
    text = "# header\nmalloc a 16\n\n  # interleaved\nfree a  # trailing comment\n"
    events = parse_trace(text)
    assert [(ev.id, ev.kind) for ev in events] == [
        (0, EventKind.MALLOC),
        (1, EventKind.FREE),
    ]
    assert events[1].line_no == 5


def test_writeabs_signs():
    events = parse_trace("malloc a 32\nwriteabs a+40 8 00\nwriteabs a-8 4 ff\n")
    assert events[1].delta == 40
    assert events[1].fill == 0x00
    assert events[2].delta == -8
    assert events[2].fill == 0xFF


def test_reg_and_global_value_forms():
    events = parse_trace(
        "malloc a 16\nreg r0 = a+8\nreg r1 = 77\nglobal 5 = a\nglobal 6 = 0x10\n"
    )
    assert events[1].value.var == "a" and events[1].value.delta == 8
    assert events[2].value.literal == 77
    assert events[3].index == 5 and events[3].value.var == "a"
    assert events[4].value.literal == 16


def test_store_value_forms():
    events = parse_trace("malloc a 16\nmalloc b 8\nstore a 8 = b+4\nstore a 0x10 = 7\n")
    assert events[2].kind is EventKind.STORE
    assert (events[2].var, events[2].alloc, events[2].offset) == ("a", 0, 8)
    assert (events[2].value.var, events[2].value.alloc, events[2].value.delta) == ("b", 1, 4)
    assert events[3].offset == 16 and events[3].value.literal == 7


def test_call_event_keeps_argument_tokens():
    (ev,) = parse_trace("call fcntl F_GETFL 3\n")
    assert ev.kind is EventKind.EXT_CALL
    assert ev.call_name == "fcntl"
    assert ev.call_args == ("F_GETFL", "3")


def test_unknown_keyword_reports_line_number():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace("malloc a 16\nfrobnicate a\n")
    assert exc.value.line_no == 2


def test_use_before_malloc_is_unbound():
    for line in ("free b", "write b 0 1 00", "read b 0 1", "writeabs b+0 1 00", "reg r0 = b"):
        with pytest.raises(UnboundVariable):
            parse_trace(line + "\n")


def test_stack_pop_on_empty_stack_rejected_at_parse_time():
    with pytest.raises(StackUnderflow) as exc:
        parse_trace("stack push f\nstack pop\nstack pop\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "bad",
    [
        "malloc a 0",
        "malloc a -4",
        "malloc a lots",
        "malloc 9name 8",
        "write a 0 0 00",  # zero length
        "write a 0 1 0",  # one hex digit
        "write a 0 1 zz",
        "write a 0 1 -1",  # int(tok, 16) takes a sign; a fill byte does not
        "write a 0 1 +f",
        "writeabs a+0 1 -1",
        "writeabs a 1 00",  # missing sign
        "stack shove f",
        "reg r0 a",  # missing '='
        "global x = 1",
        "call",
        "end now",
    ],
)
def test_malformed_lines_rejected(bad):
    with pytest.raises(TraceSyntaxError):
        parse_trace("malloc a 16\n" + bad + "\n")


# Every error branch of the parser, with the exact message it gives.
# Each line is parsed after `malloc a 16`, so it is line 2.
ERRORS = [
    ("stack push", TraceSyntaxError, "expected `stack push <name>`, got 'stack push'"),
    ("stack push f g", TraceSyntaxError, "expected `stack push <name>`, got 'stack push f g'"),
    ("stack push 9f", TraceSyntaxError, "frame name must be an identifier, got '9f'"),
    ("stack pop x", TraceSyntaxError, "expected `stack pop`, got 'stack pop x'"),
    ("stack pop", StackUnderflow, "stack pop on empty stack"),
    ("stack", TraceSyntaxError, "expected `stack push|pop`, got 'stack'"),
    ("stack shove f", TraceSyntaxError, "expected `stack push|pop`, got 'stack shove f'"),
    ("malloc a", TraceSyntaxError, "expected `malloc <var> <size>`, got 'malloc a'"),
    ("malloc 9name 8", TraceSyntaxError, "variable must be an identifier, got '9name'"),
    ("malloc a lots", TraceSyntaxError, "size must be an integer, got 'lots'"),
    ("malloc a 0", TraceSyntaxError, "size must be >= 1, got 0"),
    ("malloc a -4", TraceSyntaxError, "size must be >= 1, got -4"),
    ("free", TraceSyntaxError, "expected `free <var>`, got 'free'"),
    ("free a b", TraceSyntaxError, "expected `free <var>`, got 'free a b'"),
    ("free 9a", TraceSyntaxError, "variable must be an identifier, got '9a'"),
    ("free b", UnboundVariable, "free of unbound variable 'b'"),
    ("write a 0 1", TraceSyntaxError,
     "expected `write <var> <offset> <len> <bytehex>`, got 'write a 0 1'"),
    ("write 9a 0 1 00", TraceSyntaxError, "variable must be an identifier, got '9a'"),
    ("write b 0 1 00", UnboundVariable, "write to unbound variable 'b'"),
    ("write a x 1 00", TraceSyntaxError, "offset must be an integer, got 'x'"),
    ("write a -1 1 00", TraceSyntaxError, "offset must be >= 0, got -1"),
    ("write a 0 y 00", TraceSyntaxError, "length must be an integer, got 'y'"),
    ("write a 0 0 00", TraceSyntaxError, "length must be >= 1, got 0"),
    ("write a 0 1 0", TraceSyntaxError, "fill byte must be two hex digits, got '0'"),
    ("write a 0 1 zz", TraceSyntaxError, "fill byte must be two hex digits, got 'zz'"),
    ("writeabs a+0 1", TraceSyntaxError,
     "expected `writeabs <var>(+|-)<delta> <len> <bytehex>`, got 'writeabs a+0 1'"),
    ("writeabs a 1 00", TraceSyntaxError, "expected <var>(+|-)<delta>, got 'a'"),
    ("writeabs 9a+0 1 00", TraceSyntaxError, "expected <var>(+|-)<delta>, got '9a+0'"),
    ("writeabs b+0 1 00", UnboundVariable, "use of unbound variable 'b'"),
    ("writeabs a+1x 1 00", TraceSyntaxError, "delta must be an integer, got '1x'"),
    ("writeabs a+09 1 00", TraceSyntaxError, "delta must be an integer, got '09'"),
    ("writeabs a+0 q 00", TraceSyntaxError, "length must be an integer, got 'q'"),
    ("writeabs a+0 0 00", TraceSyntaxError, "length must be >= 1, got 0"),
    ("writeabs a+0 1 0g", TraceSyntaxError, "fill byte must be two hex digits, got '0g'"),
    ("read a 0", TraceSyntaxError, "expected `read <var> <offset> <len>`, got 'read a 0'"),
    ("read 9a 0 1", TraceSyntaxError, "variable must be an identifier, got '9a'"),
    ("read b 0 1", UnboundVariable, "read of unbound variable 'b'"),
    ("read a q 1", TraceSyntaxError, "offset must be an integer, got 'q'"),
    ("read a -1 1", TraceSyntaxError, "offset must be >= 0, got -1"),
    ("read a 0 q", TraceSyntaxError, "length must be an integer, got 'q'"),
    ("read a 0 0", TraceSyntaxError, "length must be >= 1, got 0"),
    ("reg r0 a", TraceSyntaxError, "expected `reg <name> = <value>`, got 'reg r0 a'"),
    ("reg r0 = a b", TraceSyntaxError, "expected `reg <name> = <value>`, got 'reg r0 = a b'"),
    ("reg 9r = 1", TraceSyntaxError, "register name must be an identifier, got '9r'"),
    ("reg r0 = 1z", TraceSyntaxError, "literal value must be an integer, got '1z'"),
    ("reg r0 = -5", TraceSyntaxError, "variable must be an identifier, got '-5'"),
    ("reg r0 = b", UnboundVariable, "use of unbound variable 'b'"),
    ("reg r0 = b+1", UnboundVariable, "use of unbound variable 'b'"),
    ("reg r0 = a+q", TraceSyntaxError, "delta must be an integer, got 'q'"),
    ("reg r0 = a+", TraceSyntaxError, "delta must be an integer, got ''"),
    ("reg r0 = a+-1", TraceSyntaxError, "delta must be >= 0, got -1"),
    ("global 1 a", TraceSyntaxError, "expected `global <index> = <value>`, got 'global 1 a'"),
    ("global x = 1", TraceSyntaxError, "global index must be an integer, got 'x'"),
    ("global -1 = 1", TraceSyntaxError, "global index must be >= 0, got -1"),
    ("global 1 = b", UnboundVariable, "use of unbound variable 'b'"),
    ("global 1 = 9x", TraceSyntaxError, "literal value must be an integer, got '9x'"),
    ("global 1 = a+z", TraceSyntaxError, "delta must be an integer, got 'z'"),
    ("store a 0 b", TraceSyntaxError, "expected `store <var> <offset> = <value>`, got 'store a 0 b'"),
    ("store a 0 = 1 2", TraceSyntaxError,
     "expected `store <var> <offset> = <value>`, got 'store a 0 = 1 2'"),
    ("store 9a 0 = 1", TraceSyntaxError, "variable must be an identifier, got '9a'"),
    ("store b 0 = 1", UnboundVariable, "store to unbound variable 'b'"),
    ("store a x = 1", TraceSyntaxError, "offset must be an integer, got 'x'"),
    ("store a -1 = 1", TraceSyntaxError, "offset must be >= 0, got -1"),
    ("store a 0 = b", UnboundVariable, "use of unbound variable 'b'"),
    ("store a 0 = 1z", TraceSyntaxError, "literal value must be an integer, got '1z'"),
    ("call", TraceSyntaxError, "expected `call <name> [<arg> ...]`"),
    ("call 9x", TraceSyntaxError, "call name must be an identifier, got '9x'"),
    ("end now", TraceSyntaxError, "expected `end`, got 'end now'"),
    ("frobnicate a", TraceSyntaxError, "unknown event 'frobnicate'"),
]


@pytest.mark.parametrize("line,error,message", ERRORS)
def test_every_parse_error_keeps_its_type_and_message(line, error, message):
    with pytest.raises(TraceError) as exc:
        parse_trace(f"malloc a 16\n  {line}  # comment\n")
    assert type(exc.value) is error
    assert str(exc.value) == f"line 2: {message}"
    assert exc.value.line_no == 2


def test_fill_byte_is_two_ascii_hex_digits():
    events = parse_trace("malloc a 16\nwrite a 0 1 0F\nwriteabs a+1 1 aB\n")
    assert [events[1].fill, events[2].fill] == [0x0F, 0xAB]
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace("malloc a 16\nwrite a 0 1 -1\n")
    assert str(exc.value) == "line 2: fill byte must be two hex digits, got '-1'"


def test_rebinding_a_variable_is_allowed():
    events = parse_trace("malloc a 16\nfree a\nmalloc a 32\n")
    assert events[2].size == 32


def test_variable_uses_carry_the_ordinal_of_their_binding_malloc():
    # each malloc is numbered in trace order, a rebinding included
    events = parse_trace(
        "malloc b 8\nmalloc a 8\nfree b\nmalloc b 16\nmalloc c 8\n"
        "write a 0 1 00\nwriteabs c-8 1 00\nread b 0 1\nreg r0 = c+4\nglobal 0 = a\n"
    )
    assert [(ev.var, ev.alloc) for ev in events[:5]] == [("b", 0), ("a", 1), ("b", 0), ("b", 2), ("c", 3)]
    assert [ev.alloc for ev in events[5:8]] == [1, 3, 2]
    assert (events[8].value.var, events[8].value.alloc) == ("c", 3)
    assert (events[9].value.var, events[9].value.alloc) == ("a", 1)
    assert events[0].size == 8 and events[3].size == 16


def test_call_events_carry_their_category():
    calls = ["getpid", "time", "open f", "write 1 8", "close 3", "fcntl F_GETFL 3",
             "fcntl F_SETFL 3", "fork", "exit", "frobnicate"]
    events = parse_trace("".join(f"call {c}\n" for c in calls))
    for ev in events:
        assert ev.category is classify(ev.call_name, ev.call_args)
    assert {ev.category for ev in events} == set(Category)


def test_fields_a_kind_lacks_read_as_none():
    (push, malloc, free, call, end) = parse_trace("stack push f\nmalloc a 8\nfree a\ncall fork\nend\n")
    assert push.var is None and push.alloc is None and push.call_args == ()
    assert malloc.offset is None and malloc.value is None and malloc.category is None
    assert free.size is None and call.frame is None
    assert end.kind is EventKind.END and end.id == 4 and end.line_no == 5


def assert_stacks_match_the_oracle(events) -> None:
    stacks = CallStacks(events)
    assert [stacks.at(ev.id) for ev in events] == stacks_at_events(events)


@pytest.mark.parametrize("seed", range(20))
def test_call_stacks_match_the_push_pop_oracle_on_fuzzed_frames(seed):
    assert_stacks_match_the_oracle(parse_trace(error_trace(random.Random(seed), 60, frames=True)))


def test_call_stacks_of_an_empty_trace_and_of_one_without_frames():
    assert_stacks_match_the_oracle(parse_trace(""))
    events = parse_trace("malloc a 8\nfree a\nend\n")
    assert_stacks_match_the_oracle(events)
    assert CallStacks(events).at(2) == ()


def test_call_stacks_of_a_2000_deep_nest():
    # in and back out, with a malloc at the bottom and a free on the way out
    pushes = "".join(f"stack push f{k}\n" for k in range(2000))
    pops = "stack pop\n" * 1000 + "free a\n" + "stack pop\n" * 1000
    events = parse_trace(pushes + "malloc a 8\n" + pops + "end\n")
    assert_stacks_match_the_oracle(events)
    stacks = CallStacks(events)
    assert stacks.at(2000) == tuple(f"f{k}" for k in range(2000))
    assert stacks.at(3001) == tuple(f"f{k}" for k in range(1000))
    assert stacks.at(4002) == ()


def test_alloc_sites_name_the_latest_malloc_of_each_payload_run_so_far():
    events = parse_trace("malloc a 8\nmalloc b 8\nfree a\nmalloc c 8\nend\n")
    payloads = array("Q")
    sites = AllocSites(events, payloads)
    assert sites.at(0x10) is None  # no malloc has run
    payloads.extend([0x10, 0x20])
    assert (sites.at(0x10), sites.at(0x20), sites.at(0x30)) == (0, 1, None)
    payloads.append(0x10)  # c took a's slot
    assert (sites.at(0x10), sites.at(0x20)) == (3, 1)
