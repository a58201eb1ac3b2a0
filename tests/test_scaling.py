"""The scaling tool (tests/scaling.py) runs every shape, with the
boundary counts its docstring gives."""

from __future__ import annotations

import tripwire as tw

import scaling


def test_every_shape_runs_with_the_boundary_count_the_tool_documents():
    n = 20
    expected = {"registers": 201, "open/fork": n + 1, "variables": 201, "drop-one-root": n + 2, "chain": 201}
    assert set(scaling.SHAPES) == set(expected)
    config = tw.EngineConfig(globals_words=4 * n)
    for name, build in scaling.SHAPES.items():
        run = scaling.measure(build(n), config)
        assert len(run.times) == expected[name], name
        assert run.marks == len(run.times) and 1 <= run.full_marks <= run.marks, name
