"""Shared test fixtures and helpers.

The central helper is :func:`run_both`: execute a model on both engines
(generated code and interpreter) over the same input rows, assert the
outputs agree, and return them — every block test doubles as a
codegen-vs-simulation cross-validation, the paper's own correctness
check.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import pytest

from repro import (
    CoverageRecorder,
    ModelBuilder,
    ModelInstance,
    compile_model,
    compute_report,
    convert,
)

__all__ = [
    "single_block_model",
    "run_both",
    "run_compiled",
    "coverage_of",
    "demo_model",
    "no_inport_model",
    "skip_if_no_cc",
]


def _have_cc() -> bool:
    from repro.codegen.kernel import have_cc

    return have_cc()


#: decorate kernel-backend tests: they need a working C toolchain on
#: PATH ($CC, cc, gcc or clang); everywhere else they must skip, not
#: fail — the engine itself degrades the same way at runtime
skip_if_no_cc = pytest.mark.skipif(
    not _have_cc(), reason="kernel backend needs a C compiler (cc/gcc/clang)"
)


def single_block_model(type_name: str, params: dict, in_dtypes: Sequence[str]):
    """A model wrapping one block: inports → block → outports."""
    b = ModelBuilder("single_%s" % type_name)
    inputs = [
        b.inport("u%d" % (i + 1), dtype) for i, dtype in enumerate(in_dtypes)
    ]
    outs = b.block(type_name, "dut", **params)(*inputs)
    if not isinstance(outs, tuple):
        outs = (outs,)
    for i, sig in enumerate(outs):
        b.outport("y%d" % (i + 1), sig)
    return b.build()


def run_compiled(model, rows: Sequence[Tuple], level: str = "model"):
    """Run the compiled program over rows; returns outputs per row."""
    schedule = convert(model)
    compiled = compile_model(schedule, level)
    program, _ = compiled.instantiate()
    program.init()
    return [program.step(*row) for row in rows]


def run_both(model, rows: Sequence[Tuple]) -> List[Tuple]:
    """Run both engines, assert equality, return the output rows."""
    schedule = convert(model)
    compiled = compile_model(schedule, "model")
    program, _ = compiled.instantiate()
    program.init()
    instance = ModelInstance(schedule, recorder=CoverageRecorder(schedule.branch_db))
    instance.init()
    outputs = []
    for row in rows:
        compiled_out = program.step(*row)
        interp_out = tuple(instance.step(*row))
        assert compiled_out == interp_out, (
            "engine mismatch on %r: compiled=%r interpreted=%r"
            % (row, compiled_out, interp_out)
        )
        outputs.append(compiled_out)
    return outputs


def coverage_of(model, rows: Sequence[Tuple]):
    """Coverage report after executing rows on the instrumented program."""
    schedule = convert(model)
    compiled = compile_model(schedule, "model")
    recorder = CoverageRecorder(schedule.branch_db)
    program, _ = compiled.instantiate(recorder)
    program.init()
    for row in rows:
        recorder.reset_curr()
        program.step(*row)
        recorder.commit_curr()
    return compute_report(recorder)


def demo_model():
    """A small but representative model: switch, delay loop, chart."""
    b = ModelBuilder("demo")
    en = b.inport("Enable", "boolean")
    power = b.inport("Power", "int32")
    lim = b.block("Saturation", "Lim", lower=0, upper=1000)(power)
    gate = b.block("Switch", "Gate", criterion="~=0")(lim, en, b.const(0))
    acc = b.block("UnitDelay", "Acc", dtype="int32")
    total = b.block("Sum", "Add", signs="++")(gate, acc.out(0))
    b.wire("Acc", [total])
    go = b.block("CompareToConstant", "Hi", op=">", value=500)(total)
    chart = b.block(
        "Chart",
        "Ctl",
        states=["Idle", "Charge", "Full"],
        initial="Idle",
        inputs=["go", "level"],
        outputs=[("mode", "int32")],
        locals={"mode": ("int32", 0), "cnt": ("int32", 0)},
        transitions=[
            {"src": "Idle", "dst": "Charge", "guard": "go > 0 && level < 800",
             "action": "cnt = cnt + 1"},
            {"src": "Charge", "dst": "Full", "guard": "level >= 800"},
            {"src": "Full", "dst": "Idle", "guard": "go <= 0", "action": "mode = 0"},
        ],
        entry={"Charge": "mode = 1", "Full": "mode = 2"},
        during={"Charge": "cnt = cnt + 1"},
    )(go, total)
    b.outport("Mode", chart)
    b.outport("Total", total)
    return b.build()


def no_inport_model():
    """A well-formed model with nothing to fuzz: ``Fuzzer`` rejects it."""
    b = ModelBuilder("noin")
    b.outport("Out", b.const(1))
    return b.build()


@pytest.fixture
def demo_schedule():
    return convert(demo_model())


@pytest.fixture
def rng():
    return random.Random(1234)
