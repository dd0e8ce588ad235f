"""Fuzz driver generation (paper §3.1.1, Fig. 3 + Algorithm 1).

The driver is generated *source code*, mirroring the paper's pipeline: it
splits the fuzzer's byte stream into per-iteration tuples, unpacks each
inport field at its ``memcpy`` offset, feeds the model step function, and
runs the coverage-collection loop of Algorithm 1 — with the bitmap
compares vectorized through big-integer arithmetic for speed.

Two hot-path reworks over the naive Algorithm 1 transcription:

* the model program is re-armed per input with ``program.reset()`` (the
  generated single-``dict.update`` fast path) instead of re-running the
  attribute-by-attribute ``init``;
* the per-iteration ``int.from_bytes`` bitmap conversion is skipped
  whenever the probe bytes are unchanged from the previous iteration —
  a C-speed ``memcmp`` against the last snapshot.  On a converged input
  (the common case late in a campaign) the loop touches no big integers
  at all, so the conversion cost is paid only when coverage moves.

``fuzz_test_one_input(program, cov, data, total_int)`` returns
``(metric, found_new, total_int, iterations)``:

* ``metric`` — Iteration Difference Coverage of this input;
* ``found_new`` — whether any probe not in ``total_int`` was hit (the
  "output test case" signal of Algorithm 1 line 16);
* ``total_int`` — updated global coverage bitmap (little-endian int over
  the probe bytes);
* ``iterations`` — executed tuple count (trailing partial data discarded).
"""

from __future__ import annotations

import struct
from typing import Callable

from ..bits import popcount
from ..faults.watchdog import WATCHDOG, WatchdogTimeout
from ..schedule.schedule import Schedule

__all__ = ["generate_fuzz_driver", "compile_fuzz_driver"]


def generate_fuzz_driver(schedule: Schedule) -> str:
    """Render the fuzz driver source for a model's inport layout."""
    layout = schedule.layout
    n_fields = len(layout.fields)
    field_vars = ["f_%s" % field.name for field in layout.fields]
    lines = [
        "# Generated fuzz driver for model %r" % schedule.model.name,
        "# tuple layout: %s (%d bytes per iteration)"
        % (
            ", ".join("%s:%s" % (f.name, f.dtype.name) for f in layout.fields),
            layout.size,
        ),
        "",
        "",
        "def fuzz_test_one_input(program, cov, data, total_int):",
        "    size = len(data)",
        "    data_len = %d  # input bytes required for one iteration" % layout.size,
        "    program.reset()  # model initialization code",
        "    _wd_arm()  # restart the step budget for this input",
        "    metric = 0",
        "    last_int = 0",
        "    last_bytes = _ZEROS",
    ]
    loop = [
        "found_new = False",
        "step = program.step",
        "i = 0",
        "while True:",
        "    # the loop that splits one test case into iteration tuples",
        "    if (i + 1) * data_len > size:",
        "        break  # not enough data left: discard the remainder",
        "    cov[:] = _ZEROS",
    ]
    if n_fields == 1:
        loop.append("    %s, = _unpack(data, i * data_len)" % field_vars[0])
    else:
        loop.append("    %s = _unpack(data, i * data_len)" % ", ".join(field_vars))
    for field, var in zip(layout.fields, field_vars):
        if field.dtype.is_bool:
            loop.append("    %s = 1 if %s else 0" % (var, var))
        elif field.dtype.is_float:
            loop.append("    if %s != %s:" % (var, var))
            loop.append("        %s = 0.0  # NaN input clamp" % var)
    loop.append("    step(%s)  # model iteration" % ", ".join(field_vars))
    loop.extend(
        [
            "    i += 1",
            "    if cov == last_bytes:",
            "        # probe bytes identical to the previous iteration:",
            "        # diff and new_bits are both provably zero, skip",
            "        # the int conversion entirely (memcmp-only path)",
            "        continue",
            "    last_bytes = bytes(cov)",
            '    cur_int = int.from_bytes(cov, "little")',
            "    new_bits = cur_int & ~total_int",
            "    if new_bits:",
            "        found_new = True  # output this input as a test case",
            "        total_int |= cur_int",
            "    diff = cur_int ^ last_int",
            "    if diff:",
            "        # iteration difference coverage accumulation",
            "        metric += _popcount(diff)",
            "    last_int = cur_int",
        ]
    )
    # the loop runs under a watchdog: on timeout, probes hit before the
    # abort must not be discarded, so the exception carries the folded
    # bitmap (total seen so far | the aborted iteration's partial probes)
    # and the completed-iteration count for the engine to account
    lines.append("    try:")
    lines.extend("        " + line for line in loop)
    lines.extend(
        [
            "    except _WDT as exc:",
            '        exc.partial_total_int = total_int | int.from_bytes(cov, "little")',
            "        exc.iterations = i",
            "        raise",
            "    return metric, found_new, total_int, i",
            "",
        ]
    )
    return "\n".join(lines)


def compile_fuzz_driver(schedule: Schedule) -> Callable:
    """Compile the generated driver; returns the callable."""
    layout = schedule.layout
    fmt = "<" + "".join(field.dtype.fmt for field in layout.fields)
    source = generate_fuzz_driver(schedule)
    env = {
        "_unpack": struct.Struct(fmt).unpack_from,
        "_ZEROS": bytes(schedule.branch_db.n_probes),
        "_popcount": popcount,
        "_wd_arm": WATCHDOG.arm,
        "_WDT": WatchdogTimeout,
    }
    exec(compile(source, "<fuzz driver:%s>" % schedule.model.name, "exec"), env)
    return env["fuzz_test_one_input"]
