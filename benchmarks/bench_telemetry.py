#!/usr/bin/env python
"""Overhead + byte-identity gate for the telemetry subsystem.

Standalone script (not pytest-benchmark) so CI can run it directly and
assert on the result:

* **execs/s overhead** — the same fixed-budget campaign on the demo
  model, telemetry disabled versus fully enabled (JSONL trace + status
  lines to a sink); the enabled arm must stay within ``--max-overhead``
  percent (default 3) of the disabled one.  Both arms advance in
  alternating fixed-input ``resume`` slices (0.04-0.4 s as the corpus
  fills), doing byte-identical work, and the gate compares per-arm
  total seconds: the host's speed drifts in phases (frequency scaling,
  noisy neighbours) that a slice pair shares, where whole 1-2 s
  campaigns run one after the other land in different phases;
* **byte identity** — with telemetry fully enabled, the generated suites
  must still hash to the golden SHA-256 digests recorded in
  ``tests/test_parallel.py``: observability never touches the RNG stream
  or the corpus decisions;
* the enabled run's campaign trace is validated event by event and kept
  (``--trace``) so the gate doubles as a trace-format smoke test;
* **kernel path** — the same sliced off/on gate on the lane-parallel
  backend (``lanes=8``, ``kernel_threads=2``) with the FULL
  observability stack enabled (trace + stats + span events + a live
  metrics server being scraped): overhead stays within budget and the
  off/on suites are byte-identical to each other.  Self-gating: when the
  native kernel is not available the section reports itself skipped
  instead of failing.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
    PYTHONPATH=src python benchmarks/bench_telemetry.py \
        --max-overhead 5 --json out.json --trace trace.jsonl   # CI gate
"""

import argparse
import io
import json
import os
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "tests"))

from repro import convert  # noqa: E402
from repro.fuzzing import Fuzzer, FuzzerConfig  # noqa: E402
from repro.telemetry import Telemetry, read_trace, validate_event  # noqa: E402
from repro.telemetry.report import coverage_curve  # noqa: E402

from conftest import demo_model  # noqa: E402
from test_parallel import TestDeterminismRegression  # noqa: E402

GOLDEN = TestDeterminismRegression.GOLDEN

DEFAULT_MAX_OVERHEAD_PCT = 3.0
RATE_INPUTS = 8000  # inputs per off/on campaign pair: ~1-2 s per arm
RATE_PAIRS = 5      # campaign pairs summed into each arm's total
SLICE_INPUTS = 500  # inputs per resume slice: 0.04-0.4 s on a 2-vCPU host


def _scalar_config(seed, max_inputs):
    return FuzzerConfig(max_seconds=600.0, max_inputs=max_inputs, seed=seed)


def _run(schedule, seed, max_inputs, telemetry):
    return Fuzzer(
        schedule, _scalar_config(seed, max_inputs), telemetry=telemetry
    ).run()


def _full_telemetry(path):
    return Telemetry(
        enabled=True,
        trace_path=path,
        stats_stream=io.StringIO(),
        stats_interval=0.25,
    )


def _interleaved(off, on, max_inputs):
    """Run the ``off`` and ``on`` Fuzzers over ``max_inputs`` in
    alternating fixed-input ``resume`` slices; returns the per-arm total
    seconds and the two final states.

    The arms differ only in telemetry, so each slice does byte-identical
    work on both.  Each slice pair runs back to back (which arm goes
    first alternates), so both halves of a pair see one host speed
    phase, and the totals weigh every phase by how long it lasted.
    """
    arms = (off, on)
    states = [off.new_state(), on.new_state()]
    seconds = [0.0, 0.0]
    for k, cap in enumerate(range(SLICE_INPUTS, max_inputs + SLICE_INPUTS,
                                  SLICE_INPUTS)):
        for arm in ((0, 1) if k % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            arms[arm].resume(states[arm], max_inputs=min(cap, max_inputs))
            seconds[arm] += time.perf_counter() - t0
    return seconds, states


def _totals(per_pair, max_inputs):
    """Overhead of the summed on-arm seconds over the summed off-arm
    seconds, plus each pair's own figure for the record."""
    off = sum(s[0] for s in per_pair)
    on = sum(s[1] for s in per_pair)
    inputs = max_inputs * len(per_pair)
    return {
        "execs_per_s_off": round(inputs / off, 1),
        "execs_per_s_on": round(inputs / on, 1),
        "pair_overheads_pct": [
            round((s[1] / s[0] - 1.0) * 100.0, 2) for s in per_pair
        ],
        "overhead_pct": round((on / off - 1.0) * 100.0, 2),
    }


def _scalar_pair(schedule, max_inputs):
    """One off/on campaign pair in alternating slices, the on arm with
    a JSONL trace and status lines."""
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro_tel_")
    os.close(fd)
    try:
        tel = _full_telemetry(path)
        off = Fuzzer(
            schedule, _scalar_config(7, max_inputs),
            telemetry=Telemetry(enabled=False),
        )
        on = Fuzzer(schedule, _scalar_config(7, max_inputs), telemetry=tel)
        seconds, states = _interleaved(off, on, max_inputs)
        tel.close()
    finally:
        os.unlink(path)
    return seconds, states


def bench_overhead(schedule, pairs=RATE_PAIRS, max_inputs=RATE_INPUTS):
    """Telemetry off vs fully on, as per-arm total seconds over
    ``pairs`` campaigns run in alternating slices (:func:`_interleaved`).

    Both arms warm up first, so one-time costs (imports, first trace
    writes) stay out of the totals.
    """
    _scalar_pair(schedule, SLICE_INPUTS)  # warm-up of both arms
    per_pair = []
    digests = set()
    for _ in range(pairs):
        seconds, states = _scalar_pair(schedule, max_inputs)
        per_pair.append(seconds)
        digests.update(st.suite.digest() for st in states)
    result = _totals(per_pair, max_inputs)
    result["digests_identical"] = len(digests) == 1
    return result


def _kernel_config(seed, max_inputs):
    return FuzzerConfig(
        max_seconds=600.0,
        max_inputs=max_inputs,
        seed=seed,
        lanes=8,
        kernel="auto",
        kernel_threads=2,
    )


def _kernel_pair(schedule, max_inputs):
    """One off/on kernel campaign pair in alternating slices, the on arm
    with the full stack: JSONL trace, status lines, spans, and a live
    metrics server that is scraped before it stops."""
    import urllib.request

    from repro.telemetry.metrics import parse_exposition
    from repro.telemetry.server import MetricsServer

    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro_tel_k_")
    os.close(fd)
    try:
        tel = _full_telemetry(path)
        off = Fuzzer(
            schedule, _kernel_config(7, max_inputs),
            telemetry=Telemetry(enabled=False),
        )
        on = Fuzzer(schedule, _kernel_config(7, max_inputs), telemetry=tel)
        with MetricsServer(tel) as server:
            seconds, states = _interleaved(off, on, max_inputs)
            # a real scrape while the server is live: the exposition must
            # parse and carry the engine gauges the kernel path maintains
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                samples = parse_exposition(r.read().decode("utf-8"))
            assert "repro_engine_ladder_position" in samples
        tel.close()
        events = read_trace(path)
        for event in events:
            validate_event(event)
        spans = sum(1 for e in events if e.get("ev") == "span")
    finally:
        os.unlink(path)
    return seconds, states, spans


def bench_kernel(schedule, pairs=RATE_PAIRS, max_inputs=RATE_INPUTS):
    """Off/on overhead + identity on the lane-parallel backend, timed as
    :func:`bench_overhead` times the scalar path.

    Identity compares off-vs-on digests of the *same* kernel config (the
    scalar golden table doesn't apply: lanes>1 legitimately schedules the
    corpus differently), so the guarantee is exactly "observability never
    perturbs the suite".  Returns ``None`` when only the scalar engine is
    available (no C compiler) — the caller reports a skip.
    """
    probe = Fuzzer(schedule, _kernel_config(7, 1), telemetry=Telemetry(enabled=False))
    if probe.engine == "scalar":
        return None
    per_pair = []
    digests = set()
    span_counts = []
    _kernel_pair(schedule, SLICE_INPUTS)  # warm-up of both arms
    for _ in range(pairs):
        seconds, states, spans = _kernel_pair(schedule, max_inputs)
        per_pair.append(seconds)
        span_counts.append(spans)
        digests.update(st.suite.digest() for st in states)
    result = _totals(per_pair, max_inputs)
    result.update(
        backend=probe.engine,
        span_events=max(span_counts),
        digests_identical=len(digests) == 1,
    )
    return result


def bench_byte_identity(schedule, trace_path):
    """Golden-digest check with telemetry fully enabled; keeps one trace."""
    rows = []
    for (seed, max_inputs), want in sorted(GOLDEN.items()):
        tel = Telemetry(
            enabled=True, trace_path=trace_path, stats_stream=io.StringIO()
        )
        result = _run(schedule, seed, max_inputs, tel)
        tel.close()
        got = result.suite.digest()
        events = read_trace(trace_path)
        for event in events:
            validate_event(event)
        curve = coverage_curve(events)
        rows.append(
            {
                "seed": seed,
                "max_inputs": max_inputs,
                "digest_ok": got == want,
                "digest": got,
                "trace_events": len(events),
                "curve_points": len(curve),
                "curve_monotone": all(
                    curve[i][1] <= curve[i + 1][1] for i in range(len(curve) - 1)
                ),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=DEFAULT_MAX_OVERHEAD_PCT,
        help="fail when enabled overhead exceeds this percent (default 3)",
    )
    parser.add_argument(
        "--inputs", type=int, default=RATE_INPUTS,
        help="inputs per campaign (default %d)" % RATE_INPUTS,
    )
    parser.add_argument(
        "--pairs", type=int, default=RATE_PAIRS,
        help="off/on campaign pairs summed per arm (default %d)" % RATE_PAIRS,
    )
    parser.add_argument("--json", help="write the results as JSON to this path")
    parser.add_argument(
        "--trace",
        help="keep the enabled run's campaign trace at this path",
    )
    args = parser.parse_args(argv)

    schedule = convert(demo_model())

    overhead = bench_overhead(schedule, args.pairs, args.inputs)
    print(
        "execs/s: off %.0f  on %.0f  overhead %.2f%% over per-arm totals "
        "(budget %.1f%%, pairs: %s)"
        % (
            overhead["execs_per_s_off"],
            overhead["execs_per_s_on"],
            overhead["overhead_pct"],
            args.max_overhead,
            overhead["pair_overheads_pct"],
        )
    )

    if args.trace:
        trace_path = args.trace
        cleanup = False
    else:
        fd, trace_path = tempfile.mkstemp(suffix=".jsonl", prefix="repro_tel_")
        os.close(fd)
        cleanup = True
    try:
        identity = bench_byte_identity(schedule, trace_path)
    finally:
        if cleanup:
            os.unlink(trace_path)
    for row in identity:
        print(
            "seed=%-3d inputs=%-4d digest %-4s  trace: %d events, "
            "%d curve points (monotone=%s)"
            % (
                row["seed"],
                row["max_inputs"],
                "OK" if row["digest_ok"] else "FAIL",
                row["trace_events"],
                row["curve_points"],
                row["curve_monotone"],
            )
        )
    if args.trace:
        print("trace kept at %s" % args.trace)

    kernel = bench_kernel(schedule, args.pairs, args.inputs)
    if kernel is None:
        print("kernel path: skipped (no native kernel here)")
    else:
        print(
            "kernel path (%s, lanes=8, threads=2, full stack): off %.0f  "
            "on %.0f  overhead %.2f%% over per-arm totals  span events %d  "
            "off/on suites identical: %s"
            % (
                kernel["backend"],
                kernel["execs_per_s_off"],
                kernel["execs_per_s_on"],
                kernel["overhead_pct"],
                kernel["span_events"],
                kernel["digests_identical"],
            )
        )

    result = {"overhead": overhead, "byte_identity": identity, "kernel": kernel}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print("json written to %s" % args.json)

    ok = True
    if overhead["overhead_pct"] > args.max_overhead:
        print(
            "FAIL: telemetry overhead %.2f%% > %.1f%%"
            % (overhead["overhead_pct"], args.max_overhead)
        )
        ok = False
    if not overhead["digests_identical"]:
        print("FAIL: suite bytes changed with telemetry on")
        ok = False
    for row in identity:
        if not row["digest_ok"]:
            print(
                "FAIL: suite digest changed with telemetry on "
                "(seed=%d inputs=%d)" % (row["seed"], row["max_inputs"])
            )
            ok = False
        if not row["curve_monotone"]:
            print("FAIL: coverage curve not monotone")
            ok = False
    if kernel is not None:
        if kernel["overhead_pct"] > args.max_overhead:
            print(
                "FAIL: kernel-path telemetry overhead %.2f%% > %.1f%%"
                % (kernel["overhead_pct"], args.max_overhead)
            )
            ok = False
        if not kernel["digests_identical"]:
            print(
                "FAIL: kernel-path suite bytes changed with the "
                "observability stack on"
            )
            ok = False
        if not kernel["span_events"]:
            print("FAIL: kernel-path trace carries no span events")
            ok = False
    if ok:
        print("telemetry gate passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
