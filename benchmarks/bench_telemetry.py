#!/usr/bin/env python
"""Overhead + byte-identity gate for the telemetry subsystem.

Standalone script (not pytest-benchmark) so CI can run it directly and
assert on the result:

* **execs/s overhead** — the same fixed-budget campaign on the demo
  model, telemetry disabled versus fully enabled (JSONL trace + status
  lines to a sink); the enabled run must stay within ``--max-overhead``
  percent (default 3) of the disabled rate.  Variants run as
  *interleaved off/on pairs* and the gate takes the median pairwise
  ratio: machine-level drift (frequency scaling, noisy neighbours) hits
  both halves of a pair alike and cancels, where a best-of-N of
  separately-run variants would report the drift as overhead;
* **byte identity** — with telemetry fully enabled, the generated suites
  must still hash to the golden SHA-256 digests recorded in
  ``tests/test_parallel.py``: observability never touches the RNG stream
  or the corpus decisions;
* the enabled run's campaign trace is validated event by event and kept
  (``--trace``) so the gate doubles as a trace-format smoke test;
* **kernel path** — the same off/on pairwise gate on the lane-parallel
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

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "tests"))

from repro import convert  # noqa: E402
from repro.fuzzing import Fuzzer, FuzzerConfig  # noqa: E402
from repro.telemetry import Telemetry, read_trace, validate_event  # noqa: E402
from repro.telemetry.report import coverage_curve  # noqa: E402

from conftest import demo_model  # noqa: E402
from test_parallel import TestDeterminismRegression, _suite_digest  # noqa: E402

GOLDEN = TestDeterminismRegression.GOLDEN

DEFAULT_MAX_OVERHEAD_PCT = 3.0
RATE_INPUTS = 8000  # fixed budget per run: ~1s, long enough to average
RATE_PAIRS = 5      # scheduler hiccups over runs this short


def _run(schedule, seed, max_inputs, telemetry):
    config = FuzzerConfig(max_seconds=600.0, max_inputs=max_inputs, seed=seed)
    return Fuzzer(schedule, config, telemetry=telemetry).run()


def _run_enabled(schedule, max_inputs):
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro_tel_")
    os.close(fd)
    try:
        tel = Telemetry(
            enabled=True,
            trace_path=path,
            stats_stream=io.StringIO(),
            stats_interval=0.25,
        )
        result = _run(schedule, 7, max_inputs, tel)
        tel.close()
    finally:
        os.unlink(path)
    return result


def bench_overhead(schedule, pairs=RATE_PAIRS, max_inputs=RATE_INPUTS):
    """Median pairwise overhead, telemetry off vs fully on per pair.

    Pair order alternates (off-first, then on-first) so warm-cache and
    frequency-ramp position effects cancel across the median too.
    """
    ratios = []
    rates_off = []
    rates_on = []
    _run(schedule, 7, max_inputs, Telemetry(enabled=False))  # warm-up
    for i in range(pairs):
        if i % 2 == 0:
            off = _run(schedule, 7, max_inputs, Telemetry(enabled=False))
            on = _run_enabled(schedule, max_inputs)
        else:
            on = _run_enabled(schedule, max_inputs)
            off = _run(schedule, 7, max_inputs, Telemetry(enabled=False))
        rates_off.append(off.execs_per_second)
        rates_on.append(on.execs_per_second)
        if off.execs_per_second:
            ratios.append(on.execs_per_second / off.execs_per_second)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2] if ratios else 1.0
    overhead_pct = (1.0 - median_ratio) * 100.0
    return {
        "execs_per_s_off": round(max(rates_off), 1),
        "execs_per_s_on": round(max(rates_on), 1),
        "pair_overheads_pct": [round((1.0 - r) * 100.0, 2) for r in ratios],
        "overhead_pct": round(overhead_pct, 2),
    }


def _kernel_config(seed, max_inputs):
    return FuzzerConfig(
        max_seconds=600.0,
        max_inputs=max_inputs,
        seed=seed,
        lanes=8,
        kernel="auto",
        kernel_threads=2,
    )


def _run_kernel_off(schedule, max_inputs):
    fuzzer = Fuzzer(
        schedule, _kernel_config(7, max_inputs), telemetry=Telemetry(enabled=False)
    )
    return fuzzer.run()


def _run_kernel_on(schedule, max_inputs):
    """The full stack: JSONL trace, status lines, spans, live HTTP scrape."""
    import urllib.request

    from repro.telemetry.metrics import parse_exposition
    from repro.telemetry.server import MetricsServer

    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro_tel_k_")
    os.close(fd)
    try:
        tel = Telemetry(
            enabled=True,
            trace_path=path,
            stats_stream=io.StringIO(),
            stats_interval=0.25,
        )
        fuzzer = Fuzzer(schedule, _kernel_config(7, max_inputs), telemetry=tel)
        with MetricsServer(tel) as server:
            result = fuzzer.run()
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
    return result, spans


def bench_kernel(schedule, pairs=RATE_PAIRS, max_inputs=RATE_INPUTS):
    """Off/on pairwise overhead + identity on the lane-parallel backend.

    Identity compares off-vs-on digests of the *same* kernel config (the
    scalar golden table doesn't apply: lanes>1 legitimately schedules the
    corpus differently), so the guarantee is exactly "observability never
    perturbs the suite".  Returns ``None`` when only the scalar engine is
    available (no C compiler or no numpy) — the caller reports a skip.
    """
    probe = Fuzzer(schedule, _kernel_config(7, 1), telemetry=Telemetry(enabled=False))
    if probe.engine == "scalar":
        return None
    ratios = []
    rates_off = []
    rates_on = []
    digests_off = set()
    digests_on = set()
    span_counts = []
    _run_kernel_off(schedule, max_inputs)  # warm-up (incl. kernel cc)
    for i in range(pairs):
        if i % 2 == 0:
            off = _run_kernel_off(schedule, max_inputs)
            on, spans = _run_kernel_on(schedule, max_inputs)
        else:
            on, spans = _run_kernel_on(schedule, max_inputs)
            off = _run_kernel_off(schedule, max_inputs)
        rates_off.append(off.execs_per_second)
        rates_on.append(on.execs_per_second)
        span_counts.append(spans)
        digests_off.add(_suite_digest(off.suite))
        digests_on.add(_suite_digest(on.suite))
        if off.execs_per_second:
            ratios.append(on.execs_per_second / off.execs_per_second)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2] if ratios else 1.0
    return {
        "backend": probe.engine,
        "execs_per_s_off": round(max(rates_off), 1),
        "execs_per_s_on": round(max(rates_on), 1),
        "pair_overheads_pct": [round((1.0 - r) * 100.0, 2) for r in ratios],
        "overhead_pct": round((1.0 - median_ratio) * 100.0, 2),
        "span_events": max(span_counts),
        "digests_identical": digests_off == digests_on and len(digests_off) == 1,
    }


def bench_byte_identity(schedule, trace_path):
    """Golden-digest check with telemetry fully enabled; keeps one trace."""
    rows = []
    for (seed, max_inputs), want in sorted(GOLDEN.items()):
        tel = Telemetry(
            enabled=True, trace_path=trace_path, stats_stream=io.StringIO()
        )
        result = _run(schedule, seed, max_inputs, tel)
        tel.close()
        got = _suite_digest(result.suite)
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
        help="inputs per rate measurement (default %d)" % RATE_INPUTS,
    )
    parser.add_argument(
        "--pairs", type=int, default=RATE_PAIRS,
        help="interleaved off/on measurement pairs (default %d)" % RATE_PAIRS,
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
        "execs/s: off %.0f  on %.0f  median pairwise overhead %.2f%% "
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
        print("kernel path: skipped (no native kernel or numpy backend here)")
    else:
        print(
            "kernel path (%s, lanes=8, threads=2, full stack): off %.0f  "
            "on %.0f  median pairwise overhead %.2f%%  span events %d  "
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
