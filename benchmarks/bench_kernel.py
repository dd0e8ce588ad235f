#!/usr/bin/env python
"""Throughput benchmark + CI gate for the fused native kernel backend.

Standalone script (not pytest-benchmark) so CI can run it directly and
assert on the result:

* **iterations/s** per bench model, scalar optimized driver versus the
  native kernel stepping ``--lanes`` streams through one fused C step
  function — identical fixed-seed byte streams for both engines;
* a per-model **parity check**: the kernel driver must return the exact
  ``(metric, found_new, total_int, iterations)`` tuples the scalar
  driver produces on the same streams, so speedups are only reported
  for semantically equivalent execution;
* **cold/warm compile times**: a cold compile lowers + runs ``cc``; a
  warm one dlopens the content-addressed ``.so`` from the compile
  cache.  The warm path must stay >= 10x faster or the cache story is
  broken.

Design target (the tentpole's acceptance bar): >= 3x iterations/s on at
least half the bench models at 64 lanes, and **no model below 1.0x** —
the kernel exists precisely so that turning lanes up never loses to the
scalar engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --json benchmarks/results/bench_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --json out.json

``--quick`` shortens the measurement windows for CI; both modes exit
non-zero on a parity failure, any model under the 1.0x floor, or fewer
than half the models at the 3x target.
"""

import argparse
import json
import os
import random
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.registry import build_schedule, model_names  # noqa: E402
from repro.codegen import compile_model  # noqa: E402
from repro.codegen.driver import compile_fuzz_driver  # noqa: E402
from repro.codegen.kernel import (  # noqa: E402
    clear_kernel_memory,
    compile_kernel,
    compile_kernel_fuzz_driver,
    find_cc,
)

TARGET_SPEEDUP = 3.0
FLOOR_SPEEDUP = 1.0
MIN_WARM_GAIN = 10.0
ITERS_PER_STREAM = 64


def _streams(schedule, lanes):
    """The SAME fixed-seed byte streams feed both engines."""
    rng = random.Random(0xBE7C5)
    size = schedule.layout.size
    return [
        bytes(rng.getrandbits(8) for _ in range(size * ITERS_PER_STREAM))
        for _ in range(lanes)
    ]


def _measure_scalar(schedule, streams, seconds):
    compiled = compile_model(schedule, "model", cache=False)
    driver = compile_fuzz_driver(schedule)
    program, recorder = compiled.instantiate()
    cov = recorder.curr
    results, iterations = [], 0
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    while True:
        round_results, total = [], 0
        for data in streams:
            metric, found, total, iters = driver(program, cov, data, total)
            round_results.append((metric, found, total, iters))
            iterations += iters
        results = round_results  # identical every round (deterministic)
        if time.perf_counter() >= deadline:
            break
    return iterations / (time.perf_counter() - start), results


def _measure_kernel(schedule, streams, lanes, seconds):
    compiled = compile_kernel(schedule, "model", cache=False)
    driver = compile_kernel_fuzz_driver(schedule)
    program = compiled.instantiate_kernel(lanes)
    results, iterations = [], 0
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    while True:
        results = driver(program, None, streams, 0)
        iterations += sum(r[3] for r in results)
        if time.perf_counter() >= deadline:
            break
    return (
        iterations / (time.perf_counter() - start),
        [tuple(r[:4]) for r in results],
    )


def _compile_times(schedule):
    """(cold, warm) kernel compile seconds through the two-tier cache.

    Cold = lower to C + out-of-process ``cc`` + persist; warm = read the
    content-addressed ``.c``/``.so`` pair back and dlopen it.
    """
    saved = {
        k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_CACHE")
    }
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ["REPRO_CACHE"] = "1"
        try:
            clear_kernel_memory()
            t0 = time.perf_counter()
            compile_kernel(schedule, "model")
            cold = time.perf_counter() - t0
            clear_kernel_memory()  # drop the memory tier: force the disk hit
            t0 = time.perf_counter()
            warm_kernel = compile_kernel(schedule, "model")
            warm = time.perf_counter() - t0
            assert warm_kernel.from_cache == "disk", warm_kernel.from_cache
        finally:
            clear_kernel_memory()
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return cold, warm


def bench_model(name, lanes, seconds):
    schedule = build_schedule(name)
    streams = _streams(schedule, lanes)
    scalar_ips, scalar_results = _measure_scalar(schedule, streams, seconds)
    kernel_ips, kernel_results = _measure_kernel(
        schedule, streams, lanes, seconds
    )
    cold, warm = _compile_times(schedule)
    return {
        "model": name,
        "lanes": lanes,
        "iters_per_s_scalar": round(scalar_ips, 1),
        "iters_per_s_kernel": round(kernel_ips, 1),
        "speedup": round(kernel_ips / scalar_ips, 3),
        "parity": kernel_results == [tuple(r) for r in scalar_results],
        "compile_cold_s": round(cold, 4),
        "compile_warm_s": round(warm, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="*", help="subset of bench models")
    parser.add_argument("--lanes", type=int, default=64,
                        help="kernel lane width (default 64)")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="measurement window per engine (default 2.0)")
    parser.add_argument("--json", help="write the results as JSON to this path")
    parser.add_argument("--quick", action="store_true",
                        help="CI gate: short windows, same assertions")
    args = parser.parse_args(argv)

    if find_cc() is None:
        print("no C compiler on PATH: kernel backend cannot run",
              file=sys.stderr)
        return 1
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("numpy unavailable: kernel driver cannot marshal streams",
              file=sys.stderr)
        return 1

    names = args.models or model_names()
    unknown = [n for n in names if n not in model_names()]
    if unknown:
        parser.error("unknown models: %s" % ", ".join(unknown))
    seconds = min(args.seconds, 0.5) if args.quick else args.seconds

    rows = []
    print("%-10s %6s %16s %16s %8s %7s %9s %9s" % (
        "model", "lanes", "iters/s scalar", "iters/s kernel", "speedup",
        "parity", "cold(s)", "warm(s)"))
    for name in names:
        row = bench_model(name, args.lanes, seconds)
        rows.append(row)
        print("%-10s %6d %16.0f %16.0f %7.2fx %7s %9.3f %9.3f" % (
            name, row["lanes"], row["iters_per_s_scalar"],
            row["iters_per_s_kernel"], row["speedup"],
            "ok" if row["parity"] else "DIVERGED",
            row["compile_cold_s"], row["compile_warm_s"]))

    at_target = sum(1 for r in rows if r["speedup"] >= TARGET_SPEEDUP)
    floor_ok = all(r["speedup"] >= FLOOR_SPEEDUP for r in rows)
    print("\n%d/%d models at the %.1fx target; floor (>= %.1fx on every "
          "model): %s" % (at_target, len(rows), TARGET_SPEEDUP,
                          FLOOR_SPEEDUP, "ok" if floor_ok else "VIOLATED"))

    result = {
        "lanes": args.lanes,
        "seconds_per_engine": seconds,
        "target_speedup": TARGET_SPEEDUP,
        "floor_speedup": FLOOR_SPEEDUP,
        "models_at_target": at_target,
        "floor_ok": floor_ok,
        "models": rows,
    }
    if args.json:
        out_dir = os.path.dirname(args.json)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print("json written to %s" % args.json)

    status = 0
    diverged = [r["model"] for r in rows if not r["parity"]]
    if diverged:
        print("FAIL: kernel results diverge from scalar on: %s"
              % ", ".join(diverged))
        status = 1
    below = [r["model"] for r in rows if r["speedup"] < FLOOR_SPEEDUP]
    if below:
        print("FAIL: below the %.1fx floor: %s"
              % (FLOOR_SPEEDUP, ", ".join(below)))
        status = 1
    if at_target < (len(rows) + 1) // 2:
        print("FAIL: only %d/%d models at the %.1fx target (need half)"
              % (at_target, len(rows), TARGET_SPEEDUP))
        status = 1
    slow_warm = [
        r["model"] for r in rows
        if r["compile_warm_s"] * MIN_WARM_GAIN > r["compile_cold_s"]
    ]
    if slow_warm:
        print("FAIL: warm .so reload not %.0fx faster than cold cc on: %s"
              % (MIN_WARM_GAIN, ", ".join(slow_warm)))
        status = 1
    if status == 0:
        print("kernel gate passed: parity ok, floor ok, %d/%d at target"
              % (at_target, len(rows)))
    return status


if __name__ == "__main__":
    sys.exit(main())
