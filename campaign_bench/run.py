"""Fixed-work campaign benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 campaign_bench/run.py --workload kernel-campaign --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``layers.py`` installed, and prints every per-layer metric
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The host
record, the notes and the traced spans are written beside it to
``.bench_out/``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop that uses no repo code."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def host_record() -> dict:
    from repro.cpu import available_cpus

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    return {
        "available_cpus": available_cpus(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "cc": cc,
    }


def metric_specs(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads as wl  # noqa: E402 - needs SRC on sys.path
    from layers import accounting, install, layer_metrics

    if args.workload not in wl.WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2

    work_dir = tempfile.mkdtemp(prefix="run-", dir=_mkdir(WORK))
    tmp = _mkdir(os.path.join(work_dir, "tmp"))
    saved = ({k: os.environ.get(k) for k in ("TMPDIR", "REPRO_CACHE_DIR")},
             tempfile.tempdir)
    os.environ["TMPDIR"] = tmp  # cc and any tempfile user stay inside
    tempfile.tempdir = tmp
    run = wl.WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        record["host"] = host_record()
        record["host"]["loop_ms_before"] = host_loop_ms()
        # a traced run measures one round untraced, then the same round
        # traced; the difference is the tracing overhead
        plan = wl.Plan(args.workload, args.seed, args.seconds, work_dir,
                       rounds=1 if args.trace else wl.ROUNDS[args.workload])
        plain = run(plan)
        outcome = plain
        unexplained = list(plain.unexplained)
        if args.trace:
            tracer = install(os.path.join(work_dir, "spans"))
            try:
                plan.tracer = tracer
                outcome = run(plan)
            finally:
                tracer.uninstall()
            unexplained += outcome.unexplained
            if outcome.digests != plain.digests:
                unexplained.append("traced pass produced other suites")
            agg = plan.layers
            values = layer_metrics(agg, outcome.api_s, outcome.api_n)
            base = plain.metrics["execs_per_s"]
            values["trace.overhead_pct"] = (
                100.0 * (base - outcome.metrics["execs_per_s"]) / base
            )
            record["spans"] = agg["spans"]
            booked = accounting(agg)
            if booked is not None:
                outcome.notes.append(
                    "layer self-times book %.6f s of %.6f s of set-up and "
                    "campaign wall in this process" % booked
                )
            specs = metric_specs("per_layer")
        else:
            values = dict(plain.metrics)
            values["peak_rss_mb"] = wl.peak_rss_mb()
            values["ok_pct"] = (
                100.0 * (plain.attempted - plain.failed) / plain.attempted
            )
            specs = metric_specs("end_to_end")
        record["host"]["loop_ms_after"] = host_loop_ms()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        for key, value in saved[0].items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = saved[1]

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print("error: workload did not produce %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    result = {
        "correct": not unexplained,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record.update(result, notes=outcome.notes, unexplained=unexplained)
    _mkdir(OUT)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("# %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# host: %s" % json.dumps(record["host"], sort_keys=True))
    for note in outcome.notes:
        print("# note: %s" % note)
    for problem in unexplained:
        print("# CHECK FAILED: %s" % problem)
    for spec in specs:
        better = spec.get("better")
        print("%-26s %16.6f %-9s%s" % (
            spec["name"], values[spec["name"]], spec["unit"],
            " (%s is better)" % better if better else ""))
    print(json.dumps(result))
    return 0


def _mkdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
