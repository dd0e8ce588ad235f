"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``fuzz`` — run CFTCG on a model container (or named benchmark) and
  write the test suite + CSV files; ``--serve-metrics PORT`` exposes the
  live campaign over HTTP (``/metrics``, ``/status``, ``/events``).
* ``codegen`` — print the generated (instrumented) model code and fuzz
  driver for inspection.
* ``compare`` — run all four generators on a model and print the
  Table-3-style comparison row.
* ``report`` — replay a saved suite against a model and print coverage.
* ``trace`` — analyze JSONL campaign traces offline: ``summary`` (phase/
  span/operator breakdown), ``curve`` (coverage over time), ``diff``
  (coverage/throughput/phase-time delta of two campaigns).
* ``bench`` — list the built-in benchmark models with their statistics.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .codegen import generate_fuzz_driver, generate_model_code
from .csvio import suite_to_csv_dir
from .errors import ReproError
from .fuzzing import FuzzerConfig, TestSuite
from .fuzzing.engine import replay_suite
from .service.scheduler import load_model_schedule

__all__ = ["main"]


def _count_or_auto_arg(text: str, what: str):
    """A positive integer or the string ``auto`` (``--lanes``,
    ``--kernel-threads``)."""
    if text == "auto":
        return "auto"
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a positive integer or 'auto', got %r" % text
        )
    if n < 1:
        raise argparse.ArgumentTypeError("%s must be >= 1" % what)
    return n


def _lanes_arg(text: str):
    return _count_or_auto_arg(text, "lane count")


def _threads_arg(text: str):
    return _count_or_auto_arg(text, "thread count")


def _cmd_fuzz(args) -> int:
    from .fuzzing.parallel import run_campaign
    from .telemetry import Telemetry, telemetry_scope

    serve = args.serve_metrics is not None
    tel = Telemetry(
        enabled=bool(args.stats or args.trace or serve),
        trace_path=args.trace,
        stats_stream=sys.stderr if args.stats else None,
    )
    server = None
    try:
        if serve:
            from .telemetry.server import MetricsServer

            server = MetricsServer(tel, port=args.serve_metrics).start()
            print(
                "serving metrics on %s (/metrics /status /events)" % server.url,
                file=sys.stderr,
            )
        with telemetry_scope(tel):
            # the CLI owns the campaign root span so the parse phase
            # parents under it; the engine detects it and doesn't open
            # a second root
            root = tel.span_begin("campaign")
            with tel.phase("parse"):
                schedule = load_model_schedule(args.model)
            config = FuzzerConfig(
                max_seconds=args.seconds,
                seed=args.seed,
                workers=args.workers,
                sync_rounds=args.sync_rounds,
                max_exec_steps=args.max_exec_steps,
                crash_dir=args.crash_dir,
                lanes=args.lanes,
                kernel=args.kernel,
                kernel_threads=args.kernel_threads,
            )
            result = run_campaign(schedule, config)
            tel.span_end(root)
    finally:
        if server is not None:
            server.close()
        tel.close()
    print(
        "executed %d inputs (%.0f model iterations/s, %.0f execs/s, %d worker%s)"
        % (
            result.inputs_executed,
            result.iterations_per_second,
            result.execs_per_second,
            config.workers,
            "s" if config.workers != 1 else "",
        )
    )
    print("coverage:", result.report)
    print("test cases: %d" % len(result.suite))
    if result.timeouts:
        print(
            "timeouts: %d input%s exceeded the %d-step budget%s"
            % (
                result.timeouts,
                "s" if result.timeouts != 1 else "",
                args.max_exec_steps or 0,
                " (artifacts in %s)" % args.crash_dir if args.crash_dir else "",
            )
        )
    if (args.verbose or args.stats) and result.phase_times:
        print(
            "phase times: "
            + "  ".join(
                "%s=%.3fs" % (name, secs)
                for name, secs in sorted(
                    result.phase_times.items(), key=lambda kv: -kv[1]
                )
            )
        )
    if args.trace:
        print("trace written to %s" % args.trace)
    if args.out:
        result.suite.save(args.out)
        suite_to_csv_dir(result.suite, schedule.layout, os.path.join(args.out, "csv"))
        print("suite written to %s (binary + csv/)" % args.out)
    if args.verbose and result.report.missed_decisions:
        print("missed decisions:")
        for item in result.report.missed_decisions:
            print("  -", item)
    return 0


def _cmd_codegen(args) -> int:
    from .codegen import optimize_source, step_arg_kinds
    from .telemetry import Telemetry, telemetry_scope

    tel = Telemetry(enabled=True, trace_path=args.trace)
    try:
        with telemetry_scope(tel):
            with tel.phase("parse"):
                schedule = load_model_schedule(args.model)
            with tel.phase("codegen"):
                source = generate_model_code(schedule, args.level)
            if args.optimized:
                with tel.phase("optimize"):
                    source, _ = optimize_source(source, step_arg_kinds(schedule))
                counters = tel.snapshot()["counters"]
                print(
                    "# optimizer: %s"
                    % ", ".join(
                        "%s=%d" % (name.split(".", 1)[1], value)
                        for name, value in sorted(counters.items())
                        if name.startswith("optimizer.")
                    ),
                    file=sys.stderr,
                )
            driver = generate_fuzz_driver(schedule)
    finally:
        tel.close()
    if args.trace:
        print("trace written to %s" % args.trace, file=sys.stderr)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        suffix = "_opt" if args.optimized else ""
        model_path = os.path.join(
            args.dump, "%s_%s%s.py" % (schedule.model.name, args.level, suffix)
        )
        driver_path = os.path.join(
            args.dump, "%s_driver.py" % schedule.model.name
        )
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(source + "\n")
        with open(driver_path, "w", encoding="utf-8") as fh:
            fh.write(driver + "\n")
        print("wrote %s and %s" % (model_path, driver_path))
        return 0
    print(source)
    print()
    print(driver)
    return 0


def _cmd_compare(args) -> int:
    from .codegen import compile_model
    from .experiments.report import format_table
    from .experiments.runner import TOOLS, run_tool

    schedule = load_model_schedule(args.model)
    compiled = compile_model(schedule, "model")  # shared replay artifact
    rows = []
    for tool in TOOLS:
        result = run_tool(tool, schedule, args.seconds, seed=args.seed, compiled=compiled)
        rows.append(
            [
                tool,
                "%.1f%%" % result.report.decision,
                "%.1f%%" % result.report.condition,
                "%.1f%%" % result.report.mcdc,
                len(result.suite),
            ]
        )
    print(format_table(["tool", "DC", "CC", "MCDC", "cases"], rows))
    return 0


def _cmd_report(args) -> int:
    from .codegen import compile_model

    if args.trace:
        from .telemetry import read_trace, render_trace_report

        if args.model or args.suite:
            raise ReproError(
                "report --trace reads a campaign trace alone; "
                "drop the model/suite arguments"
            )
        print(render_trace_report(read_trace(args.trace)))
        return 0
    if not args.model or not args.suite:
        raise ReproError("report needs either --trace PATH or MODEL SUITE")
    schedule = load_model_schedule(args.model)
    suite = TestSuite.load(args.suite)
    compiled = compile_model(schedule, "model")
    report = replay_suite(schedule, suite, compiled=compiled)
    print("suite: %d cases (tool: %s)" % (len(suite), suite.tool))
    print("coverage:", report)
    if args.verbose:
        from .coverage import CoverageRecorder, render_annotated

        recorder = CoverageRecorder(schedule.branch_db)
        replay_suite(schedule, suite, compiled=compiled, recorder=recorder)
        print(render_annotated(recorder))
    return 0


def _cmd_show(args) -> int:
    from .model.describe import describe_model, describe_schedule

    schedule = load_model_schedule(args.model)
    print(describe_model(schedule.model))
    print()
    print(describe_schedule(schedule))
    return 0


def _cmd_minimize(args) -> int:
    from .codegen import compile_model
    from .fuzzing.minimize import minimize_suite
    from .fuzzing.engine import replay_suite

    schedule = load_model_schedule(args.model)
    suite = TestSuite.load(args.suite)
    compiled = compile_model(schedule, "model")  # one compile for all passes
    reduced = minimize_suite(schedule, suite, compiled=compiled)
    before = replay_suite(schedule, suite, compiled=compiled)
    after = replay_suite(schedule, reduced, compiled=compiled)
    print("minimized %d -> %d cases" % (len(suite), len(reduced)))
    print("before:", before)
    print("after :", after)
    if args.out:
        reduced.save(args.out)
        print("written to", args.out)
    return 0


def _cmd_trace_summary(args) -> int:
    from .telemetry import read_trace
    from .telemetry.tools import dump_json, render_summary, trace_stats

    events = read_trace(args.trace)
    if args.json:
        print(dump_json(trace_stats(events)))
    else:
        print(render_summary(events))
    return 0


def _cmd_trace_curve(args) -> int:
    from .telemetry import read_trace
    from .telemetry.tools import dump_json, render_curve, trace_stats

    events = read_trace(args.trace)
    if args.json:
        stats = trace_stats(events)
        print(
            dump_json(
                {
                    "curve": stats["curve"],
                    "covered": stats["covered"],
                    "n_probes": stats["n_probes"],
                    "skipped_lines": stats["skipped_lines"],
                }
            )
        )
    else:
        print(render_curve(events))
    return 0


def _cmd_trace_diff(args) -> int:
    from .telemetry import read_trace
    from .telemetry.tools import dump_json, render_diff, trace_diff

    diff = trace_diff(
        read_trace(args.trace_a), read_trace(args.trace_b)
    )
    if args.json:
        diff["paths"] = {"A": args.trace_a, "B": args.trace_b}
        print(dump_json(diff))
    else:
        print("A = %s" % args.trace_a)
        print("B = %s" % args.trace_b)
        print()
        print(render_diff(diff))
    return 0


def _cmd_bench(args) -> int:
    from .experiments.table2 import collect_table2, render_table2

    print(render_table2(collect_table2()))
    return 0


def _cmd_serve(args) -> int:
    """Run the campaign-service daemon until interrupted.

    Prints ``serving on <url>`` to stderr once the API is bound (the
    same URL lands in ``<store>/endpoint``, which is how tests and CI
    discover an ephemeral port), then blocks; SIGINT/SIGTERM shut down
    gracefully — running jobs stay resumable on disk and a restart over
    the same store picks them up exactly.
    """
    import signal
    import time as _time

    from .service.daemon import ServiceDaemon

    pool = None if args.pool in (None, "auto") else int(args.pool)
    daemon = ServiceDaemon(
        args.store,
        host=args.host,
        port=args.port,
        pool_size=pool,
        slice_inputs=args.slice_inputs,
        start_method=args.start_method,
    )
    daemon.start()
    print("serving on %s" % daemon.api.url, file=sys.stderr)
    sys.stderr.flush()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    try:
        while not stopping:
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CFTCG reproduction: model test case generation through code based fuzzing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="generate test cases with CFTCG")
    p.add_argument("model", help="benchmark name or .slxz path")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel campaign workers (1 = classic single-process loop)",
    )
    p.add_argument(
        "--sync-rounds",
        type=int,
        default=4,
        dest="sync_rounds",
        help="corpus-merge sync epochs in a multi-worker campaign",
    )
    p.add_argument(
        "--max-exec-steps",
        type=int,
        default=None,
        dest="max_exec_steps",
        metavar="N",
        help="per-input step budget for generated code; an input that "
        "exceeds it is recorded as a timeout artifact (default: no limit)",
    )
    p.add_argument(
        "--crash-dir",
        dest="crash_dir",
        metavar="DIR",
        help="persist deduplicated crash/timeout artifacts into DIR",
    )
    p.add_argument(
        "--lanes",
        type=_lanes_arg,
        default=1,
        metavar="N",
        help="batch width: step N inputs per native kernel call (max "
        "256); it does not choose the engine.  Default 1 absorbs each "
        "input before the next is mutated, byte-identical to the scalar "
        "engine; 'auto' = 64 unless --kernel off",
    )
    p.add_argument(
        "--kernel",
        choices=("auto", "on", "off"),
        default="auto",
        help="fused native kernel backend: 'auto' runs it at any lane "
        "count whenever a C compiler can build it, 'on' is the same as "
        "'auto', 'off' runs the generated Python step instead; every "
        "fallback to the scalar engine is reported via fault telemetry "
        "(default auto)",
    )
    p.add_argument(
        "--kernel-threads",
        dest="kernel_threads",
        type=_threads_arg,
        default="auto",
        metavar="N",
        help="kernel execution threads per worker: run disjoint lane "
        "blocks concurrently inside the native kernel (suite output is "
        "bit-identical at any thread count); 'auto' divides the "
        "container's available cores (scheduler affinity and cgroup "
        "quota aware) by --workers so threads x workers never "
        "oversubscribes (default auto)",
    )
    p.add_argument("--out", help="directory for the generated suite")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print LibFuzzer-style status lines to stderr while fuzzing",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a structured JSONL campaign trace to PATH",
    )
    p.add_argument(
        "--serve-metrics",
        dest="serve_metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live campaign observability over HTTP on 127.0.0.1:"
        "PORT while fuzzing: Prometheus /metrics, JSON /status (per-"
        "worker heartbeats, phase, plateau state), /events trace tail "
        "(0 = pick a free port)",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("codegen", help="print generated code + fuzz driver")
    p.add_argument("model")
    p.add_argument("--level", choices=("model", "code", "none"), default="model")
    p.add_argument(
        "--dump",
        metavar="DIR",
        help="write model module + driver into DIR instead of stdout",
    )
    p.add_argument(
        "--optimized",
        action="store_true",
        help="run the audited AST optimizer over the module first",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write codegen telemetry events (optimizer stats, cache tier) to PATH",
    )
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("compare", help="run all generators on one model")
    p.add_argument("model")
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "report", help="replay a saved suite — or render a campaign trace"
    )
    p.add_argument("model", nargs="?", help="benchmark name or .slxz path")
    p.add_argument(
        "suite", nargs="?", help="directory written by 'fuzz --out'"
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="render a JSONL campaign trace (no model execution)",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("show", help="describe a model and its branch elements")
    p.add_argument("model")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("minimize", help="reduce a suite, preserving coverage")
    p.add_argument("model")
    p.add_argument("suite")
    p.add_argument("--out", help="directory for the reduced suite")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser(
        "trace", help="analyze JSONL campaign traces (no re-execution)"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    tp = tsub.add_parser(
        "summary", help="phase/span/operator breakdown of one campaign"
    )
    tp.add_argument("trace", help="JSONL trace written by 'fuzz --trace'")
    tp.add_argument("--json", action="store_true", help="machine-readable output")
    tp.set_defaults(func=_cmd_trace_summary)
    tp = tsub.add_parser(
        "curve", help="coverage-over-time curve from the trace's cov bitmaps"
    )
    tp.add_argument("trace", help="JSONL trace written by 'fuzz --trace'")
    tp.add_argument("--json", action="store_true", help="machine-readable output")
    tp.set_defaults(func=_cmd_trace_curve)
    tp = tsub.add_parser(
        "diff",
        help="compare two campaign traces: coverage, throughput, phase times",
    )
    tp.add_argument("trace_a", help="baseline trace")
    tp.add_argument("trace_b", help="candidate trace")
    tp.add_argument("--json", action="store_true", help="machine-readable output")
    tp.set_defaults(func=_cmd_trace_diff)

    p = sub.add_parser("bench", help="list benchmark models (Table 2)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve", help="run the campaign service daemon (job queue over HTTP)"
    )
    p.add_argument(
        "--store", required=True, help="durable job store directory"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 = ephemeral; the bound URL is printed to "
        "stderr and written to <store>/endpoint)",
    )
    p.add_argument(
        "--pool",
        default="auto",
        help="worker pool size (default: auto, cpu-aware)",
    )
    p.add_argument(
        "--slice-inputs",
        type=int,
        default=None,
        help="default per-slice input budget for jobs that don't set "
        "one (default: run each job's whole budget as one slice)",
    )
    p.add_argument(
        "--start-method",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for pool workers",
    )
    p.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pager/head closed the pipe mid-print; exit quietly
        # like any well-behaved unix filter (devnull swallows the
        # implicit flush of the dead stdout at interpreter shutdown)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
