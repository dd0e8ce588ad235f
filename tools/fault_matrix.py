#!/usr/bin/env python
"""Fault-injection matrix for the 2-worker campaign runner.

One row per ``REPRO_FAULTS`` failure mode (worker death, hung worker,
compile-cache corruption, trace-sink IO error) plus the in-process
watchdog row (an infinite-loop MATLAB-function model).  Every row runs a
bounded 2-worker campaign with the fault injected mid-run and checks the
recovery contract:

* the campaign **completes** (no crash, full input budget executed);
* the fault leaves an **audit trail** (telemetry events / artifacts);
* for worker faults, the merged suite digest is **byte-identical** to
  the fault-free golden run — recovery must not perturb discovery.

Designed for CI (one mode per matrix job, or all modes in one go):

    PYTHONPATH=src python tools/fault_matrix.py [--mode worker_death]
"""

import argparse
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import ModelBuilder, compile_model, convert  # noqa: E402
from repro.bench.registry import build_schedule  # noqa: E402
from repro.faults.plan import fault_scope, parse_faults  # noqa: E402
from repro.fuzzing import FuzzerConfig  # noqa: E402
from repro.fuzzing.parallel import ParallelFuzzer  # noqa: E402
from repro.telemetry import Telemetry, read_trace  # noqa: E402

# input-bounded profiles: digests depend only on seeds and input caps,
# so the golden and the faulted run are comparable byte for byte
PROFILE_STD = dict(
    max_seconds=600.0, max_inputs=200, seed=7, workers=2, sync_rounds=3
)
# hang detection waits out the epoch deadline, so the slow_exec profile
# keeps epochs (and the grace window derived from them) short
PROFILE_FAST = dict(
    max_seconds=6.0,
    max_inputs=120,
    seed=7,
    workers=2,
    sync_rounds=2,
    worker_timeout=0.5,
)

MODES = ("worker_death", "slow_exec", "cache_corrupt", "trace_io_error", "watchdog")


def check(label: str, ok: bool) -> bool:
    print("  %-52s %s" % (label, "ok" if ok else "FAIL"))
    return ok


def run_campaign_traced(schedule, profile, workdir, tag, **overrides):
    params = dict(profile)
    params.update(overrides)
    trace = os.path.join(workdir, "%s.jsonl" % tag)
    tel = Telemetry(trace_path=trace)
    result = ParallelFuzzer(schedule, FuzzerConfig(**params), telemetry=tel).run()
    tel.close()
    return result, list(read_trace(trace)), tel


def hang_schedule():
    """An infinite-loop-on-demand MATLAB-function model (u > 100 hangs)."""
    b = ModelBuilder("hang")
    u = b.inport("u", "int16")
    y = b.block(
        "MatlabFunction",
        "f",
        inputs=["u"],
        outputs=[("y", "int32")],
        body="acc = 0\nwhile u > 100\n  acc = acc + 1\nend\ny = acc + u",
        locals={"acc": ("int32", 0)},
    )(u)
    b.outport("y", y)
    return convert(b.build())


def events_of(events, ev, **fields):
    return [
        e
        for e in events
        if e["ev"] == ev and all(e.get(k) == v for k, v in fields.items())
    ]


def run_mode(mode: str, schedule, goldens, workdir) -> int:
    print("mode: %s" % mode)
    failures = 0

    if mode == "worker_death":
        golden = goldens("std", schedule, PROFILE_STD)
        # a pinned site, then a bare spec: the parent consumes a spec when
        # it dispatches, so either one fires exactly once per campaign
        for plan, worker in (("worker_death:worker=1:epoch=1", 1), ("worker_death", 0)):
            print(" plan: %s" % plan)
            with fault_scope(parse_faults(plan)):
                result, events, _ = run_campaign_traced(
                    schedule, PROFILE_STD, workdir, "%s-w%d" % (mode, worker)
                )
            failures += not check(
                "campaign completes full budget",
                result.inputs_executed == PROFILE_STD["max_inputs"],
            )
            failures += not check(
                "merged suite digest matches fault-free golden",
                result.suite.digest() == golden,
            )
            failures += not check(
                "worker failure + respawn recorded in trace",
                bool(events_of(events, "fault", kind="worker_failure", worker=worker))
                and bool(events_of(events, "worker_respawn", worker=worker)),
            )
            failures += not check(
                "the fault fired exactly once",
                len(events_of(events, "fault", kind="worker_failure")) == 1,
            )

    elif mode == "slow_exec":
        golden = goldens("fast", schedule, PROFILE_FAST)
        with fault_scope(parse_faults("slow_exec:worker=0:epoch=0:seconds=60")):
            result, events, _ = run_campaign_traced(
                schedule, PROFILE_FAST, workdir, mode
            )
        failures += not check(
            "campaign completes full budget",
            result.inputs_executed == PROFILE_FAST["max_inputs"],
        )
        failures += not check(
            "merged suite digest matches fault-free golden",
            result.suite.digest() == golden,
        )
        failures += not check(
            "hang detected and slot respawned",
            bool(events_of(events, "fault", kind="worker_failure", worker=0))
            and bool(events_of(events, "worker_respawn", worker=0)),
        )

    elif mode == "cache_corrupt":
        from repro.codegen import cache as cache_mod

        golden = goldens("std", schedule, PROFILE_STD)
        cache_dir = os.path.join(workdir, "codegen-cache")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        cache_mod._DEFAULT = None
        try:
            compile_model(schedule, "model")  # persist a disk entry
            store = cache_mod.default_cache()
            store.clear_memory()  # force the campaign onto the disk tier
            with fault_scope(parse_faults("cache_corrupt")):
                result, events, _ = run_campaign_traced(
                    schedule, PROFILE_STD, workdir, mode
                )
            failures += not check(
                "campaign completes full budget",
                result.inputs_executed == PROFILE_STD["max_inputs"],
            )
            failures += not check(
                "merged suite digest matches fault-free golden",
                result.suite.digest() == golden,
            )
            failures += not check(
                "poisoned entry quarantined", store.quarantined >= 1
            )
            failures += not check(
                "quarantine dir holds the evidence",
                os.path.isdir(os.path.join(cache_dir, "quarantine"))
                and bool(os.listdir(os.path.join(cache_dir, "quarantine"))),
            )
        finally:
            del os.environ["REPRO_CACHE_DIR"]
            cache_mod._DEFAULT = None

    elif mode == "trace_io_error":
        golden = goldens("std", schedule, PROFILE_STD)
        with fault_scope(parse_faults("trace_io_error")):
            result, _events, tel = run_campaign_traced(
                schedule, PROFILE_STD, workdir, mode
            )
        failures += not check(
            "campaign completes full budget",
            result.inputs_executed == PROFILE_STD["max_inputs"],
        )
        failures += not check(
            "merged suite digest matches fault-free golden",
            result.suite.digest() == golden,
        )
        failures += not check(
            "sink degraded to no-trace (io_errors counted)", tel.io_errors >= 1
        )

    elif mode == "watchdog":
        crash_dir = os.path.join(workdir, "crashes")
        result, events, _ = run_campaign_traced(
            hang_schedule(),
            PROFILE_STD,
            workdir,
            mode,
            max_exec_steps=200,
            crash_dir=crash_dir,
        )
        from repro.faults.crashes import CrashStore

        store = CrashStore.load(crash_dir)
        failures += not check(
            "campaign survives hung generated code",
            result.inputs_executed == PROFILE_STD["max_inputs"],
        )
        failures += not check("timeouts recorded", result.timeouts > 0)
        failures += not check(
            "timeout artifacts persisted and deduplicated",
            len(store) >= 1
            and all(a.kind == "timeout" for a in store.artifacts.values()),
        )

    else:  # pragma: no cover - guarded by argparse choices
        raise SystemExit("unknown mode %r" % mode)

    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, help="run one matrix row")
    parser.add_argument("--model", default="CPUTask")
    args = parser.parse_args()

    schedule = build_schedule(args.model)
    print(
        "fault matrix on %s (%d probes)"
        % (args.model, schedule.branch_db.n_probes)
    )
    golden_cache = {}

    def goldens(profile_tag, sched, profile):
        if profile_tag not in golden_cache:
            result, _, _ = run_campaign_traced(
                sched, profile, workdir, "golden-%s" % profile_tag
            )
            golden_cache[profile_tag] = result.suite.digest()
        return golden_cache[profile_tag]

    failures = 0
    workdir = tempfile.mkdtemp(prefix="fault-matrix-")
    try:
        for mode in [args.mode] if args.mode else MODES:
            failures += run_mode(mode, schedule, goldens, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("fault matrix %s" % ("PASSED" if not failures else "FAILED (%d)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
