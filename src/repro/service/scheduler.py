"""The service scheduler: many campaigns, one shared worker pool.

A job is a single-worker campaign (``workers=1``) run in *input-budget
slices* over the daemon's :class:`~repro.fuzzing.parallel.WorkerPool` —
the pool is **lent** to whichever jobs are runnable rather than owned by
one campaign.  The scheduler thread round-robins: pop a job from the
FIFO queue, dispatch one slice to a free slot, and when the slice
returns, snapshot the job's :class:`~repro.fuzzing.engine.FuzzState` to
the durable store and re-enqueue the job at the *tail*.  ``K`` runnable
jobs on an ``N``-slot pool therefore each advance one slice per cycle —
no starvation — and a SIGKILL'd daemon loses at most the in-flight
slices, which restart from their snapshots and (``Fuzzer.resume``
derives each slice's RNG from the snapshot's round counter) reproduce
the lost work byte-exactly.

Determinism contract: a job with ``slice_inputs=None`` runs its whole
budget as one slice and is **byte-identical** to the standalone CLI run
of the same config; a sliced job is byte-identical to any other
identically-sliced run of the same config — including one interrupted
by a daemon kill — but not to the one-slice run (the RNG stream
re-derives per slice).

Supervision is the parallel campaign's: the same worker loop, slice
runner and :class:`~repro.fuzzing.parallel.WorkerPool` supervision path
(dispatch, heartbeat, deadline, liveness, retry with backoff and faults
stripped).  Only the budget differs: it is **per job**
(``config.max_respawns``), so a job that keeps failing is failed and
quarantined from the pool while every other job continues unharmed.
"""

from __future__ import annotations

import os
import threading
from dataclasses import fields as dataclass_fields
from typing import Dict

from ..bench.registry import build_schedule, model_names
from ..bits import popcount
from ..errors import FuzzingError, JobSpecError
from ..fuzzing.engine import Fuzzer, FuzzerConfig, check_config
from ..fuzzing.parallel import (  # noqa: F401 - resolved_config re-exported
    absorb_trace,
    backoff_seconds,
    payload_telemetry,
    resolved_config,
    run_slice,
    worker_loop,
)
from ..parser import model_from_xml
from ..schedule import convert
from ..slx import load_container
from ..telemetry.core import Telemetry

__all__ = [
    "JOB_STATES",
    "build_job_config",
    "load_model_schedule",
    "Scheduler",
]

#: the job lifecycle; ``queued -> running -> done|failed|cancelled``
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: how long the scheduler blocks on the pool between housekeeping passes
_SCHED_POLL = 0.05


def load_model_schedule(spec: str):
    """A benchmark name or an ``.slxz`` container path -> Schedule."""
    if spec in model_names():
        return build_schedule(spec)
    if not os.path.exists(spec):
        raise JobSpecError(
            "model %r is neither a benchmark (%s) nor a file"
            % (spec, ", ".join(model_names()))
        )
    return convert(model_from_xml(load_container(spec)))


def build_job_config(overrides) -> FuzzerConfig:
    """A job's ``config`` JSON object -> a validated FuzzerConfig.

    Jobs are single-worker by construction — the daemon's pool is the
    parallelism — so ``workers`` other than 1 is a spec error, as is any
    field :class:`FuzzerConfig` does not define, or any engine setting
    :func:`~repro.fuzzing.engine.check_config` rejects (the HTTP 400
    class).
    """
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise JobSpecError("job config must be a JSON object")
    allowed = {f.name for f in dataclass_fields(FuzzerConfig)}
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise JobSpecError(
            "unknown config fields: %s" % ", ".join(unknown)
        )
    if overrides.get("workers", 1) != 1:
        raise JobSpecError(
            "service jobs run single-worker campaign slices; submit "
            "workers=1 (the default) and scale via the daemon's pool"
        )
    try:
        config = FuzzerConfig(**overrides)
        check_config(config)
    except (TypeError, ValueError, FuzzingError) as exc:
        raise JobSpecError("invalid job config: %s" % (exc,))
    return config


# ---------------------------------------------------------------------- #
# the worker side (runs in pool processes; must stay spawn-picklable)
# ---------------------------------------------------------------------- #
def _run_job_payload(fuzzers: Dict[str, Fuzzer], payload: Dict) -> Dict:
    """Run one job slice (or the finalize replay) in a pool worker.

    ``fuzzers`` caches one :class:`Fuzzer` per model spec, so jobs over
    the same model share the compiled artifact within a worker process;
    the per-job config and state travel inside the payload, keeping the
    worker stateless between dispatches.  The slice trace lands in the
    job's ``trace.part``, which the daemon absorbs into the job's trace
    after the result arrives.
    """
    model = payload["model"]
    fuzzer = fuzzers.get(model)
    if fuzzer is None:
        fuzzer = Fuzzer(load_model_schedule(model), payload["config"])
        fuzzers[model] = fuzzer
    job = payload["job"]
    n_probes = fuzzer.schedule.branch_db.n_probes
    if payload["action"] == "slice":
        state = run_slice(fuzzer, payload)
        covered = popcount(state.total_int)
        return {
            "job": job,
            "action": "slice",
            "state": state,
            "covered": covered,
            "n_probes": n_probes,
            "full": bool(n_probes) and covered == n_probes,
            "execs": state.inputs_executed,
            "corpus": len(state.corpus),
            "cases": len(state.suite),
            "elapsed": state.elapsed,
        }
    state = payload["state"]
    fuzzer.config = payload["config"]
    tel = fuzzer.telemetry = payload_telemetry(payload)
    try:
        result = fuzzer.finalize(state)
    finally:
        tel.close()
    return {
        "job": job,
        "action": "finalize",
        "digest": result.suite.digest(),
        "cases": [(c.data, c.found_at, c.origin) for c in result.suite],
        "report": {
            "decision": result.report.decision,
            "condition": result.report.condition,
            "mcdc": result.report.mcdc,
        },
        "execs": result.inputs_executed,
        "iterations": result.iterations_executed,
        "elapsed": result.elapsed,
        "timeouts": result.timeouts,
        "covered": popcount(state.total_int),
        "n_probes": n_probes,
    }


def _service_worker_main(slot: int, gen: int, task_q, result_q) -> None:
    """Entry point of one shared service-pool worker process: the shared
    :func:`~repro.fuzzing.parallel.worker_loop` over
    :func:`_run_job_payload`, with one :class:`Fuzzer` per model."""
    fuzzers: Dict[str, Fuzzer] = {}
    worker_loop(
        slot,
        gen,
        task_q,
        result_q,
        lambda payload: _run_job_payload(fuzzers, payload),
    )


# ---------------------------------------------------------------------- #
# the daemon side
# ---------------------------------------------------------------------- #
class Scheduler(threading.Thread):
    """The daemon's dispatch loop: one thread, job policy over the pool.

    Maps jobs onto free slots and charges failures to per-job budgets;
    the in-flight bookkeeping and the supervision path are the shared
    :class:`~repro.fuzzing.parallel.WorkerPool`'s.  All job mutation goes
    through the daemon under its lock, so API threads see consistent
    records.
    """

    def __init__(self, daemon):
        super().__init__(name="repro-service-scheduler", daemon=True)
        self.svc = daemon
        self._stop_evt = threading.Event()

    def stop(self) -> None:
        self._stop_evt.set()

    def busy(self) -> int:
        return len(self.svc.pool.payloads)

    # ----------------------------- main loop --------------------------- #
    def run(self) -> None:
        svc = self.svc
        pool = svc.pool
        while not self._stop_evt.is_set():
            try:
                self._cancel_running()
                self._dispatch()
                for kind, slot, body in pool.collect(_SCHED_POLL):
                    if kind == "hb":
                        svc.job_heartbeat(pool.payloads[slot]["job"], slot)
                    elif kind == "failed":
                        self._on_failure(slot, body)
                    elif body["action"] == "finalize":
                        svc.complete_job(body["job"], body)
                    else:
                        svc.advance_job(body["job"], body)
            except Exception as exc:  # noqa: BLE001 - the loop must live
                svc.scheduler_fault(exc)

    # ----------------------------- dispatch ---------------------------- #
    def _dispatch(self) -> None:
        svc = self.svc
        for slot in range(svc.pool.size):
            if slot in svc.pool.payloads:
                continue
            while True:
                job_id = svc.queue.pop()
                if job_id is None:
                    return
                payload = svc.next_payload(job_id, slot)
                if payload is not None:
                    break
            svc.pool.dispatch(slot, payload, self._grace_for(payload))

    def _grace_for(self, payload: Dict) -> float:
        """Hang deadline: the slice's wall budget plus the config grace.

        Finalize payloads carry no wall budget (the replay is bounded by
        the suite, not a clock), so they get a flat floor on top of the
        configured grace.
        """
        budget = payload.get("max_seconds") or 0.0
        timeout = payload["config"].worker_timeout
        return budget + max(timeout, 5.0)

    # ----------------------------- failures ---------------------------- #
    def _on_failure(self, slot: int, reason: str) -> None:
        """A slice failed: charge its job's budget, retry or fail the job."""
        svc, pool = self.svc, self.svc.pool
        payload = pool.payloads[slot]
        job_id, epoch = payload["job"], payload["epoch"]
        attempt = svc.job_failure(job_id, slot, epoch, reason)
        if attempt is None:
            # the job is failed, but the slot must stay healthy for the
            # other jobs
            pool.release(slot)
            if not pool.alive(slot):
                pool.spawn(slot)
            return
        delay = backoff_seconds(attempt)
        if not pool.alive(slot):
            svc.job_respawn(job_id, slot, epoch, attempt, delay)
        svc.store.discard_part(job_id)
        pool.retry(slot, delay)

    def _cancel_running(self) -> None:
        """Reap the slot of any running job whose cancel flag is set."""
        pool = self.svc.pool
        for slot, payload in list(pool.payloads.items()):
            if not self.svc.cancel_pending(payload["job"]):
                continue
            pool.reap(slot)
            pool.spawn(slot)
            pool.release(slot)
            self.svc.finish_job(payload["job"], "cancelled")


def absorb_part(store, job_id: str, telemetry: Telemetry) -> list:
    """Fold the slice's trace.part into the job trace; return the events."""
    return absorb_trace(telemetry, store.part_path(job_id))
