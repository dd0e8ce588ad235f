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

Supervision reuses the parallel campaign's machinery on the shared
pool: dispatch-acknowledge heartbeats, liveness + deadline checks, and
respawn-with-backoff on worker death — but the respawn budget is **per
job** (``config.max_respawns``), so a job that keeps killing workers is
failed and quarantined from the pool while every other job continues
unharmed.  Injected faults (``worker_death``, ``slow_exec``) are
consumed by the daemon at dispatch time and shipped inside the payload,
exactly like the parallel campaign parent; retry payloads ship clean.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import fields as dataclass_fields, replace
from typing import Dict, Optional

from ..bench.registry import build_schedule, model_names
from ..bits import popcount
from ..errors import JobSpecError, TelemetryError
from ..faults.plan import (
    FaultPlan,
    FaultSpec,
    install as faults_install,
    should_fire as faults_should_fire,
)
from ..fuzzing.engine import Fuzzer, FuzzerConfig
from ..fuzzing.parallel import (
    _BACKOFF_BASE,
    _BACKOFF_CAP,
    _DEATH_EXIT_CODE,
    _worker_tasks,
)
from ..parser import model_from_xml
from ..schedule import convert
from ..slx import load_container
from ..telemetry.core import Telemetry
from ..telemetry.events import read_trace

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
    field :class:`FuzzerConfig` does not define (the HTTP 400 class).
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
        return FuzzerConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise JobSpecError("invalid job config: %s" % (exc,))


# ---------------------------------------------------------------------- #
# the worker side (runs in pool processes; must stay spawn-picklable)
# ---------------------------------------------------------------------- #
def _run_job_payload(fuzzers: Dict[str, Fuzzer], payload: Dict) -> Dict:
    """Run one job slice (or the finalize replay) in a pool worker.

    ``fuzzers`` caches one :class:`Fuzzer` per model spec, so jobs over
    the same model share the compiled artifact within a worker process;
    the per-job config and state travel inside the payload, keeping the
    worker stateless between dispatches.
    """
    model = payload["model"]
    fuzzer = fuzzers.get(model)
    if fuzzer is None:
        fuzzer = Fuzzer(load_model_schedule(model), payload["config"])
        fuzzers[model] = fuzzer
    fuzzer.config = payload["config"]
    job = payload["job"]
    trace_path = payload.get("trace_path")
    # the slice trace lands in the job's trace.part; the daemon absorbs
    # it into the job's campaign trace after the result arrives.  No
    # "worker" tag: the job trace should read like a standalone
    # single-process campaign trace (campaign_start on round 0,
    # campaign_end from finalize)
    tel = Telemetry(
        enabled=bool(trace_path), trace_path=trace_path, append=True
    )
    fuzzer.telemetry = tel
    try:
        if payload["action"] == "finalize":
            result = fuzzer.finalize(payload["state"])
            state = payload["state"]
            return {
                "job": job,
                "action": "finalize",
                "digest": result.suite.digest(),
                "cases": [
                    (c.data, c.found_at, c.origin) for c in result.suite
                ],
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
                "n_probes": fuzzer.schedule.branch_db.n_probes,
            }
        state = payload["state"]
        if state is None:
            state = fuzzer.new_state()
        fuzzer.resume(
            state,
            max_seconds=payload["max_seconds"],
            max_inputs=payload["max_inputs"],
        )
        covered = popcount(state.total_int)
        n_probes = fuzzer.schedule.branch_db.n_probes
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
    finally:
        tel.close()


def _service_worker_main(slot: int, gen: int, task_q, result_q) -> None:
    """Entry point of one shared service-pool worker process.

    The same supervision contract as a parallel-campaign worker: every
    accepted payload is acknowledged with ``("hb", ...)`` before work
    starts, results/errors answer on the shared queue tagged with the
    spawn generation, and injected faults fire right after the
    acknowledgement.  Unlike a campaign worker, the payload names which
    *job* it belongs to — the scheduler multiplexes jobs over slots, so
    slot identity alone means nothing.  It exits on the ``None``
    sentinel or once the daemon that spawned it has died.
    """
    fuzzers: Dict[str, Fuzzer] = {}
    for payload in _worker_tasks(task_q, result_q):
        job = payload["job"]
        epoch = payload.get("epoch", 0)
        result_q.put(("hb", slot, gen, epoch, {"job": job}))
        plan = payload.get("faults")
        faults_install(plan if plan else None)
        spec = faults_should_fire("worker_death", worker=slot, epoch=epoch)
        if spec is not None:
            os._exit(_DEATH_EXIT_CODE)
        spec = faults_should_fire("slow_exec", worker=slot, epoch=epoch)
        if spec is not None:
            time.sleep(spec.param("seconds", 3600.0))
        try:
            body = _run_job_payload(fuzzers, payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result_q.put(
                (
                    "err",
                    slot,
                    gen,
                    epoch,
                    {
                        "job": job,
                        "error": "%s: %s" % (type(exc).__name__, exc),
                    },
                )
            )
        else:
            result_q.put(("ok", slot, gen, epoch, body))


# ---------------------------------------------------------------------- #
# the daemon side
# ---------------------------------------------------------------------- #
class Scheduler(threading.Thread):
    """The daemon's dispatch loop: one thread, policy over pool mechanics.

    Owns the slot -> job mapping and the per-dispatch deadline/retry
    bookkeeping; borrows process supervision from the shared
    :class:`~repro.fuzzing.parallel.WorkerPool`.  All job mutation goes
    through the daemon under its lock, so API threads see consistent
    records.
    """

    def __init__(self, daemon):
        super().__init__(name="repro-service-scheduler", daemon=True)
        self.svc = daemon
        self._stop_evt = threading.Event()
        self.running: Dict[int, str] = {}  # slot -> job id
        self.payloads: Dict[int, Dict] = {}
        self.epochs: Dict[int, int] = {}
        self.deadlines: Dict[int, float] = {}
        self.graces: Dict[int, float] = {}

    def stop(self) -> None:
        self._stop_evt.set()

    def busy(self) -> int:
        return len(self.running)

    # ----------------------------- main loop --------------------------- #
    def run(self) -> None:
        pool = self.svc.pool
        while not self._stop_evt.is_set():
            try:
                self._cancel_running()
                self._dispatch()
                msg = pool.poll(_SCHED_POLL)
                if msg is None:
                    self._check_liveness()
                    continue
                kind, slot, _gen, epoch, body = msg
                job_id = (body or {}).get("job")
                if (
                    self.running.get(slot) != job_id
                    or self.epochs.get(slot) != epoch
                ):
                    continue  # straggler from a superseded dispatch
                if kind == "hb":
                    self.deadlines[slot] = (
                        time.monotonic() + self.graces[slot]
                    )
                    self.svc.job_heartbeat(job_id, slot)
                elif kind == "ok":
                    self._on_result(slot, body)
                elif kind == "err":
                    self._on_failure(
                        slot, body.get("error", "worker error")
                    )
            except Exception as exc:  # noqa: BLE001 - the loop must live
                self.svc.scheduler_fault(exc)

    # ----------------------------- dispatch ---------------------------- #
    def _dispatch(self) -> None:
        svc = self.svc
        for slot in range(svc.pool.size):
            if slot in self.running:
                continue
            while True:
                job_id = svc.queue.pop()
                if job_id is None:
                    return
                payload = svc.next_payload(job_id, slot)
                if payload is not None:
                    break
            svc.pool.submit(slot, payload)
            self.running[slot] = job_id
            self.payloads[slot] = payload
            self.epochs[slot] = payload["epoch"]
            grace = self._grace_for(payload)
            self.graces[slot] = grace
            self.deadlines[slot] = time.monotonic() + grace

    def _grace_for(self, payload: Dict) -> float:
        """Hang deadline: the slice's wall budget plus the config grace.

        Finalize payloads carry no wall budget (the replay is bounded by
        the suite, not a clock), so they get a flat floor on top of the
        configured grace.
        """
        budget = payload.get("max_seconds") or 0.0
        timeout = payload["config"].worker_timeout
        return budget + max(timeout, 5.0)

    def _clear_slot(self, slot: int) -> None:
        self.running.pop(slot, None)
        self.payloads.pop(slot, None)
        self.epochs.pop(slot, None)
        self.deadlines.pop(slot, None)
        self.graces.pop(slot, None)

    # ----------------------------- results ----------------------------- #
    def _on_result(self, slot: int, body: Dict) -> None:
        job_id = self.running[slot]
        self._clear_slot(slot)
        if body["action"] == "finalize":
            self.svc.complete_job(job_id, body)
        else:
            self.svc.advance_job(job_id, body)

    def _on_failure(self, slot: int, reason: str) -> None:
        """A worker died/hung/errored mid-slice: per-job respawn policy."""
        svc = self.svc
        job_id = self.running[slot]
        epoch = self.epochs[slot]
        svc.pool.reap(slot)
        attempt = svc.job_failure(job_id, slot, epoch, reason)
        if attempt is None:
            # the job exhausted its respawn budget (or vanished): it is
            # failed, but the pool slot must stay healthy for other jobs
            svc.pool.spawn(slot)
            self._clear_slot(slot)
            return
        backoff = min(_BACKOFF_BASE * (2 ** (attempt - 1)), _BACKOFF_CAP)
        svc.job_respawn(job_id, slot, epoch, attempt, backoff)
        time.sleep(backoff)
        svc.pool.spawn(slot)
        # the SAME payload, injected faults stripped: the respawned
        # worker reproduces the lost slice exactly (slice RNG derives
        # from the snapshot's round counter, not from wall time)
        retry = dict(self.payloads[slot])
        retry["faults"] = None
        svc.store.discard_part(job_id)
        self.payloads[slot] = retry
        svc.pool.submit(slot, retry)
        self.deadlines[slot] = time.monotonic() + self.graces[slot]

    # --------------------------- housekeeping -------------------------- #
    def _check_liveness(self) -> None:
        now = time.monotonic()
        for slot in sorted(self.running):
            if not self.svc.pool.alive(slot):
                self._on_failure(slot, "worker process died")
            elif now > self.deadlines.get(slot, now):
                self._on_failure(
                    slot,
                    "no result within %.1fs (hung)" % self.graces[slot],
                )

    def _cancel_running(self) -> None:
        """Reap the slot of any running job whose cancel flag is set."""
        for slot, job_id in list(self.running.items()):
            if not self.svc.cancel_pending(job_id):
                continue
            self.svc.pool.reap(slot)
            self.svc.pool.spawn(slot)
            self._clear_slot(slot)
            self.svc.finish_job(job_id, "cancelled")


def ship_faults(slot: int, epoch: int) -> Optional[FaultPlan]:
    """Consume daemon-side fault specs for one dispatch.

    The daemon owns the ``REPRO_FAULTS`` plan (``times`` budgets are
    decremented here, in one process, so ``worker_death:times=2`` means
    exactly two deaths across the whole daemon no matter how many jobs
    run); a consumed spec ships as a single-firing plan inside the
    payload, where the worker's matching site fires it unconditionally.
    """
    specs = []
    for kind in ("worker_death", "slow_exec"):
        spec = faults_should_fire(kind, worker=slot, epoch=epoch)
        if spec is not None:
            specs.append(FaultSpec(kind, dict(spec.params), 1))
    return FaultPlan(specs) if specs else None


def resolved_config(config: FuzzerConfig, pool_size: int) -> FuzzerConfig:
    """Pin ``kernel_threads`` against the pool before shipping.

    Each pool worker would otherwise see ``workers=1`` and resolve
    ``"auto"`` to every available core — oversubscribing threads x
    slots, exactly the trap the parallel campaign resolves around.
    """
    kernel_threads = config.kernel_threads
    if kernel_threads in ("auto", None):
        from ..cpu import resolve_kernel_threads

        kernel_threads = resolve_kernel_threads("auto", workers=pool_size)
    return replace(config, workers=1, kernel_threads=kernel_threads)


def absorb_part(store, job_id: str, telemetry: Telemetry) -> list:
    """Fold the slice's trace.part into the job trace; return the events."""
    part = store.part_path(job_id)
    try:
        events = read_trace(part)
    except TelemetryError:
        return []  # a slice that found nothing may never open its trace
    telemetry.absorb(events)
    store.discard_part(job_id)
    return list(events)
