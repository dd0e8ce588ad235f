"""The campaign-service daemon: store + queue + pool + scheduler + API.

One :class:`ServiceDaemon` owns the durable :class:`~repro.service.
store.JobStore`, the FIFO :class:`~repro.service.queue.JobQueue`, a
shared :class:`~repro.fuzzing.parallel.WorkerPool` sized from
:func:`repro.cpu.available_cpus`, the :class:`~repro.service.scheduler.
Scheduler` thread and the HTTP :class:`~repro.service.api.ServiceAPI`.
It is equally usable in-process (tests construct and ``start()`` it
directly) and as the ``repro serve`` CLI daemon.

Job lifecycle::

    POST /jobs -> queued -> running -> done
                     |         |-----> failed     (respawn budget spent)
                     |---------+-----> cancelled  (DELETE /jobs/<id>)

Every transition is persisted atomically to ``job.json`` and emitted as
a ``job_state`` telemetry event on the daemon trace; after every
completed slice the job's ``FuzzState`` is snapshotted to ``state.pkl``.
Restarting a daemon over the same store therefore resumes exactly:
finished jobs stay finished, queued jobs re-enter the queue, and jobs
that were mid-campaign re-enqueue from their last snapshot (marked
``resumed``) — losing only the in-flight slice, which re-runs
deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from ..cpu import available_cpus
from ..errors import JobNotFound, JobSpecError, ServiceError
from ..fuzzing.engine import FuzzerConfig, FuzzState
from ..fuzzing.parallel import WorkerPool, resolved_config, ship_faults
from ..telemetry.core import Telemetry
from ..telemetry.events import read_trace
from ..telemetry.metrics import (
    JOB_STATE_CODES,
    render_job_metrics,
    render_prometheus,
)
from ..telemetry.server import CampaignStatus
from .api import ServiceAPI
from .queue import JobQueue
from .scheduler import (
    Scheduler,
    _service_worker_main,
    absorb_part,
    build_job_config,
    load_model_schedule,
)
from .store import JobStore

__all__ = ["JobRunner", "ServiceDaemon"]

#: per-job /events ring size (same default as the metrics server's)
_RING_SIZE = 512

_FINISHED = ("done", "failed", "cancelled")


class JobRunner:
    """The in-memory face of one job: record, config, live telemetry."""

    def __init__(self, record: Dict, config: FuzzerConfig):
        self.id: str = record["id"]
        self.record = record
        #: the resolved config shipped to workers (workers=1, pinned
        #: kernel_threads); ``record["config"]`` keeps the submitted
        #: overrides verbatim for durable round-tripping
        self.config = config
        self.state: Optional[FuzzState] = None
        self.status = CampaignStatus()
        self.ring: List[Dict] = []
        self.respawns = 0
        self.cancel_requested = False
        self.full = False
        self.telemetry: Optional[Telemetry] = None

    def push_events(self, events) -> None:
        self.ring.extend(events)
        del self.ring[:-_RING_SIZE]

    def open_telemetry(self, store: JobStore) -> Telemetry:
        if self.telemetry is None:
            self.telemetry = Telemetry(
                enabled=True,
                trace_path=store.trace_path(self.id),
                append=True,
            )
        return self.telemetry

    def close_telemetry(self) -> None:
        tel, self.telemetry = self.telemetry, None
        if tel is not None:
            tel.close()


class ServiceDaemon:
    """The long-lived campaign service (see module docstring)."""

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: Optional[int] = None,
        slice_inputs: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        self.lock = threading.RLock()
        self.telemetry = Telemetry(enabled=False)
        self.store = JobStore(store_dir)
        self.queue = JobQueue()
        self.jobs: Dict[str, JobRunner] = {}
        self.pool_size = pool_size if pool_size else max(1, available_cpus())
        self.slice_inputs = slice_inputs
        self.start_method = start_method
        self._host = host
        self._port = port
        self._started_mt = time.monotonic()
        self.pool: Optional[WorkerPool] = None
        self.scheduler: Optional[Scheduler] = None
        self.api: Optional[ServiceAPI] = None

    # ----------------------------- lifecycle --------------------------- #
    def start(self) -> "ServiceDaemon":
        self.telemetry = Telemetry(
            enabled=True,
            trace_path=self.store.daemon_trace_path(),
            append=True,
        )
        self.store.telemetry = self.telemetry
        self._recover()
        self.pool = WorkerPool(
            self.pool_size,
            _service_worker_main,
            start_method=self.start_method,
        )
        self.pool.spawn_all()
        self.scheduler = Scheduler(self)
        self.scheduler.start()
        self.api = ServiceAPI(self, port=self._port, host=self._host)
        self.api.start()
        self.store.write_endpoint(self.api.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown; running jobs stay resumable on disk."""
        if self.api is not None:
            self.api.close()
        if self.scheduler is not None:
            self.scheduler.stop()
            self.scheduler.join(timeout=10.0)
        if self.pool is not None:
            self.pool.shutdown()
        with self.lock:
            for runner in self.jobs.values():
                runner.close_telemetry()
        self.telemetry.close()

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    # ----------------------------- recovery ---------------------------- #
    def _recover(self) -> None:
        """Rebuild the in-memory job table from the durable store."""
        for job_id in self.store.list_jobs():
            try:
                record = self.store.load_job(job_id)
            except JobNotFound:
                continue  # corrupted record: quarantined, job dropped
            try:
                config = build_job_config(record.get("config"))
            except JobSpecError as exc:
                record.update(state="failed", error=str(exc))
                self.store.save_job(record)
                continue
            runner = JobRunner(
                record, resolved_config(config, self.pool_size)
            )
            self.jobs[job_id] = runner
            state = record.get("state")
            if state == "running":
                runner.state = self.store.load_state(job_id)
                if runner.state is None:
                    # snapshot missing or quarantined: restart from
                    # scratch — same seed and slicing, same final digest
                    record.update(rounds=0, execs=0, covered=0)
                record["resumed"] = True
                self.store.save_job(record)
                self._emit_state(runner, "resumed")
                self.queue.push(job_id)
            elif state == "queued":
                self.queue.push(job_id)

    # ----------------------------- submission --------------------------- #
    def submit(self, spec) -> str:
        """Admit one job spec (the POST /jobs body); returns the job id."""
        if not isinstance(spec, dict):
            raise JobSpecError("job spec must be a JSON object")
        model = spec.get("model")
        if not model or not isinstance(model, str):
            raise JobSpecError("job spec needs a 'model' (name or .slxz path)")
        load_model_schedule(model)  # validates; raises JobSpecError
        config = build_job_config(spec.get("config"))
        slice_inputs = spec.get("slice_inputs", self.slice_inputs)
        if slice_inputs is not None and (
            not isinstance(slice_inputs, int) or slice_inputs < 1
        ):
            raise JobSpecError("slice_inputs must be a positive integer")
        with self.lock:
            job_id = self.store.new_job_id()
            record = {
                "id": job_id,
                "state": "queued",
                "model": model,
                "config": dict(spec.get("config") or {}),
                "slice_inputs": slice_inputs,
                "submitted_at": time.time(),
                "started_at": None,
                "finished_at": None,
                "error": None,
                "resumed": False,
                "rounds": 0,
                "execs": 0,
                "covered": 0,
                "cases": 0,
                "respawns": 0,
            }
            self.store.save_job(record)
            runner = JobRunner(
                record, resolved_config(config, self.pool_size)
            )
            self.jobs[job_id] = runner
            self._emit_state(runner, "queued")
            self.queue.push(job_id)
        return job_id

    def cancel(self, job_id: str) -> str:
        """DELETE /jobs/<id>: cancel a queued or running job.

        A queued job is cancelled immediately; a running one is flagged
        and the scheduler reaps its slot on the next loop pass.  Raises
        :class:`JobNotFound` for unknown ids, :class:`ServiceError` for
        already-finished jobs (the HTTP 409 class).
        """
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                raise JobNotFound("no job %r" % (job_id,))
            state = runner.record["state"]
            if state in _FINISHED:
                raise ServiceError(
                    "job %r already finished (%s)" % (job_id, state)
                )
            runner.cancel_requested = True
            if state == "queued":
                self.queue.remove(job_id)
                self._finish_locked(runner, "cancelled")
                return "cancelled"
        return "cancelling"

    # ------------------- scheduler-facing job mutation ------------------ #
    def next_payload(self, job_id: str, slot: int) -> Optional[Dict]:
        """Build the next dispatch for a job, or ``None`` to skip it.

        Chooses a budget slice while budget remains, the finalize replay
        once the budget (or the full-coverage stop) is reached.
        """
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None or runner.record["state"] not in (
                "queued",
                "running",
            ):
                return None
            if runner.cancel_requested:
                self._finish_locked(runner, "cancelled")
                return None
            config = runner.config
            state = runner.state
            epoch = runner.record["rounds"]
            payload = {
                "job": job_id,
                "model": runner.record["model"],
                "config": config,
                "state": state,
                "epoch": epoch,
                "trace_path": self.store.part_path(job_id),
                "faults": ship_faults(slot, epoch),
            }
            if self._exhausted(runner):
                payload["action"] = "finalize"
            else:
                payload["action"] = "slice"
                executed = state.inputs_executed if state else 0
                elapsed = state.elapsed if state else 0.0
                cap = config.max_inputs
                slice_inputs = runner.record.get("slice_inputs")
                if slice_inputs:
                    cap = executed + slice_inputs
                    if config.max_inputs is not None:
                        cap = min(cap, config.max_inputs)
                payload["max_inputs"] = cap
                payload["max_seconds"] = (
                    None
                    if config.max_seconds is None
                    else max(config.max_seconds - elapsed, 0.01)
                )
            self.store.discard_part(job_id)
            if runner.record["state"] == "queued":
                runner.record["state"] = "running"
                runner.record["started_at"] = time.time()
                self.store.save_job(runner.record)
                self._emit_state(runner, "running")
            runner.status.update(phase=payload["action"], slot=slot)
            return payload

    def _exhausted(self, runner: JobRunner) -> bool:
        state, config = runner.state, runner.config
        if state is None:
            return False
        if (
            config.max_inputs is not None
            and state.inputs_executed >= config.max_inputs
        ):
            return True
        if (
            config.max_seconds is not None
            and state.elapsed >= config.max_seconds
        ):
            return True
        return config.stop_on_full_coverage and runner.full

    def advance_job(self, job_id: str, body: Dict) -> None:
        """One slice returned: snapshot, record, re-enqueue at the tail."""
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                return
            if runner.cancel_requested:
                self._finish_locked(runner, "cancelled")
                return
            runner.state = body["state"]
            runner.full = body["full"]
            record = runner.record
            record["rounds"] += 1
            record.update(
                execs=body["execs"],
                covered=body["covered"],
                n_probes=body["n_probes"],
                cases=body["cases"],
            )
            self.store.save_state(job_id, runner.state)
            self.store.save_job(record)
            events = absorb_part(
                self.store, job_id, runner.open_telemetry(self.store)
            )
            runner.push_events(events)
            self._emit(
                runner,
                "job_slice",
                job=job_id,
                round=record["rounds"],
                execs=body["execs"],
                covered=body["covered"],
            )
            runner.status.update(
                phase="queued",
                rounds=record["rounds"],
                execs=body["execs"],
                covered=body["covered"],
                n_probes=body["n_probes"],
                corpus=body["corpus"],
                cases=body["cases"],
            )
            self.queue.push(job_id)

    def complete_job(self, job_id: str, body: Dict) -> None:
        """The finalize replay returned: persist the result, mark done."""
        from ..fuzzing.testcase import TestCase, TestSuite

        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                return
            suite = TestSuite(tool="cftcg")
            for data, found_at, origin in body["cases"]:
                suite.add(TestCase(data, found_at, origin))
            suite.save(self.store.suite_dir(job_id))
            result = {
                "digest": body["digest"],
                "report": body["report"],
                "execs": body["execs"],
                "iterations": body["iterations"],
                "elapsed": body["elapsed"],
                "timeouts": body["timeouts"],
                "covered": body["covered"],
                "n_probes": body["n_probes"],
                "cases": len(suite),
            }
            self.store.save_result(job_id, result)
            runner.record.update(
                execs=body["execs"],
                covered=body["covered"],
                n_probes=body["n_probes"],
                cases=len(suite),
                digest=body["digest"],
            )
            events = absorb_part(
                self.store, job_id, runner.open_telemetry(self.store)
            )
            runner.push_events(events)
            runner.status.update(
                covered=body["covered"], execs=body["execs"], cases=len(suite)
            )
            self._finish_locked(runner, "done")

    def job_failure(
        self, job_id: str, slot: int, epoch: int, reason: str
    ) -> Optional[int]:
        """Record a failed slice against a job's respawn budget.

        Returns the attempt number when the scheduler should retry, or
        ``None`` when the job is failed (budget spent) — in which case
        every *other* job is unaffected: the scheduler keeps the pool
        slot healthy for them.
        """
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                return None
            runner.respawns += 1
            runner.record["respawns"] = runner.respawns
            self._emit(
                runner,
                "fault",
                kind="worker_failure",
                job=job_id,
                worker=slot,
                epoch=epoch,
                error=reason,
            )
            if runner.respawns > runner.config.max_respawns:
                self._emit(
                    runner,
                    "fault",
                    kind="job_degraded",
                    job=job_id,
                    worker=slot,
                    epoch=epoch,
                    error=reason,
                )
                runner.record["error"] = (
                    "respawn budget (%d) exhausted: %s"
                    % (runner.config.max_respawns, reason)
                )
                self._finish_locked(runner, "failed")
                return None
            return runner.respawns

    def job_respawn(
        self, job_id: str, slot: int, epoch: int, attempt: int, backoff: float
    ) -> None:
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                return
            self._emit(
                runner,
                "worker_respawn",
                job=job_id,
                worker=slot,
                epoch=epoch,
                attempt=attempt,
                backoff_s=round(backoff, 3),
            )
            runner.status.update(phase="respawning", respawns=attempt)

    def job_heartbeat(self, job_id: str, slot: int) -> None:
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is not None:
                runner.status.worker_update(slot, phase="running")

    def cancel_pending(self, job_id: str) -> bool:
        with self.lock:
            runner = self.jobs.get(job_id)
            return runner is not None and runner.cancel_requested

    def finish_job(self, job_id: str, state: str) -> None:
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is not None:
                self._finish_locked(runner, state)

    def scheduler_fault(self, exc: BaseException) -> None:
        """A scheduler-loop error: record it, keep the loop alive."""
        self._emit(
            None,
            "fault",
            kind="scheduler_error",
            error="%s: %s" % (type(exc).__name__, exc),
        )

    def _finish_locked(self, runner: JobRunner, state: str) -> None:
        """Terminal transition (caller holds the lock)."""
        if runner.record["state"] in _FINISHED:
            return
        runner.record["state"] = state
        runner.record["finished_at"] = time.time()
        self.store.save_job(runner.record)
        self._emit_state(runner, state)
        runner.status.update(phase=state)
        runner.close_telemetry()

    # ----------------------------- telemetry ---------------------------- #
    def _emit(self, runner: Optional[JobRunner], ev: str, **fields) -> None:
        with self.lock:
            self.telemetry.emit(ev, **fields)
            if runner is not None:
                runner.push_events([dict(fields, ev=ev, ts=time.time())])

    def _emit_state(self, runner: JobRunner, state: str) -> None:
        self._emit(runner, "job_state", job=runner.id, state=state)

    # ------------------------------ views ------------------------------- #
    def job_summary(self, runner: JobRunner) -> Dict:
        record = runner.record
        return {
            "id": record["id"],
            "state": record["state"],
            "model": record["model"],
            "rounds": record.get("rounds", 0),
            "execs": record.get("execs", 0),
            "covered": record.get("covered", 0),
            "cases": record.get("cases", 0),
            "resumed": record.get("resumed", False),
        }

    def jobs_frame(self) -> List[Dict]:
        with self.lock:
            return [
                self.job_summary(self.jobs[job_id])
                for job_id in sorted(self.jobs)
            ]

    def job_frame(self, job_id: str) -> Dict:
        """GET /jobs/<id>: the record plus the live campaign frame —
        the same :class:`CampaignStatus` shape ``/status`` serves for a
        standalone campaign, multiplexed per job."""
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                raise JobNotFound("no job %r" % (job_id,))
            frame = dict(runner.record)
            frame["status"] = runner.status.as_dict()
            frame["queued"] = job_id in self.queue
            return frame

    def job_results(self, job_id: str) -> Dict:
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                raise JobNotFound("no job %r" % (job_id,))
            state = runner.record["state"]
        if state != "done":
            raise ServiceError("job %r is %s, not done" % (job_id, state))
        result = self.store.load_result(job_id)
        from ..fuzzing.testcase import TestSuite

        suite = TestSuite.load(self.store.suite_dir(job_id))
        result["suite"] = [case.data.hex() for case in suite]
        return result

    def job_events(self, job_id: str, n: int) -> List[Dict]:
        with self.lock:
            runner = self.jobs.get(job_id)
            if runner is None:
                raise JobNotFound("no job %r" % (job_id,))
            if runner.ring:
                events = list(runner.ring)
            else:
                # a recovered finished job: serve the durable trace tail
                try:
                    events = list(read_trace(self.store.trace_path(job_id)))
                except Exception:  # noqa: BLE001 - no trace is fine
                    events = []
        if n >= 0:
            events = events[-n:] if n else []
        return events

    def job_trace_path(self, job_id: str) -> str:
        with self.lock:
            if job_id not in self.jobs:
                raise JobNotFound("no job %r" % (job_id,))
        return self.store.trace_path(job_id)

    def status_frame(self) -> Dict:
        with self.lock:
            counts: Dict[str, int] = {}
            for runner in self.jobs.values():
                state = runner.record["state"]
                counts[state] = counts.get(state, 0) + 1
            busy = self.scheduler.busy() if self.scheduler else 0
        return {
            "jobs": counts,
            "queue_depth": len(self.queue),
            "pool": {"size": self.pool_size, "busy": busy},
            "uptime_s": round(time.monotonic() - self._started_mt, 3),
            "store": self.store.root,
        }

    def metrics_text(self) -> str:
        """GET /metrics: daemon registry + per-job labeled gauges."""
        with self.lock:
            jobs: Dict[str, Dict[str, float]] = {}
            for job_id, runner in self.jobs.items():
                record = runner.record
                gauges = {
                    "job.state": JOB_STATE_CODES.get(record["state"], -1),
                    "job.execs": record.get("execs", 0),
                    "job.covered_probes": record.get("covered", 0),
                    "job.cases": record.get("cases", 0),
                    "job.rounds": record.get("rounds", 0),
                    "job.respawns": record.get("respawns", 0),
                }
                n_probes = record.get("n_probes")
                if n_probes:
                    gauges["job.coverage_fraction"] = round(
                        record.get("covered", 0) / n_probes, 6
                    )
                jobs[job_id] = gauges
            busy = self.scheduler.busy() if self.scheduler else 0
            extra = {
                "service.jobs": len(self.jobs),
                "service.queue_depth": len(self.queue),
                "service.pool_size": self.pool_size,
                "service.pool_busy": busy,
                "service.uptime_s": round(
                    time.monotonic() - self._started_mt, 3
                ),
                "telemetry.io_errors": self.telemetry.io_errors,
            }
            snapshot = self.telemetry.snapshot()
        return render_prometheus(snapshot, extra=extra) + render_job_metrics(
            jobs
        )
