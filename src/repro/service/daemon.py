"""The campaign-service daemon: store + queue + pool + dispatch loop + API.

One :class:`ServiceDaemon` owns the durable :class:`~repro.service.
store.JobStore`, a FIFO queue of job ids, a shared
:class:`~repro.fuzzing.parallel.WorkerPool` sized from
:func:`repro.cpu.available_cpus`, the dispatch loop that maps queued jobs
onto free pool slots (one thread running :meth:`ServiceDaemon._schedule`)
and the HTTP :class:`~repro.service.api.ServiceAPI`.  The job spec and
the pool workers' side live in :mod:`repro.service.scheduler`.  The
daemon is equally usable in-process (tests construct and ``start()`` it
directly) and as the ``repro serve`` CLI daemon.

Dispatch is round-robin: the loop pops the queue head onto a free slot,
and a returned slice re-enqueues its job at the *tail*, so ``K``
runnable jobs on an ``N``-slot pool each advance one slice per cycle and
none starves behind a long campaign.  Supervision is the parallel
campaign's :class:`WorkerPool` path (heartbeat, deadline, liveness,
retry with backoff and faults stripped); only the failure budget
differs: it is **per job** (``config.max_respawns``), so a job that
keeps failing is failed alone while every other job continues.

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

import collections
import threading
import time
from typing import Deque, Dict, List, Optional

from ..cpu import available_cpus
from ..errors import JobNotFound, JobSpecError, ServiceError
from ..fuzzing.engine import FuzzerConfig, FuzzState
from ..fuzzing.parallel import (
    WorkerPool,
    absorb_trace,
    backoff_seconds,
    resolved_config,
    ship_faults,
)
from ..telemetry.core import Telemetry
from ..telemetry.events import read_trace
from ..telemetry.metrics import (
    JOB_STATE_CODES,
    render_job_metrics,
    render_prometheus,
)
from ..telemetry.server import CampaignStatus
from .api import ServiceAPI
from .scheduler import (
    _service_worker_main,
    build_job_config,
    load_model_schedule,
)
from .store import JobStore

__all__ = ["JobRunner", "ServiceDaemon"]

#: per-job /events ring size (same default as the metrics server's)
_RING_SIZE = 512

_FINISHED = ("done", "failed", "cancelled")


def absorb_part(store: JobStore, job_id: str, telemetry: Telemetry) -> list:
    """Fold the slice's trace.part into the job trace; return the events."""
    return absorb_trace(telemetry, store.part_path(job_id))


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
        self.cancel_requested = False
        self.full = False
        self.telemetry: Optional[Telemetry] = None
        #: ``time.monotonic()`` before which a job whose dispatch failed
        #: stays queued (its retry backoff)
        self.retry_at = 0.0

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
        #: job ids in dispatch order; touched only under ``lock``
        self.queue: Deque[str] = collections.deque()
        self.jobs: Dict[str, JobRunner] = {}
        self.pool_size = pool_size if pool_size else max(1, available_cpus())
        self.slice_inputs = slice_inputs
        self.start_method = start_method
        self._host = host
        self._port = port
        self._started_mt = time.monotonic()
        self.pool: Optional[WorkerPool] = None
        self._loop: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self.api: Optional[ServiceAPI] = None

    # ----------------------------- lifecycle --------------------------- #
    def start(self) -> "ServiceDaemon":
        self.telemetry = Telemetry(
            enabled=True,
            trace_path=self.store.daemon_trace_path(),
            append=True,
        )
        self.store.telemetry = self.telemetry
        with self.lock:
            self._recover()
        self.pool = WorkerPool(
            self.pool_size,
            _service_worker_main,
            start_method=self.start_method,
        )
        self.pool.spawn_all()
        self._loop = threading.Thread(
            target=self._schedule, name="repro-service-scheduler", daemon=True
        )
        self._loop.start()
        self.api = ServiceAPI(self, port=self._port, host=self._host)
        self.api.start()
        self.store.write_endpoint(self.api.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown; running jobs stay resumable on disk."""
        if self.api is not None:
            self.api.close()
        if self._loop is not None:
            self._stopping.set()
            self._loop.join(timeout=10.0)
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
                self.queue.append(job_id)
            elif state == "queued":
                self.queue.append(job_id)

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
            not isinstance(slice_inputs, int)
            or isinstance(slice_inputs, bool)
            or slice_inputs < 1
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
                "failures": 0,
                "respawns": 0,
            }
            self.store.save_job(record)
            runner = JobRunner(
                record, resolved_config(config, self.pool_size)
            )
            self.jobs[job_id] = runner
            self._emit_state(runner, "queued")
            self.queue.append(job_id)
        return job_id

    def cancel(self, job_id: str) -> str:
        """DELETE /jobs/<id>: cancel a queued or running job.

        A queued job is cancelled immediately; a running one is flagged
        and the dispatch loop reaps its slot on its next pass.  Raises
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
                # a failed dispatch puts its job back, so a queued job is
                # always in the queue
                self.queue.remove(job_id)
                self._finish_locked(runner, "cancelled")
                return "cancelled"
        return "cancelling"

    # ----------------------------- dispatch loop ------------------------ #
    def _schedule(self) -> None:
        """The dispatch loop, on its own thread until :meth:`stop`.

        Each pass reaps the slots of cancelled jobs, hands queued jobs to
        free slots in FIFO order, then routes the pool's heartbeats,
        results and failures.  The in-flight bookkeeping and the
        supervision path are the shared :class:`WorkerPool`'s; only this
        thread drives the pool, and all job mutation happens under
        ``lock``, so API threads see consistent records.
        """
        pool = self.pool
        while not self._stopping.is_set():
            try:
                self._reap_cancelled()
                self._dispatch()
                for kind, slot, body in pool.collect():
                    if kind == "hb":
                        with self.lock:
                            runner = self.jobs[pool.payloads[slot]["job"]]
                            runner.status.worker_update(slot, phase="running")
                    elif kind == "failed":
                        self._slice_failed(slot, body)
                    elif body["action"] == "finalize":
                        self.complete_job(body["job"], body)
                    else:
                        self.advance_job(body["job"], body)
            except Exception as exc:  # noqa: BLE001 - the loop must live
                self._emit(
                    None,
                    "fault",
                    kind="scheduler_error",
                    error="%s: %s" % (type(exc).__name__, exc),
                )

    def _reap_cancelled(self) -> None:
        """Reap the slot of every running job whose cancel flag is set."""
        pool = self.pool
        for slot, payload in list(pool.payloads.items()):
            with self.lock:
                runner = self.jobs[payload["job"]]
                if not runner.cancel_requested:
                    continue
            pool.reap(slot)
            pool.spawn(slot)
            pool.release(slot)
            with self.lock:
                self._finish_locked(runner, "cancelled")

    def _dispatch(self) -> None:
        """Pop queued jobs onto free slots until either runs out; a job
        waiting out a dispatch backoff keeps its place in the queue."""
        pool = self.pool
        for slot in range(pool.size):
            if slot in pool.payloads:
                continue
            payload = None
            with self.lock:
                while payload is None:
                    job_id = self._pop_due()
                    if job_id is None:
                        break
                    try:
                        payload = self.next_payload(job_id, slot)
                    except Exception as exc:  # noqa: BLE001 - one job's fault
                        self._dispatch_failed(job_id, slot, exc)
            if payload is None:
                return
            # hang deadline: the slice's wall budget left (a finalize
            # replay has none) plus the configured grace, at least 5 s
            budget = payload.get("max_seconds") or 0.0
            grace = budget + max(payload["config"].worker_timeout, 5.0)
            pool.dispatch(slot, payload, grace)

    def _charge_failure(
        self, job_id: str, slot: int, epoch: int, kind: str, reason: str
    ) -> int:
        """Charge one failure to a job's ``failures`` budget
        (``config.max_respawns`` failures are allowed) and emit a
        ``fault`` of ``kind``; once the budget is spent, emit
        ``job_degraded`` and fail that job alone.  Returns the attempt
        number, or 0 when the job failed."""
        with self.lock:
            runner = self.jobs[job_id]
            record = runner.record
            attempt = record["failures"] = record.get("failures", 0) + 1
            self._emit(
                runner,
                "fault",
                kind=kind,
                job=job_id,
                worker=slot,
                epoch=epoch,
                error=reason,
            )
            if attempt <= runner.config.max_respawns:
                self.store.save_job(record)
                return attempt
            self._emit(
                runner,
                "fault",
                kind="job_degraded",
                job=job_id,
                worker=slot,
                epoch=epoch,
                error=reason,
            )
            record["error"] = "respawn budget (%d) exhausted: %s" % (
                runner.config.max_respawns,
                reason,
            )
            self._finish_locked(runner, "failed")
            return 0

    def _pop_due(self) -> Optional[str]:
        """Pop the first queued job not waiting out a dispatch backoff
        (caller holds the lock)."""
        now = time.monotonic()
        for job_id in self.queue:
            if self.jobs[job_id].retry_at <= now:
                self.queue.remove(job_id)
                return job_id
        return None

    def _dispatch_failed(self, job_id: str, slot: int, exc: Exception) -> None:
        """Building a job's dispatch raised (say, an ``OSError`` from the
        store): a failure of that job, charged like a failed slice.  The
        job goes back to the head of the queue and waits out the backoff
        a failed slice would, unless its budget is spent.  It is queued
        before the charge, whose own store write may fail too (caller
        holds the lock)."""
        reason = "dispatch failed: %s: %s" % (type(exc).__name__, exc)
        runner = self.jobs[job_id]
        attempt = runner.record.get("failures", 0) + 1
        runner.retry_at = time.monotonic() + backoff_seconds(attempt)
        self.queue.appendleft(job_id)
        if not self._charge_failure(
            job_id, slot, runner.record["rounds"], "scheduler_error", reason
        ):
            self.queue.remove(job_id)

    def _slice_failed(self, slot: int, reason: str) -> None:
        """A slice failed: charge it to its job's budget, then retry it
        after a backoff, or (budget spent) keep the slot healthy for the
        other jobs."""
        pool = self.pool
        payload = pool.payloads[slot]
        job_id, epoch = payload["job"], payload["epoch"]
        attempt = self._charge_failure(
            job_id, slot, epoch, "worker_failure", reason
        )
        if not attempt:
            pool.release(slot)
            if not pool.alive(slot):
                pool.spawn(slot)
            return
        delay = backoff_seconds(attempt)
        if not pool.alive(slot):
            self.job_respawn(job_id, slot, epoch, attempt, delay)
        self.store.discard_part(job_id)
        pool.retry(slot, delay)

    # ------------------------ loop-side job mutation -------------------- #
    def next_payload(self, job_id: str, slot: int) -> Optional[Dict]:
        """Build the next dispatch for a job, or ``None`` to skip it.

        Chooses a budget slice while budget remains, the finalize replay
        once the budget (or the full-coverage stop) is reached.
        """
        with self.lock:
            runner = self.jobs[job_id]
            if runner.record["state"] not in ("queued", "running"):
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
            runner = self.jobs[job_id]
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
            self.queue.append(job_id)

    def complete_job(self, job_id: str, body: Dict) -> None:
        """The finalize replay returned: persist the result, mark done."""
        from ..fuzzing.testcase import TestCase, TestSuite

        with self.lock:
            runner = self.jobs[job_id]
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

    def job_respawn(
        self, job_id: str, slot: int, epoch: int, attempt: int, backoff: float
    ) -> None:
        """A failed slice's worker died: count the restart on the record
        (an ``err`` retry restarts nothing and is not counted)."""
        with self.lock:
            runner = self.jobs[job_id]
            record = runner.record
            respawns = record["respawns"] = record.get("respawns", 0) + 1
            self.store.save_job(record)
            self._emit(
                runner,
                "worker_respawn",
                job=job_id,
                worker=slot,
                epoch=epoch,
                attempt=attempt,
                backoff_s=round(backoff, 3),
            )
            runner.status.update(phase="respawning", respawns=respawns)

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
            queue_depth = len(self.queue)
            busy = len(self.pool.payloads) if self.pool else 0
        return {
            "jobs": counts,
            "queue_depth": queue_depth,
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
            busy = len(self.pool.payloads) if self.pool else 0
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
