"""Parallel fuzzing campaigns with shared-corpus synchronisation.

LibFuzzer — the paper's engine — scales one target across cores with
``-workers``/``-jobs`` plus corpus merging; this module is the same idea
for the model fuzzing loop.  A campaign shards one budget across ``N``
worker processes:

1. every worker runs its own :class:`~repro.fuzzing.engine.Fuzzer` slice
   with a distinct derived seed (:func:`derive_worker_seed`), resuming
   its private :class:`~repro.fuzzing.engine.FuzzState` across epochs;
2. at each sync epoch the parent pulls all worker states back, pools the
   corpora and suites, and runs a **coverage-gated merge** — the greedy
   probe-bitmap set cover from :mod:`repro.fuzzing.minimize` — to distill
   a compact seed pool covering the union of worker coverage;
3. the merged pool is re-broadcast: each worker executes it at the start
   of the next epoch, so discoveries propagate without sharing memory;
4. after the last epoch the worker suites are unioned (discovery-rank
   ordered, byte-deduplicated) and replayed **once** on the fully
   instrumented model for the final report and a merged global timeline.

The pool machinery here (worker loop, slice runner, supervision, fault
shipping, config pinning, trace absorb) is shared with the campaign
service, whose daemon (:class:`repro.service.daemon.ServiceDaemon`)
keeps only its own policy: round-robin job slices, per-job failure
budgets and durable snapshots.

**Supervision.**  A worker that dies (crash, OOM-kill, injected
``worker_death`` fault) or goes silent past its deadline (hung generated
code, injected ``slow_exec``) is reaped and respawned, bounded by
``config.max_respawns`` per slot with exponential backoff, and gets the
*same* payload with injected faults stripped.  A worker whose slice
raised replies ``err``: that counts against the same budget, but the
worker is alive and is never terminated — it gets the payload again.
Because workers are stateless between epochs (the state travels inside
the payload), the retried slice reproduces the lost work exactly, so a
campaign that survives an injected worker death still produces the
byte-identical merged suite of a fault-free run.  A slot that exhausts
its budget is retired and the campaign continues degraded on the
remaining workers; when every slot is gone the campaign raises
:class:`~repro.errors.CampaignDegradedError`.

``workers=1`` bypasses multiprocessing entirely and is byte-identical to
the classic single-process engine for a fixed seed.  Worker payloads and
states are plain picklable values, so both ``fork`` and ``spawn`` start
methods work.  The parent builds the workers' engine (the kernel, or the
scalar module and driver) once before spawning them, so each worker's
first payload loads it from the compile cache: inherited memory under
``fork``, the persistent disk cache under ``spawn``, which re-imports
this module.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..bits import popcount
from ..codegen.compile import CompiledModel, compile_model
from ..coverage.recorder import CoverageRecorder
from ..cpu import resolve_kernel_threads
from ..errors import CampaignDegradedError, FuzzingError, TelemetryError
from ..faults.plan import FaultPlan, FaultSpec
from ..faults.plan import install as faults_install
from ..faults.plan import should_fire as faults_should_fire
from ..schedule.schedule import Schedule
from ..telemetry.core import NULL, Telemetry, get_telemetry, telemetry_scope
from ..telemetry.events import read_trace
from .engine import Fuzzer, FuzzerConfig, FuzzResult, FuzzState, replay_suite
from .minimize import case_bitmap, greedy_cover
from .testcase import TestCase, TestSuite

__all__ = [
    "ParallelFuzzer",
    "WorkerPool",
    "derive_worker_seed",
    "merge_seed_pool",
    "run_campaign",
]

#: decorrelates worker RNG streams; large and odd so derived seeds never
#: collide with the slice-stride derivation inside ``Fuzzer.resume``
_WORKER_SEED_STRIDE = 1_000_003

#: exit code of a worker killed by an injected ``worker_death`` fault
_DEATH_EXIT_CODE = 87

#: how long the parent blocks on the result queue between liveness checks
_POLL_SECONDS = 0.05

#: retry backoff: ``base * 2**(attempt-1)`` seconds, capped
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: grace period for joining/terminating workers during shutdown
_JOIN_SECONDS = 5.0

#: how long an idle worker blocks on its task queue between checks that
#: the process which spawned it is still alive
_ORPHAN_CHECK_SECONDS = 1.0

#: the worker-side fault kinds a dispatch ships inside its payload
_WORKER_FAULTS = ("worker_death", "slow_exec")

#: the most seeds a sync round's coverage-gated merge hands back
_MERGE_POOL_SIZE = 64


def derive_worker_seed(seed: int, worker_index: int) -> int:
    """The deterministic RNG seed of one campaign worker."""
    return seed + _WORKER_SEED_STRIDE * worker_index


def backoff_seconds(attempt: int) -> float:
    """The pause before retry number ``attempt`` (1-based) of a slot."""
    return min(_BACKOFF_BASE * (2 ** (attempt - 1)), _BACKOFF_CAP)


def _default_start_method() -> str:
    """Prefer ``fork`` (cheap, no re-import) where the platform has it."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_trace_path(trace_path: str, worker: int) -> str:
    """The private JSONL file of one campaign worker."""
    return "%s.worker%d" % (trace_path, worker)


def resolved_config(config: FuzzerConfig, pool_size: int) -> FuzzerConfig:
    """Pin ``kernel_threads`` against the pool before shipping.

    Each pool worker would otherwise see ``workers=1`` and resolve
    ``"auto"`` to every available core — oversubscribing threads x
    workers.
    """
    kernel_threads = config.kernel_threads
    if kernel_threads in ("auto", None):
        kernel_threads = resolve_kernel_threads("auto", workers=pool_size)
    return replace(config, workers=1, kernel_threads=kernel_threads)


def ship_faults(slot: int, epoch: int) -> Optional[FaultPlan]:
    """Consume the dispatching process's worker-fault specs for one payload.

    The dispatcher (a campaign parent, the service daemon) owns the plan,
    so ``worker_death:times=2`` means exactly two deaths per campaign or
    per daemon; a consumed spec ships as a single-firing plan inside the
    payload, where the worker's matching site fires it.
    """
    specs = []
    for kind in _WORKER_FAULTS:
        spec = faults_should_fire(kind, worker=slot, epoch=epoch)
        if spec is not None:
            specs.append(FaultSpec(kind, dict(spec.params), 1))
    return FaultPlan(specs) if specs else None


# ---------------------------------------------------------------------- #
# traces
# ---------------------------------------------------------------------- #
def _trace_fault(telemetry: Telemetry, op: str, path: str, exc) -> None:
    if telemetry.enabled:
        telemetry.emit(
            "fault", kind="trace_io_error", op=op, path=path, error=str(exc)
        )


def _unlink_trace(telemetry: Telemetry, path: str) -> None:
    """Remove a stale or absorbed trace file; record failures as faults."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass  # nothing was traced there
    except OSError as exc:
        _trace_fault(telemetry, "unlink", path, exc)


def absorb_trace(telemetry: Telemetry, path: str) -> List[Dict]:
    """Fold a worker's trace file into ``telemetry``, delete it, and return
    its events.  A worker that ran a payload always opened its file, so
    an unreadable one is recorded as a fault instead of hidden."""
    try:
        events = list(read_trace(path))
    except TelemetryError as exc:
        _trace_fault(telemetry, "read", path, exc)
        return []
    telemetry.absorb(events)
    _unlink_trace(telemetry, path)
    return events


# ---------------------------------------------------------------------- #
# the worker side (runs in pool processes; must stay spawn-picklable)
# ---------------------------------------------------------------------- #
def payload_telemetry(payload: Dict) -> Telemetry:
    """The telemetry of one payload, appending to its ``trace_path``.

    A campaign slice names its ``worker``: events carry the tag, span ids
    a ``w<i>e<j>-`` prefix and top-level spans ``parent_span`` as parent,
    so the absorbed traces fold into one tree.  A service slice names no
    worker, and its trace reads like a standalone campaign's.
    """
    trace_path = payload.get("trace_path")
    worker = payload.get("worker")
    tel = Telemetry(
        enabled=bool(trace_path),
        trace_path=trace_path,
        tags=None if worker is None else {"worker": worker},
        append=True,
        span_prefix=(
            "" if worker is None else "w%de%d-" % (worker, payload["epoch"])
        ),
    )
    tel.span_root = payload.get("parent_span")
    return tel


def run_slice(fuzzer: Fuzzer, payload: Dict) -> FuzzState:
    """Run one budget slice of a pool payload; executed inside a worker.

    A campaign slice is wrapped in a ``slice`` span and closed by a
    ``heartbeat`` event.
    """
    fuzzer.config = payload["config"]
    state = payload["state"]
    if state is None:
        state = fuzzer.new_state()
    tel = fuzzer.telemetry = payload_telemetry(payload)
    worker = payload.get("worker")
    try:
        span = tel.span_begin("slice") if worker is not None else None
        fuzzer.resume(
            state,
            max_seconds=payload["max_seconds"],
            max_inputs=payload["max_inputs"],
            extra_seeds=payload.get("extra_seeds"),
        )
        if worker is not None:
            tel.span_end(span, worker=worker, epoch=payload["epoch"])
            tel.emit(
                "heartbeat",
                worker=worker,
                epoch=payload["epoch"],
                t=round(state.elapsed, 6),
                execs=state.inputs_executed,
                covered=popcount(state.total_int),
                corpus=len(state.corpus),
            )
    finally:
        tel.close()
    return state


def worker_loop(slot: int, gen: int, task_q, result_q, run) -> None:
    """The loop of every pool worker process, campaign or service.

    Each payload is acknowledged with ``("hb", slot, gen, None)`` before
    any work, so the parent can tell "still working" from "never picked
    the task up".  The payload's fault plan then replaces any inherited
    one (a retry ships ``faults=None``), and an injected fault fires
    right there, where a real crash or hang would bite.  ``run(payload)``
    answers ``ok`` with its result or ``err`` with the exception text;
    the spawn generation ``gen`` lets the parent drop stragglers.

    The loop ends on the ``None`` sentinel, or once the process that
    spawned the worker is gone: a SIGKILLed parent never sends the
    sentinel, and its workers would otherwise block in ``get()`` forever
    after init adopts them.  An orphan does not wait to flush results
    nobody will read.  Call it on worker entry: the parent is the one
    seen at call time (under ``forkserver`` that is the server, which
    exits with its owner).
    """
    parent_pid = os.getppid()
    while True:
        try:
            payload = task_q.get(timeout=_ORPHAN_CHECK_SECONDS)
        except _queue.Empty:
            if os.getppid() != parent_pid:
                result_q.cancel_join_thread()
                return
            continue
        if payload is None:
            return
        epoch = payload["epoch"]
        result_q.put(("hb", slot, gen, None))
        faults_install(payload.get("faults") or None)
        spec = faults_should_fire("worker_death", worker=slot, epoch=epoch)
        if spec is not None:
            os._exit(_DEATH_EXIT_CODE)
        spec = faults_should_fire("slow_exec", worker=slot, epoch=epoch)
        if spec is not None:
            time.sleep(spec.param("seconds", 3600.0))
        try:
            body = run(payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            error = "%s: %s" % (type(exc).__name__, exc)
            result_q.put(("err", slot, gen, error))
        else:
            result_q.put(("ok", slot, gen, body))


def _campaign_worker_main(schedule, config, slot, gen, task_q, result_q):
    """One campaign worker: :func:`worker_loop` over :func:`run_slice`.
    The model compiles on the first payload, so an error answers ``err``."""
    fuzzer = None

    def run(payload: Dict) -> FuzzState:
        nonlocal fuzzer
        if fuzzer is None:
            fuzzer = Fuzzer(schedule, config)
        return run_slice(fuzzer, payload)

    worker_loop(slot, gen, task_q, result_q, run)


# ---------------------------------------------------------------------- #
# the parent side
# ---------------------------------------------------------------------- #
class WorkerPool:
    """A worker fleet plus the one supervision path of its dispatches.

    Owns the processes, one shared result queue, and each busy slot's
    payload, hang grace and deadline.  :class:`ParallelFuzzer` (one
    campaign) and the service daemon (many jobs over one long-lived
    pool) drive it alike: :meth:`dispatch`, then :meth:`collect` for
    heartbeats, results and failures.  On a failure the caller charges
    its own budget and emits its own events, then calls :meth:`retry`
    or :meth:`release`.  A dead or hung slot is reaped and later
    respawned; a worker that replied ``err`` is never terminated, since
    killing a process that may hold the result queue's write lock
    would wedge every other worker.
    """

    def __init__(
        self,
        size: int,
        main,
        args: tuple = (),
        start_method: Optional[str] = None,
    ):
        if size < 1:
            raise FuzzingError("worker pool size must be >= 1")
        self.size = size
        self._main = main
        self._args = tuple(args)
        self.ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self.result_q = self.ctx.Queue()
        self.procs: List[Optional[object]] = [None] * size
        self.task_qs: List[Optional[object]] = [None] * size
        #: spawn generation per slot — the stale-message filter
        self.gens: List[int] = [0] * size
        #: per busy slot: the in-flight payload, hang grace and deadline
        self.payloads: Dict[int, Dict] = {}
        self.graces: Dict[int, float] = {}
        self.deadlines: Dict[int, float] = {}

    def spawn(self, slot: int) -> None:
        """(Re)start one slot on a fresh task queue and generation."""
        self.gens[slot] += 1
        self.task_qs[slot] = self.ctx.Queue()
        proc = self.ctx.Process(
            target=self._main,
            args=self._args
            + (slot, self.gens[slot], self.task_qs[slot], self.result_q),
            daemon=True,
        )
        proc.start()
        self.procs[slot] = proc

    def spawn_all(self) -> None:
        for slot in range(self.size):
            self.spawn(slot)

    def alive(self, slot: int) -> bool:
        proc = self.procs[slot]
        return proc is not None and proc.is_alive()

    def reap(self, slot: int) -> None:
        """Terminate (if needed) and join one slot's process."""
        proc = self.procs[slot]
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
        proc.join(_JOIN_SECONDS)

    def dispatch(self, slot: int, payload: Dict, grace: float) -> None:
        """Send one payload to a slot; it must answer within ``grace``
        seconds of the dispatch or of its last heartbeat."""
        task_q = self.task_qs[slot]
        if task_q is None:
            raise FuzzingError("slot %d has never been spawned" % slot)
        task_q.put(payload)
        self.payloads[slot] = payload
        self.graces[slot] = grace
        self.deadlines[slot] = time.monotonic() + grace

    def release(self, slot: int) -> None:
        """Forget a slot's in-flight dispatch (answered or given up)."""
        self.payloads.pop(slot, None)
        self.graces.pop(slot, None)
        self.deadlines.pop(slot, None)

    def collect(self, timeout: float = _POLL_SECONDS) -> List[Tuple]:
        """One supervision pass: ``(kind, slot, body)`` events.

        A reply within ``timeout`` gives ``hb`` (deadline re-armed),
        ``ok`` (slot released) or ``failed`` (an ``err`` reply); replies
        from a superseded generation or to an idle slot are dropped.
        Without one, each busy slot whose process died or whose deadline
        passed is reaped and gives ``failed``.
        """
        try:
            kind, slot, gen, body = self.result_q.get(timeout=timeout)
        except _queue.Empty:
            return self._check_liveness()
        if gen != self.gens[slot] or slot not in self.payloads:
            return []
        if kind == "hb":
            self.deadlines[slot] = time.monotonic() + self.graces[slot]
        elif kind == "ok":
            self.release(slot)
        else:
            kind = "failed"
        return [(kind, slot, body)]

    def _check_liveness(self) -> List[Tuple]:
        failed = []
        now = time.monotonic()
        for slot in sorted(self.payloads):
            if not self.alive(slot):
                reason = "worker process died"
            elif now > self.deadlines[slot]:
                reason = "no result within %.1fs (hung)" % self.graces[slot]
            else:
                continue
            self.reap(slot)
            failed.append(("failed", slot, reason))
        return failed

    def retry(self, slot: int, delay: float) -> None:
        """Re-send a failed slot's payload, faults stripped, after
        ``delay`` seconds — to a fresh process if the old one is gone."""
        time.sleep(delay)
        if not self.alive(slot):
            self.spawn(slot)
        retry = dict(self.payloads[slot], faults=None)
        self.dispatch(slot, retry, self.graces[slot])

    def shutdown(self) -> None:
        """Stop every worker: ``None`` sentinel to live slots, then reap."""
        for slot in range(self.size):
            task_q = self.task_qs[slot]
            if self.alive(slot) and task_q is not None:
                try:
                    task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for slot in range(self.size):
            self.reap(slot)


def merge_seed_pool(
    schedule: Schedule,
    candidates: List[bytes],
    compiled: Optional[CompiledModel] = None,
    bitmaps=None,
) -> List[bytes]:
    """Coverage-gated merge of worker corpora into a compact seed pool.

    Greedy probe-bitmap set cover over the deduplicated candidate byte
    streams: the result covers the union of everything the candidates
    cover, preferring shorter inputs on equal gain — LibFuzzer's
    ``-merge=1`` for model probes — cut to the first
    ``_MERGE_POOL_SIZE``.  ``bitmaps(streams)`` gives each stream's
    model-probe bitmap (a campaign passes its engine's
    :meth:`~repro.fuzzing.engine.Fuzzer.case_bitmaps`); without it the
    streams run on ``compiled``'s Python step.
    """
    unique = sorted(set(candidates), key=lambda d: (len(d), d))
    if bitmaps is None:
        compiled = compiled or compile_model(schedule, "model")
        recorder = CoverageRecorder(schedule.branch_db)
        program, _ = compiled.instantiate(recorder)
        layout = schedule.layout
        bits = [case_bitmap(program, recorder, layout, data) for data in unique]
    else:
        bits = bitmaps(unique)
    kept = greedy_cover(
        list(zip(unique, bits)), prefer=lambda a, b: (len(a), a) < (len(b), b)
    )
    return kept[:_MERGE_POOL_SIZE]


class ParallelFuzzer:
    """Multi-worker CFTCG campaign over one model schedule."""

    def __init__(
        self,
        schedule: Schedule,
        config: Optional[FuzzerConfig] = None,
        compiled: Optional[CompiledModel] = None,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.schedule = schedule
        self.config = config or FuzzerConfig(workers=2)
        if self.config.workers < 1:
            raise FuzzingError("workers must be >= 1")
        if self.config.sync_rounds < 1:
            raise FuzzingError("sync_rounds must be >= 1")
        if compiled is not None and compiled.level != "model":
            raise FuzzingError("campaign merge requires a model-level artifact")
        self._compiled = compiled
        self.start_method = start_method
        tel = telemetry if telemetry is not None else get_telemetry()
        if tel is NULL:
            tel = Telemetry(enabled=False)
        self.telemetry = tel

    # ------------------------------------------------------------------ #
    def _worker_caps(self) -> List[Optional[int]]:
        """Total max-input share of each worker (None = unbounded)."""
        config = self.config
        if config.max_inputs is None:
            return [None] * config.workers
        base, rem = divmod(config.max_inputs, config.workers)
        return [base + (1 if i < rem else 0) for i in range(config.workers)]

    def run(self) -> FuzzResult:
        config = self.config
        if config.workers == 1:
            # the classic path: byte-identical single-process behavior;
            # the model-level artifact serves replay, and fuzzing too when
            # the config fuzzes at model level
            main = self._compiled if config.level == "model" else None
            return Fuzzer(
                self.schedule,
                config,
                compiled=main,
                replay_compiled=self._compiled,
                telemetry=self.telemetry,
            ).run()

        tel = self.telemetry
        trace_path = tel.trace_path if tel.enabled else None
        # one campaign root span unless a caller (the CLI) already opened
        # it; workers adopt whichever id is active as their span parent
        root = (
            tel.span_begin("campaign")
            if tel.enabled and tel.active_span is None
            else None
        )
        parent_span = tel.active_span if tel.enabled else None
        status = tel.status if tel.enabled else None
        with telemetry_scope(tel):
            compiled = self._compiled or compile_model(self.schedule, "model")
        if tel.enabled:
            tel.emit(
                "campaign_start",
                model=self.schedule.model.name,
                seed=config.seed,
                workers=config.workers,
                n_probes=self.schedule.branch_db.n_probes,
                level=config.level,
            )
            tel.gauge("campaign.workers_live").set(config.workers)
            tel.gauge("campaign.sync_epoch").set(0)
            if status is not None:
                status.update(
                    model=self.schedule.model.name,
                    seed=config.seed,
                    workers=config.workers,
                    n_probes=self.schedule.branch_db.n_probes,
                    engine="parallel",
                    phase="fuzz",
                    epoch=0,
                )
        if trace_path:
            for w in range(config.workers):
                # clear stale per-worker files (they open in append mode)
                _unlink_trace(tel, _worker_trace_path(trace_path, w))
        workers = config.workers
        rounds = config.sync_rounds
        epoch_seconds = config.max_seconds / rounds
        worker_totals = self._worker_caps()
        n_probes = self.schedule.branch_db.n_probes
        full = int.from_bytes(b"\x01" * n_probes, "little") if n_probes else 0
        # a slot is declared hung when its slice overruns the epoch budget
        # by more than the configured grace period
        grace = epoch_seconds + max(config.worker_timeout, 2 * _POLL_SECONDS)
        base_config = resolved_config(config, workers)
        # build the workers' engine once, here, under the campaign's
        # telemetry (its phases, spans and any engine_fallback land in
        # this trace): the workers then load it from the compile cache,
        # inherited memory under fork and disk under spawn, instead of
        # each building it inside its first slice; after a fallback here
        # they skip the kernel too.  At model level it also scores the
        # merge's candidates on that engine.  A model the engine rejects
        # is left to the workers, whose supervision charges and names
        # the error
        try:
            builder = Fuzzer(self.schedule, base_config, telemetry=tel)
        except FuzzingError:
            builder = None
        engine = builder.engine if builder is not None else ""
        if engine == "scalar":
            base_config = replace(base_config, kernel="off")
        bitmaps = (
            builder.case_bitmaps
            if builder is not None and config.level == "model"
            else None
        )
        states: List[Optional[FuzzState]] = [None] * workers
        merged_seeds: List[bytes] = []
        start = time.perf_counter()

        pool = WorkerPool(
            workers,
            _campaign_worker_main,
            args=(self.schedule, base_config),
            start_method=self.start_method,
        )
        respawns = [0] * workers
        live = set(range(workers))

        def on_failure(slot: int, epoch: int, reason: str) -> None:
            """A slice failed: charge the slot's budget, retry or retire."""
            respawns[slot] += 1
            if tel.enabled:
                tel.emit(
                    "fault",
                    kind="worker_failure",
                    worker=slot,
                    epoch=epoch,
                    error=reason,
                )
            if respawns[slot] > config.max_respawns:
                # graceful degradation: keep the slot's last completed
                # state, carry on with the surviving workers
                pool.release(slot)
                live.discard(slot)
                if tel.enabled:
                    tel.emit(
                        "worker_dead", worker=slot, epoch=epoch, reason=reason
                    )
                    tel.emit("degraded", workers_left=len(live))
                    tel.gauge("campaign.workers_live").set(len(live))
                if status is not None:
                    status.worker_update(
                        slot, heartbeat=False, phase="dead", respawns=respawns[slot]
                    )
                if not live:
                    raise CampaignDegradedError(
                        "all %d campaign workers failed beyond their respawn "
                        "budget (last failure: worker %d, epoch %d, %s)"
                        % (workers, slot, epoch, reason)
                    )
                return
            delay = backoff_seconds(respawns[slot])
            if not pool.alive(slot):
                if tel.enabled:
                    tel.emit(
                        "worker_respawn",
                        worker=slot,
                        epoch=epoch,
                        attempt=respawns[slot],
                        backoff_s=round(delay, 3),
                    )
                if status is not None:
                    status.worker_update(
                        slot,
                        heartbeat=False,
                        phase="respawning",
                        respawns=respawns[slot],
                    )
            pool.retry(slot, delay)

        pool.spawn_all()
        try:
            for epoch in range(rounds):
                for w in sorted(live):
                    cap = worker_totals[w]
                    if cap is not None:
                        # cumulative share: the cap applies to the
                        # state's total, so scale it with the epoch
                        cap = cap * (epoch + 1) // rounds
                    payload = {
                        "config": replace(
                            base_config,
                            seed=derive_worker_seed(config.seed, w),
                        ),
                        "state": states[w],
                        "max_seconds": epoch_seconds,
                        "max_inputs": cap,
                        "extra_seeds": merged_seeds,
                        "trace_path": trace_path
                        and _worker_trace_path(trace_path, w),
                        "worker": w,
                        "epoch": epoch,
                        "faults": ship_faults(w, epoch),
                        "parent_span": parent_span,
                    }
                    pool.dispatch(w, payload, grace)
                    if status is not None:
                        status.worker_update(
                            w, heartbeat=False, phase="dispatched", epoch=epoch
                        )
                while pool.payloads:
                    for kind, w, body in pool.collect():
                        if kind == "hb":
                            if status is not None:
                                status.worker_update(
                                    w, phase="running", epoch=epoch
                                )
                        elif kind == "ok":
                            states[w] = body
                            if status is not None:
                                status.worker_update(
                                    w,
                                    phase="idle",
                                    epoch=epoch,
                                    execs=body.inputs_executed,
                                    covered=popcount(body.total_int),
                                    corpus=len(body.corpus),
                                )
                        else:
                            on_failure(w, epoch, body)
                union_int = 0
                for state in states:
                    if state is not None:
                        union_int |= state.total_int
                if tel.enabled:
                    epoch_execs = sum(
                        s.inputs_executed for s in states if s is not None
                    )
                    tel.emit(
                        "sync_epoch",
                        epoch=epoch,
                        union_covered=popcount(union_int),
                        pool=len(merged_seeds),
                        execs=epoch_execs,
                    )
                    tel.gauge("campaign.sync_epoch").set(epoch)
                    tel.gauge("campaign.union_covered").set(popcount(union_int))
                    tel.gauge("campaign.workers_live").set(len(live))
                    if status is not None:
                        status.update(
                            epoch=epoch,
                            covered=popcount(union_int),
                            execs=epoch_execs,
                            pool=len(merged_seeds),
                            workers_live=len(live),
                        )
                if config.stop_on_full_coverage and full and union_int == full:
                    break
                if epoch < rounds - 1:
                    candidates: List[bytes] = []
                    for state in states:
                        if state is None:
                            continue
                        candidates.extend(e.data for e in state.corpus.entries)
                        candidates.extend(c.data for c in state.suite)
                    with tel.phase("merge"):
                        merged_seeds = merge_seed_pool(
                            self.schedule,
                            candidates,
                            compiled=compiled,
                            bitmaps=bitmaps,
                        )
        finally:
            pool.shutdown()

        # union the worker suites, byte-deduplicated.  Ordering is by
        # *discovery rank* (n-th case of each worker, workers round-robin)
        # rather than wall-clock found_at: ranks are deterministic for a
        # fixed seed and input budget, where timestamps carry scheduling
        # noise that would reorder the merged suite between identical runs
        tagged = [
            (rank, w, case)
            for w, state in enumerate(states)
            if state is not None
            for rank, case in enumerate(state.suite)
        ]
        tagged.sort(key=lambda item: (item[0], item[1]))
        suite = TestSuite(tool="cftcg")
        seen = set()
        for _rank, _w, case in tagged:
            if case.data in seen:
                continue
            seen.add(case.data)
            suite.add(TestCase(case.data, case.found_at, case.origin))

        timeline: List = []
        if status is not None:
            status.update(phase="replay")
        with tel.phase("replay"):
            report = replay_suite(
                self.schedule, suite, compiled=compiled, timeline_out=timeline
            )
        # rank order tracks wall-clock only approximately, so clamp the
        # merged curve into its monotone envelope ("coverage reached C
        # by time T") before handing it out
        for idx in range(1, len(timeline)):
            if timeline[idx][0] < timeline[idx - 1][0]:
                timeline[idx] = (timeline[idx - 1][0], timeline[idx][1])
        elapsed = time.perf_counter() - start
        alive_states = [s for s in states if s is not None]
        inputs_executed = sum(s.inputs_executed for s in alive_states)
        iterations_executed = sum(s.iterations_executed for s in alive_states)
        timeouts = sum(s.timeouts for s in alive_states)
        if tel.enabled:
            union_int = 0
            for state in alive_states:
                union_int |= state.total_int
            tel.emit(
                "campaign_end",
                t=round(elapsed, 6),
                execs=inputs_executed,
                iterations=iterations_executed,
                covered=popcount(union_int),
                decision=round(report.decision, 3),
                condition=round(report.condition, 3),
                mcdc=round(report.mcdc, 3),
                cases=len(suite),
                phases={k: round(v, 6) for k, v in tel.phase_times.items()},
            )
            if trace_path:
                # fold the workers' private traces into the campaign trace
                # (the parent's writer stays open — no file juggling)
                for w in range(workers):
                    absorb_trace(tel, _worker_trace_path(trace_path, w))
            tel.span_end(root)
            tel.gauge("campaign.union_covered").set(popcount(union_int))
            if status is not None:
                status.update(
                    phase="done",
                    covered=popcount(union_int),
                    execs=inputs_executed,
                    cases=len(suite),
                )
            tel.flush()
        return FuzzResult(
            suite=suite,
            report=report,
            inputs_executed=inputs_executed,
            iterations_executed=iterations_executed,
            elapsed=elapsed,
            timeline=timeline,
            phase_times=dict(tel.phase_times),
            timeouts=timeouts,
            engine=engine,
        )


def run_campaign(
    schedule: Schedule,
    config: Optional[FuzzerConfig] = None,
    compiled: Optional[CompiledModel] = None,
    start_method: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
) -> FuzzResult:
    """Run a campaign of ``config.workers`` workers (default 1) through
    :class:`ParallelFuzzer`, which runs ``workers=1`` on the classic
    engine.  ``compiled`` is an optional cached model-level artifact
    reused for merge and replay.  ``telemetry`` overrides the active
    process-local registry for this campaign."""
    return ParallelFuzzer(
        schedule, config or FuzzerConfig(), compiled=compiled,
        start_method=start_method, telemetry=telemetry,
    ).run()
