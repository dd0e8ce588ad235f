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

**Supervision.**  Workers are long-lived processes owned by the parent,
fed through per-worker task queues and answering on one shared result
queue.  Each accepted payload is acknowledged with a start-of-slice
heartbeat; a worker that dies (crash, OOM-kill, injected
``worker_death`` fault) or goes silent past its deadline (hung generated
code, injected ``slow_exec``) is detected by the parent, which respawns
the slot — bounded by ``config.max_respawns``, with exponential backoff
— and re-dispatches the *same* payload with injected faults stripped.
Because workers are stateless between epochs (the state travels inside
the payload), the retried slice reproduces the lost work exactly, so a
campaign that survives an injected worker death still produces the
byte-identical merged suite of a fault-free run.  A slot that exhausts
its respawn budget is retired and the campaign continues degraded on the
remaining workers; when every slot is gone the campaign raises
:class:`~repro.errors.CampaignDegradedError`.

``workers=1`` bypasses multiprocessing entirely and is byte-identical to
the classic single-process engine for a fixed seed.  Worker payloads and
states are plain picklable values, so both ``fork`` and ``spawn`` start
methods work (``spawn`` re-imports this module and re-compiles the model
per process through the worker's startup — a warm read of the persistent
compile cache, so per-worker startup no longer pays the codegen cost).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import time
from dataclasses import replace
from typing import Dict, List, Optional, Set

from ..bits import popcount
from ..codegen.compile import CompiledModel, compile_model
from ..coverage.recorder import CoverageRecorder
from ..cpu import resolve_kernel_threads
from ..errors import CampaignDegradedError, FuzzingError, TelemetryError
from ..faults.plan import get_plan, install as faults_install
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

#: respawn backoff: ``base * 2**(attempt-1)`` seconds, capped
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: grace period for joining/terminating workers during shutdown
_JOIN_SECONDS = 5.0

#: how long an idle worker blocks on its task queue between checks that
#: the process which spawned it is still alive
_ORPHAN_CHECK_SECONDS = 1.0


def derive_worker_seed(seed: int, worker_index: int) -> int:
    """The deterministic RNG seed of one campaign worker."""
    return seed + _WORKER_SEED_STRIDE * worker_index


def _default_start_method() -> str:
    """Prefer ``fork`` (cheap, no re-import) where the platform has it."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_trace_path(trace_path: str, worker: int) -> str:
    """The private JSONL file of one campaign worker."""
    return "%s.worker%d" % (trace_path, worker)


def _run_slice(fuzzer: Fuzzer, payload: Dict) -> FuzzState:
    """Run one worker's budget slice; executed inside a worker process."""
    fuzzer.config = payload["config"]
    state = payload["state"]
    if state is None:
        state = fuzzer.new_state()
    trace_path = payload.get("trace_path")
    worker = payload.get("worker", 0)
    epoch = payload.get("epoch", 0)
    if trace_path:
        # a private, append-mode trace per worker per process; the parent
        # absorbs the files into the campaign trace after the last epoch.
        # Span ids get a worker/epoch prefix (collision-free after the
        # absorb) and adopt the campaign root span as parent, so the
        # merged trace folds into one tree
        tel = Telemetry(
            enabled=True,
            trace_path=_worker_trace_path(trace_path, worker),
            tags={"worker": worker},
            append=True,
            span_prefix="w%de%d-" % (worker, epoch),
        )
        tel.span_root = payload.get("parent_span")
    else:
        tel = Telemetry(enabled=False)
    fuzzer.telemetry = tel
    try:
        with tel.span("slice", worker=worker, epoch=epoch):
            fuzzer.resume(
                state,
                max_seconds=payload["max_seconds"],
                max_inputs=payload["max_inputs"],
                extra_seeds=payload["extra_seeds"],
            )
        tel.emit(
            "heartbeat",
            worker=worker,
            epoch=epoch,
            t=round(state.elapsed, 6),
            execs=state.inputs_executed,
            covered=popcount(state.total_int),
            corpus=len(state.corpus),
        )
    finally:
        tel.close()
    return state


def _worker_tasks(task_q, result_q):
    """Iterate a pool worker's payloads until the ``None`` sentinel.

    Also stops once the process that spawned the worker is gone: a
    SIGKILLed parent never sends the sentinel, and its workers would
    otherwise block in ``get()`` forever after init adopts them.  An
    orphan does not wait to flush results nobody will read.  Call it on
    worker entry: the parent is the one seen at call time (under
    ``forkserver`` that is the server, which exits with its owner).
    """
    parent_pid = os.getppid()

    def tasks():
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
            yield payload

    return tasks()


def _worker_main(
    schedule: Schedule,
    base_config: FuzzerConfig,
    slot: int,
    gen: int,
    task_q,
    result_q,
) -> None:
    """Entry point of one supervised campaign worker process.

    Long-lived: compiles the model once (a warm compile-cache read), then
    serves epoch payloads from ``task_q`` until it receives ``None`` or
    its parent dies (:func:`_worker_tasks`).
    Every accepted payload is acknowledged with a ``("hb", ...)`` message
    *before* the slice runs, so the parent can tell "still fuzzing" from
    "never picked the task up".  Messages carry the spawn generation so
    the parent can discard stragglers from a superseded process.

    Injected faults fire here, right after the acknowledgement — exactly
    where a real crash or hang would bite.  The payload's plan replaces
    any environment-derived plan, which is how a respawned worker
    (payload shipped with ``faults=None``) re-runs clean.
    """
    tasks = _worker_tasks(task_q, result_q)
    fuzzer = Fuzzer(schedule, base_config)
    for payload in tasks:
        epoch = payload.get("epoch", 0)
        worker = payload.get("worker", slot)
        result_q.put(("hb", slot, gen, epoch, None))
        plan = payload.get("faults")
        faults_install(plan if plan else None)
        spec = faults_should_fire("worker_death", worker=worker, epoch=epoch)
        if spec is not None:
            os._exit(_DEATH_EXIT_CODE)
        spec = faults_should_fire("slow_exec", worker=worker, epoch=epoch)
        if spec is not None:
            time.sleep(spec.param("seconds", 3600.0))
        try:
            state = _run_slice(fuzzer, payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result_q.put(
                ("err", slot, gen, epoch, "%s: %s" % (type(exc).__name__, exc))
            )
        else:
            result_q.put(("ok", slot, gen, epoch, state))


class WorkerPool:
    """The process-supervision mechanics of a worker fleet, policy-free.

    Owns the multiprocessing context, one shared result queue, and per-
    slot (process, task queue, spawn generation) triples.  Callers keep
    the *policy* — respawn budgets, backoff, retirement, payload retry —
    and borrow the mechanics: :meth:`spawn` (a fresh task queue per
    spawn, so an undelivered payload in a dead worker's queue never
    leaks into the replacement), :meth:`submit`, :meth:`alive`,
    :meth:`reap`, :meth:`poll` (which drops messages from superseded
    spawn generations), and :meth:`shutdown`.

    Both :class:`ParallelFuzzer` (one campaign, the pool lives for the
    campaign) and the campaign service's scheduler (many jobs
    multiplexed over one long-lived pool — *pool lending*) run on this
    class; the message contract is whatever tuple the worker ``main``
    puts on ``result_q``, conventionally
    ``(kind, slot, gen, epoch, body)`` with the spawn generation in
    position 2 so :meth:`poll` can filter stragglers.
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

    def submit(self, slot: int, payload) -> None:
        """Feed one task to a slot (the slot must have been spawned)."""
        task_q = self.task_qs[slot]
        if task_q is None:
            raise FuzzingError("slot %d has never been spawned" % slot)
        task_q.put(payload)

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

    def poll(self, timeout: float = _POLL_SECONDS):
        """One result-queue message, or ``None`` on timeout/straggler.

        Messages whose spawn generation is not the slot's current one
        come from a superseded process and are dropped (returned as
        ``None``, so the caller's timeout path — liveness and deadline
        checks — runs either way).
        """
        try:
            msg = self.result_q.get(timeout=timeout)
        except _queue.Empty:
            return None
        if msg[2] != self.gens[msg[1]]:
            return None
        return msg

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
    max_pool: int = 64,
) -> List[bytes]:
    """Coverage-gated merge of worker corpora into a compact seed pool.

    Greedy probe-bitmap set cover over the deduplicated candidate byte
    streams: the result covers the union of everything the candidates
    cover, preferring shorter inputs on equal gain — LibFuzzer's
    ``-merge=1`` for model probes.
    """
    compiled = compiled or compile_model(schedule, "model")
    recorder = CoverageRecorder(schedule.branch_db)
    program, _ = compiled.instantiate(recorder)
    layout = schedule.layout
    unique = sorted(set(candidates), key=lambda d: (len(d), d))
    items = [(data, case_bitmap(program, recorder, layout, data)) for data in unique]
    kept = greedy_cover(items, prefer=lambda a, b: (len(a), a) < (len(b), b))
    return kept[:max_pool]


class ParallelFuzzer:
    """Multi-worker CFTCG campaign over one model schedule."""

    def __init__(
        self,
        schedule: Schedule,
        config: Optional[FuzzerConfig] = None,
        compiled: Optional[CompiledModel] = None,
        start_method: Optional[str] = None,
        merge_pool_size: int = 64,
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
        self.merge_pool_size = merge_pool_size
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

    def _unlink_quietly(self, path: str) -> None:
        """Remove a stale/absorbed worker trace; record failures as faults."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass  # a worker that found nothing never opened its trace
        except OSError as exc:
            tel = self.telemetry
            if tel.enabled:
                tel.emit(
                    "fault",
                    kind="trace_io_error",
                    op="unlink",
                    path=path,
                    error=str(exc),
                )

    def run(self) -> FuzzResult:
        config = self.config
        if config.workers == 1:
            # the classic path: byte-identical single-process behavior
            return Fuzzer(
                self.schedule,
                config,
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
                self._unlink_quietly(_worker_trace_path(trace_path, w))
        workers = config.workers
        rounds = config.sync_rounds
        epoch_seconds = config.max_seconds / rounds
        worker_totals = self._worker_caps()
        n_probes = self.schedule.branch_db.n_probes
        full = int.from_bytes(b"\x01" * n_probes, "little") if n_probes else 0
        # a slot is declared hung when its slice overruns the epoch budget
        # by more than the configured grace period
        grace = epoch_seconds + max(config.worker_timeout, 2 * _POLL_SECONDS)
        # the parent's fault plan: injected worker faults ship inside the
        # epoch payloads (and are stripped from respawn payloads), so a
        # retried slice reproduces the lost work without re-faulting
        plan = get_plan()
        shipped = plan.for_kinds("worker_death", "slow_exec") if plan else None

        # resolve kernel_threads="auto" against the *real* worker count
        # before the workers=1 replace below: each worker process would
        # otherwise see workers=1 and claim every available core for its
        # kernel thread pool, oversubscribing threads x workers
        kernel_threads = config.kernel_threads
        if kernel_threads in ("auto", None):
            kernel_threads = resolve_kernel_threads(
                "auto", workers=config.workers
            )
        base_config = replace(
            config, workers=1, kernel_threads=kernel_threads
        )
        states: List[Optional[FuzzState]] = [None] * workers
        merged_seeds: List[bytes] = []
        start = time.perf_counter()

        pool = WorkerPool(
            workers,
            _worker_main,
            args=(self.schedule, base_config),
            start_method=self.start_method,
        )
        respawns = [0] * workers
        live: Set[int] = set(range(workers))
        pending: Set[int] = set()
        deadlines: Dict[int, float] = {}
        payloads: Dict[int, Dict] = {}

        def handle_failure(slot: int, epoch: int, reason: str) -> None:
            """A worker died, hung or errored: respawn or retire the slot."""
            respawns[slot] += 1
            if tel.enabled:
                tel.emit(
                    "fault",
                    kind="worker_failure",
                    worker=slot,
                    epoch=epoch,
                    error=reason,
                )
            pool.reap(slot)
            if respawns[slot] > config.max_respawns:
                # graceful degradation: keep the slot's last completed
                # state, carry on with the surviving workers
                live.discard(slot)
                pending.discard(slot)
                deadlines.pop(slot, None)
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
                        "all %d campaign workers died beyond their respawn "
                        "budget (last failure: worker %d, epoch %d, %s)"
                        % (workers, slot, epoch, reason)
                    )
                return
            backoff = min(
                _BACKOFF_BASE * (2 ** (respawns[slot] - 1)), _BACKOFF_CAP
            )
            if tel.enabled:
                tel.emit(
                    "worker_respawn",
                    worker=slot,
                    epoch=epoch,
                    attempt=respawns[slot],
                    backoff_s=round(backoff, 3),
                )
            if status is not None:
                status.worker_update(
                    slot,
                    heartbeat=False,
                    phase="respawning",
                    respawns=respawns[slot],
                )
            time.sleep(backoff)
            # re-dispatch the SAME payload with injected faults stripped:
            # the respawned worker reproduces the lost slice exactly
            retry = dict(payloads[slot])
            retry["faults"] = None
            payloads[slot] = retry
            pool.spawn(slot)
            pool.submit(slot, retry)
            deadlines[slot] = time.monotonic() + grace

        pool.spawn_all()
        try:
            for epoch in range(rounds):
                pending.clear()
                deadlines.clear()
                for w in sorted(live):
                    cap = worker_totals[w]
                    if cap is not None:
                        # cumulative share: the cap applies to the
                        # state's total, so scale it with the epoch
                        cap = cap * (epoch + 1) // rounds
                    payloads[w] = {
                        "config": replace(
                            base_config,
                            seed=derive_worker_seed(config.seed, w),
                        ),
                        "state": states[w],
                        "max_seconds": epoch_seconds,
                        "max_inputs": cap,
                        "extra_seeds": merged_seeds,
                        "trace_path": trace_path,
                        "worker": w,
                        "epoch": epoch,
                        "faults": shipped,
                        "parent_span": parent_span,
                    }
                    pool.submit(w, payloads[w])
                    deadlines[w] = time.monotonic() + grace
                    pending.add(w)
                    if status is not None:
                        status.worker_update(
                            w, heartbeat=False, phase="dispatched", epoch=epoch
                        )
                while pending:
                    msg = pool.poll()
                    if msg is None:
                        now = time.monotonic()
                        for w in sorted(pending):
                            if not pool.alive(w):
                                handle_failure(w, epoch, "worker process died")
                            elif now > deadlines.get(w, now):
                                handle_failure(
                                    w,
                                    epoch,
                                    "no result within %.1fs (hung)" % grace,
                                )
                        continue
                    kind, w, _gen, ep, body = msg
                    if ep != epoch or w not in pending:
                        continue  # straggler from a superseded dispatch
                    if kind == "hb":
                        deadlines[w] = time.monotonic() + grace
                        if status is not None:
                            status.worker_update(w, phase="running", epoch=ep)
                    elif kind == "ok":
                        states[w] = body
                        pending.discard(w)
                        deadlines.pop(w, None)
                        if status is not None:
                            status.worker_update(
                                w,
                                phase="idle",
                                epoch=ep,
                                execs=body.inputs_executed,
                                covered=popcount(body.total_int),
                                corpus=len(body.corpus),
                            )
                    elif kind == "err":
                        handle_failure(w, epoch, body)
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
                            max_pool=self.merge_pool_size,
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
                    worker_path = _worker_trace_path(trace_path, w)
                    try:
                        tel.absorb(read_trace(worker_path))
                    except TelemetryError as exc:
                        # a worker that found nothing never opened its
                        # trace — but record the skip instead of hiding it
                        tel.emit(
                            "fault",
                            kind="trace_io_error",
                            op="read",
                            path=worker_path,
                            error=str(exc),
                        )
                        continue
                    self._unlink_quietly(worker_path)
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
        )


def run_campaign(
    schedule: Schedule,
    config: Optional[FuzzerConfig] = None,
    compiled: Optional[CompiledModel] = None,
    start_method: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
) -> FuzzResult:
    """Route a campaign by ``config.workers``: 1 = classic engine, N>1 =
    the multiprocessing campaign.  ``compiled`` is an optional cached
    model-level artifact reused for merge and replay.  ``telemetry``
    overrides the active process-local registry for this campaign."""
    config = config or FuzzerConfig()
    if config.workers < 1:
        raise FuzzingError("workers must be >= 1")
    if config.workers == 1:
        main = compiled if (compiled is not None and compiled.level == config.level) else None
        return Fuzzer(
            schedule, config, compiled=main, replay_compiled=compiled,
            telemetry=telemetry,
        ).run()
    return ParallelFuzzer(
        schedule, config, compiled=compiled, start_method=start_method,
        telemetry=telemetry,
    ).run()
