"""The model-oriented fuzzing loop (paper Fig. 2, right column).

Pipeline per run: compile the instrumented model code and its fuzz
driver (the fused native kernel, or the optimized Python module and the
generated Python driver when no kernel can be built), then loop —
select a corpus parent, apply field-wise tuple mutations, execute the
driver (Algorithm 1), emit test cases on new model coverage, keep
high-Iteration-Difference inputs as seeds.  Deterministic under a
fixed ``seed``.

Ablation knobs (all used by the paper's experiments):

* ``field_aware=False`` — generic byte-level mutation (misaligns fields);
* ``level="code"`` — code-level-only instrumentation for guidance
  (boolean dataflow invisible, like a stock compiler + LibFuzzer);
* ``use_iteration_metric=False`` — corpus admits only new-coverage
  inputs, disabling the IDC diversification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from random import Random
from typing import Dict, List, Optional, Tuple

from ..bits import popcount
from ..codegen.compile import CompiledModel, compile_model
from ..codegen.driver import compile_fuzz_driver
from ..coverage.metrics import CoverageReport, compute_report
from ..coverage.recorder import CoverageRecorder
from ..cpu import MAX_KERNEL_LANES, resolve_kernel_threads
from ..errors import FuzzingError, WatchdogTimeout
from ..faults.crashes import CrashStore
from ..faults.watchdog import WATCHDOG
from ..schedule.schedule import Schedule
from ..telemetry.core import NULL, Telemetry, get_telemetry, telemetry_scope
from ..telemetry.metrics import LADDER_POSITIONS
from ..telemetry.stats import StatusPrinter
from .corpus import Corpus, CorpusEntry
from .mutations import mutate_field_wise, mutate_generic
from .testcase import TestCase, TestSuite

__all__ = [
    "FuzzerConfig", "FuzzResult", "FuzzState", "Fuzzer", "check_config",
    "engine_key", "replay_suite",
]

#: multiplier decorrelating the per-slice RNG streams of resumed runs
_SLICE_SEED_STRIDE = 0x9E3779B1

#: seconds without new coverage before a ``plateau`` trace event fires
_PLATEAU_SECONDS = 2.0

#: telemetry tick: uninteresting execs skip all trace-side bookkeeping
#: between ticks, keeping the enabled hot path within the overhead budget
_TICK_SECONDS = 0.1

#: what ``lanes="auto"`` resolves to on the kernel: the width every
#: kernel speedup in EXPERIMENTS.md was measured at
_AUTO_LANES = 64


@dataclass
class FuzzerConfig:
    """Tuning knobs for one fuzzing run."""

    max_seconds: float = 5.0
    max_inputs: Optional[int] = None
    seed: int = 0
    max_len: int = 1024  # byte-stream cap (LibFuzzer's -max_len)
    initial_tuples: int = 4
    max_mutation_rounds: int = 4
    corpus_size: int = 256
    use_iteration_metric: bool = True
    field_aware: bool = True
    level: str = "model"
    #: stop early once every probe is covered (saves benchmark time)
    stop_on_full_coverage: bool = True
    #: extra initial corpus inputs (byte streams), e.g. solver-produced
    #: seeds from the hybrid constraint-assisted mode (paper §5/§6)
    seeds: Optional[List[bytes]] = None
    #: campaign parallelism (LibFuzzer's -workers); 1 = the classic
    #: single-process loop, >1 is handled by :mod:`repro.fuzzing.parallel`
    workers: int = 1
    #: corpus-merge sync epochs in a multi-worker campaign
    sync_rounds: int = 4
    #: per-input step budget for generated code (while-loop iterations);
    #: ``None`` disables the watchdog and a nonterminating loop hangs the
    #: campaign.  Step counts, not wall time, so the abort point is
    #: deterministic across machines and engines.
    max_exec_steps: Optional[int] = None
    #: directory where crash/timeout artifacts persist (LibFuzzer's
    #: ``-artifact_prefix``); ``None`` keeps artifacts in memory only
    crash_dir: Optional[str] = None
    #: parallel supervision: seconds without a worker heartbeat before
    #: the worker is declared hung and its slice re-dispatched
    worker_timeout: float = 30.0
    #: parallel supervision: respawn budget per worker slot per campaign
    max_respawns: int = 3
    #: the batch width: inputs stepped per native kernel call (max 256).
    #: It does not choose the engine (``kernel`` and the host do).  The
    #: default of 1 absorbs each input before the next is mutated, so
    #: the one-lane kernel and the scalar engine produce byte-identical
    #: suites; >1 trades per-input sequencing granularity for throughput
    #: (suites may differ only in corpus-scheduling order, never in
    #: per-input semantics).  ``"auto"`` means 64 lanes unless
    #: ``kernel="off"``, and 1 lane there.
    lanes: object = 1
    #: native kernel backend policy: ``"auto"`` runs the fused C kernel
    #: at every lane count when it can be built, falling back to the
    #: scalar engine when it cannot (one ``engine_fallback`` fault
    #: telemetry event, never silent); ``"on"`` is a synonym of
    #: ``"auto"`` kept for stored job specs; ``"off"`` never builds it
    #: and runs scalar
    kernel: str = "auto"
    #: kernel execution threads per worker: disjoint lane blocks run
    #: concurrently, each on its own C state struct (ctypes releases the
    #: GIL during ``kern_run``).  ``"auto"`` divides the container's
    #: available cores (affinity ∩ cgroup quota, see :mod:`repro.cpu`)
    #: by ``workers`` so threads x workers never oversubscribes; ints
    #: are honored as given.  Suite digests are bit-identical at every
    #: thread count — per-lane results fold sequentially in lane order
    #: regardless of how lanes are partitioned onto threads.
    kernel_threads: object = "auto"


def check_config(config: FuzzerConfig) -> Tuple[int, bool]:
    """Validate the engine settings of ``config``; return ``(lanes,
    try_kernel)``, with ``lanes="auto"`` resolved.

    The kernel is tried unless ``kernel="off"``, at every lane count:
    whether it then runs depends on the host (a C compiler) and the
    model, not on ``lanes``.  ``kernel_threads`` is checked only when
    the kernel would be tried.  Does not load the kernel, so config
    errors raise even on toolchain-less hosts, and the service rejects
    bad job specs early.
    """
    if config.level not in ("model", "code"):
        raise FuzzingError("fuzzer level must be 'model' or 'code'")
    kernel_mode = config.kernel
    if kernel_mode not in ("auto", "on", "off"):
        raise FuzzingError(
            "config.kernel must be 'auto', 'on' or 'off', got %r"
            % (kernel_mode,)
        )
    lanes = config.lanes
    if lanes == "auto":
        lanes = 1 if kernel_mode == "off" else _AUTO_LANES
    if not isinstance(lanes, int) or isinstance(lanes, bool) or lanes < 1:
        raise FuzzingError(
            "config.lanes must be a positive int or 'auto', got %r"
            % (config.lanes,)
        )
    if lanes > MAX_KERNEL_LANES:
        raise FuzzingError(
            "config.lanes must be <= %d, got %r" % (MAX_KERNEL_LANES, lanes)
        )
    try_kernel = kernel_mode != "off"
    kt = config.kernel_threads
    if try_kernel and not (
        kt in ("auto", None)
        or (isinstance(kt, int) and not isinstance(kt, bool) and kt >= 1)
    ):
        raise FuzzingError(
            "config.kernel_threads must be a positive int or 'auto', "
            "got %r" % (kt,)
        )
    return lanes, try_kernel


def engine_key(config: FuzzerConfig) -> Tuple:
    """What :class:`Fuzzer` fixes from ``config`` when it is built.

    Two configs with equal keys build interchangeable fuzzers for one
    model: everything else in the config is read per :meth:`Fuzzer.resume`
    or :meth:`Fuzzer.finalize` call.  ``"on"`` and ``"auto"`` share a key,
    and the thread count is the resolved one.
    """
    lanes, try_kernel = check_config(config)
    threads = (
        resolve_kernel_threads(
            config.kernel_threads, workers=config.workers, lanes=lanes
        )
        if try_kernel
        else 1
    )
    return config.level, lanes, try_kernel, threads, config.crash_dir


@dataclass
class FuzzState:
    """Resumable campaign state — everything :meth:`Fuzzer.resume` touches.

    The state is a plain picklable value so a parallel campaign can ship
    it to a worker process, run a budget slice, and ship it back for the
    shared-corpus merge.  ``elapsed`` accumulates across slices, keeping
    test-case timestamps and the timeline monotone over a whole campaign.
    """

    corpus: Corpus
    suite: TestSuite
    total_int: int = 0
    inputs_executed: int = 0
    iterations_executed: int = 0
    elapsed: float = 0.0
    timeline: List = field(default_factory=list)  # (t, probes_covered)
    seeded: bool = False  # initial seed inputs already executed?
    rounds: int = 0  # completed resume slices
    timeouts: int = 0  # inputs aborted by the execution watchdog
    #: cumulative per-operator mutation counts (telemetry-enabled runs
    #: only; empty otherwise, so pickled payloads stay small)
    op_applied: Dict[str, int] = field(default_factory=dict)
    #: per-operator counts of mutations that produced a corpus-adding
    #: input — the numerator of the operator-effectiveness table
    op_wins: Dict[str, int] = field(default_factory=dict)


@dataclass
class FuzzResult:
    """Everything one run produced."""

    suite: TestSuite
    report: CoverageReport
    inputs_executed: int
    iterations_executed: int
    elapsed: float
    timeline: List = field(default_factory=list)  # (t, probes_covered)
    #: wall-time attribution per pipeline phase (codegen, optimize,
    #: compile, seed, mutate_exec, merge, replay, ...) — populated for
    #: every run; an empty dict only when a caller bypassed the engine
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: inputs aborted by the execution watchdog (each recorded as a
    #: deduplicated timeout artifact in the fuzzer's crash store)
    timeouts: int = 0
    #: the backend the fuzzing loop ran on, ``"kernel"`` or ``"scalar"``
    #: (``""`` for a generator that runs no fuzzing loop)
    engine: str = ""

    @property
    def execs_per_second(self) -> float:
        return self.inputs_executed / self.elapsed if self.elapsed else 0.0

    @property
    def iterations_per_second(self) -> float:
        return self.iterations_executed / self.elapsed if self.elapsed else 0.0


class Fuzzer:
    """CFTCG's generation engine for one model."""

    def __init__(
        self,
        schedule: Schedule,
        config: Optional[FuzzerConfig] = None,
        compiled: Optional[CompiledModel] = None,
        replay_compiled: Optional[CompiledModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.schedule = schedule
        self.config = config or FuzzerConfig()
        lanes, try_kernel = check_config(self.config)
        # the per-run telemetry: an explicit argument, else the active
        # scope, else a private disabled registry — never the shared NULL
        # singleton, so phase attribution works even with telemetry off
        tel = telemetry if telemetry is not None else get_telemetry()
        if tel is NULL:
            tel = Telemetry(enabled=False)
        self.telemetry = tel
        if compiled is not None and compiled.level != self.config.level:
            raise FuzzingError(
                "compiled model level %r does not match config %r"
                % (compiled.level, self.config.level)
            )
        if not schedule.layout.fields:
            raise FuzzingError(
                "model %r has no inports; nothing to fuzz"
                % (schedule.model.name,)
            )
        if replay_compiled is not None and replay_compiled.level != "model":
            raise FuzzingError(
                "replay requires a model-level compiled program"
            )
        self._replay_compiled = replay_compiled
        #: the generated module the engine runs: the kernel lowers it, the
        #: scalar engine executes it.  A caller's artifact is used as given
        self.compiled = compiled
        #: native kernel artifacts — populated by :meth:`_setup_kernel`
        self._kernel_compiled = None
        self._kernel_driver = None
        self._kernel_lanes = 1
        self._kernel_threads = 1
        #: the scalar engine's generated fuzz driver (``None`` on the kernel)
        self.driver = None
        #: which execution backend resume() will use: "scalar" or
        #: "kernel" — resolved once here, fallbacks included
        self.engine = "scalar"
        if try_kernel:
            self._setup_kernel(lanes)
        if self.engine == "scalar":
            with telemetry_scope(tel):
                if self.compiled is None:
                    self.compiled = compile_model(schedule, self.config.level)
                with tel.phase("compile"):
                    self.driver = compile_fuzz_driver(schedule)
        self.layout = schedule.layout
        #: timeout/crash artifacts found by this fuzzer (disk-backed when
        #: ``config.crash_dir`` is set, in-memory otherwise)
        self.crash_store = CrashStore(self.config.crash_dir)

    def _setup_kernel(self, lanes: int) -> None:
        """Build the fused native kernel and its fuzz driver.

        The kernel lowers the caller's artifact as given; without one it
        lowers the model generated with ``optimize=False``, since the
        Python optimizer speeds up only the Python step, which this
        engine never runs.  Fallback ladder: kernel -> scalar.  A kernel
        that cannot be built (no C compiler, build failure, un-loweable
        model) emits one ``engine_fallback`` fault event and leaves the
        campaign on scalar rather than failing it; the scalar engine then
        builds the optimized module and the Python driver it runs.  Only
        this branch imports the kernel module.
        """
        from ..codegen import kernel as _kernel

        try:
            if not _kernel.have_cc():
                raise _kernel.KernelBuildError(
                    "no C compiler on PATH (set $CC or install gcc/clang)"
                )
            with telemetry_scope(self.telemetry):
                compiled = self.compiled or compile_model(
                    self.schedule, self.config.level, optimize=False
                )
                self._kernel_compiled = _kernel.compile_kernel(compiled)
                with self.telemetry.phase("compile"):
                    self._kernel_driver = _kernel.compile_kernel_fuzz_driver(
                        self.schedule
                    )
        except (_kernel.Unloweable, _kernel.KernelBuildError) as exc:
            self._engine_fault("kernel", "scalar", str(exc))
            return
        self.compiled = compiled
        self._kernel_lanes = lanes
        self._kernel_threads = resolve_kernel_threads(
            self.config.kernel_threads, workers=self.config.workers, lanes=lanes
        )
        self.engine = "kernel"

    def _engine_fault(self, frm: str, to: str, reason: str) -> None:
        """Report one engine-ladder degradation — never silent."""
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                "fault",
                kind="engine_fallback",
                engine_from=frm,
                engine_to=to,
                reason=reason[:500],
                model=self.schedule.model.name,
            )

    def _executor(self):
        """One slice's ``(start, finish, kernel program)``.

        ``start(batch)`` takes up to ``lanes`` byte streams and returns a
        handle; ``finish(handle, total_int)`` returns one ``(metric,
        found_new, total_int, iterations, timeout_exc)`` tuple per stream,
        threading ``total_int`` through them in batch order.  The kernel
        pair is the kernel fuzz driver's own, bound to a fresh
        :class:`KernelProgram` (coverage lives inside the native kernel);
        the scalar pair is its one-lane case over the generated driver.
        """
        if self.engine == "kernel":
            kprogram = self._kernel_compiled.instantiate_kernel(
                self._kernel_lanes, self._kernel_threads
            )
            kdriver = self._kernel_driver
            return (
                partial(kdriver.start, kprogram),
                partial(kdriver.finish, kprogram),
                kprogram,
            )
        recorder = CoverageRecorder(self.schedule.branch_db)
        program, _ = self.compiled.instantiate(recorder)
        driver = self.driver
        cov = recorder.curr

        def finish(data: bytes, total_int: int):
            try:
                metric, found_new, total_int, iters = driver(
                    program, cov, data, total_int
                )
            except WatchdogTimeout as exc:
                # LibFuzzer-style timeout crash: the input becomes a
                # deduplicated artifact and fuzzing goes on — the next
                # input resets the program and re-arms the budget
                WATCHDOG.disarm()
                return [(0, False, exc.partial_total_int, exc.iterations, exc)]
            return [(metric, found_new, total_int, iters, None)]

        # a one-lane batch's handle is its one input
        return itemgetter(0), finish, None

    def case_bitmaps(self, streams: List[bytes]) -> List[int]:
        """Each stream's accumulated probe bitmap at the config's level,
        run from the initial state on this fuzzer's engine under the
        config's watchdog budget (a timed-out stream keeps its pre-abort
        probes, as in :meth:`resume`)."""
        start, finish, _ = self._executor()
        WATCHDOG.configure(self.config.max_exec_steps)
        try:
            return [finish(start([data]), 0)[0][2] for data in streams]
        finally:
            WATCHDOG.disarm()

    def replay_compiled(self) -> CompiledModel:
        """The cached model-level artifact used for suite replay.

        Reuses the guidance-level compilation when it is already at model
        level, so a run never compiles the same module twice.
        """
        if self._replay_compiled is None:
            if self.compiled.level == "model":
                self._replay_compiled = self.compiled
            else:
                with telemetry_scope(self.telemetry):
                    self._replay_compiled = compile_model(self.schedule, "model")
        return self._replay_compiled

    # ------------------------------------------------------------------ #
    def _seed_inputs(self, rng: Random) -> List[bytes]:
        """Initial corpus: zeros, random streams, and structured tuples.

        The structured seeds set every integer field to one interesting
        magnitude and every boolean to 1 — cheap starting points near the
        thresholds control logic actually uses.
        """
        layout = self.layout
        size = layout.size
        n = self.config.initial_tuples
        seeds = [bytes(size * n)]
        for _ in range(4):
            seeds.append(bytes(rng.randrange(256) for _ in range(size * n)))
        for magnitude in (1, 10, 100, 1000, -1, -100):
            row = []
            for f in layout.fields:
                if f.dtype.is_bool:
                    row.append(1)
                elif f.dtype.is_float:
                    row.append(f.clamp(float(magnitude)))
                else:
                    row.append(f.clamp(magnitude))
            seeds.append(layout.pack_stream([tuple(row)] * n))
        if self.config.seeds:
            seeds.extend(self.config.seeds)
        return seeds

    # ------------------------------------------------------------------ #
    # resumable campaign interface
    # ------------------------------------------------------------------ #
    def new_state(self) -> FuzzState:
        """A fresh campaign state (empty corpus, empty suite)."""
        return FuzzState(
            corpus=Corpus(self.config.corpus_size),
            suite=TestSuite(tool="cftcg"),
        )

    def resume(
        self,
        state: FuzzState,
        max_seconds: Optional[float] = None,
        max_inputs: Optional[int] = None,
        extra_seeds: Optional[List[bytes]] = None,
    ) -> FuzzState:
        """Run one budget slice of the fuzzing loop, mutating ``state``.

        ``max_seconds`` is the wall-clock budget of *this* slice (default:
        the config's full budget); ``max_inputs`` caps the state's total
        executed-input count (default: the config's cap).  ``extra_seeds``
        are byte streams injected before mutation resumes — a parallel
        campaign re-broadcasts the merged seed pool through this hook.
        """
        config = self.config
        if state.rounds == 0:
            rng = Random(config.seed)
        else:
            rng = Random(config.seed + _SLICE_SEED_STRIDE * state.rounds)
        slice_seconds = config.max_seconds if max_seconds is None else max_seconds
        cap = config.max_inputs if max_inputs is None else max_inputs
        corpus = state.corpus
        suite = state.suite
        timeline = state.timeline
        lanes = self._kernel_lanes
        start_batch, finish_batch, kprogram = self._executor()
        crash_store = self.crash_store
        # the generated driver re-arms the budget per input (_wd_arm);
        # configuring here makes that arm a no-op when no budget is set
        WATCHDOG.configure(config.max_exec_steps)

        # telemetry locals: one `tel_on` check is the entire disabled cost
        tel = self.telemetry
        tel_on = tel.enabled
        printer = (
            StatusPrinter(tel.stats_stream, tel.stats_interval)
            if tel_on and tel.stats_stream is not None
            else None
        )
        if tel_on and state.rounds == 0 and "worker" not in tel.tags:
            tel.emit(
                "campaign_start",
                model=self.schedule.model.name,
                seed=config.seed,
                workers=config.workers,
                n_probes=self.schedule.branch_db.n_probes,
                level=config.level,
            )
        # live-observability locals: the engine gauges the /metrics
        # exporter surfaces plus the shared /status frame, refreshed at
        # most once per telemetry tick (the observe() gate below)
        status = tel.status if tel_on else None
        worker_id = tel.tags.get("worker", 0) if tel_on else 0
        cur_phase = "seed" if not state.seeded else "mutate_exec"
        if tel_on:
            gauge = tel.gauge
            g_rate = gauge("engine.execs_per_s")
            g_iter_rate = gauge("engine.iterations_per_s")
            g_execs = gauge("engine.execs")
            g_corpus = gauge("engine.corpus_size")
            g_covered = gauge("engine.covered_probes")
            g_cov_frac = gauge("engine.coverage_fraction")
            g_plateau = gauge("engine.plateau")
            gauge("engine.lanes").set(lanes)
            gauge("engine.kernel_threads").set(
                self._kernel_threads if self.engine == "kernel" else 1
            )
            gauge("engine.ladder_position").set(
                LADDER_POSITIONS.get(self.engine, 0)
            )
            if status is not None:
                status.update(
                    model=self.schedule.model.name,
                    seed=config.seed,
                    workers=config.workers,
                    n_probes=self.schedule.branch_db.n_probes,
                    engine=self.engine,
                    lanes=lanes,
                    kernel_threads=(
                        self._kernel_threads if self.engine == "kernel" else 1
                    ),
                    phase=cur_phase,
                )
        slice_start_execs = state.inputs_executed
        slice_start_iters = state.iterations_executed
        # coalesced kernel-hot-path spans: per-dispatch/fold durations
        # accumulate here and flush as one aggregated span per tick, so
        # span granularity never costs an event per batch (kernel only:
        # a scalar trace carries no kernel spans)
        kspans = (
            {"dispatch_n": 0, "dispatch_s": 0.0, "fold_n": 0, "fold_s": 0.0}
            if tel_on and kprogram is not None
            else None
        )

        def flush_kspans() -> None:
            if kspans is None:
                return
            if kspans["dispatch_n"]:
                tel.emit_span(
                    "kernel_dispatch",
                    kspans["dispatch_s"],
                    batches=kspans["dispatch_n"],
                    lanes=lanes,
                )
                kspans["dispatch_n"] = 0
                kspans["dispatch_s"] = 0.0
            if kspans["fold_n"]:
                tel.emit_span(
                    "kernel_fold", kspans["fold_s"], batches=kspans["fold_n"]
                )
                kspans["fold_n"] = 0
                kspans["fold_s"] = 0.0

        offset = state.elapsed
        start = time.perf_counter()
        deadline = start + slice_seconds
        # each probe is one byte in the bitmap, so "all covered" is the
        # little-endian integer over n_probes 0x01 bytes
        n_probes = self.schedule.branch_db.n_probes
        full = int.from_bytes(b"\x01" * n_probes, "little") if n_probes else 0
        # plateau bookkeeping (telemetry-enabled runs only)
        last_new_t = offset
        plateau_reported = False
        next_tick = 0.0  # campaign-time of the next telemetry tick
        next_gauge_t = 0.0  # campaign-time of the next gauge/status refresh
        ops_log: List[str] = []  # batched operator names, flushed per tick

        def flush_ops() -> None:
            """Fold the batched operator log into the cumulative counters."""
            if ops_log:
                applied = state.op_applied
                for op in ops_log:
                    applied[op] = applied.get(op, 0) + 1
                ops_log.clear()

        def observe(found_new, now) -> None:
            """Trace-side bookkeeping for one executed input (tel_on only).

            Called for every exec that gained coverage and otherwise at
            most once per :data:`_TICK_SECONDS` — the other execs between
            ticks pay only the gate check.
            """
            nonlocal last_new_t, plateau_reported, next_tick, next_gauge_t
            next_tick = now + _TICK_SECONDS
            flush_ops()
            if now >= next_gauge_t:
                # gauge/status refresh is tick-bounded even though observe
                # itself runs for every coverage gain — the live view
                # never costs more than ~10 refreshes/s
                next_gauge_t = now + _TICK_SECONDS
                flush_kspans()
                covered_now = popcount(state.total_int)
                slice_t = max(now - offset, 1e-9)
                g_rate.set(
                    round(
                        (state.inputs_executed - slice_start_execs) / slice_t, 1
                    )
                )
                g_iter_rate.set(
                    round(
                        (state.iterations_executed - slice_start_iters)
                        / slice_t,
                        1,
                    )
                )
                g_execs.set(state.inputs_executed)
                g_corpus.set(len(corpus))
                g_covered.set(covered_now)
                g_cov_frac.set(
                    round(covered_now / n_probes, 6) if n_probes else 0.0
                )
                if status is not None:
                    status.update(
                        phase=cur_phase,
                        execs=state.inputs_executed,
                        covered=covered_now,
                        corpus=len(corpus),
                        cases=len(suite),
                        plateau=plateau_reported and not found_new,
                    )
                    status.worker_update(
                        worker_id,
                        phase=cur_phase,
                        epoch=state.rounds,
                        execs=state.inputs_executed,
                        covered=covered_now,
                        corpus=len(corpus),
                    )
            if found_new:
                last_new_t = now
                plateau_reported = False
                g_plateau.set(0)
                tel.emit(
                    "cov",
                    t=round(now, 6),
                    execs=state.inputs_executed,
                    covered=popcount(state.total_int),
                    bits="%x" % state.total_int,
                )
            if not found_new and not plateau_reported:
                idle = now - last_new_t
                if idle >= _PLATEAU_SECONDS:
                    plateau_reported = True
                    g_plateau.set(1)
                    tel.emit(
                        "plateau",
                        t=round(now, 6),
                        execs=state.inputs_executed,
                        covered=popcount(state.total_int),
                        idle_s=round(idle, 3),
                    )
            if printer is not None:
                printer.maybe_print(
                    state.inputs_executed,
                    popcount(state.total_int),
                    n_probes,
                    len(corpus),
                )

        def absorb_timeout(data: bytes, total_after: int, iters, exc) -> None:
            """Account one watchdog-aborted input (scalar or kernel lane).

            Probes the input covered *before* the abort are real coverage:
            they are folded into the campaign bitmap instead of being
            discarded with the exception.  The input itself is never
            emitted as a test case — replay has no watchdog, so a hanging
            stream must stay quarantined in the crash store.
            """
            now = offset + time.perf_counter() - start
            grew = total_after != state.total_int
            state.total_int = total_after
            state.inputs_executed += 1
            state.iterations_executed += iters
            state.timeouts += 1
            if grew:
                timeline.append((now, popcount(total_after)))
            artifact = crash_store.record(
                "timeout",
                data,
                exc,
                found_at=now,
                probes_covered=popcount(total_after),
            )
            if tel_on:
                tel.emit(
                    "crash_artifact",
                    t=round(now, 6),
                    kind=artifact.kind,
                    hash=artifact.hash,
                    count=artifact.count,
                    size=len(data),
                )

        def absorb(
            data: bytes, parent_density: float, ops, metric, found_new,
            total_int, iters,
        ) -> None:
            state.total_int = total_int
            state.inputs_executed += 1
            state.iterations_executed += iters
            now = offset + time.perf_counter() - start
            added = False
            entry = None
            if found_new:
                suite.add(TestCase(data, now))
                timeline.append((now, popcount(total_int)))
                entry = CorpusEntry(data, metric, True, now, iterations=iters)
            elif config.use_iteration_metric and iters:
                # zero-iteration inputs (shorter than one tuple) executed
                # nothing: their metric is vacuously 0 and admitting them
                # hands the corpus dead weight that mutates into more of
                # the same, so they are never admission candidates
                density = metric / (iters + 1.0)
                if density > parent_density:
                    entry = CorpusEntry(data, metric, False, now, iterations=iters)
            if entry is not None:
                # a rejected entry (weaker than every resident) comes back
                added = corpus.add(entry) is not entry
            if tel_on:
                if ops:
                    ops_log.extend(ops)
                    if added:
                        wins = state.op_wins
                        for op in ops:
                            wins[op] = wins.get(op, 0) + 1
                if found_new or now >= next_tick:
                    observe(found_new, now)

        # the one execution loop, for every engine: inputs queue until
        # ``lanes`` are pending (or a flush), then the batch is started
        # and later finished and absorbed lane by lane, in submission
        # order.  With lanes > 1 one batch stays in flight, so mutation +
        # clamp + packing of batch N+1 overlaps the native execution of
        # batch N (threads=1 dispatches async too, so suites cannot
        # depend on the thread count).  At lanes=1 each input is absorbed
        # before the next is mutated: the scalar engine is that one-lane
        # case, and the one-lane kernel stays byte-identical to it.
        max_inflight = 1 if lanes > 1 else 0
        pending: List = []  # (data, parent_density, ops) awaiting a start
        inflight: List = []  # started (items, handle) batches

        def finish(items, handle) -> None:
            """Finish one started batch and absorb it lane by lane."""
            if kspans is None:
                results = finish_batch(handle, state.total_int)
            else:
                t0 = time.perf_counter()
                results = finish_batch(handle, state.total_int)
                kspans["fold_n"] += 1
                kspans["fold_s"] += time.perf_counter() - t0
            for (data, parent_density, ops), res in zip(items, results):
                metric, found_new, total_int, iters, texc = res
                if texc is not None:
                    absorb_timeout(data, total_int, iters, texc)
                else:
                    absorb(
                        data, parent_density, ops, metric, found_new,
                        total_int, iters,
                    )

        def start_pending() -> None:
            """Start the queued inputs as one batch; finish what is due."""
            items = pending[:]
            del pending[:]
            if kspans is None:
                handle = start_batch([it[0] for it in items])
            else:
                t0 = time.perf_counter()
                handle = start_batch([it[0] for it in items])
                kspans["dispatch_n"] += 1
                kspans["dispatch_s"] += time.perf_counter() - t0
            inflight.append((items, handle))
            while len(inflight) > max_inflight:
                finish(*inflight.pop(0))

        def submit(data: bytes, parent_density: float, ops=None) -> None:
            pending.append((data, parent_density, ops))
            if len(pending) >= lanes:
                start_pending()

        def flush_pending() -> None:
            if pending:
                start_pending()
            while inflight:
                finish(*inflight.pop(0))

        def exhausted() -> bool:
            if time.perf_counter() >= deadline:
                return True
            if cap is not None and (
                state.inputs_executed
                + len(pending)
                + sum(len(items) for items, _ in inflight)
            ) >= cap:
                return True
            if config.stop_on_full_coverage and full and state.total_int == full:
                return True
            return False

        if not state.seeded:
            state.seeded = True
            for seed_data in self._seed_inputs(rng):
                if exhausted():
                    break
                submit(seed_data, -1.0)
            flush_pending()
            if tel_on:
                tel.emit(
                    "seed_phase",
                    t=round(offset + time.perf_counter() - start, 6),
                    execs=state.inputs_executed,
                )
        for seed_data in extra_seeds or ():
            if exhausted():
                break
            submit(seed_data, -1.0)
        flush_pending()
        seed_done = time.perf_counter()
        tel.add_phase("seed", seed_done - start)
        if tel_on:
            tel.emit_span(
                "seed",
                seed_done - start,
                execs=state.inputs_executed - slice_start_execs,
            )
        cur_phase = "mutate_exec"

        while not exhausted():
            parent = corpus.select(rng)
            ops: Optional[List[str]] = [] if tel_on else None
            if parent is None:
                data = bytes(
                    rng.randrange(256)
                    for _ in range(self.layout.size * config.initial_tuples)
                )
                parent_density = -1.0
                if ops is not None:
                    ops.append("random_stream")
            else:
                other = corpus.select(rng, bump=False)
                rounds = 1 + rng.randrange(config.max_mutation_rounds)
                if config.field_aware:
                    data = mutate_field_wise(
                        parent.data,
                        self.layout,
                        rng,
                        other=other.data if other else None,
                        rounds=rounds,
                        max_len=config.max_len,
                        ops_out=ops,
                    )
                else:
                    data = mutate_generic(
                        parent.data,
                        rng,
                        other=other.data if other else None,
                        rounds=rounds,
                        max_len=config.max_len,
                        ops_out=ops,
                    )
                parent_density = parent.density
            submit(data, parent_density, ops)
        flush_pending()

        tel.add_phase("mutate_exec", time.perf_counter() - seed_done)
        WATCHDOG.disarm()
        state.elapsed = offset + time.perf_counter() - start
        state.rounds += 1
        if tel_on:
            flush_ops()
            flush_kspans()
            tel.emit_span(
                "mutate_exec",
                time.perf_counter() - seed_done,
                execs=state.inputs_executed - slice_start_execs,
            )
            if self.engine == "kernel":
                slice_s = max(time.perf_counter() - start, 1e-9)
                busy = [round(b, 6) for b in kprogram.block_busy_s]
                tel.emit(
                    "kernel_threads",
                    threads=kprogram.threads,
                    lanes=lanes,
                    dispatches=kprogram.dispatches,
                    block_busy_s=busy,
                    utilization=[round(b / slice_s, 4) for b in busy],
                    stall_s=round(kprogram.stall_s, 6),
                    pipelined=lanes > 1,
                )
                tel.gauge("engine.pipeline_stall_s").set(
                    round(kprogram.stall_s, 6)
                )
            g_execs.set(state.inputs_executed)
            g_corpus.set(len(corpus))
            g_covered.set(popcount(state.total_int))
            g_cov_frac.set(
                round(popcount(state.total_int) / n_probes, 6) if n_probes else 0.0
            )
            if status is not None:
                status.worker_update(
                    worker_id,
                    phase="idle",
                    epoch=state.rounds,
                    execs=state.inputs_executed,
                    covered=popcount(state.total_int),
                    corpus=len(corpus),
                )
            tel.emit(
                "slice_end",
                t=round(state.elapsed, 6),
                execs=state.inputs_executed,
                iterations=state.iterations_executed,
                corpus=len(corpus),
                covered=popcount(state.total_int),
            )
            tel.emit(
                "mutation_stats",
                applied=state.op_applied,
                wins=state.op_wins,
            )
            tel.flush()
        return state

    def finalize(self, state: FuzzState) -> FuzzResult:
        """Replay the state's suite and package the campaign result."""
        tel = self.telemetry
        with tel.phase("replay"):
            report = replay_suite(
                self.schedule, state.suite, compiled=self.replay_compiled()
            )
        if tel.enabled:
            tel.emit(
                "campaign_end",
                t=round(state.elapsed, 6),
                execs=state.inputs_executed,
                iterations=state.iterations_executed,
                covered=popcount(state.total_int),
                decision=round(report.decision, 3),
                condition=round(report.condition, 3),
                mcdc=round(report.mcdc, 3),
                cases=len(state.suite),
                phases={k: round(v, 6) for k, v in tel.phase_times.items()},
            )
            tel.flush()
        return FuzzResult(
            suite=state.suite,
            report=report,
            inputs_executed=state.inputs_executed,
            iterations_executed=state.iterations_executed,
            elapsed=state.elapsed,
            timeline=state.timeline,
            phase_times=dict(tel.phase_times),
            timeouts=state.timeouts,
            engine=self.engine,
        )

    def run(self) -> FuzzResult:
        """Execute the fuzzing loop; returns suite + replayed coverage."""
        tel = self.telemetry
        root = None
        if tel.enabled and tel.active_span is None:
            root = tel.span_begin("campaign")
        state = self.new_state()
        self.resume(state)
        result = self.finalize(state)
        tel.span_end(root)
        return result


def replay_suite(
    schedule: Schedule,
    suite: TestSuite,
    compiled: Optional[CompiledModel] = None,
    recorder: Optional[CoverageRecorder] = None,
    timeline_out: Optional[List] = None,
) -> CoverageReport:
    """Measure a suite's coverage by replaying it on instrumented code.

    This is the paper's fair-comparison method: every tool's output test
    cases are replayed against the *fully* instrumented model (the
    Simulink coverage toolbox stand-in), regardless of what guidance the
    tool itself used.

    ``timeline_out``, when given a list, receives ``(found_at,
    probes_covered)`` points as replay advances through the suite — with a
    time-sorted suite this reconstructs a coverage-versus-time curve from
    scratch, which is how a parallel campaign merges its workers'
    timelines into one global curve.
    """
    compiled = compiled or compile_model(schedule, "model")
    if compiled.level != "model":
        raise FuzzingError("replay requires a model-level compiled program")
    recorder = recorder or CoverageRecorder(schedule.branch_db)
    program, _ = compiled.instantiate(recorder)
    layout = schedule.layout
    covered = recorder.covered_probes()
    for case in suite:
        program.init()
        for fields in layout.iter_tuples(case.data):
            recorder.reset_curr()
            program.step(*fields)
            recorder.commit_curr()
        if timeline_out is not None:
            now_covered = recorder.covered_probes()
            if now_covered > covered:
                covered = now_covered
                timeline_out.append((case.found_at, covered))
    return compute_report(recorder)
