"""The fixed-work workloads and their output checks.

Every workload runs a fixed input budget on the paper's 8 models, with
wall budgets set far out of reach, so coverage, failure counts and call
counts repeat exactly for a seed and only timings carry host noise.

A pass is ``Plan.rounds`` rounds.  Each round starts with a cold set-up
(``REPRO_CACHE_DIR`` points at a fresh, empty directory and the
in-process caches are dropped), runs the round's share of the work and
then checks it off the clock.  Interleaving set-ups, measured work and
checks spreads the measured parts over the whole run, and every rate is
taken over all of them together, so a slow host phase of a few seconds
weighs by its length instead of deciding the run.  See ``NOTES.md`` for
why each workload exists and which layers it isolates.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import os
import resource
import statistics
import tempfile
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional

import repro.bench as bench
from repro.bench import model_names, registry
from repro.codegen import kernel as cg_kernel
from repro.coverage.recorder import CoverageRecorder
from repro.cpu import available_cpus
from repro.fuzzing.engine import Fuzzer, FuzzerConfig
from repro.service.daemon import ServiceDaemon
from repro.service.scheduler import build_job_config, resolved_config
from repro.simulate import ModelInstance

_clock = time.perf_counter

#: a wall budget no run reaches: input caps end every campaign
WALL_CAP_S = 3600.0

#: engine configs; "scalar" is the FuzzerConfig default
KERNEL = {"lanes": 64, "kernel": "on", "kernel_threads": 1}
ENGINES = {"scalar": {}, "kernel": KERNEL}

#: rounds of an untraced pass: each round is one cold set-up plus its
#: measured work.  kernel-campaign repeats every campaign in each round;
#: service-jobs serves complementary pairs of job rounds (see
#: :func:`job_mix`) in 4 shorter rounds, which spread its measured time
#: over the run as kernel-campaign's 3 rounds do
ROUNDS = {"kernel-campaign": 3, "service-jobs": 4}

#: kernel-campaign: campaigns per model in each round, each with its own
#: seed, and their inputs per second of ``--seconds``.  A kernel
#: campaign's layer shares depend on its length (``Corpus.select`` takes
#: 59% of 1250 inputs and 67% of 2812), and its iterations per input
#: grow with it and vary more from seed to seed (16 +- 7% at 2812 inputs,
#: 35 +- 12% at 5625), so the workload runs 2 campaigns of 2812 inputs
#: per model at ``--seconds 30``, whose 3 rounds measure about
#: ``--seconds`` on a 2-vCPU Xeon.  Fixed work: never rescaled at run time
CAMPAIGNS_PER_MODEL = 2
CAMPAIGN_INPUTS_PER_SECOND = 93.75
#: service-jobs: every round serves ``JOBS_PER_PAIR`` jobs of each
#: (model, engine) pair, in an order drawn from the seed; a job runs
#: ``JOB_INPUTS_PER_SECOND`` inputs per second of ``--seconds``, in
#: ``JOB_SLICES`` slices.  Before them the round's set-up serves one
#: ``WARMUP_INPUTS``-input job per model, so the worker has built every
#: model before the measured jobs start.  Its 4 rounds measure about
#: two thirds of ``--seconds``: the rest of the run goes to checking 128
#: served digests against reference campaigns
JOBS_PER_PAIR = 2
JOB_INPUTS_PER_SECOND = 15.0
JOB_SLICES = 3
WARMUP_INPUTS = 64
#: polling period of the closed-loop service client (one ``GET /jobs``
#: per poll; the client shares the daemon's process and interpreter lock)
POLL_S = 0.02
#: a round whose jobs have not all finished after ``ROUND_LIMIT_PER_S``
#: seconds per second of ``--seconds`` plus ``ROUND_LIMIT_BASE_S`` is cut
#: and its unfinished jobs fail.  A round's window is about a third of
#: ``--seconds`` on a 2-vCPU Xeon, so the cut only catches hangs
ROUND_LIMIT_PER_S = 3.0
ROUND_LIMIT_BASE_S = 20.0
#: jobs the service client keeps outstanding
OUTSTANDING = 2
#: processes that run the service jobs' reference campaigns, off the
#: clock after each round (never more than the available CPUs)
CHECK_PROCESSES = 2


@dataclass
class Plan:
    """One pass: the workload, its seed, its size and its mode."""

    workload: str
    seed: int
    seconds: float
    work_dir: str
    rounds: int = 1
    #: the layer tracer of a traced pass, and its aggregates taken when
    #: the measured work ends, before the checks (a traced pass runs
    #: one round, so no check lands in them)
    tracer: object = None
    layers: Optional[Dict] = None

    def window_closed(self) -> None:
        if self.tracer is not None:
            self.layers = self.tracer.merged()

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def cold_setup(self, build: Callable[[], object]):
        """``(seconds, artifacts)`` of ``build`` from empty caches."""
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="cache-", dir=self.work_dir)
        cg_kernel.clear_kernel_memory()
        registry._SCHEDULE_CACHE.clear()
        gc.collect()  # every round starts from the same heap
        t0 = _clock()
        with self.span("setup"):
            artifacts = build()
        return _clock() - t0, artifacts


@dataclass
class Outcome:
    """What one pass produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: checks that failed for a reason no known defect explains
    unexplained: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: per-operation digests, compared between the traced and plain pass
    digests: List[str] = field(default_factory=list)
    api_s: float = 0.0
    api_n: int = 0


# ---------------------------------------------------------------------- #
# shared helpers
# ---------------------------------------------------------------------- #
def campaign_seeds(seed: int) -> Dict[tuple, int]:
    """``(model, k) -> campaign seed`` for every campaign of a run."""
    rng = Random(seed)
    return {(m, k): rng.randrange(1 << 30)
            for m in model_names() for k in range(CAMPAIGNS_PER_MODEL)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values: List[float]):
    """``(value, percentile)``: the highest percentile with at least 10
    samples beyond it, once that percentile is above the median (21 or
    more samples); with fewer samples, the slowest one."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def tail_note(values, what: str) -> str:
    _value, pct = tail(values)
    return "job_tail_s is p%.0f of %d %s" % (pct, len(values), what)


def coverage_auc(curve, inputs: int, n_probes: int) -> float:
    """Mean probe coverage (%) over a campaign's input budget.

    ``curve`` holds ``(inputs executed, covered)`` at each coverage gain;
    the result is the area under it up to ``inputs`` ÷ (``inputs`` ×
    ``n_probes``).  A campaign that stops early at full coverage keeps it
    for the rest of the budget.
    """
    area, before = 0.0, 0
    for x, covered in curve:
        area += (covered - before) * max(inputs - x, 0)
        before = covered
    return 100.0 * area / (inputs * n_probes) if inputs and n_probes else 0.0


def final_cov_time(timeline) -> float:
    """Campaign-clock seconds until the final covered count was reached."""
    if not timeline:
        return 0.0
    final = timeline[-1][1]
    return next(t for t, covered in timeline if covered == final)


def last_cov_note(seconds: float) -> str:
    return ("time_to_cov_s (sum of last-coverage-gain times; too seed-"
            "dependent for a bound) = %.6f" % seconds)


def interpreter_bitmap(schedule, suite) -> int:
    """Probe bitmap of ``suite`` replayed on the independent interpreter."""
    recorder = CoverageRecorder(schedule.branch_db)
    instance = ModelInstance(schedule, recorder=recorder, monitor=None)
    layout = schedule.layout
    for case in suite:
        instance.init()
        for fields in layout.iter_tuples(case.data):
            recorder.reset_curr()
            instance.step(*fields)
            recorder.commit_curr()
    return recorder.total_as_int()


def check_suite(schedule, suite, claimed: int, first_digest: str,
                replayed: Optional[Dict] = None) -> Optional[str]:
    """The output check of one campaign suite; ``None`` when it passes.

    The suite must repeat the first repeat's digest, and replaying it on
    the interpreter must reach exactly the probe bitmap the engine
    claimed (``FuzzState.total_int``).  ``replayed`` memoizes interpreter
    bitmaps across the identical suites of one run.
    """
    digest = suite.digest()
    if digest != first_digest:
        return "suite differs from the first repeat"
    memo = replayed if replayed is not None else {}
    key = (schedule.model.name, digest)
    if key not in memo:
        memo[key] = interpreter_bitmap(schedule, suite)
    if memo[key] != claimed:
        return "interpreter replay does not reach the claimed probe bitmap"
    return None


def _error(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = " at %s:%d" % (last[0].filename, last[0].lineno) if last else ""
    return "%s: %s%s" % (type(exc).__name__, exc, where)


# ---------------------------------------------------------------------- #
# kernel-campaign
# ---------------------------------------------------------------------- #
def run_campaigns(plan: Plan) -> Outcome:
    """Single-process kernel ``Fuzzer`` campaigns, 2 per model.

    Each round: a cold set-up, then every campaign once.  The rounds
    repeat the same campaigns, so their suites must agree.
    """
    seeds = campaign_seeds(plan.seed)
    budget = max(1, round(CAMPAIGN_INPUTS_PER_SECOND * plan.seconds))
    configs = {key: FuzzerConfig(max_seconds=WALL_CAP_S, max_inputs=budget,
                                 seed=seed, **KERNEL)
               for key, seed in seeds.items()}

    def build():
        schedules = {m: bench.build_schedule(m) for m in model_names()}
        return {key: Fuzzer(schedules[key[0]], config)
                for key, config in configs.items()}

    out = Outcome(metrics={}, attempted=0, failed=0)
    failed = set()  # (campaign, round) of every failed operation
    # per round: inputs, iterations, wall, last-gain time
    setups, rounds = [], []
    walls: Dict[str, List[float]] = {m: [] for m in model_names()}
    first: Dict[tuple, tuple] = {}  # campaign -> (digest, report, coverage AUC)
    replayed: Dict[tuple, int] = {}  # interpreter bitmaps by suite
    for rnd in range(plan.rounds):
        setup_s, fuzzers = plan.cold_setup(build)
        setups.append(setup_s)
        totals = [0, 0, 0.0, 0.0]
        claims = []  # (campaign, name, suite, claimed bitmap, schedule)
        for key, fuzzer in fuzzers.items():
            out.attempted += 1
            name = "%s/%d #%d" % (key[0], key[1], rnd)
            try:
                if fuzzer.engine != "kernel":
                    raise RuntimeError("ran on %s, kernel requested"
                                       % fuzzer.engine)
                t0 = _clock()
                with plan.span("campaign", model=key[0], seed=seeds[key],
                               round=rnd):
                    state = fuzzer.new_state()
                    state.timeline = _CountingTimeline(state)
                    fuzzer.resume(state)
                    result = fuzzer.finalize(state)
                wall = _clock() - t0
            except Exception as exc:  # noqa: BLE001 - one failed operation
                failed.add((key, rnd))
                out.unexplained.append("%s: %s" % (name, _error(exc)))
                continue
            digest = result.suite.digest()
            out.digests.append(digest)
            totals[0] += result.inputs_executed
            totals[1] += result.iterations_executed
            totals[2] += wall
            totals[3] += final_cov_time(state.timeline)
            walls[key[0]].append(wall)
            first.setdefault(key, (digest, result.report, coverage_auc(
                state.timeline.by_execs, budget,
                fuzzer.schedule.branch_db.n_probes)))
            claims.append((key, name, result.suite, state.total_int,
                           fuzzer.schedule))
        rounds.append(totals)
        plan.window_closed()
        # off the clock: every suite against the first repeat, the
        # report's probe count and, once per distinct suite, the
        # interpreter
        for key, name, suite, claimed, schedule in claims:
            digest, report, _auc = first[key]
            problem = check_suite(schedule, suite, claimed, digest, replayed)
            if problem is None and bin(claimed).count("1") != report.probe_covered:
                problem = "claimed probe count differs from the campaign report"
            if problem:
                failed.add((key, rnd))
                out.unexplained.append("%s: %s" % (name, problem))
    out.failed = len(failed)
    reports = [report for _digest, report, _auc in first.values()]
    # rates over all rounds together: the host's speed drifts in phases
    # of seconds to minutes, and a sum weighs each phase by its length
    # where a median over rounds would take one round's phase whole
    inputs, iterations, wall = (sum(r[i] for r in rounds) for i in range(3))
    out.metrics = {
        "execs_per_s": inputs / wall if wall else 0.0,
        "iters_per_s": iterations / wall if wall else 0.0,
        "cov_auc_pct": statistics.mean(auc for _d, _r, auc in first.values()),
        "setup_s": statistics.median(setups),
        "dc_pct": statistics.mean(r.decision for r in reports),
        "cc_pct": statistics.mean(r.condition for r in reports),
        "mcdc_pct": statistics.mean(r.mcdc for r in reports),
        # 16 campaigns of 0.3-1 s, too few and too short to rank alone on
        # a host whose speed wanders: so the mean campaign wall, and the
        # slowest model's mean over its 6 campaigns
        "job_p50_s": statistics.mean(w for ws in walls.values() for w in ws),
        "job_tail_s": max(statistics.mean(ws) for ws in walls.values() if ws),
    }
    out.notes.append(last_cov_note(statistics.median(r[3] for r in rounds)))
    out.notes.append("execs_per_s by round: %s" % ", ".join(
        "%.1f" % (r[0] / r[2]) for r in rounds if r[2]))
    return out


class _CountingTimeline(list):
    """A ``FuzzState.timeline`` that also keeps ``(inputs executed,
    covered)`` at each coverage gain.  It costs one append per gain."""

    def __init__(self, state):
        super().__init__()
        self.state = state
        self.by_execs: List[tuple] = []

    def append(self, point) -> None:
        super().append(point)
        self.by_execs.append((self.state.inputs_executed, point[1]))


# ---------------------------------------------------------------------- #
# service-jobs
# ---------------------------------------------------------------------- #
@dataclass
class Job:
    model: str
    engine: str
    overrides: Dict
    id: Optional[str] = None
    submitted: float = 0.0
    turnaround: float = 0.0
    #: wall seconds of the round the job was served in
    window: float = 0.0
    state: str = ""
    result: Optional[Dict] = None
    error: Optional[str] = None


def job_mix(seed: int, rounds: int, inputs: int) -> List[tuple]:
    """``rounds`` rounds of ``(warm-ups, jobs)``.

    A round's warm-ups are one job per model, served during its set-up;
    its jobs are ``JOBS_PER_PAIR`` of every (model, engine) pair, in an
    order drawn from ``seed`` like their campaign seeds.  Under the known
    defect (see :func:`defect_fixers`) a model's warm-up fixes the engine
    of all its jobs in a daemon.  The seed draws which half of the models
    warm up on the kernel in an even round, and the next round flips that
    half, so each pair of rounds runs every model on both engines for
    every seed and the service's speed does not depend on which half was
    drawn.
    """
    rng = Random(seed)
    models = model_names()
    mix = []
    for rnd in range(rounds):
        if rnd % 2 == 0:
            warm_kernel = set(rng.sample(models, len(models) // 2))
        else:
            warm_kernel = set(models) - warm_kernel
        warmups = [_job(model, "kernel" if model in warm_kernel else "scalar",
                        rng, WARMUP_INPUTS) for model in models]
        pairs = [(model, engine) for model in models for engine in ENGINES
                 for _ in range(JOBS_PER_PAIR)]
        rng.shuffle(pairs)
        mix.append((warmups, [_job(model, engine, rng, inputs)
                              for model, engine in pairs]))
    return mix


def _job(model: str, engine: str, rng: Random, inputs: int) -> Job:
    return Job(model, engine, dict(ENGINES[engine], seed=rng.randrange(1 << 30),
                                   max_inputs=inputs, max_seconds=WALL_CAP_S))


def job_config(job: Job) -> FuzzerConfig:
    """The config a 1-slot daemon ships to its worker for ``job``."""
    return resolved_config(build_job_config(job.overrides), 1)


def engine_key(config: FuzzerConfig) -> tuple:
    """The config fields a worker's cached ``Fuzzer`` fixes at build time."""
    return (config.lanes, config.kernel, config.kernel_threads, config.level)


def defect_fixers(jobs: List[Job]) -> List[Optional[Job]]:
    """Per job, the job whose engine it runs on under the known defect,
    or ``None`` when it runs on its own.

    ``_run_job_payload`` caches one ``Fuzzer`` per model, built from the
    config of the first job on that model.  A 1-slot pool dispatches first
    slices in submission order, so within one daemon the first job on a
    model fixes the engine of every later job on it.
    """
    first: Dict[str, Job] = {}
    fixers = []
    for job in jobs:
        fixer = first.setdefault(job.model, job)
        fixers.append(fixer if engine_key(job_config(fixer))
                      != engine_key(job_config(job)) else None)
    return fixers


def reference_digest(job: Job, built_for: Optional[Job] = None) -> str:
    """The job's suite digest from an in-process run with the same slicing.

    With ``built_for``, the run reproduces the known defect the way a
    worker does: the ``Fuzzer`` is built from that job's config, then
    runs this job's slices under this job's config.
    """
    config = job_config(job)
    fuzzer = Fuzzer(bench.build_schedule(job.model),
                    job_config(built_for or job))
    fuzzer.config = config
    state = fuzzer.new_state()
    n_probes = fuzzer.schedule.branch_db.n_probes
    step = _slice_inputs(config.max_inputs)
    while True:
        full = bool(n_probes) and bin(state.total_int).count("1") == n_probes
        if (state.inputs_executed >= config.max_inputs
                or state.elapsed >= config.max_seconds
                or (state.rounds and config.stop_on_full_coverage and full)):
            break
        fuzzer.resume(
            state,
            max_seconds=max(config.max_seconds - state.elapsed, 0.01),
            max_inputs=min(state.inputs_executed + step, config.max_inputs),
        )
    return fuzzer.finalize(state).suite.digest()


def check_job(job: Job, fixer: Optional[Job]) -> Optional[tuple]:
    """The output check of one served job: ``None`` when it passes, else
    ``(problem, explained)``.

    A job passes when its served digest equals the in-process reference.
    A failure is explained only when ``fixer`` is set and the served
    digest equals the reference that reproduces the defect; a job that
    crashed, was cut or returned any other digest is not.
    """
    if job.result is None or job.error is not None:
        return job.error or "job ended %s" % (job.state,), False
    digest = job.result["digest"]
    if digest == reference_digest(job):
        return None
    explained = fixer is not None and digest == reference_digest(job, fixer)
    return "served digest differs from the in-process reference", explained


def _check_jobs(jobs: List[Job], fixers: List[Optional[Job]]) -> List:
    """:func:`check_job` of every job, in up to ``CHECK_PROCESSES``
    forked processes; nothing is measured while they run."""
    procs = min(CHECK_PROCESSES, available_cpus(), len(jobs))
    if procs <= 1:
        return [check_job(job, fixer) for job, fixer in zip(jobs, fixers)]
    with multiprocessing.get_context("fork").Pool(procs) as pool:
        problems = pool.starmap(check_job, zip(jobs, fixers), chunksize=1)
    pool.join()  # the pool was terminated on leaving the block
    return problems


class _Client:
    """Closed-loop HTTP client; times every round trip it makes."""

    def __init__(self, url: str):
        self.url = url
        self.api_s = 0.0
        self.api_n = 0
        # the daemon is local: never route through a configured proxy
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({}))

    def call(self, method: str, path: str, body=None) -> bytes:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.url + path, data=data, method=method)
        if data is not None:
            req.add_header("Content-Type", "application/json")
        t0 = _clock()
        with self._opener.open(req, timeout=60) as resp:
            payload = resp.read()
        self.api_s += _clock() - t0
        self.api_n += 1
        return payload

    def json(self, method: str, path: str, body=None):
        return json.loads(self.call(method, path, body))


def run_service(plan: Plan) -> Outcome:
    """A 1-slot ``repro serve`` daemon driven by a closed-loop client.

    Each round's set-up starts a cold daemon, which forks its worker
    before anything is compiled, and serves the round's warm-up jobs, so
    the worker builds every model's ``Fuzzer`` as under ``repro serve``.
    Then the round's jobs are served and timed.  An untraced pass serves
    complementary pairs of rounds (see :func:`job_mix`).
    """
    inputs = max(JOB_SLICES, round(JOB_INPUTS_PER_SECOND * plan.seconds))
    mix = job_mix(plan.seed, plan.rounds, inputs)
    limit_s = ROUND_LIMIT_PER_S * plan.seconds + ROUND_LIMIT_BASE_S

    def build(warmups: List[Job]):
        store = os.path.join(os.environ["REPRO_CACHE_DIR"], "store")
        daemon = ServiceDaemon(store, pool_size=1, start_method="fork").start()
        try:
            client = _Client(daemon.api.url)
            client.json("GET", "/status")  # serving
            _drive(client, warmups, limit_s)
        except BaseException:
            daemon.stop()
            raise
        client.api_s, client.api_n = 0.0, 0
        return daemon, client

    out = Outcome(metrics={}, attempted=0, failed=0)
    setups: List[float] = []
    rounds: List[List[Job]] = []
    ok: List[Job] = []
    exposed = 0
    for warmups, chunk in mix:
        setup_s, (daemon, client) = plan.cold_setup(lambda: build(warmups))
        setups.append(setup_s)
        for job in warmups:
            if job.state != "done":
                out.unexplained.append("warm-up job %s (%s, %s) ended %s"
                                       % (job.id, job.model, job.engine,
                                          job.state))
        try:
            window = _drive(client, chunk, limit_s)
            plan.window_closed()
            out.api_s += client.api_s
            out.api_n += client.api_n
            for job in chunk:  # off the clock from here
                job.window = window
                if job.state != "done":
                    continue
                try:
                    job.result = client.json("GET", "/jobs/%s/results" % job.id)
                    trace = client.call("GET", "/jobs/%s/trace" % job.id)
                    job.result["timeline"] = _trace_timeline(trace)
                except Exception as exc:  # noqa: BLE001
                    job.error = _error(exc)
        finally:
            daemon.stop()
            # a stopped daemon leaves cyclic garbage; uncollected, it
            # piles up over the rounds and peak_rss_mb measures how much
            gc.collect()
        rounds.append(chunk)
        # every served digest against an in-process reference (one
        # worker per daemon, so the defect's effect is predictable)
        fixers = defect_fixers(warmups + chunk)[len(warmups):]
        for job, fixer, problem in zip(chunk, fixers,
                                       _check_jobs(chunk, fixers)):
            exposed += fixer is not None
            if job.result is not None:
                out.digests.append(job.result["digest"])
            if problem is None:
                ok.append(job)
                continue
            out.failed += 1
            why, explained = problem
            if not explained:
                out.unexplained.append("job %s (%s, %s): %s"
                                       % (job.id, job.model, job.engine, why))
    jobs = [job for chunk in rounds for job in chunk]
    out.attempted = len(jobs)
    out.notes.append(
        "%d of %d jobs ran on a model whose warm-up had fixed the worker's "
        "engine to another one (_run_job_payload caches one Fuzzer per "
        "model); %d jobs failed their checks"
        % (exposed, len(jobs), out.failed)
    )
    # rates count the inputs of jobs that passed every check, over the
    # rounds' windows together
    window = sum(chunk[0].window for chunk in rounds)
    # a job that never reached done ranks at its round's full window,
    # slower than any real turnaround; done jobs keep their measured
    # turnaround even when a check failed (ok_pct counts those)
    turnarounds = [job.turnaround if job.state == "done" else job.window
                   for job in jobs]
    tail_s, _pct = tail(turnarounds)
    reports = [j.result["report"] for j in ok] or [
        {"decision": 0.0, "condition": 0.0, "mcdc": 0.0}]
    out.metrics = {
        "execs_per_s": sum(j.result["execs"] for j in ok) / window,
        "iters_per_s": sum(j.result["iterations"] for j in ok) / window,
        "cov_auc_pct": statistics.mean(
            coverage_auc([(e, c) for _t, e, c in j.result["timeline"]],
                         inputs, j.result["n_probes"])
            for j in ok) if ok else 0.0,
        "setup_s": statistics.median(setups),
        "dc_pct": statistics.mean(r["decision"] for r in reports),
        "cc_pct": statistics.mean(r["condition"] for r in reports),
        "mcdc_pct": statistics.mean(r["mcdc"] for r in reports),
        "job_p50_s": statistics.median(turnarounds),
        "job_tail_s": tail_s,
    }
    out.notes.append(tail_note(turnarounds, "jobs"))
    out.notes.append("round windows (s): %s" % ", ".join(
        "%.3f" % chunk[0].window for chunk in rounds))
    out.notes.append(last_cov_note(sum(
        final_cov_time([(t, c) for t, _e, c in j.result["timeline"]])
        for j in ok)))
    return out


def _drive(client: _Client, jobs: List[Job], limit_s: float) -> float:
    """Keep ``OUTSTANDING`` jobs in flight until every job has finished,
    or cut the round after ``limit_s``; returns the wall seconds from the
    first submit to the last result."""
    pending = list(jobs)
    live: List[Job] = []
    t0 = _clock()
    while pending or live:
        if _clock() - t0 > limit_s:
            for job in live + pending:
                job.state = "unfinished after %.0f s" % limit_s
            break
        while pending and len(live) < OUTSTANDING:
            job = pending.pop(0)
            job.submitted = _clock()
            spec = {"model": job.model, "config": job.overrides,
                    "slice_inputs": _slice_inputs(job.overrides["max_inputs"])}
            job.id = client.json("POST", "/jobs", spec)["id"]
            live.append(job)
        time.sleep(POLL_S)
        states = {j["id"]: j["state"] for j in client.json("GET", "/jobs")["jobs"]}
        for job in list(live):
            if states[job.id] in ("done", "failed", "cancelled"):
                job.turnaround = _clock() - job.submitted
                job.state = states[job.id]
                live.remove(job)
    return _clock() - t0


def _slice_inputs(inputs: int) -> int:
    return inputs // JOB_SLICES


def _trace_timeline(trace: bytes) -> List[tuple]:
    """``(campaign-clock t, inputs executed, covered)`` of a job trace's
    coverage gains."""
    timeline = []
    for line in trace.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("ev") == "cov":
            timeline.append((float(event["t"]), int(event["execs"]),
                             int(event["covered"])))
    return timeline


# ---------------------------------------------------------------------- #
WORKLOADS: Dict[str, Callable[[Plan], Outcome]] = {
    "kernel-campaign": run_campaigns,
    "service-jobs": run_service,
}
