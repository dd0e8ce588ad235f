"""Outside-in layer tracing for the campaign benchmark.

:func:`install` wraps each layer's public entry points with timers and
returns a :class:`Tracer`.  Nothing inside ``src/`` changes: the wrappers
replace module and class attributes for the duration of the traced pass
and :meth:`Tracer.uninstall` puts the originals back.

Time is kept as *self time*: a wrapped call's duration minus the part
its wrapped children covered, on the same thread.  The root span of each
campaign (or worker payload) therefore keeps exactly the time no layer
wrapper claimed, which is what ``engine.other_s`` reports.

Pool workers are forked, so they inherit the wrappers.  Each worker
resets its copy of the tracer when it starts, keeps its aggregates in
memory and writes them to ``<dump_dir>/worker-<token>.json`` after every
payload (the pool stops workers with SIGTERM, so there is no reliable
exit hook).  :meth:`Tracer.merged` folds those files into the parent's
numbers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Per-process span aggregates plus the wrapper bookkeeping."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.reset()

    # ------------------------------------------------------------ state
    def reset(self) -> None:
        #: one ``{span: [self_s, calls]}`` dict per thread, merged on read
        self._thread_aggs: List[Dict[str, list]] = []
        self._local = threading.local()
        #: named counters (admitted corpus entries, packed lanes, ...)
        self.counts: Dict[str, float] = {}
        #: coarse spans: ``[name, start, end, parent name, attrs]``
        self.spans: List[list] = []
        #: service bookkeeping: job -> enqueue time / (dispatch time,
        #: campaign clock at dispatch)
        self.enqueued: Dict[str, float] = {}
        self.dispatched: Dict[str, tuple] = {}
        #: names this process's dump file (pids can be reused)
        self.token = "%d-%d" % (os.getpid(), time.monotonic_ns())

    def _frames(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.agg = {}
            with self._lock:
                self._thread_aggs.append(local.agg)
        return stack, local.agg

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------ spans
    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` wrapped as a self-timed span named ``name``.

        ``after(result, args)`` runs outside the timed region, for
        counters that need the call's arguments or result.
        """
        frames = self._frames

        def wrapper(*args, **kwargs):
            stack, agg = frames()
            frame = [0.0, name]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                slot = agg.get(name)
                if slot is None:
                    slot = agg[name] = [0.0, 0]
                slot[0] += dur - frame[0]
                slot[1] += 1
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, **attrs):
        """A coarse span for the benchmark's own phases (context manager)."""
        return _Span(self, name, attrs)

    # ---------------------------------------------------------- patching
    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owners, attr: str, name: str, after=None) -> None:
        """Wrap ``attr`` on every owner that holds the same function."""
        original = getattr(owners[0], attr)
        wrapped = self.timed(name, original, after)
        for owner in owners:
            if getattr(owner, attr) is original:
                self.patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ----------------------------------------------------- aggregation
    def snapshot(self) -> Dict:
        """This process's aggregates as plain JSON-able data."""
        with self._lock:
            self_s: Dict[str, float] = {}
            calls: Dict[str, int] = {}
            for agg in self._thread_aggs:
                for name, (secs, n) in list(agg.items()):
                    self_s[name] = self_s.get(name, 0.0) + secs
                    calls[name] = calls.get(name, 0) + n
            counts = dict(self.counts)
        return {"self_s": self_s, "calls": calls, "counts": counts,
                "spans": list(self.spans)}

    def dump(self) -> None:
        """Write this (worker) process's aggregates for the parent."""
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(self.dump_dir, "worker-%s.json" % self.token)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    def merged(self) -> Dict:
        """This process's aggregates plus every worker dump."""
        total = self.snapshot()
        total["parent_self_s"] = dict(total["self_s"])
        total["workers"] = 0
        if os.path.isdir(self.dump_dir):
            for fname in sorted(os.listdir(self.dump_dir)):
                if not fname.endswith(".json"):
                    continue
                with open(os.path.join(self.dump_dir, fname)) as fh:
                    part = json.load(fh)
                total["workers"] += 1
                for key in ("self_s", "calls", "counts"):
                    for name, value in part[key].items():
                        total[key][name] = total[key].get(name, 0) + value
                total["spans"].extend(part["spans"])
        return total


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: Dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        stack, _ = self.tracer._frames()
        self.parent = stack[-1][1] if stack else None
        self.frame = [0.0, self.name]
        stack.append(self.frame)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        stack, agg = self.tracer._frames()
        stack.pop()
        dur = end - self.start
        if stack:
            stack[-1][0] += dur
        slot = agg.setdefault(self.name, [0.0, 0])
        slot[0] += dur - self.frame[0]
        slot[1] += 1
        self.tracer.spans.append(
            [self.name, self.start, end, self.parent, self.attrs]
        )
        return False


# ---------------------------------------------------------------------- #
# the layer map: which public call is timed under which span name
# ---------------------------------------------------------------------- #
def install(dump_dir: str) -> Tracer:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.bench as bench_pkg
    from repro.bench import registry
    from repro.codegen import compile as cg_compile
    from repro.codegen import kernel as cg_kernel
    from repro.fuzzing import engine
    from repro.fuzzing.corpus import Corpus
    from repro.service import daemon as svc_daemon
    from repro.service import scheduler as svc_scheduler
    from repro.service.store import JobStore

    tracer = Tracer(dump_dir)

    # set-up layers
    tracer.wrap([bench_pkg, registry, svc_scheduler], "build_schedule",
                "schedule.build")
    tracer.wrap([cg_compile], "generate_model_code", "codegen.generate")
    tracer.wrap([cg_compile], "optimize_module", "codegen.optimize")
    tracer.wrap([cg_compile, engine], "compile_model", "codegen.compile")
    tracer.wrap([cg_kernel], "lower_kernel_source", "kernel.lower")
    tracer.wrap([cg_kernel], "build_shared_object", "kernel.cc")
    tracer.wrap([cg_kernel], "compile_kernel", "kernel.load")

    # fuzzing-loop layers
    def admitted(displaced, args):
        if displaced is not args[1]:
            tracer.count("corpus.admitted")

    tracer.wrap([Corpus], "select", "corpus.select")
    tracer.wrap([Corpus], "add", "corpus.add", after=admitted)
    tracer.wrap([engine], "mutate_field_wise", "mutations.mutate")
    tracer.wrap([engine], "replay_suite", "coverage.replay")

    compile_fuzz_driver = engine.compile_fuzz_driver

    def traced_scalar_driver(schedule):
        return tracer.timed("driver.exec", compile_fuzz_driver(schedule))

    tracer.patch(engine, "compile_fuzz_driver", traced_scalar_driver)

    compile_kernel_fuzz_driver = cg_kernel.compile_kernel_fuzz_driver

    def traced_kernel_driver(schedule):
        driver = compile_kernel_fuzz_driver(schedule)

        def packed(handle, args):
            if handle is not None:
                tracer.count("kernel.batches")
                tracer.count("kernel.lanes_used", handle[2])
                tracer.count("kernel.lanes_offered", args[0]._lanes)

        def traced(program, cov, batch, total_int):
            return driver(program, cov, batch, total_int)

        traced.start = tracer.timed("kernel.pack", driver.start, after=packed)
        traced.finish = tracer.timed("kernel.fold", driver.finish)
        return traced

    tracer.patch(cg_kernel, "compile_kernel_fuzz_driver", traced_kernel_driver)

    run_async = cg_kernel.KernelProgram.run_async

    def traced_run_async(self, *args):
        wait = run_async(self, *args)
        return tracer.timed("kernel.wait", wait)

    tracer.patch(cg_kernel.KernelProgram, "run_async",
                 tracer.timed("kernel.dispatch", traced_run_async))

    # the per-block reset + arm + kern_run that block_busy_s accumulates,
    # timed on the block's own pool thread
    tracer.wrap([cg_kernel.KernelProgram], "_run_block", "kernel.busy")

    # the service worker process: reset the inherited copy, dump after
    # each payload
    def worker_entry(original):
        def entry(*args):
            tracer.reset()
            return original(*args)

        return entry

    def dumping(original, name):
        timed = tracer.timed(name, original)

        def run(*args):
            try:
                return timed(*args)
            finally:
                tracer.dump()

        return run

    tracer.patch(svc_daemon, "_service_worker_main",
                 worker_entry(svc_daemon._service_worker_main))
    tracer.patch(svc_scheduler, "_run_job_payload",
                 dumping(svc_scheduler._run_job_payload, "worker.payload"))

    # service daemon layers (daemon threads in this process)
    _install_service(tracer, svc_daemon, JobStore)
    return tracer


def _install_service(tracer: Tracer, svc_daemon, JobStore) -> None:
    daemon_cls = svc_daemon.ServiceDaemon
    submit = daemon_cls.submit
    next_payload = daemon_cls.next_payload
    advance_job = daemon_cls.advance_job
    complete_job = daemon_cls.complete_job
    job_respawn = daemon_cls.job_respawn

    def traced_submit(self, spec):
        job_id = submit(self, spec)
        tracer.enqueued[job_id] = _clock()
        return job_id

    def traced_next_payload(self, job_id, slot):
        now = _clock()
        queued_at = tracer.enqueued.pop(job_id, None)
        if queued_at is not None:
            tracer.count("service.queue_wait_s", now - queued_at)
        payload = next_payload(self, job_id, slot)
        if payload is not None:
            state = payload["state"]
            tracer.dispatched[job_id] = (
                _clock(), state.elapsed if state else 0.0
            )
        return payload

    def traced_advance(self, job_id, body):
        sent = tracer.dispatched.pop(job_id, None)
        if sent is not None:
            tracer.count("service.slice_n")
            tracer.count("service.slice_rtt_s", _clock() - sent[0])
            tracer.count("service.slice_engine_s", body["elapsed"] - sent[1])
        advance_job(self, job_id, body)
        tracer.enqueued[job_id] = _clock()

    def traced_complete(self, job_id, body):
        tracer.dispatched.pop(job_id, None)
        complete_job(self, job_id, body)

    def traced_respawn(self, *args):
        tracer.count("service.respawns")
        return job_respawn(self, *args)

    tracer.patch(daemon_cls, "submit", traced_submit)
    tracer.patch(daemon_cls, "next_payload", traced_next_payload)
    tracer.patch(daemon_cls, "advance_job", traced_advance)
    tracer.patch(daemon_cls, "complete_job", traced_complete)
    tracer.patch(daemon_cls, "job_respawn", traced_respawn)
    tracer.wrap([svc_daemon], "absorb_part", "service.absorb")

    def state_bytes(_result, args):
        store, job_id = args[0], args[1]
        tracer.count("store.state_bytes",
                     os.path.getsize(store.state_path(job_id)))

    tracer.wrap([JobStore], "save_state", "store.save_state", after=state_bytes)
    tracer.wrap([JobStore], "save_job", "store.save_job")


# ---------------------------------------------------------------------- #
# aggregates -> per-layer metrics
# ---------------------------------------------------------------------- #
def accounting(agg: Dict) -> Optional[tuple]:
    """``(layer seconds, root seconds)`` of this process's set-up and
    campaign spans: every second inside them lands in exactly one span's
    self time, so the two agree up to rounding.  ``None`` when daemon
    threads also run wrapped layers (service-jobs) or nothing ran."""
    roots = sum(end - start for name, start, end, parent, _a in agg["spans"]
                if name in ("setup", "campaign") and parent is None)
    own = agg["parent_self_s"]
    if not roots or any(n.startswith(("service.", "store.")) for n in own):
        return None
    return sum(v for n, v in own.items() if n != "kernel.busy"), roots


def layer_metrics(agg: Dict, api_s: float, api_n: int) -> Dict[str, float]:
    """Every per-layer metric, 0 where the layer did no work."""
    s = agg["self_s"]
    n = agg["calls"]
    c = agg["counts"]
    offered = n.get("corpus.add", 0)
    lanes_offered = c.get("kernel.lanes_offered", 0)
    rtt = c.get("service.slice_rtt_s", 0.0)
    engine_s = c.get("service.slice_engine_s", 0.0)
    return {
        "schedule.build_s": s.get("schedule.build", 0.0),
        "codegen.generate_s": s.get("codegen.generate", 0.0),
        "codegen.optimize_s": s.get("codegen.optimize", 0.0),
        "codegen.compile_s": s.get("codegen.compile", 0.0),
        "kernel.lower_s": s.get("kernel.lower", 0.0),
        "kernel.cc_s": s.get("kernel.cc", 0.0),
        "kernel.load_s": s.get("kernel.load", 0.0),
        "corpus.select_s": s.get("corpus.select", 0.0),
        "corpus.select_n": n.get("corpus.select", 0),
        "corpus.add_s": s.get("corpus.add", 0.0),
        "corpus.add_n": offered,
        "corpus.admit_ratio": (
            c.get("corpus.admitted", 0) / offered if offered else 0.0
        ),
        "mutations.mutate_s": s.get("mutations.mutate", 0.0),
        "mutations.mutate_n": n.get("mutations.mutate", 0),
        "driver.exec_s": s.get("driver.exec", 0.0),
        "driver.exec_n": n.get("driver.exec", 0),
        "kernel.pack_s": s.get("kernel.pack", 0.0),
        "kernel.dispatch_s": s.get("kernel.dispatch", 0.0),
        "kernel.wait_s": s.get("kernel.wait", 0.0),
        "kernel.busy_s": s.get("kernel.busy", 0.0),
        "kernel.fold_s": s.get("kernel.fold", 0.0),
        "kernel.batches": c.get("kernel.batches", 0),
        "kernel.lane_fill": (
            c.get("kernel.lanes_used", 0) / lanes_offered
            if lanes_offered else 0.0
        ),
        # the campaign roots keep whatever no layer wrapper claimed
        "engine.other_s": s.get("campaign", 0.0) + s.get("worker.payload", 0.0),
        "coverage.replay_s": s.get("coverage.replay", 0.0),
        "service.queue_wait_s": c.get("service.queue_wait_s", 0.0),
        "service.slice_n": c.get("service.slice_n", 0),
        "service.slice_rtt_s": rtt,
        "service.slice_engine_s": engine_s,
        "service.orchestration_s": rtt - engine_s,
        "service.absorb_s": s.get("service.absorb", 0.0),
        "service.respawns": c.get("service.respawns", 0),
        "store.save_state_s": s.get("store.save_state", 0.0),
        "store.state_bytes": c.get("store.state_bytes", 0),
        "store.save_job_s": s.get("store.save_job", 0.0),
        "api.request_s": api_s,
        "api.request_n": api_n,
    }
