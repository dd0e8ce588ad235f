"""The robustness subsystem: fault plans, watchdog, crash artifacts,
worker supervision, cache quarantine and telemetry degradation.

Every scenario here injects failures *deterministically* through
``repro.faults`` — the point under test is always the same shape: the
campaign survives the fault, records it as telemetry/artifacts instead
of dying, and (for worker faults) still produces output byte-identical
to the fault-free run.
"""

import json
import os

import pytest

from repro import ModelBuilder, compile_model, convert
from repro.errors import CampaignDegradedError, FaultPlanError, WatchdogTimeout
from repro.faults.crashes import CrashStore, stack_hash
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    fault_scope,
    parse_faults,
    should_fire,
)
from repro.faults.watchdog import WATCHDOG, Watchdog
from repro.fuzzing import Fuzzer, FuzzerConfig
from repro.fuzzing.parallel import ParallelFuzzer
from repro.telemetry import Telemetry, read_trace

from conftest import demo_model, no_inport_model, skip_if_no_cc

import repro.faults.plan as plan_mod


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No fault plan or armed watchdog may leak between tests."""
    plan_mod.clear()
    WATCHDOG.configure(None)
    yield
    plan_mod.clear()
    WATCHDOG.configure(None)


def hang_model():
    """A model whose MATLAB-function block loops forever when u > 100."""
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
    return b.build()


# -------------------------------------------------------------------- #
# fault plan parsing + matching
# -------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_bare_kinds(self):
        plan = parse_faults("cache_corrupt,trace_io_error")
        assert [s.kind for s in plan.specs] == ["cache_corrupt", "trace_io_error"]
        assert all(s.times == 1 for s in plan.specs)

    def test_parse_site_params_and_times(self):
        plan = parse_faults("worker_death:worker=1:epoch=2:times=3")
        (spec,) = plan.specs
        assert spec.params == {"worker": 1, "epoch": 2}
        assert spec.times == 3

    def test_parse_float_param(self):
        plan = parse_faults("slow_exec:seconds=0.25")
        assert plan.specs[0].param("seconds", 3600.0) == 0.25

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(FaultPlanError):
            parse_faults("worker_detah")

    def test_malformed_param_fails_loudly(self):
        with pytest.raises(FaultPlanError):
            parse_faults("worker_death:worker")
        with pytest.raises(FaultPlanError):
            parse_faults("worker_death:worker=one")

    def test_should_fire_consumes_budget(self):
        with fault_scope(parse_faults("cache_corrupt:times=2")):
            assert should_fire("cache_corrupt") is not None
            assert should_fire("cache_corrupt") is not None
            assert should_fire("cache_corrupt") is None

    def test_should_fire_matches_site_selectors(self):
        with fault_scope(parse_faults("worker_death:worker=1:epoch=2")):
            assert should_fire("worker_death", worker=0, epoch=2) is None
            assert should_fire("worker_death", worker=1, epoch=1) is None
            spec = should_fire("worker_death", worker=1, epoch=2)
            assert spec is not None
            # consumed: the same site never fires twice
            assert should_fire("worker_death", worker=1, epoch=2) is None

    def test_fault_scope_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec("cache_corrupt")])
        with fault_scope(outer):
            with fault_scope(None):
                assert should_fire("cache_corrupt") is None
            assert should_fire("cache_corrupt") is not None


# -------------------------------------------------------------------- #
# watchdog
# -------------------------------------------------------------------- #
class TestWatchdog:
    def test_disarmed_tick_is_free(self):
        wd = Watchdog()
        for _ in range(10):
            wd.tick()  # no limit, no armed budget: never raises

    def test_budget_exhaustion_raises(self):
        wd = Watchdog(limit=3)
        wd.arm()
        wd.tick()
        wd.tick()
        wd.tick()
        with pytest.raises(WatchdogTimeout):
            wd.tick()

    def test_rearm_restores_full_budget(self):
        wd = Watchdog(limit=2)
        wd.arm()
        wd.tick()
        wd.arm()
        wd.tick()
        wd.tick()
        with pytest.raises(WatchdogTimeout):
            wd.tick()

    def test_both_engines_abort_hung_model_identically(self):
        """Interpreter and generated code share the step budget and the
        abort point: the same input times out on both, and a terminating
        input runs to completion on both."""
        from repro import CoverageRecorder, ModelInstance

        schedule = convert(hang_model())
        program, _ = compile_model(schedule, "model").instantiate()
        program.init()
        instance = ModelInstance(
            schedule, recorder=CoverageRecorder(schedule.branch_db)
        )
        instance.init()
        WATCHDOG.configure(100)
        WATCHDOG.arm()
        assert program.step(7) == (7,)
        WATCHDOG.arm()
        assert tuple(instance.step(7)) == (7,)
        WATCHDOG.arm()
        with pytest.raises(WatchdogTimeout):
            program.step(101)
        WATCHDOG.arm()
        with pytest.raises(WatchdogTimeout):
            instance.step(101)


# -------------------------------------------------------------------- #
# crash artifacts
# -------------------------------------------------------------------- #
def _raise_here(msg="boom"):
    raise WatchdogTimeout(msg)


class TestCrashStore:
    def _exc(self, msg="boom"):
        try:
            _raise_here(msg)
        except WatchdogTimeout as exc:
            return exc

    def test_stack_hash_stable_across_inputs(self):
        assert stack_hash(self._exc("a")) == stack_hash(self._exc("b"))

    def test_dedup_bumps_count_keeps_first_input(self):
        store = CrashStore()
        first = store.record("timeout", b"input-one", self._exc())
        again = store.record("timeout", b"input-two", self._exc())
        assert len(store) == 1
        assert again is first
        assert again.count == 2
        assert again.data == b"input-one"  # LibFuzzer keep-the-first

    def test_distinct_raise_sites_get_distinct_artifacts(self):
        store = CrashStore()
        try:
            raise WatchdogTimeout("site two")
        except WatchdogTimeout as other:
            store.record("timeout", b"x", self._exc())
            store.record("timeout", b"y", other)
        assert len(store) == 2

    def test_persistence_and_load_round_trip(self, tmp_path):
        root = str(tmp_path / "crashes")
        store = CrashStore(root)
        artifact = store.record("timeout", b"\x01\x02", self._exc(), found_at=1.5)
        store.record("timeout", b"\x03", self._exc())  # duplicate
        input_path = os.path.join(root, artifact.name)
        with open(input_path, "rb") as fh:
            assert fh.read() == b"\x01\x02"
        with open(input_path + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["count"] == 2  # duplicate count rewritten on disk
        assert meta["found_at"] == 1.5
        loaded = CrashStore.load(root)
        assert len(loaded) == 1
        got = loaded.artifacts[artifact.name]
        assert (got.data, got.count, got.hash) == (b"\x01\x02", 2, artifact.hash)


# -------------------------------------------------------------------- #
# engine: hung generated code becomes a timeout artifact
# -------------------------------------------------------------------- #
class TestEngineWatchdog:
    """The scalar engine's timeout path (``kernel="off"``, as on a host
    without a C compiler or after an ``engine_fallback``): the generated
    Python step arms ``WATCHDOG``, raises ``WatchdogTimeout``, and the
    artifacts dedupe by stack hash."""

    def test_hung_inputs_become_deduped_timeout_artifacts(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        schedule = convert(hang_model())
        config = FuzzerConfig(
            max_seconds=600.0,
            max_inputs=400,
            seed=3,
            max_exec_steps=200,
            crash_dir=crash_dir,
            kernel="off",
        )
        fuzzer = Fuzzer(schedule, config)
        assert fuzzer.engine == "scalar"
        result = fuzzer.run()
        # the fuzzer trips the infinite loop many times; every hit hangs
        # in the same while body, so they dedup to ONE artifact
        assert result.timeouts > 1
        assert result.inputs_executed == 400  # the campaign kept going
        store = CrashStore.load(crash_dir)
        assert len(store) == 1
        (artifact,) = store.artifacts.values()
        assert artifact.kind == "timeout"
        assert artifact.count == result.timeouts
        assert artifact.data  # the reproducer input was persisted

    def test_timeout_budget_and_artifacts_are_deterministic(self, tmp_path):
        schedule = convert(hang_model())

        def run(subdir):
            config = FuzzerConfig(
                max_seconds=600.0,
                max_inputs=150,
                seed=9,
                max_exec_steps=100,
                crash_dir=str(tmp_path / subdir),
                kernel="off",
            )
            return Fuzzer(schedule, config).run()

        a, b = run("a"), run("b")
        assert a.timeouts == b.timeouts > 0
        assert a.suite.digest() == b.suite.digest()
        store_a = CrashStore.load(str(tmp_path / "a"))
        store_b = CrashStore.load(str(tmp_path / "b"))
        assert sorted(store_a.artifacts) == sorted(store_b.artifacts)

    def test_watchdog_disarmed_after_campaign(self):
        schedule = convert(hang_model())
        config = FuzzerConfig(
            max_seconds=600.0,
            max_inputs=50,
            seed=1,
            max_exec_steps=100,
            kernel="off",
        )
        Fuzzer(schedule, config).run()
        assert WATCHDOG.remaining is None  # no armed budget leaks out


@skip_if_no_cc
class TestKernelWatchdog:
    """The default engine's timeout path: the one-lane kernel aborts a
    hung input in C, with no Python traceback to hash, so all of a
    model's timeouts share one artifact (architecture §11)."""

    def test_kernel_timeouts_match_scalar_and_share_one_artifact(
        self, tmp_path
    ):
        schedule = convert(hang_model())

        def run(subdir, **overrides):
            crash_dir = str(tmp_path / subdir)
            config = FuzzerConfig(
                max_seconds=600.0,
                max_inputs=400,
                seed=3,
                max_exec_steps=200,
                crash_dir=crash_dir,
                **overrides
            )
            fuzzer = Fuzzer(schedule, config)
            return fuzzer.engine, fuzzer.run(), CrashStore.load(crash_dir)

        engine, result, store = run("kernel")
        assert engine == "kernel"
        _, scalar, _ = run("scalar", kernel="off")
        # the one-lane kernel times out on exactly the scalar engine's
        # inputs, so the suites and the timeout budget agree
        assert result.timeouts == scalar.timeouts > 1
        assert result.suite.digest() == scalar.suite.digest()
        assert result.inputs_executed == 400
        (artifact,) = store.artifacts.values()
        assert artifact.kind == "timeout"
        assert artifact.count == result.timeouts
        assert artifact.data
        assert WATCHDOG.remaining is None


# -------------------------------------------------------------------- #
# worker supervision: death, hangs, degradation
# -------------------------------------------------------------------- #
def _campaign(schedule, tmp_path, tag, **overrides):
    """A small bounded 2-worker campaign with a JSONL trace."""
    trace = str(tmp_path / ("%s.jsonl" % tag))
    params = dict(
        max_seconds=600.0,
        max_inputs=200,
        seed=7,
        workers=2,
        sync_rounds=3,
        worker_timeout=5.0,
    )
    params.update(overrides)
    config = FuzzerConfig(**params)
    tel = Telemetry(trace_path=trace)
    result = ParallelFuzzer(schedule, config, telemetry=tel).run()
    tel.close()
    return result, list(read_trace(trace))


class TestWorkerSupervision:
    def test_worker_death_recovery_matches_golden_digest(self, tmp_path):
        """The headline acceptance criterion: kill worker 1 mid-campaign
        (epoch 1 of 3); the respawned worker replays the lost slice and
        the merged corpus digest equals the fault-free run's."""
        schedule = convert(demo_model())
        golden, golden_events = _campaign(schedule, tmp_path, "golden")
        with fault_scope(parse_faults("worker_death:worker=1:epoch=1")):
            faulted, events = _campaign(schedule, tmp_path, "faulted")
        assert faulted.suite.digest() == golden.suite.digest()
        assert faulted.report.as_dict() == golden.report.as_dict()
        # timeline: same coverage milestones (timestamps carry noise)
        assert [c for _t, c in faulted.timeline] == [
            c for _t, c in golden.timeline
        ]
        # the fault left an audit trail instead of vanishing
        failures = [
            e for e in events
            if e["ev"] == "fault" and e["kind"] == "worker_failure"
        ]
        respawns = [e for e in events if e["ev"] == "worker_respawn"]
        assert failures and failures[0]["worker"] == 1
        assert respawns and respawns[0]["worker"] == 1
        assert respawns[0]["attempt"] == 1
        assert not [e for e in golden_events if e["ev"] == "fault"]

    def test_hung_worker_is_respawned(self, tmp_path):
        """slow_exec simulates generated code the in-process watchdog
        cannot interrupt; the parent's deadline supervision must catch
        it and respawn the slot."""
        schedule = convert(demo_model())
        with fault_scope(parse_faults("slow_exec:worker=0:epoch=0:seconds=30")):
            result, events = _campaign(
                schedule,
                tmp_path,
                "hung",
                max_seconds=4.0,
                max_inputs=60,
                sync_rounds=2,
                worker_timeout=0.5,
            )
        assert result.inputs_executed == 60  # the campaign completed
        failures = [
            e for e in events
            if e["ev"] == "fault" and e["kind"] == "worker_failure"
        ]
        assert failures and failures[0]["worker"] == 0
        assert "hung" in failures[0]["error"]
        assert [e for e in events if e["ev"] == "worker_respawn"]

    @pytest.mark.parametrize("plan", ["worker_death", "worker_death:worker=1"])
    def test_worker_fault_fires_once_per_campaign(self, tmp_path, plan):
        """The parent consumes a spec when it dispatches, so ``times``
        counts firings per campaign: a bare spec kills one worker once,
        not every worker in every epoch."""
        schedule = convert(demo_model())
        golden, _ = _campaign(schedule, tmp_path, "golden")
        with fault_scope(parse_faults(plan)):
            faulted, events = _campaign(schedule, tmp_path, "faulted")
        failures = [
            e for e in events
            if e["ev"] == "fault" and e["kind"] == "worker_failure"
        ]
        assert len(failures) == 1
        assert faulted.suite.digest() == golden.suite.digest()

    def test_erroring_slices_degrade_with_the_exception_text(
        self, tmp_path, capfd
    ):
        """A worker whose slice raises answers ``err``: each answer is
        charged to the slot's budget and retried on the same live
        process (no ``worker_respawn``), and the campaign that runs out
        of slots names the exception instead of a process death."""
        schedule = convert(no_inport_model())
        trace = str(tmp_path / "err.jsonl")
        tel = Telemetry(trace_path=trace)
        config = FuzzerConfig(
            max_seconds=600.0,
            max_inputs=60,
            seed=7,
            workers=2,
            sync_rounds=2,
            max_respawns=1,
            worker_timeout=1.0,
        )
        with pytest.raises(CampaignDegradedError) as err:
            ParallelFuzzer(schedule, config, telemetry=tel).run()
        tel.close()
        assert "FuzzingError" in str(err.value)
        assert "has no inports" in str(err.value)
        events = list(read_trace(trace))
        failures = [
            e for e in events
            if e["ev"] == "fault" and e["kind"] == "worker_failure"
        ]
        assert len(failures) == 4  # 2 slots x (first try + one retry)
        assert all("has no inports" in e["error"] for e in failures)
        assert not [e for e in events if e["ev"] == "worker_respawn"]
        assert "Traceback" not in capfd.readouterr().err

    def test_all_workers_dead_raises_degraded_error(self, tmp_path):
        schedule = convert(demo_model())
        with fault_scope(parse_faults("worker_death:times=99")):
            with pytest.raises(CampaignDegradedError):
                _campaign(
                    schedule,
                    tmp_path,
                    "dead",
                    max_inputs=60,
                    sync_rounds=2,
                    max_respawns=0,
                )

    def test_single_worker_loss_degrades_gracefully(self, tmp_path):
        """Retiring one slot (respawn budget exhausted) must not abort
        the campaign: the survivor finishes and telemetry records the
        degradation."""
        schedule = convert(demo_model())
        with fault_scope(
            parse_faults("worker_death:worker=1:times=99")
        ):
            result, events = _campaign(
                schedule,
                tmp_path,
                "degraded",
                max_inputs=60,
                sync_rounds=2,
                max_respawns=1,
            )
        assert result.inputs_executed > 0
        dead = [e for e in events if e["ev"] == "worker_dead"]
        degraded = [e for e in events if e["ev"] == "degraded"]
        assert dead and dead[0]["worker"] == 1
        assert degraded and degraded[0]["workers_left"] == 1


# -------------------------------------------------------------------- #
# compile-cache quarantine
# -------------------------------------------------------------------- #
class TestCacheQuarantine:
    def _roundtrip_key(self, cache, schedule):
        from repro.codegen.cache import cache_key

        return cache_key(schedule.model, "model", True)

    def test_corrupt_entry_is_quarantined_then_recompiled(
        self, tmp_path, monkeypatch
    ):
        from repro.codegen import cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        monkeypatch.setattr(cache_mod, "_DEFAULT", None)
        schedule = convert(hang_model())
        first = compile_model(schedule, "model")
        assert first.from_cache is None  # cold: fresh compile, persisted
        store = cache_mod.default_cache()
        key = self._roundtrip_key(store, schedule)
        store.clear_memory()

        with fault_scope(parse_faults("cache_corrupt")):
            again = compile_model(schedule, "model")
        # the poisoned read did not crash the compile — and did not hit
        assert again.from_cache is None
        assert store.quarantined == 1
        qdir = tmp_path / "cc" / "quarantine"
        assert sorted(p.name for p in qdir.iterdir()) == sorted(
            os.path.basename(p) for p in store._paths(key)
        )

        # the recompile re-persisted a clean entry: next read is a hit
        store.clear_memory()
        third = compile_model(schedule, "model")
        assert third.from_cache == "disk"

    def test_truncated_payload_is_treated_as_corruption(self, tmp_path):
        from repro.codegen.cache import CompileCache

        cache = CompileCache(root=str(tmp_path))
        code = compile("x = 1", "<t>", "exec")
        cache.put_disk("k" * 64, "x = 1", code)
        src_path, bin_path = cache._paths("k" * 64)
        with open(bin_path, "r+b") as fh:
            fh.truncate(4)  # torn write / bit rot
        assert cache.get_disk("k" * 64) is None
        assert cache.quarantined == 1
        assert not os.path.exists(bin_path)  # moved into quarantine/

    def test_missing_entry_is_a_plain_miss_not_quarantine(self, tmp_path):
        from repro.codegen.cache import CompileCache

        cache = CompileCache(root=str(tmp_path))
        assert cache.get_disk("0" * 64) is None
        assert cache.quarantined == 0
        assert cache.disk_misses == 1


# -------------------------------------------------------------------- #
# telemetry sink degradation
# -------------------------------------------------------------------- #
class TestTelemetryDegradation:
    def test_sink_write_failure_degrades_to_no_trace(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        tel = Telemetry(trace_path=trace)
        tel.emit("campaign_start", model="m", seed=0, workers=1,
                 n_probes=0, level="model")
        with fault_scope(parse_faults("trace_io_error")):
            tel.emit("sync_epoch", epoch=0, union_covered=0, pool=0, execs=0)
        assert tel.io_errors == 1
        # degraded, not dead: later emits are silent no-ops
        tel.emit("campaign_end", t=0.0, execs=0, iterations=0, covered=0,
                 decision=0.0, condition=0.0, mcdc=0.0, cases=0, phases={})
        tel.flush()
        tel.close()
        events = list(read_trace(trace))
        assert [e["ev"] for e in events] == ["campaign_start"]

    def test_disabled_sink_never_consumes_fault_budget(self):
        tel = Telemetry(enabled=False)
        with fault_scope(parse_faults("trace_io_error")) as plan:
            tel.emit("fault", kind="x")
            assert plan.specs[0].fired == 0
