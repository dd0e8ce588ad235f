"""The fused native kernel backend: parity, degradation, caching.

The kernel is the lane-parallel execution engine (the fallback ladder
is kernel -> scalar); these tests pin its contracts:

* **bit-parity** — at one lane the kernel reproduces the scalar
  generated driver's suites byte for byte (the lane-by-lane sweep in
  ``test_modelgen_differential.py`` covers the wide widths);
* **per-lane watchdog** — a hanging lane is aborted alone at the scalar
  abort point, its pre-abort coverage folds into the campaign bitmap,
  and the surviving lanes' results are untouched;
* **graceful degradation** — no C compiler, a build failure or an
  un-loweable model lands on the scalar engine with exactly one
  ``engine_fallback`` fault event (never silent) and the scalar
  engine's byte-identical suite;
* **content-addressed caching** — kernel artifacts get their own cache
  slot, survive a warm reload, and a corrupted entry quarantines the
  ``.c``/``.so`` pair alongside the Python artifacts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

import repro.codegen.compile as compile_mod
import repro.codegen.kernel as kernel_mod
import repro.fuzzing.engine as engine_mod
from conftest import demo_model, skip_if_no_cc
from repro import CoverageRecorder, ModelBuilder, compile_model, convert
from repro.bench.registry import build_schedule, model_names
from repro.codegen.cache import CompileCache, cache_key
from repro.codegen.driver import compile_fuzz_driver
from repro.codegen.kernel import (
    KernelBuildError,
    MAX_KERNEL_LANES,
    Unloweable,
    compile_kernel,
    compile_kernel_fuzz_driver,
    have_cc,
    lower_kernel_source,
)
from repro.errors import FuzzingError, WatchdogTimeout
from repro.faults.crashes import CrashStore
from repro.faults.watchdog import WATCHDOG
from repro.fuzzing import Fuzzer, FuzzerConfig
from repro.telemetry.core import Telemetry
from repro.telemetry.events import read_trace

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


#: the engine-parity gates run on the demo model and every bench model
GATE_MODELS = ["demo"] + list(model_names())


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


def gate_schedule(name):
    return convert(demo_model()) if name == "demo" else build_schedule(name)


@pytest.fixture(autouse=True)
def _clean_watchdog():
    WATCHDOG.configure(None)
    yield
    WATCHDOG.configure(None)


def hang_model():
    """A model whose MATLAB-function block loops forever when u > 100.

    Unlike the minimal hang model in ``test_faults.py``, the branch ahead
    of the loop gives the model coverage probes, so a hanging input has
    pre-abort probe progress for the watchdog machinery to fold."""
    b = ModelBuilder("hang")
    u = b.inport("u", "int16")
    y = b.block(
        "MatlabFunction",
        "f",
        inputs=["u"],
        outputs=[("y", "int32")],
        body=(
            "acc = 0\n"
            "if u > 50\n"
            " acc = 1\n"
            "end\n"
            "while u > 100\n"
            "  acc = acc + 1\n"
            "end\n"
            "y = acc + u"
        ),
        locals={"acc": ("int32", 0)},
    )(u)
    b.outport("y", y)
    return b.build()


def run_config(schedule, tmp_path, tag, slices=1, **kw):
    """A traced 300-input campaign at seed 11; with ``slices`` > 1 it
    runs as that many ``resume`` calls over one state."""
    path = str(tmp_path / ("%s.jsonl" % tag))
    tel = Telemetry(enabled=True, trace_path=path)
    config = FuzzerConfig(max_inputs=300, seed=11, **kw)
    fuzzer = Fuzzer(schedule, config, telemetry=tel)
    if slices == 1:
        state = fuzzer.run()
    else:
        state = fuzzer.new_state()
        for k in range(1, slices + 1):
            fuzzer.resume(state, max_inputs=300 * k // slices)
    tel.close()
    return fuzzer, state, read_trace(path)


def fallback_events(events):
    return [
        e for e in events
        if e["ev"] == "fault" and e.get("kind") == "engine_fallback"
    ]


# -------------------------------------------------------------------- #
# parity
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelParity:
    @pytest.mark.parametrize("slices", [1, 3], ids=["oneshot", "sliced"])
    @pytest.mark.parametrize("model", GATE_MODELS)
    def test_single_lane_kernel_matches_scalar_suite(
        self, model, slices, tmp_path
    ):
        """The golden-digest gate: lanes=1 through the native kernel is
        byte-for-byte the scalar campaign — suite, coverage, count —
        whether it runs in one shot or in three resume slices."""
        schedule = gate_schedule(model)
        fs, st_s, _ = run_config(schedule, tmp_path, "scalar", slices,
                                 kernel="off", max_seconds=600.0)
        fk, st_k, _ = run_config(schedule, tmp_path, "kernel", slices,
                                 lanes=1, kernel="on", max_seconds=600.0)
        assert fs.engine == "scalar"
        assert fk.engine == "kernel"
        assert st_s.inputs_executed == st_k.inputs_executed
        assert st_s.iterations_executed == st_k.iterations_executed
        assert st_s.suite.digest() == st_k.suite.digest()

    def test_kernel_lanes_beyond_64(self, schedule, tmp_path):
        """The kernel's lane ceiling is 256, past one 64-bit word."""
        fk, st, _ = run_config(
            schedule, tmp_path, "wide", lanes=128, kernel="on"
        )
        assert fk.engine == "kernel"
        assert fk._kernel_lanes == 128
        assert st.inputs_executed == 300
        assert st.suite.cases

    def test_kernel_source_is_cached_and_reloaded(
        self, schedule, tmp_path, monkeypatch
    ):
        """A kernel Fuzzer built from an empty cache generates its model
        once, never runs the Python optimizer and never builds the
        Python fuzz driver: it builds only what the kernel runs.  The
        kernel then reloads from the disk tier, then from memory,
        without generating again."""
        calls = {
            "generate_model_code": 0,
            "optimize_module": 0,
            "compile_fuzz_driver": 0,
        }
        for name in calls:
            module = engine_mod if name == "compile_fuzz_driver" else compile_mod
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        kernel_mod.clear_kernel_memory()
        fz = Fuzzer(schedule, FuzzerConfig(lanes=4))
        assert fz.engine == "kernel"
        assert fz._kernel_compiled.from_cache is None
        assert fz.compiled.optimized is False
        want = {
            "generate_model_code": 1,
            "optimize_module": 0,
            "compile_fuzz_driver": 0,
        }
        assert calls == want
        kernel_mod.clear_kernel_memory()
        warm = compile_kernel(fz.compiled)
        assert warm.from_cache == "disk"
        hot = compile_kernel(fz.compiled)
        assert hot.from_cache == "memory"
        assert calls == want

    def test_kernel_lowers_the_artifact_it_is_given(self, schedule):
        """An unoptimized artifact runs an unoptimized kernel: the C is
        lowered from the very source the scalar engine executes."""
        compiled = compile_model(schedule, "model", optimize=False, cache=False)
        fz = Fuzzer(
            schedule, FuzzerConfig(lanes=4, kernel="on"), compiled=compiled
        )
        assert fz.engine == "kernel"
        assert fz._kernel_compiled.optimized is False
        assert fz._kernel_compiled.c_source == lower_kernel_source(
            schedule, compiled.source
        )


# -------------------------------------------------------------------- #
# multi-lane campaigns + the per-lane watchdog
# -------------------------------------------------------------------- #
class TestMultiLane:
    def test_multi_lane_run_is_deterministic(self, schedule):
        def run():
            config = FuzzerConfig(
                max_seconds=600.0, max_inputs=200, seed=11, lanes=4
            )
            return Fuzzer(schedule, config).run()

        a, b = run(), run()
        assert a.inputs_executed == b.inputs_executed == 200
        assert a.suite.digest() == b.suite.digest()
        assert a.report.as_dict() == b.report.as_dict()

    @pytest.mark.parametrize("lanes", [0, -1, "64", MAX_KERNEL_LANES + 1])
    def test_config_rejects_out_of_range_lanes(self, schedule, lanes):
        with pytest.raises(FuzzingError):
            Fuzzer(schedule, FuzzerConfig(lanes=lanes))


class TestPerLaneWatchdog:
    @skip_if_no_cc
    def test_hanging_lane_aborts_alone_and_matches_scalar(self):
        """A hanging lane between two benign lanes: the benign lanes
        match the scalar driver exactly, the hanging one aborts at the
        scalar abort point with the scalar pre-abort coverage fold."""
        schedule = convert(hang_model())
        layout = schedule.layout
        benign = layout.pack_stream([(5,)] * 6)
        hanging = layout.pack_stream([(5,), (5,), (200,), (5,), (5,), (5,)])
        streams = [benign, hanging, benign]
        WATCHDOG.configure(200)

        sdriver = compile_fuzz_driver(schedule)
        rec = CoverageRecorder(schedule.branch_db)
        program, _ = compile_model(schedule, "model").instantiate(rec)
        expected, total = [], 0
        for data in streams:
            try:
                metric, found, total, iters = sdriver(
                    program, rec.curr, data, total
                )
                expected.append((metric, found, total, iters, None))
            except WatchdogTimeout as exc:
                WATCHDOG.disarm()
                total = exc.partial_total_int
                expected.append((exc.partial_total_int, exc.iterations))

        ck = compile_kernel(compile_model(schedule, "model"), cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        results = kdriver(ck.instantiate_kernel(3), None, streams, 0)

        # benign lanes: full parity with the scalar driver
        assert results[0][:4] == expected[0][:4]
        assert results[2][:4] == expected[2][:4]
        assert results[0][4] is None and results[2][4] is None
        # hanging lane: aborted with the scalar abort point and the
        # scalar pre-abort coverage fold
        _, _, t1, i1, e1 = results[1]
        assert isinstance(e1, WatchdogTimeout)
        assert (t1, i1) == expected[1]
        assert i1 == 2  # hung inside the third tuple
        assert t1 != 0  # probes covered before the abort still count

    def test_fuzzer_with_lanes_records_timeout_artifacts(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        schedule = convert(hang_model())
        config = FuzzerConfig(
            max_seconds=600.0,
            max_inputs=120,
            seed=3,
            max_exec_steps=200,
            crash_dir=crash_dir,
            lanes=4,
            stop_on_full_coverage=False,
        )
        result = Fuzzer(schedule, config).run()
        assert result.timeouts > 0
        assert result.inputs_executed == 120  # the campaign kept going
        store = CrashStore.load(crash_dir)
        assert len(store) >= 1
        for artifact in store.artifacts.values():
            assert artifact.kind == "timeout"
            # pre-abort probe progress was folded, not discarded
            assert artifact.meta()["probes_covered"] > 0
        assert WATCHDOG.remaining is None  # no armed budget leaks out


# -------------------------------------------------------------------- #
# float32 overflow: every engine saturates to infinity like C's cast
# -------------------------------------------------------------------- #
def overflow_model():
    """double -> Gain 1e30 -> single -> Switch: inputs past ~3.4e8 push
    the single conversion beyond float32 range."""
    b = ModelBuilder("f32ovf")
    u = b.inport("u", "double")
    big = b.block("Gain", "G", gain=1e30)(u)
    s = b.block("DataTypeConversion", "C", dtype="single")(big)
    y = b.block("Switch", "W", criterion=">=", threshold=0)(s, s, b.const(0))
    b.outport("y", y)
    b.outport("s", s)
    return b.build()


@skip_if_no_cc
class TestFloat32Overflow:
    def test_campaigns_run_to_completion_on_every_engine(self, tmp_path):
        schedule = convert(overflow_model())
        common = dict(max_seconds=600.0, stop_on_full_coverage=False)
        fs, st_s, _ = run_config(schedule, tmp_path, "s", kernel="off", **common)
        f1, st_1, _ = run_config(
            schedule, tmp_path, "k1", lanes=1, kernel="on", **common
        )
        f4, st_4, _ = run_config(schedule, tmp_path, "k4", lanes=4, **common)
        assert (fs.engine, f1.engine, f4.engine) == ("scalar", "kernel", "kernel")
        assert st_s.inputs_executed == st_1.inputs_executed == 300
        assert st_4.inputs_executed == 300
        assert st_s.suite.digest() == st_1.suite.digest()
        # run() ends in finalize's scalar replay of the kernel suite
        assert st_4.report.decision > 0

    def test_engines_agree_on_infinite_outputs(self):
        from repro.simulate.interpreter import ModelInstance

        schedule = convert(overflow_model())
        layout = schedule.layout
        inputs = [1e9, -1e9, 1.0, 3.5e8, -3.5e8]
        instance = ModelInstance(schedule)
        instance.init()
        compiled = compile_model(schedule, "model")
        program, _ = compiled.instantiate()
        program.init()
        want = [tuple(instance.step(u)) for u in inputs]
        assert [tuple(program.step(u)) for u in inputs] == want
        kprog = compile_kernel(compiled, cache=False).instantiate_kernel(
            len(inputs)
        )
        rows = kprog.step_row([layout.pack_tuple((u,)) for u in inputs])
        assert [status for status, _, _ in rows] == [0] * len(inputs)
        assert [outs for _, _, outs in rows] == want
        assert want[0] == (float("inf"), float("inf"))
        assert want[1] == (0.0, float("-inf"))
        assert want[2][0] == want[2][1] < float("inf")


# -------------------------------------------------------------------- #
# the fallback ladder: kernel -> scalar
# -------------------------------------------------------------------- #
def _no_cc(monkeypatch):
    monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
    return "compiler"


def _unloweable(monkeypatch):
    def boom(*a, **kw):
        raise Unloweable("synthetic: construct has no C lowering")

    monkeypatch.setattr(kernel_mod, "compile_kernel", boom)
    return "no C lowering"


def _build_failure(monkeypatch):
    def boom(*a, **kw):
        raise KernelBuildError("synthetic: cc exited with status 1")

    monkeypatch.setattr(kernel_mod, "compile_kernel", boom)
    return "status 1"


class TestDegradationLadder:
    @pytest.mark.parametrize(
        "cause",
        [_no_cc, _unloweable, _build_failure],
        ids=["no_cc", "unloweable", "build_failure"],
    )
    def test_unbuildable_kernel_falls_back_to_scalar(
        self, schedule, tmp_path, monkeypatch, cause
    ):
        """lanes=4 with a kernel that cannot be built lands on scalar
        with exactly one fault event, runs the optimized module, and
        produces the exact suite of a one-lane ``kernel="off"``
        campaign."""
        reason = cause(monkeypatch)
        fk, st_k, events = run_config(schedule, tmp_path, "down", lanes=4)
        assert fk.engine == "scalar"
        assert fk.compiled.optimized is True
        falls = fallback_events(events)
        assert len(falls) == 1
        assert falls[0]["engine_from"] == "kernel"
        assert falls[0]["engine_to"] == "scalar"
        assert reason in falls[0]["reason"]
        monkeypatch.undo()
        fs, st_s, _ = run_config(schedule, tmp_path, "plain", kernel="off")
        assert fs.engine == "scalar"
        assert st_k.inputs_executed == st_s.inputs_executed == 300
        assert st_k.suite.digest() == st_s.suite.digest()

    def test_no_compiler_single_lane_falls_back_to_scalar(
        self, schedule, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
        fk, st_k, events = run_config(
            schedule, tmp_path, "nocc1", lanes=1, kernel="on"
        )
        assert fk.engine == "scalar"
        falls = fallback_events(events)
        assert falls and falls[0]["engine_to"] == "scalar"
        monkeypatch.undo()
        fs, st_s, _ = run_config(schedule, tmp_path, "scal", kernel="off")
        assert st_k.suite.digest() == st_s.suite.digest()

    def test_kernel_off_never_touches_the_toolchain(
        self, schedule, tmp_path, monkeypatch
    ):
        def boom():  # pragma: no cover - the assertion is "not called"
            raise AssertionError("kernel backend consulted with kernel='off'")

        monkeypatch.setattr(kernel_mod, "find_cc", boom)
        fb, _, events = run_config(
            schedule, tmp_path, "off", lanes=4, kernel="off"
        )
        assert fb.engine == "scalar"
        assert fb.compiled.optimized is True
        assert not fallback_events(events)

    def test_lanes_auto_resolves_to_an_engine(self, schedule, tmp_path):
        """auto means the kernel at 64 lanes unless kernel='off' (then
        scalar); a host without a toolchain lands on scalar."""
        fz, st, _ = run_config(schedule, tmp_path, "auto", lanes="auto")
        assert fz.engine == ("kernel" if have_cc() else "scalar")
        if have_cc():
            assert fz._kernel_lanes == 64
        assert st.inputs_executed == 300
        fo, _, events = run_config(
            schedule, tmp_path, "autooff", lanes="auto", kernel="off"
        )
        assert fo.engine == "scalar"
        assert not fallback_events(events)

    def test_config_validation(self, schedule):
        with pytest.raises(FuzzingError):
            Fuzzer(schedule, FuzzerConfig(kernel="maybe"))
        with pytest.raises(FuzzingError):
            Fuzzer(schedule, FuzzerConfig(lanes=MAX_KERNEL_LANES + 1))


@skip_if_no_cc
class TestEngineRule:
    """The engine is a property of the host: every config except
    ``kernel="off"`` runs the kernel where one can be built, at any lane
    count, and each engine builds only what it runs."""

    # "on" is kept as a synonym: stored job specs and benchmark configs
    # still say it
    @pytest.mark.parametrize("kernel", ["auto", "on"])
    def test_one_lane_fuzzer_runs_the_kernel(
        self, schedule, monkeypatch, kernel
    ):
        built = []
        monkeypatch.setattr(engine_mod, "compile_fuzz_driver", built.append)
        fz = Fuzzer(schedule, FuzzerConfig(kernel=kernel))
        assert fz.engine == "kernel"
        assert fz._kernel_lanes == 1
        assert fz.compiled.optimized is False
        assert fz.driver is None
        assert built == []


_NO_NUMPY_SCRIPT = r"""
import json, sys
sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
sys.path.insert(0, sys.argv[1])
from conftest import demo_model
from repro import convert
from repro.fuzzing import Fuzzer, FuzzerConfig
from repro.telemetry.core import Telemetry
from repro.telemetry.events import read_trace

path = "%s/lanes64.jsonl" % sys.argv[2]
tel = Telemetry(enabled=True, trace_path=path)
fuzzer = Fuzzer(
    convert(demo_model()),
    FuzzerConfig(max_inputs=300, seed=11, lanes=64),
    telemetry=tel,
)
result = fuzzer.run()
tel.close()
print(json.dumps({
    "engine": fuzzer.engine,
    "digest": result.suite.digest(),
    "fallbacks": [
        e for e in read_trace(path)
        if e["ev"] == "fault" and e.get("kind") == "engine_fallback"
    ],
}))
"""


class TestWithoutNumpy:
    @pytest.mark.parametrize("config", ["kernel='off'"], ids=["kernel_off"])
    def test_scalar_fuzzer_leaves_the_kernel_unloaded(self, config):
        """Only a Fuzzer that tries the kernel imports it; the lane
        ceiling is still enforced without it."""
        code = (
            "import sys\n"
            "from repro.bench import build_schedule\n"
            "from repro.errors import FuzzingError\n"
            "from repro.fuzzing import Fuzzer, FuzzerConfig\n"
            "schedule = build_schedule('AFC')\n"
            "assert Fuzzer(schedule, FuzzerConfig(%s)).engine == 'scalar'\n"
            "try:\n"
            "    Fuzzer(schedule, FuzzerConfig(lanes=257))\n"
            "except FuzzingError as exc:\n"
            "    print(exc)\n"
            "print('repro.codegen.kernel' in sys.modules)\n" % config
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "config.lanes must be <= %d, got 257" % MAX_KERNEL_LANES,
            "False",
        ]

    @skip_if_no_cc
    def test_no_numpy_host_runs_the_kernel(self, schedule, tmp_path):
        """Under the script's import blocker, lanes=64 runs on the
        kernel with no fallback event, and its suite is the in-process
        lanes=64 suite byte for byte."""
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT, TESTS, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        fz, here, _ = run_config(schedule, tmp_path, "here", lanes=64)
        assert fz.engine == "kernel"
        assert out["engine"] == "kernel"
        assert out["fallbacks"] == []
        assert out["digest"] == here.suite.digest()


# -------------------------------------------------------------------- #
# cache integration
# -------------------------------------------------------------------- #
class TestKernelCache:
    def test_kernel_variant_has_its_own_cache_slot(self, schedule):
        """The kernel slot is keyed on the ABI version: an ABI bump
        misses cleanly instead of loading (and quarantining) a stale
        .so, and never moves the Python artifacts' key."""
        plain = cache_key(schedule.model, "model", True)
        knl = cache_key(
            schedule.model, "model", True, kernel=kernel_mod.KERNEL_ABI_VERSION
        )
        older = cache_key(
            schedule.model, "model", True,
            kernel=kernel_mod.KERNEL_ABI_VERSION - 1,
        )
        assert len({plain, knl, older}) == 3
        assert plain == cache_key(schedule.model, "model", True, kernel=0)

    def test_quarantine_sweeps_native_artifacts(self, tmp_path):
        """A corrupted entry moves its .c/.so next to the .py/.bin in
        quarantine/ so a poisoned kernel binary can never be dlopened."""
        cache = CompileCache(root=str(tmp_path))
        key = "k" * 64
        cache.put_disk(key, "source", compile("1", "<s>", "eval"))
        c_path, so_path = cache.native_paths(key)
        with open(c_path, "w") as fh:
            fh.write("/* kernel */")
        with open(so_path, "wb") as fh:
            fh.write(b"\x7fELF corrupt")
        # corrupt the marshalled payload -> get_disk must quarantine
        with open(cache._paths(key)[1], "wb") as fh:
            fh.write(b"not marshal data")
        assert cache.get_disk(key) is None
        assert cache.quarantined == 1
        qdir = tmp_path / "quarantine"
        assert (qdir / os.path.basename(c_path)).exists()
        assert (qdir / os.path.basename(so_path)).exists()
        assert not os.path.exists(c_path)
        assert not os.path.exists(so_path)

    @skip_if_no_cc
    def test_uncached_build_leaves_no_directory(
        self, schedule, tmp_path, monkeypatch
    ):
        """An uncached build removes its temp directory once the .so is
        loaded, or once its build failed; the loaded kernel still runs."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        compiled = compile_model(schedule, "model")
        ck = compile_kernel(compiled, cache=False)
        assert os.listdir(tmp_path) == []
        size = schedule.layout.size
        streams = [bytes(size * 4), bytes(size * 2)]
        kdriver = compile_kernel_fuzz_driver(schedule)
        results = kdriver(ck.instantiate_kernel(2), None, streams, 0)
        assert [r[3] for r in results] == [4, 2]

        def broken(c_path, so_path):
            raise KernelBuildError("injected build failure")

        monkeypatch.setattr(kernel_mod, "build_shared_object", broken)
        with pytest.raises(KernelBuildError):
            compile_kernel(compiled, cache=False)
        assert os.listdir(tmp_path) == []


# -------------------------------------------------------------------- #
# the driver contract
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelDriver:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("model", GATE_MODELS)
    def test_driver_matches_scalar_per_stream_accounting(self, model, threads):
        """Stream-by-stream 5-tuples: metric, found, running total_int,
        iterations — the same sequential fold the scalar driver does, on
        64 lanes split over every tested thread count."""
        import random

        schedule = gate_schedule(model)
        layout = schedule.layout
        rng = random.Random(99)
        streams = [
            bytes(rng.randrange(256) for _ in range(layout.size * 32))
            for _ in range(64)
        ]

        compiled = compile_model(schedule, "model")
        sdriver = compile_fuzz_driver(schedule)
        program, rec = compiled.instantiate()
        want, running = [], 0
        for data in streams:
            try:
                r = sdriver(program, rec.curr, data, running)
            except WatchdogTimeout as exc:  # pragma: no cover - no budget set
                running |= exc.partial_total_int
                want.append((None, None, running, exc.iterations))
                continue
            running = r[2]
            want.append(r)

        ck = compile_kernel(compiled)
        kdriver = compile_kernel_fuzz_driver(schedule)
        kprog = ck.instantiate_kernel(64, threads)
        got = kdriver(kprog, None, streams, 0)
        assert len(got) == len(want)
        for w, g in zip(want, got):
            assert g[4] is None
            assert tuple(g[:4]) == tuple(w[:4])

    def test_driver_matches_scalar_on_ragged_batch(self, schedule):
        """Same streams, same order ⇒ same per-input driver results —
        including an empty stream and one shorter than a single tuple."""
        import random

        layout = schedule.layout

        def stream(seed, n_bytes):
            rng = random.Random(seed)
            return bytes(rng.randrange(256) for _ in range(n_bytes))

        streams = [
            stream(1, layout.size * 12),
            b"",  # zero iterations
            stream(2, layout.size - 1),  # still zero
            stream(3, layout.size * 3 + 2),  # partial tail
            stream(4, layout.size * 20),
        ]
        compiled = compile_model(schedule, "model")
        sdriver = compile_fuzz_driver(schedule)
        program, rec = compiled.instantiate()
        expected, total = [], 0
        for data in streams:
            metric, found, total, iters = sdriver(program, rec.curr, data, total)
            expected.append((metric, found, total, iters))

        ck = compile_kernel(compiled, cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        results = kdriver(ck.instantiate_kernel(len(streams)), None, streams, 0)
        assert [tuple(r[:4]) for r in results] == expected
        assert all(r[4] is None for r in results)

    def test_empty_batch_is_a_noop(self, schedule):
        ck = compile_kernel(compile_model(schedule, "model"), cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        assert kdriver(ck.instantiate_kernel(4), None, [], 0) == []


# -------------------------------------------------------------------- #
# multi-core execution
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelThreading:
    """Thread-parallel ``kern_run``: every thread count must be
    bit-identical to ``threads=1`` (the sequential fold is the only
    ordered step), and the generated C must stay reentrant across
    states — two kernel states driven concurrently may never observe
    each other."""

    @pytest.mark.parametrize("model", GATE_MODELS)
    def test_thread_counts_produce_identical_suites(self, model, tmp_path):
        schedule = gate_schedule(model)
        runs = {}
        for threads in (1, 2, 4, "auto"):
            fz, st, _ = run_config(
                schedule, tmp_path, "thr%s" % threads, max_seconds=600.0,
                lanes=64, kernel="on", kernel_threads=threads,
            )
            assert fz.engine == "kernel"
            runs[threads] = (
                st.inputs_executed,
                st.iterations_executed,
                st.suite.digest(),
            )
        assert runs[1] == runs[2] == runs[4] == runs["auto"]

    def test_auto_honors_env_pin(self, schedule, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        fz, _, _ = run_config(
            schedule, tmp_path, "thrauto",
            lanes=32, kernel="on", kernel_threads="auto",
        )
        assert fz.engine == "kernel"
        assert fz._kernel_threads == 3

    def test_threads_clamp_to_lanes(self, schedule, tmp_path):
        fz, _, _ = run_config(
            schedule, tmp_path, "thrclamp",
            lanes=2, kernel="on", kernel_threads=64,
        )
        assert fz.engine == "kernel"
        assert fz._kernel_threads == 2

    def test_ladder_under_threading(self, schedule, tmp_path, monkeypatch):
        """kernel_threads set + no toolchain: the same scalar fallback,
        the same fault telemetry, the same suite the scalar engine
        produces natively — threading never changes the ladder."""
        monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
        fk, st_k, events = run_config(
            schedule, tmp_path, "thrnocc",
            lanes=4, kernel="on", kernel_threads=4,
        )
        assert fk.engine == "scalar"
        falls = fallback_events(events)
        assert len(falls) == 1
        assert falls[0]["engine_from"] == "kernel"
        assert falls[0]["engine_to"] == "scalar"
        monkeypatch.undo()
        fs, st_s, _ = run_config(schedule, tmp_path, "thrscalar", kernel="off")
        assert fs.engine == "scalar"
        assert st_k.suite.digest() == st_s.suite.digest()

    def test_invalid_thread_config_raises(self, schedule):
        for bad in (0, -2, "three", True):
            with pytest.raises(FuzzingError):
                Fuzzer(
                    schedule,
                    FuzzerConfig(lanes=4, kernel="on", kernel_threads=bad),
                )

    def test_telemetry_reports_block_utilization(self, schedule, tmp_path):
        fz, _, events = run_config(
            schedule, tmp_path, "thrtel",
            lanes=32, kernel="on", kernel_threads=2,
        )
        assert fz.engine == "kernel"
        evs = [e for e in events if e["ev"] == "kernel_threads"]
        assert evs
        ev = evs[-1]
        assert ev["threads"] == 2
        assert ev["lanes"] == 32
        assert len(ev["block_busy_s"]) == 2
        assert len(ev["utilization"]) == 2
        assert ev["stall_s"] >= 0
        assert ev["pipelined"] is True

    def test_generated_c_is_reentrant_across_states(self, schedule):
        """Two kernel states driven concurrently from two Python threads
        (the CDLL call releases the GIL, so the C genuinely overlaps)
        reproduce the scalar engine's precomputed per-stream results —
        the executable pin for the no-globals audit of the emitted C."""
        import random
        from concurrent.futures import ThreadPoolExecutor

        from repro.codegen.compile import compile_model
        from repro.codegen.driver import compile_fuzz_driver

        layout = schedule.layout
        rng = random.Random(1234)
        streamsets = [
            [
                bytes(rng.randrange(256) for _ in range(layout.size * 24))
                for _ in range(8)
            ]
            for _ in range(2)
        ]

        compiled = compile_model(schedule, "model")
        sdriver = compile_fuzz_driver(schedule)
        want = []
        for streams in streamsets:
            program, rec = compiled.instantiate()
            running, res = 0, []
            for data in streams:
                r = sdriver(program, rec.curr, data, running)
                running = r[2]
                res.append(tuple(r[:4]))
            want.append(res)

        ck = compile_kernel(compiled, cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        progs = [ck.instantiate_kernel(8) for _ in range(2)]

        def run(i):
            return [
                tuple(g[:4])
                for g in kdriver(progs[i], None, streamsets[i], 0)
            ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(run, range(2)))
        assert got == want
