"""Tests for the SLDV-like, SimCoTest-like and Fuzz-Only generators."""

import pytest

from repro import ModelBuilder, convert
from repro.baselines import (
    FuzzOnlyConfig,
    SimCoTestConfig,
    SimCoTestGenerator,
    SldvConfig,
    SldvGenerator,
    run_fuzz_only,
)

from conftest import demo_model, single_block_model


def shallow_model():
    """A model whose branches are all reachable within one iteration."""
    b = ModelBuilder("shallow")
    u = b.inport("u", "int32")
    sat = b.block("Saturation", "S", lower=-10, upper=10)(u)
    sw = b.block("Switch", "W", criterion=">=", threshold=5)(sat, u, b.const(0))
    b.outport("y", sw)
    return b.build()


def deep_model():
    """A branch only reachable after 12+ identical iterations."""
    b = ModelBuilder("deep")
    u = b.inport("u", "int32")
    counter = b.block(
        "MatlabFunction", "count",
        inputs=["u"],
        outputs=[("deep", "int8")],
        persistent={"n": ("int16", 0)},
        body=(
            "if u > 100\n  n = n + 1\nelse\n  n = 0\nend\n"
            "deep = 0\n"
            "if n >= 12\n  deep = 1\nend\n"
        ),
    )(u)
    b.outport("y", counter)
    return b.build()


class TestSldv:
    def test_solves_shallow_branches(self):
        schedule = convert(shallow_model())
        result = SldvGenerator(
            schedule, SldvConfig(max_seconds=5.0, seed=1)
        ).run()
        assert result.report.decision >= 75.0
        assert len(result.suite) >= 3

    def test_bounded_horizon_misses_deep_state(self):
        """The paper's SLDV failure mode: limited unrolling."""
        schedule = convert(deep_model())
        result = SldvGenerator(
            schedule, SldvConfig(max_seconds=4.0, seed=1, horizon=5)
        ).run()
        missed = [m for m in result.report.missed_decisions if "if1" in m]
        assert missed  # the n >= 12 branch is beyond a 5-step horizon

    def test_test_cases_bounded_by_horizon(self):
        schedule = convert(shallow_model())
        config = SldvConfig(max_seconds=3.0, seed=0, horizon=4)
        result = SldvGenerator(schedule, config).run()
        for case in result.suite:
            assert case.n_iterations(schedule.layout) <= 4

    def test_timeline_counts_solved_targets(self):
        schedule = convert(shallow_model())
        result = SldvGenerator(schedule, SldvConfig(max_seconds=3.0)).run()
        counts = [c for _, c in result.timeline]
        assert counts == sorted(counts)


class TestSimCoTest:
    def test_generates_archive_suite(self):
        schedule = convert(demo_model())
        result = SimCoTestGenerator(
            schedule, SimCoTestConfig(max_seconds=2.0, seed=1)
        ).run()
        assert len(result.suite) >= 2
        assert result.report.decision > 0.0

    def test_uses_interpreter_rate(self):
        """Simulation throughput is orders of magnitude below compiled.

        The two arms take turns in ~0.15 s chunks and each rate is its
        arm's total iterations over its total time, so a host speed
        phase (they last seconds) slows both arms alike instead of one.
        """
        from repro.fuzzing import Fuzzer, FuzzerConfig

        schedule = convert(demo_model())
        fuzzer = Fuzzer(schedule, FuzzerConfig(seed=1))
        state = fuzzer.new_state()
        sims = []
        for chunk in range(7):  # which arm goes first alternates
            if chunk % 2:
                fuzzer.resume(state, max_seconds=0.15)
            sims.append(
                SimCoTestGenerator(
                    schedule, SimCoTestConfig(max_seconds=0.15, seed=chunk + 1)
                ).run()
            )
            if not chunk % 2:
                fuzzer.resume(state, max_seconds=0.15)
        sim_rate = sum(s.iterations_executed for s in sims) / sum(
            s.elapsed for s in sims
        )
        assert state.iterations_executed / state.elapsed > 5 * sim_rate

    def test_cases_have_horizon_length(self):
        schedule = convert(demo_model())
        config = SimCoTestConfig(max_seconds=1.0, seed=2, horizon=15)
        result = SimCoTestGenerator(schedule, config).run()
        for case in result.suite:
            assert case.n_iterations(schedule.layout) == 15

    def test_deterministic_outputs_modulo_time(self):
        schedule = convert(demo_model())
        r1 = SimCoTestGenerator(schedule, SimCoTestConfig(max_seconds=1.0, seed=9)).run()
        assert r1.inputs_executed > 5


class TestFuzzOnly:
    def test_runs_and_reports(self):
        schedule = convert(demo_model())
        result = run_fuzz_only(schedule, FuzzOnlyConfig(max_seconds=1.0, seed=1))
        assert result.suite.tool == "fuzz_only"
        assert result.inputs_executed > 50

    def test_blind_to_boolean_logic(self):
        """Code-level guidance sees no condition probes (paper Fig. 8)."""
        from repro import compile_model
        from repro.coverage import CoverageRecorder, compute_report

        m = single_block_model(
            "Logical", {"op": "AND", "n_in": 2}, ["boolean", "boolean"]
        )
        schedule = convert(m)
        compiled = compile_model(schedule, "code")
        recorder = CoverageRecorder(schedule.branch_db)
        program, _ = compiled.instantiate(recorder)
        for row in ((0, 0), (0, 1), (1, 0), (1, 1)):
            program.step(*row)
        recorder.commit_curr()
        assert compute_report(recorder).condition == 0.0

    def test_lower_condition_coverage_than_cftcg(self):
        """On the demo model the ablation trails CFTCG on CC (same budget)."""
        from repro.fuzzing import Fuzzer, FuzzerConfig

        schedule = convert(demo_model())
        cftcg = Fuzzer(schedule, FuzzerConfig(max_seconds=60, max_inputs=2500, seed=4)).run()
        ablation = run_fuzz_only(
            schedule, FuzzOnlyConfig(max_seconds=60, max_inputs=2500, seed=4)
        )
        assert cftcg.report.condition >= ablation.report.condition
