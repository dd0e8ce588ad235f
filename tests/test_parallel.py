"""Parallel campaigns, the resumable engine, and the PR's bugfixes.

The golden digests below were recorded from the engine *before* the
resumable-state refactor (same machine-independent ``random.Random``
streams), so they pin the workers=1 path to the pre-refactor behavior
byte for byte.
"""

import random

import pytest

from repro import convert
from repro.fuzzing import (
    Corpus,
    CorpusEntry,
    Fuzzer,
    FuzzerConfig,
    merge_seed_pool,
    run_campaign,
)
from repro.fuzzing.parallel import ParallelFuzzer, derive_worker_seed
from repro.errors import FuzzingError

from conftest import demo_model


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


class TestDeterminismRegression:
    """workers=1 must stay byte-identical to the pre-PR engine."""

    # recorded from the pre-refactor engine (see module docstring)
    GOLDEN = {
        (7, 300): "d57e769cfaaf75bbf97227e145d20a962186f926327b319c88bba2c5004feab5",
        (11, 200): "2e70e64317cd91fd173641f5b557d4ed3c47cf94b7e2dadeb05b754bd0ba9a7b",
    }

    @pytest.mark.parametrize("seed,max_inputs", sorted(GOLDEN))
    def test_single_worker_matches_pre_refactor_engine(
        self, schedule, seed, max_inputs
    ):
        config = FuzzerConfig(max_seconds=600.0, max_inputs=max_inputs, seed=seed)
        result = Fuzzer(schedule, config).run()
        assert result.inputs_executed == max_inputs
        assert result.suite.digest() == self.GOLDEN[(seed, max_inputs)]

    @pytest.mark.parametrize("seed,max_inputs", sorted(GOLDEN))
    def test_optimizer_does_not_perturb_suite_bytes(
        self, schedule, seed, max_inputs
    ):
        """The default (optimized) compile and an optimize=False compile
        must both reproduce the golden digests: the AST optimizer is
        campaign-invisible down to the suite bytes."""
        from repro.codegen import compile_model

        unoptimized = compile_model(schedule, "model", optimize=False, cache=False)
        assert not unoptimized.optimized
        config = FuzzerConfig(max_seconds=600.0, max_inputs=max_inputs, seed=seed)
        result = Fuzzer(schedule, config, compiled=unoptimized).run()
        assert result.suite.digest() == self.GOLDEN[(seed, max_inputs)]

    def test_run_campaign_workers1_is_byte_identical(self, schedule):
        config = FuzzerConfig(max_seconds=600.0, max_inputs=300, seed=7, workers=1)
        via_campaign = run_campaign(schedule, config)
        direct = Fuzzer(
            schedule, FuzzerConfig(max_seconds=600.0, max_inputs=300, seed=7)
        ).run()
        assert [c.data for c in via_campaign.suite] == [c.data for c in direct.suite]
        assert via_campaign.report.as_dict() == direct.report.as_dict()


class TestSeedBudgetFix:
    """Budgets are honored inside the initial seed loop."""

    def test_max_inputs_one_executes_exactly_one(self, schedule):
        config = FuzzerConfig(max_seconds=600.0, max_inputs=1, seed=0)
        result = Fuzzer(schedule, config).run()
        assert result.inputs_executed == 1

    @pytest.mark.parametrize("cap", [2, 5, 8])
    def test_tiny_budgets_never_overshoot(self, schedule, cap):
        config = FuzzerConfig(max_seconds=600.0, max_inputs=cap, seed=0)
        result = Fuzzer(schedule, config).run()
        assert result.inputs_executed == cap

    def test_expired_deadline_executes_nothing(self, schedule):
        config = FuzzerConfig(max_seconds=0.0, seed=0)
        result = Fuzzer(schedule, config).run()
        assert result.inputs_executed == 0


class TestPartnerSelectionFix:
    """Crossover partner picks must not feed the eviction heat counter."""

    def _corpus(self):
        corpus = Corpus()
        for i in range(10):
            corpus.add(CorpusEntry(b"e%d" % i, 10 + i, False, 0.0, iterations=5))
        return corpus

    def test_bump_false_leaves_counters_untouched(self):
        corpus = self._corpus()
        rng = random.Random(0)
        for _ in range(50):
            corpus.select(rng, bump=False)
        assert all(e.selections == 0 for e in corpus.entries)

    def test_default_select_still_bumps(self):
        corpus = self._corpus()
        rng = random.Random(0)
        for _ in range(50):
            corpus.select(rng)
        assert sum(e.selections for e in corpus.entries) == 50

    def test_bump_flag_does_not_change_choice_stream(self):
        """bump only affects bookkeeping, never the RNG-driven pick."""
        a, b = self._corpus(), self._corpus()
        rng_a, rng_b = random.Random(42), random.Random(42)
        picks_a = [a.select(rng_a).data for _ in range(30)]
        picks_b = [b.select(rng_b, bump=False).data for _ in range(30)]
        assert picks_a == picks_b


class TestResumableEngine:
    def test_resume_slices_match_totals(self, schedule):
        fuzzer = Fuzzer(
            schedule, FuzzerConfig(max_seconds=600.0, max_inputs=200, seed=9)
        )
        state = fuzzer.new_state()
        fuzzer.resume(state, max_seconds=600.0, max_inputs=100)
        assert state.inputs_executed == 100
        assert state.rounds == 1
        fuzzer.resume(state, max_seconds=600.0, max_inputs=200)
        assert state.inputs_executed == 200
        assert state.rounds == 2
        result = fuzzer.finalize(state)
        assert result.inputs_executed == 200

    def test_resumed_timeline_is_monotone(self, schedule):
        fuzzer = Fuzzer(schedule, FuzzerConfig(max_seconds=600.0, seed=9))
        state = fuzzer.new_state()
        for cap in (60, 120, 180):
            fuzzer.resume(state, max_seconds=600.0, max_inputs=cap)
        times = [t for t, _ in state.timeline]
        counts = [c for _, c in state.timeline]
        assert times == sorted(times)
        assert counts == sorted(counts)
        assert all(0 <= c.found_at <= state.elapsed for c in state.suite)

    def test_extra_seeds_are_executed(self, schedule):
        fuzzer = Fuzzer(
            schedule, FuzzerConfig(max_seconds=600.0, max_inputs=20, seed=9)
        )
        state = fuzzer.new_state()
        fuzzer.resume(state, max_inputs=15)
        seeds = [bytes(schedule.layout.size * 4)]
        before = state.inputs_executed
        fuzzer.resume(state, max_inputs=before + 1, extra_seeds=seeds)
        assert state.inputs_executed == before + 1


class TestMergeSeedPool:
    def test_merged_pool_covers_union(self, schedule):
        """The merged pool's probe bitmap equals the candidates' union."""
        from repro.codegen.compile import compile_model
        from repro.coverage.recorder import CoverageRecorder
        from repro.fuzzing.minimize import case_bitmap

        results = [
            Fuzzer(
                schedule,
                FuzzerConfig(max_seconds=600.0, max_inputs=150, seed=seed),
            ).run()
            for seed in (1, 2)
        ]
        candidates = [c.data for r in results for c in r.suite]
        merged = merge_seed_pool(schedule, candidates)

        compiled = compile_model(schedule, "model")
        recorder = CoverageRecorder(schedule.branch_db)
        program, _ = compiled.instantiate(recorder)
        layout = schedule.layout
        union = 0
        for data in candidates:
            union |= case_bitmap(program, recorder, layout, data)
        covered = 0
        for data in merged:
            covered |= case_bitmap(program, recorder, layout, data)
        assert covered == union
        assert len(merged) <= len(set(candidates))

    def test_merge_is_deterministic(self, schedule):
        result = Fuzzer(
            schedule, FuzzerConfig(max_seconds=600.0, max_inputs=150, seed=1)
        ).run()
        candidates = [c.data for c in result.suite]
        assert merge_seed_pool(schedule, candidates) == merge_seed_pool(
            schedule, candidates
        )


class TestParallelCampaign:
    CONFIG = dict(max_seconds=600.0, max_inputs=300, seed=3, sync_rounds=2)

    def test_two_worker_campaign(self, schedule):
        config = FuzzerConfig(workers=2, **self.CONFIG)
        result = ParallelFuzzer(schedule, config).run()
        assert result.inputs_executed == 300  # cap split across workers
        assert len(result.suite) >= 1
        assert result.report.decision > 0.0

    def test_campaign_deterministic_under_input_budget(self, schedule):
        config = FuzzerConfig(workers=2, **self.CONFIG)
        r1 = ParallelFuzzer(schedule, config).run()
        r2 = ParallelFuzzer(schedule, config).run()
        assert [c.data for c in r1.suite] == [c.data for c in r2.suite]
        assert r1.report.as_dict() == r2.report.as_dict()

    def test_campaign_coverage_not_below_single_worker(self, schedule):
        """At equal per-worker budget (the wall-clock-equal comparison),
        the merged campaign must not lose coverage."""
        single = run_campaign(
            schedule, FuzzerConfig(workers=1, **self.CONFIG)
        )
        multi_config = dict(self.CONFIG, max_inputs=self.CONFIG["max_inputs"] * 2)
        multi = run_campaign(schedule, FuzzerConfig(workers=2, **multi_config))
        assert multi.report.decision >= single.report.decision - 1e-9
        assert multi.report.condition >= single.report.condition - 1e-9
        assert multi.report.mcdc >= single.report.mcdc - 1e-9

    def test_spawn_start_method(self, schedule):
        """spawn re-imports + re-pickles everything: the CI canary."""
        config = FuzzerConfig(workers=2, max_seconds=600.0, max_inputs=100,
                              seed=3, sync_rounds=1)
        result = ParallelFuzzer(schedule, config, start_method="spawn").run()
        assert result.inputs_executed == 100

    def test_merged_timeline_monotone(self, schedule):
        config = FuzzerConfig(workers=2, **self.CONFIG)
        result = ParallelFuzzer(schedule, config).run()
        times = [t for t, _ in result.timeline]
        counts = [c for _, c in result.timeline]
        assert times == sorted(times)
        assert counts == sorted(counts)

    def test_worker_seeds_are_distinct(self):
        seeds = [derive_worker_seed(3, w) for w in range(8)]
        assert len(set(seeds)) == 8

    def test_invalid_config_rejected(self, schedule):
        with pytest.raises(FuzzingError):
            ParallelFuzzer(schedule, FuzzerConfig(workers=0))
        with pytest.raises(FuzzingError):
            ParallelFuzzer(schedule, FuzzerConfig(workers=2, sync_rounds=0))

    def test_run_tool_workers_override(self, schedule):
        from repro.experiments.runner import run_tool

        result = run_tool(
            "cftcg",
            schedule,
            600.0,
            seed=3,
            overrides={"workers": 2, "max_inputs": 200, "sync_rounds": 2},
        )
        assert result.inputs_executed == 200
        assert result.suite.tool == "cftcg"
