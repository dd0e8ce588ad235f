"""Hybrid constraint-assisted fuzzing (the paper's §5/§6 future work).

The paper's discussion notes that fuzzing struggles with *correlated
inport constraints* and proposes "first apply constraint solving to the
branches in the model to obtain the constraints between ports and then
generate input data accordingly".  This module implements that plan as an
alternation:

1. run the CFTCG fuzzing loop for a chunk of the budget;
2. when coverage plateaus, hand the still-missed decision outcomes to
   the bounded-horizon constraint-directed solver (the SLDV substrate);
3. inject the solver's satisfying inputs as corpus seeds and resume
   fuzzing — the mutator then explores *around* the solved constraints.

The combined suite is replayed on instrumented code like every other
generator, so hybrid results are directly comparable in the tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..baselines.sldv import SldvConfig, SldvGenerator
from ..codegen.compile import CompiledModel, compile_model
from ..schedule.schedule import Schedule
from ..telemetry.core import NULL, Telemetry, get_telemetry, telemetry_scope
from .engine import Fuzzer, FuzzerConfig, FuzzResult, replay_suite
from .testcase import TestCase, TestSuite

__all__ = ["HybridConfig", "HybridFuzzer"]


@dataclass
class HybridConfig:
    """Budget split for the fuzz/solve alternation."""

    max_seconds: float = 10.0
    seed: int = 0
    chunk_seconds: float = 2.0  # fuzzing slice between plateau checks
    solver_seconds: float = 1.0  # solving slice per plateau
    solver_horizon: int = 6
    max_solver_targets: int = 24  # cap per solving slice


class HybridFuzzer:
    """Fuzzing with constraint-solving escalation on plateaus."""

    def __init__(
        self,
        schedule: Schedule,
        config: Optional[HybridConfig] = None,
        compiled: Optional[CompiledModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.schedule = schedule
        self.config = config or HybridConfig()
        tel = telemetry if telemetry is not None else get_telemetry()
        if tel is NULL:
            tel = Telemetry(enabled=False)
        self.telemetry = tel
        with telemetry_scope(tel):
            self.compiled: CompiledModel = (
                compiled or compile_model(schedule, "model")
            )

    # ------------------------------------------------------------------ #
    def _missed_targets(self, report) -> List[Tuple[int, int]]:
        """(decision_id, outcome_idx) pairs not yet covered by the suite."""
        missed_labels = set(report.missed_decisions)
        targets = []
        for decision in self.schedule.branch_db.decisions:
            for idx, outcome in enumerate(decision.outcomes):
                label = "%s:%s=%s" % (decision.block_path, decision.label, outcome)
                if label in missed_labels:
                    targets.append((decision.id, idx))
        return targets

    def run(self) -> FuzzResult:
        config = self.config
        tel = self.telemetry
        suite = TestSuite(tool="cftcg+solver")
        timeline: List = []
        inputs_executed = 0
        iterations_executed = 0
        engine = ""
        start = time.perf_counter()
        deadline = start + config.max_seconds
        if tel.enabled:
            tel.emit(
                "campaign_start",
                model=self.schedule.model.name,
                seed=config.seed,
                workers=1,
                n_probes=self.schedule.branch_db.n_probes,
                level="model",
                mode="hybrid",
            )

        seeds: List[bytes] = []
        previous_covered = -1
        round_index = 0
        while time.perf_counter() < deadline:
            remaining = deadline - time.perf_counter()
            chunk = min(config.chunk_seconds, remaining)
            if chunk <= 0.05:
                break
            fuzz_config = FuzzerConfig(
                max_seconds=chunk,
                seed=config.seed + round_index,
                seeds=seeds[-64:],
            )
            # the chunk fuzzers stay telemetry-quiet: the hybrid loop owns
            # the trace narrative (rounds, plateaus, escalations), and
            # per-chunk campaign_start/end events would drown it
            with tel.phase("mutate_exec"):
                result = Fuzzer(
                    self.schedule,
                    fuzz_config,
                    compiled=self.compiled,
                    telemetry=Telemetry(enabled=False),
                ).run()
            offset = time.perf_counter() - start - result.elapsed
            for case in result.suite:
                suite.add(TestCase(case.data, case.found_at + offset, "hybrid"))
            inputs_executed += result.inputs_executed
            iterations_executed += result.iterations_executed
            engine = result.engine
            round_index += 1

            with tel.phase("replay"):
                report = replay_suite(
                    self.schedule, suite, compiled=self.compiled
                )
            covered = report.decision_covered
            timeline.append((time.perf_counter() - start, covered))
            plateaued = covered <= previous_covered
            previous_covered = covered
            seeds = [case.data for case in result.suite]
            if tel.enabled:
                tel.emit(
                    "hybrid_round",
                    round=round_index,
                    t=round(time.perf_counter() - start, 6),
                    covered=covered,
                    plateaued=plateaued,
                )

            if plateaued and time.perf_counter() < deadline:
                targets = self._missed_targets(report)[: config.max_solver_targets]
                if not targets:
                    break  # everything covered
                solver_budget = min(
                    config.solver_seconds, deadline - time.perf_counter()
                )
                solver = SldvGenerator(
                    self.schedule,
                    SldvConfig(
                        max_seconds=solver_budget,
                        seed=config.seed + round_index,
                        horizon=config.solver_horizon,
                        targets=targets,
                    ),
                )
                with tel.phase("solve"):
                    solved = solver.run()
                now = time.perf_counter() - start
                for case in solved.suite:
                    seeds.append(case.data)
                    suite.add(TestCase(case.data, now, "hybrid-solver"))
                inputs_executed += solved.inputs_executed
                iterations_executed += solved.iterations_executed
                if tel.enabled:
                    tel.emit(
                        "solver_escalation",
                        round=round_index,
                        t=round(now, 6),
                        targets=len(targets),
                        solved=len(solved.suite),
                    )

        elapsed = time.perf_counter() - start
        with tel.phase("replay"):
            report = replay_suite(self.schedule, suite, compiled=self.compiled)
        if tel.enabled:
            tel.emit(
                "campaign_end",
                t=round(elapsed, 6),
                execs=inputs_executed,
                iterations=iterations_executed,
                covered=report.probe_covered,
                decision=round(report.decision, 3),
                condition=round(report.condition, 3),
                mcdc=round(report.mcdc, 3),
                cases=len(suite),
                phases={k: round(v, 6) for k, v in tel.phase_times.items()},
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
            engine=engine,
        )
