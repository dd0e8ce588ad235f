"""Tests of the campaign benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q campaign_bench/test_campaign_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.bench import build_schedule  # noqa: E402
from repro.fuzzing.engine import Fuzzer, FuzzerConfig  # noqa: E402
from repro.fuzzing import testcase  # noqa: E402

WORKLOADS = sorted(wl.WORKLOADS)
#: counts the traced pass makes; they depend on the inputs alone
COUNTS = (
    "corpus.select_n",
    "corpus.add_n",
    "corpus.admit_ratio",
    "mutations.mutate_n",
    "driver.exec_n",
    "kernel.batches",
    "kernel.lane_fill",
    "service.slice_n",
    "service.respawns",
)


def _specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def _bench(workload, trace, seed=3, seconds=0.3):
    """One tiny-budget invocation: (printed lines, final JSON object)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench_run.main(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def campaign():
    """One small kernel campaign: its schedule, suite and claimed bitmap."""
    schedule = build_schedule("CPUTask")
    fuzzer = Fuzzer(schedule, FuzzerConfig(max_seconds=wl.WALL_CAP_S,
                                           max_inputs=600, seed=5,
                                           **wl.KERNEL))
    state = fuzzer.new_state()
    fuzzer.resume(state)
    assert len(state.suite) >= 2
    return schedule, state.suite, state.total_int


def _copy(suite, cases):
    out = testcase.TestSuite(tool=suite.tool)
    for case in cases:
        out.add(case)
    return out


def test_untouched_suite_passes_the_output_check(campaign):
    schedule, suite, claimed = campaign
    assert wl.check_suite(schedule, suite, claimed, suite.digest()) is None


def test_dropped_case_fails_the_output_check(campaign):
    schedule, suite, claimed = campaign
    cases = list(suite)
    # the last case found probes no earlier case reached, so the
    # interpreter cannot reach the claim without it
    tampered = _copy(suite, cases[:-1])
    assert wl.check_suite(schedule, tampered, claimed, suite.digest())
    assert wl.check_suite(schedule, tampered, claimed, tampered.digest())


def test_flipped_byte_fails_the_output_check(campaign):
    schedule, suite, claimed = campaign
    cases = list(suite)
    data = bytearray(cases[0].data)
    data[len(data) // 2] ^= 0xFF
    flipped = testcase.TestCase(bytes(data), cases[0].found_at)
    tampered = _copy(suite, [flipped] + cases[1:])
    assert wl.check_suite(schedule, tampered, claimed, suite.digest())


def _job(model, engine, seed=1, inputs=90):
    return wl.Job(model, engine, dict(wl.ENGINES[engine], seed=seed,
                                      max_inputs=inputs,
                                      max_seconds=wl.WALL_CAP_S))


def test_service_defect_exposure_follows_submission_order():
    jobs = [_job("AFC", "scalar"), _job("AFC", "kernel"), _job("TCP", "kernel"),
            _job("AFC", "scalar"), _job("TCP", "kernel")]
    assert wl.defect_fixers(jobs) == [None, jobs[0], None, None, None]


def test_job_mix_runs_every_model_on_both_engines():
    rounds = wl.job_mix(seed=11, rounds=4, inputs=30)
    assert len(rounds) == 4
    warm = [{j.model: j.engine for j in warmups} for warmups, _jobs in rounds]
    for first, second in (warm[0:2], warm[2:4]):
        assert set(first) == set(second) == set(wl.model_names())
        # the second round of a pair flips the engine every model warms
        # up on
        assert all(first[m] != second[m] for m in first)
        assert sorted(first.values()).count("kernel") == len(first) // 2
    for _warmups, jobs in rounds:
        pairs = [(j.model, j.engine) for j in jobs]
        assert all(pairs.count(p) == wl.JOBS_PER_PAIR for p in set(pairs))
        assert len(set(pairs)) == 2 * len(wl.model_names())


def test_defect_explains_only_the_digest_it_predicts():
    fixer, job = _job("CPUTask", "scalar"), _job("CPUTask", "kernel", seed=7)
    defect = wl.reference_digest(job, built_for=fixer)
    assert defect != wl.reference_digest(job)
    job.state = "done"
    job.result = {"digest": defect}
    assert wl.check_job(job, fixer)[1] is True
    # any other outcome of an exposed job is a failure the defect does
    # not explain: a wrong digest, a crash, a cut round
    job.result = {"digest": "0" * len(defect)}
    assert wl.check_job(job, fixer)[1] is False
    job.result, job.state = None, "failed"
    assert wl.check_job(job, fixer) == ("job ended failed", False)


def test_tail_is_above_the_median_with_ten_beyond():
    assert wl.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3))
    assert wl.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_end_to_end_metric(workload):
    lines, result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = _specs("end_to_end")
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
        printed = [ln for ln in lines if ln.split()[:1] == [spec["name"]]]
        assert printed and spec["unit"] in printed[0]
        assert "(%s is better)" % spec["better"] in printed[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # long enough that every campaign gets past its seed inputs
    runs = [_bench(workload, trace=1, seconds=2)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] is True
        assert [m for m in result["metrics"]] == [
            s["name"] for s in _specs("per_layer")]
    first, second = (r["metrics"] for r in runs)
    assert {k: first[k]["value"] for k in COUNTS} == {
        k: second[k]["value"] for k in COUNTS}
    assert first["corpus.select_n"]["value"] > 0
