"""The telemetry subsystem: registry, traces, stats, and the satellites.

The e2e classes drive real campaigns on the demo model and reconstruct
them from the JSONL trace alone — the acceptance criterion is that the
reconstruction matches the live result without re-executing anything.
"""

import io
import json

import pytest

from repro import convert
from repro.errors import TelemetryError
from repro.fuzzing import Fuzzer, FuzzerConfig, run_campaign
from repro.fuzzing.corpus import Corpus, CorpusEntry
from repro.fuzzing.engine import FuzzResult
from repro.telemetry import (
    NULL,
    Telemetry,
    format_status_line,
    get_telemetry,
    merge_traces,
    read_trace,
    telemetry_scope,
    validate_event,
)
from repro.telemetry.report import coverage_curve, mutation_table, phase_table
from repro.telemetry.stats import StatusPrinter

from conftest import demo_model


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


def _result(**overrides):
    from repro.fuzzing import TestSuite

    fields = dict(
        suite=TestSuite(tool="cftcg"),
        report=None,
        inputs_executed=0,
        iterations_executed=0,
        elapsed=0.0,
    )
    fields.update(overrides)
    return FuzzResult(**fields)


class TestFuzzResultRates:
    """Edge cases of the derived rate properties (satellite #3)."""

    def test_zero_elapsed_is_zero_rate(self):
        result = _result(inputs_executed=100, iterations_executed=500)
        assert result.execs_per_second == 0.0
        assert result.iterations_per_second == 0.0

    def test_zero_execs_is_zero_rate(self):
        result = _result(elapsed=2.0)
        assert result.execs_per_second == 0.0
        assert result.iterations_per_second == 0.0

    def test_normal_rates(self):
        result = _result(inputs_executed=100, iterations_executed=400, elapsed=2.0)
        assert result.execs_per_second == 50.0
        assert result.iterations_per_second == 200.0


class TestTelemetryCore:
    def test_counters_gauges_histograms(self):
        tel = Telemetry(enabled=True)
        tel.counter("c").inc()
        tel.counter("c").inc(4)
        tel.gauge("g").set(2.5)
        snap = tel.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_phase_accumulates(self):
        tel = Telemetry(enabled=False)  # phases stay live when disabled
        with tel.phase("compile"):
            pass
        tel.add_phase("compile", 1.0)
        assert tel.phase_times["compile"] >= 1.0

    def test_null_singleton_drops_everything(self):
        before = dict(NULL.phase_times)
        with NULL.phase("anything"):
            pass
        NULL.add_phase("anything", 5.0)
        NULL.emit("cov", t=0, execs=0, covered=0, bits="0")
        assert NULL.phase_times == before

    def test_scope_installs_and_restores(self):
        tel = Telemetry(enabled=True)
        assert get_telemetry() is NULL
        with telemetry_scope(tel):
            assert get_telemetry() is tel
        assert get_telemetry() is NULL

    def test_emit_writes_jsonl_with_tags(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry(enabled=True, trace_path=path, tags={"worker": 3})
        tel.emit("heartbeat", worker=3, epoch=0, t=0.0, execs=1, covered=0, corpus=0)
        tel.close()
        (event,) = read_trace(path)
        assert event["ev"] == "heartbeat"
        assert event["worker"] == 3
        assert "ts" in event

    def test_disabled_emit_writes_nothing(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry(enabled=False, trace_path=path)
        tel.emit("cov", t=0, execs=0, covered=0, bits="0")
        tel.close()
        assert not (tmp_path / "t.jsonl").exists()


class TestEventSchema:
    def test_validate_accepts_complete_event(self):
        validate_event(
            {"ev": "cov", "ts": 1.0, "t": 0.1, "execs": 5, "covered": 2, "bits": "3"}
        )

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(TelemetryError):
            validate_event({"ev": "nope", "ts": 1.0})

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(TelemetryError):
            validate_event({"ev": "cov", "ts": 1.0, "t": 0.1})

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ev":"seed_phase","ts":1,"t":0,"execs":4}\n{"ev":"cov",')
        events = read_trace(str(path))
        assert len(events) == 1
        with pytest.raises(TelemetryError):
            read_trace(str(path), strict=True)

    def test_read_trace_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            read_trace(str(tmp_path / "absent.jsonl"))

    def test_merge_traces_sorts_by_ts(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps({"ev": "seed_phase", "ts": 2.0, "t": 0, "execs": 1}) + "\n")
        b.write_text(json.dumps({"ev": "seed_phase", "ts": 1.0, "t": 0, "execs": 1}) + "\n")
        out = tmp_path / "m.jsonl"
        merged = merge_traces([str(a), str(b), str(tmp_path / "gone")], str(out))
        assert [e["ts"] for e in merged] == [1.0, 2.0]
        assert [e["ts"] for e in read_trace(str(out))] == [1.0, 2.0]


class TestStatusLine:
    def test_format_matches_libfuzzer_shape(self):
        line = format_status_line(1234, 5, 10, 7, 1500.0)
        assert line.startswith("#1234")
        assert "cov: 5/10" in line
        assert "corp: 7" in line
        assert "exec/s: 1500" in line

    def test_printer_throttles(self):
        sink = io.StringIO()
        printer = StatusPrinter(sink, interval=3600.0)
        printer.maybe_print(1, 0, 10, 0)  # first call primes the clock
        printer.maybe_print(2, 0, 10, 0)  # inside the interval: suppressed
        assert sink.getvalue().count("\n") <= 1


class TestSingleWorkerTrace:
    """A workers=1 campaign reconstructed from its trace alone."""

    @pytest.fixture(scope="class")
    def campaign(self, schedule, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "single.jsonl")
        tel = Telemetry(enabled=True, trace_path=path)
        config = FuzzerConfig(max_seconds=600.0, max_inputs=300, seed=7)
        result = Fuzzer(schedule, config, telemetry=tel).run()
        tel.close()
        return result, read_trace(path)

    def test_every_event_is_schema_valid(self, campaign):
        _, events = campaign
        assert events
        for event in events:
            validate_event(event)

    def test_campaign_frame_events(self, campaign):
        _, events = campaign
        kinds = [e["ev"] for e in events]
        # compile_cache events (from the constructor's compile) may precede
        # the campaign frame; spans emit on exit, so the root campaign span
        # trails campaign_end — everything else sits inside the frame
        tail = kinds[kinds.index("campaign_end") + 1 :]
        assert all(k == "span" for k in tail)
        assert kinds.index("campaign_start") < kinds.index("seed_phase")
        assert "slice_end" in kinds

    def test_final_coverage_matches_live_result(self, campaign, schedule):
        from repro.bits import popcount

        result, events = campaign
        end = [e for e in events if e["ev"] == "campaign_end"][-1]
        assert end["execs"] == result.inputs_executed == 300
        assert end["cases"] == len(result.suite)
        assert end["decision"] == round(result.report.decision, 3)
        curve = coverage_curve(events)
        assert curve, "campaign found coverage, so cov events must exist"
        assert curve[-1][1] == end["covered"]

    def test_curve_is_monotone(self, campaign):
        _, events = campaign
        curve = coverage_curve(events)
        assert all(a[1] < b[1] for a, b in zip(curve, curve[1:]))
        assert all(a[0] <= b[0] for a, b in zip(curve, curve[1:]))

    def test_mutation_table_has_operators(self, campaign):
        _, events = campaign
        rows = mutation_table(events)
        assert rows
        for _, applied, wins, rate in rows:
            assert 0 <= wins <= applied
            assert 0.0 <= rate <= 100.0

    def test_phase_attribution_covers_pipeline(self, campaign):
        result, events = campaign
        phases = dict(phase_table(events))
        assert "mutate_exec" in phases
        assert "seed" in phases
        assert set(result.phase_times) >= {"seed", "mutate_exec", "replay"}


class TestParallelTrace:
    """A 2-worker campaign's merged trace."""

    @pytest.fixture(scope="class")
    def campaign(self, schedule, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "multi.jsonl")
        tel = Telemetry(enabled=True, trace_path=path)
        config = FuzzerConfig(
            max_seconds=600.0, max_inputs=300, seed=3, workers=2, sync_rounds=2
        )
        result = run_campaign(schedule, config, telemetry=tel)
        tel.close()
        return result, read_trace(path)

    def test_every_event_is_schema_valid(self, campaign):
        _, events = campaign
        for event in events:
            validate_event(event)

    def test_worker_events_merged_into_campaign_trace(self, campaign):
        _, events = campaign
        workers = {e["worker"] for e in events if e["ev"] == "heartbeat"}
        assert workers == {0, 1}
        epochs = [e["epoch"] for e in events if e["ev"] == "sync_epoch"]
        assert epochs == [0, 1]

    def test_final_coverage_matches_live_result(self, campaign):
        result, events = campaign
        end = [e for e in events if e["ev"] == "campaign_end"][-1]
        assert end["execs"] == result.inputs_executed == 300
        assert end["decision"] == round(result.report.decision, 3)
        curve = coverage_curve(events)
        assert curve[-1][1] == end["covered"]

    def test_union_curve_is_monotone(self, campaign):
        _, events = campaign
        curve = coverage_curve(events)
        assert all(a[1] < b[1] for a, b in zip(curve, curve[1:]))


class TestByteIdentity:
    """Telemetry on/off must not perturb the campaign byte stream."""

    def test_suite_digest_unchanged_with_telemetry_on(self, schedule, tmp_path):
        from test_parallel import TestDeterminismRegression

        seed, max_inputs = 7, 300
        want = TestDeterminismRegression.GOLDEN[(seed, max_inputs)]
        tel = Telemetry(
            enabled=True,
            trace_path=str(tmp_path / "t.jsonl"),
            stats_stream=io.StringIO(),
            stats_interval=0.0,
        )
        config = FuzzerConfig(max_seconds=600.0, max_inputs=max_inputs, seed=seed)
        result = Fuzzer(schedule, config, telemetry=tel).run()
        tel.close()
        assert result.suite.digest() == want


class TestCliFlags:
    """--stats / --trace on fuzz, report --trace (satellite #3 e2e)."""

    def test_fuzz_stats_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "afc.jsonl")
        assert main(["fuzz", "AFC", "--seconds", "0.5", "--stats",
                     "--trace", trace]) == 0
        captured = capsys.readouterr()
        assert "phase times:" in captured.out
        assert "trace written to" in captured.out
        assert "exec/s:" in captured.err  # the throttled status lines
        events = read_trace(trace)
        for event in events:
            validate_event(event)
        kinds = [e["ev"] for e in events]
        assert "campaign_start" in kinds
        # the CLI-owned root span emits on exit, after campaign_end
        assert "campaign_end" in kinds
        assert all(k == "span" for k in kinds[kinds.index("campaign_end") + 1 :])

    def test_report_renders_trace_without_model(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "afc.jsonl")
        main(["fuzz", "AFC", "--seconds", "0.5", "--trace", trace])
        capsys.readouterr()
        assert main(["report", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "campaign: model=" in out
        assert "coverage: DC" in out

    def test_report_trace_excludes_positionals(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "afc.jsonl")
        main(["fuzz", "AFC", "--seconds", "0.3", "--trace", trace])
        capsys.readouterr()
        assert main(["report", "AFC", "--trace", trace]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_without_args_is_error(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_codegen_optimizer_stats_via_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "cg.jsonl")
        assert main(["codegen", "AFC", "--optimized", "--trace", trace]) == 0
        captured = capsys.readouterr()
        assert "# optimizer:" in captured.err
        kinds = [e["ev"] for e in read_trace(trace)]
        assert "optimizer_stats" in kinds


class TestSignalStatsRing:
    """Satellite #1: the sample ring must not expose zero padding."""

    def _stats(self, n):
        from repro.simulate.monitor import SignalStats

        stats = SignalStats()
        for i in range(n):
            stats.record(float(i + 1))
        return stats

    def test_partial_ring_has_no_phantom_zeros(self):
        stats = self._stats(5)
        assert stats.recent() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_empty_ring(self):
        assert self._stats(0).recent() == []

    def test_full_ring_is_oldest_first_window(self):
        from repro.simulate.monitor import _RING_SIZE

        stats = self._stats(_RING_SIZE + 3)
        recent = stats.recent()
        assert len(recent) == _RING_SIZE
        assert recent[0] == 4.0  # samples 1..3 rolled off
        assert recent[-1] == float(_RING_SIZE + 3)
        assert recent == sorted(recent)


class TestCorpusEvictReturn:
    def test_add_returns_victim_when_full(self):
        corpus = Corpus(max_entries=2)
        assert corpus.add(CorpusEntry(b"a", 10, False, 0.0, iterations=1)) is None
        assert corpus.add(CorpusEntry(b"b", 20, True, 0.0, iterations=1)) is None
        victim = corpus.add(CorpusEntry(b"c", 30, False, 0.0, iterations=1))
        assert victim is not None
        assert victim.data == b"a"  # weakest metric-only entry goes first
        assert len(corpus) == 2
