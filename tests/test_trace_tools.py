"""Span tracing and the ``repro trace`` analysis toolkit.

One real campaign per worker topology feeds every assertion: the span
tree must reconstruct to a single campaign-rooted tree (workers and
epochs included), the monotonic ``mt`` field must ride on every event,
the hardened reader must salvage damaged traces with an honest skip
count, and summary/curve/diff must work from traces alone.
"""

import json

import pytest

from repro import convert
from repro.bits import popcount
from repro.cli import main
from repro.errors import TelemetryError
from repro.fuzzing import Fuzzer, FuzzerConfig, run_campaign
from repro.telemetry import Telemetry, read_trace
from repro.telemetry.spans import build_span_tree, render_span_tree, span_table
from repro.telemetry.tools import (
    coverage_union_bits,
    probe_positions,
    render_curve,
    render_diff,
    render_summary,
    trace_diff,
    trace_stats,
)

from conftest import demo_model


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


@pytest.fixture(scope="module")
def single_trace(schedule, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tt") / "single.jsonl")
    tel = Telemetry(enabled=True, trace_path=path)
    config = FuzzerConfig(max_seconds=600.0, max_inputs=300, seed=7)
    result = Fuzzer(schedule, config, telemetry=tel).run()
    tel.close()
    return path, result


@pytest.fixture(scope="module")
def parallel_trace(schedule, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tt") / "multi.jsonl")
    tel = Telemetry(enabled=True, trace_path=path)
    config = FuzzerConfig(
        max_seconds=600.0, max_inputs=300, seed=3, workers=2, sync_rounds=2
    )
    result = run_campaign(schedule, config, telemetry=tel)
    tel.close()
    return path, result


# -------------------------------------------------------------------- #
# the monotonic clock satellite
# -------------------------------------------------------------------- #
class TestMonotonicField:
    def test_every_event_carries_mt(self, single_trace):
        path, _ = single_trace
        events = read_trace(path)
        assert events
        for event in events:
            assert isinstance(event["mt"], float)

    def test_mt_is_nondecreasing_within_one_process(self, single_trace):
        path, _ = single_trace
        mts = [e["mt"] for e in read_trace(path)]
        assert mts == sorted(mts)


# -------------------------------------------------------------------- #
# span emission + reconstruction
# -------------------------------------------------------------------- #
class TestSpanTree:
    def test_single_process_tree_roots_at_campaign(self, single_trace):
        # constructor-time compile spans precede the run()'s root and
        # surface as sibling roots; the campaign frame itself is one tree
        path, _ = single_trace
        roots = build_span_tree(read_trace(path))
        names = [r.name for r in roots]
        assert names[-1] == "campaign"
        assert set(names[:-1]) <= {"compile"}
        child_names = {c.name for c in roots[-1].children}
        assert {"seed", "mutate_exec", "replay"} <= child_names

    def test_parallel_tree_stitches_workers_under_one_root(self, parallel_trace):
        path, _ = parallel_trace
        roots = build_span_tree(read_trace(path))
        assert [r.name for r in roots] == ["campaign"]
        slices = [c for c in roots[0].children if c.name == "slice"]
        # 2 workers x 2 epochs
        assert len(slices) == 4
        assert {s.worker for s in slices} == {0, 1}
        # a default slice runs the one-lane kernel where a C compiler is
        # present, which adds its coalesced dispatch/fold spans
        phases = {"seed", "mutate_exec", "kernel_dispatch", "kernel_fold"}
        for s in slices:
            assert {c.name for c in s.children} <= phases

    def test_span_ids_are_unique_across_workers_and_epochs(self, parallel_trace):
        path, _ = parallel_trace
        ids = [
            e["span_id"] for e in read_trace(path) if e["ev"] == "span"
        ]
        assert len(ids) == len(set(ids))

    def test_parent_follows_children_in_trace_order(self, single_trace):
        path, _ = single_trace
        events = [e for e in read_trace(path) if e["ev"] == "span"]
        index = {e["span_id"]: i for i, e in enumerate(events)}
        for event in events:
            parent = event.get("parent_id")
            if parent in index:
                assert index[parent] > index[event["span_id"]]

    def test_span_table_and_tree_render(self, parallel_trace):
        path, _ = parallel_trace
        events = read_trace(path)
        rows = span_table(events)
        names = [name for name, *_ in rows]
        assert "campaign" in names and "slice" in names
        for _, count, total, mean in rows:
            assert count >= 1 and total >= 0.0 and mean >= 0.0
        rendered = render_span_tree(events)
        assert "campaign" in rendered
        assert "[w1]" in rendered

    def test_self_dur_excludes_children(self, single_trace):
        path, _ = single_trace
        root = build_span_tree(read_trace(path))[0]
        assert 0.0 <= root.self_dur <= root.dur


# -------------------------------------------------------------------- #
# hardened trace reading
# -------------------------------------------------------------------- #
class TestHardenedReadTrace:
    def _write(self, tmp_path, text):
        path = tmp_path / "damaged.jsonl"
        path.write_text(text)
        return str(path)

    def test_torn_tail_counts_one_skip(self, tmp_path):
        path = self._write(
            tmp_path, '{"ev": "plateau", "t": 1}\n{"ev": "plat'
        )
        events = read_trace(path)
        assert [e["ev"] for e in events] == ["plateau"]
        assert events.skipped == 1

    def test_fused_line_is_salvaged(self, tmp_path):
        # two workers' appends interleaved onto one line: both objects
        # decode, nothing is lost
        path = self._write(
            tmp_path,
            '{"ev": "plateau", "t": 1}{"ev": "plateau", "t": 2}\n',
        )
        events = read_trace(path)
        assert [e["t"] for e in events] == [1, 2]
        assert events.skipped == 0

    def test_fused_line_with_torn_remainder(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"ev": "plateau", "t": 1}{"ev": "pl\n{"ev": "plateau", "t": 3}\n',
        )
        events = read_trace(path)
        assert [e["t"] for e in events] == [1, 3]
        assert events.skipped == 1

    def test_non_object_line_is_skipped(self, tmp_path):
        path = self._write(tmp_path, '[1, 2, 3]\n{"ev": "plateau", "t": 1}\n')
        events = read_trace(path)
        assert [e["ev"] for e in events] == ["plateau"]
        assert events.skipped == 1

    def test_strict_mode_still_raises(self, tmp_path):
        path = self._write(tmp_path, '{"ev": "pl\n')
        with pytest.raises(TelemetryError):
            read_trace(path, strict=True)

    def test_skip_count_surfaces_in_summary(self, tmp_path, single_trace):
        src, _ = single_trace
        text = open(src).read() + '{"ev": "torn'
        path = self._write(tmp_path, text)
        events = read_trace(path)
        assert events.skipped == 1
        assert "WARNING: 1 malformed trace line" in render_summary(events)
        assert trace_stats(events)["skipped_lines"] == 1


# -------------------------------------------------------------------- #
# summary / curve / diff
# -------------------------------------------------------------------- #
class TestTraceTools:
    def test_stats_match_live_result(self, single_trace):
        path, result = single_trace
        stats = trace_stats(read_trace(path))
        assert stats["execs"] == result.inputs_executed == 300
        assert stats["cases"] == len(result.suite)
        assert stats["workers"] == 1
        assert stats["spans"] > 0
        assert stats["skipped_lines"] == 0
        assert stats["curve"], "coverage curve must reconstruct"

    def test_union_bits_agree_with_curve_tail(self, single_trace):
        path, _ = single_trace
        events = read_trace(path)
        union = coverage_union_bits(events)
        assert popcount(union) == trace_stats(events)["curve"][-1][1]

    def test_probe_positions_use_byte_stride(self):
        bits = int.from_bytes(b"\x00\x01\x00\x01\x01", "little")
        assert probe_positions(bits) == [1, 3, 4]
        assert probe_positions(bits, limit=2) == [1, 3]
        assert probe_positions(0) == []

    def test_render_summary_contains_spans(self, single_trace):
        path, _ = single_trace
        text = render_summary(read_trace(path))
        assert "span tree:" in text
        assert "campaign" in text
        assert "WARNING" not in text

    def test_render_curve(self, single_trace):
        path, _ = single_trace
        text = render_curve(read_trace(path))
        assert "probe coverage over time" in text
        assert "fraction" in text

    def test_self_diff_is_neutral(self, single_trace):
        path, _ = single_trace
        events = read_trace(path)
        diff = trace_diff(events, events)
        assert diff["coverage"]["delta"] == 0
        assert diff["coverage"]["only_A"] == []
        assert diff["coverage"]["only_B"] == []
        assert diff["throughput"]["speedup"] == 1.0
        assert diff["cases"]["delta"] == 0
        assert diff["phase_regressions"] == []

    def test_cross_seed_diff_reports_probe_indices(
        self, single_trace, parallel_trace, schedule
    ):
        path_a, _ = single_trace
        path_b, _ = parallel_trace
        diff = trace_diff(read_trace(path_a), read_trace(path_b))
        n_probes = schedule.branch_db.n_probes
        for label in ("only_A", "only_B"):
            for probe in diff["coverage"][label]:
                assert 0 <= probe < n_probes
        assert diff["coverage"]["common"] >= 0
        rendered = render_diff(diff)
        assert "coverage:" in rendered and "throughput:" in rendered


# -------------------------------------------------------------------- #
# the CLI surface
# -------------------------------------------------------------------- #
class TestTraceCli:
    def test_summary(self, single_trace, capsys):
        path, _ = single_trace
        assert main(["trace", "summary", path]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out

    def test_summary_json(self, single_trace, capsys):
        path, result = single_trace
        assert main(["trace", "summary", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["execs"] == result.inputs_executed

    def test_curve_json(self, single_trace, capsys):
        path, _ = single_trace
        assert main(["trace", "curve", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["curve"]
        assert data["covered"] == data["curve"][-1][1]

    def test_diff(self, single_trace, parallel_trace, capsys):
        path_a, _ = single_trace
        path_b, _ = parallel_trace
        assert main(["trace", "diff", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "A = %s" % path_a in out
        assert "throughput:" in out

    def test_diff_json(self, single_trace, parallel_trace, capsys):
        path_a, _ = single_trace
        path_b, _ = parallel_trace
        assert main(["trace", "diff", path_a, path_b, "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["paths"] == {"A": path_a, "B": path_b}
        assert "coverage" in diff and "phases" in diff

    def test_fuzz_serve_metrics_flag_runs(self, capsys, tmp_path):
        # --serve-metrics 0 binds an ephemeral port and must shut down
        # cleanly with the campaign (covered in depth by the server tests)
        code = main(
            [
                "fuzz",
                "CPUTask",
                "--seconds",
                "0.2",
                "--seed",
                "5",
                "--trace",
                str(tmp_path / "t.jsonl"),
                "--serve-metrics",
                "0",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "serving metrics on http://127.0.0.1:" in err
        # the CLI owns the root span, so parse/compile/campaign all fold
        # into ONE tree — the acceptance criterion for span coherence
        roots = build_span_tree(read_trace(str(tmp_path / "t.jsonl")))
        assert [r.name for r in roots] == ["campaign"]
        assert "parse" in {c.name for c in roots[0].children}
