"""The live observability stack: /metrics, /status, /events.

The acceptance criteria from the PR: a campaign with ``--serve-metrics``
serves Prometheus-parseable ``/metrics`` and a JSON ``/status`` frame
while fuzzing (with per-worker aggregation under ``--workers 2``), the
endpoints keep answering on a stale snapshot after ``io_errors``
disables the JSONL sink, and the server shuts down cleanly when the
campaign ends.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import convert
from repro.faults.plan import fault_scope, parse_faults
from repro.fuzzing import Fuzzer, FuzzerConfig, run_campaign
from repro.telemetry import Telemetry, validate_event
from repro.telemetry.metrics import (
    ENGINE_GAUGES,
    LADDER_POSITIONS,
    metric_name,
    parse_exposition,
    render_prometheus,
)
from repro.telemetry.server import CampaignStatus, MetricsServer

from conftest import demo_model


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


def _get(url, timeout=5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as exc:  # 4xx still has a body
        return exc.code, exc.headers.get("Content-Type", ""), exc.read()


# -------------------------------------------------------------------- #
# exposition format
# -------------------------------------------------------------------- #
class TestPrometheusFormat:
    def test_metric_name_sanitizes_and_prefixes(self):
        assert metric_name("engine.execs_per_s") == "repro_engine_execs_per_s"
        assert metric_name("a b/c-d") == "repro_a_b_c_d"
        assert metric_name("cache.hits", "_total") == "repro_cache_hits_total"

    def test_counters_get_total_suffix(self):
        tel = Telemetry(enabled=True)
        tel.counter("cache.hits").inc(3)
        text = render_prometheus(tel.snapshot())
        samples = parse_exposition(text)
        assert samples["repro_cache_hits_total"] == 3.0
        assert "# TYPE repro_cache_hits_total counter" in text

    def test_phase_times_are_labeled_samples(self):
        tel = Telemetry(enabled=True)
        tel.add_phase("seed", 0.25)
        tel.add_phase("mutate_exec", 1.5)
        samples = parse_exposition(render_prometheus(tel.snapshot()))
        assert samples['repro_phase_seconds{phase="seed"}'] == 0.25
        assert samples['repro_phase_seconds{phase="mutate_exec"}'] == 1.5

    def test_engine_gauges_carry_help_text(self):
        tel = Telemetry(enabled=True)
        for name in ENGINE_GAUGES:
            tel.gauge(name).set(1)
        text = render_prometheus(tel.snapshot())
        for name, help_text in ENGINE_GAUGES.items():
            assert "# HELP %s %s" % (metric_name(name), help_text) in text

    def test_ladder_positions_cover_every_engine(self):
        # scalar and kernel keep the positions they had on the
        # three-rung ladder, so the gauge reads the same across versions
        assert LADDER_POSITIONS == {"scalar": 0, "kernel": 2}


# -------------------------------------------------------------------- #
# live endpoints during a real campaign
# -------------------------------------------------------------------- #
class TestLiveEndpoints:
    @pytest.fixture(scope="class")
    def served_campaign(self, schedule, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("srv") / "t.jsonl")
        tel = Telemetry(enabled=True, trace_path=path)
        server = MetricsServer(tel).start()
        config = FuzzerConfig(
            max_seconds=600.0, max_inputs=300, seed=3, workers=2, sync_rounds=2
        )
        result = run_campaign(schedule, config, telemetry=tel)
        # scrape BEFORE close: this is the live-campaign contract
        metrics = _get(server.url + "/metrics")
        status = _get(server.url + "/status")
        events = _get(server.url + "/events?n=32")
        missing = _get(server.url + "/nope")
        server.close()
        tel.close()
        return result, metrics, status, events, missing

    def test_metrics_is_prometheus_parseable(self, served_campaign):
        _, (code, ctype, body), _, _, _ = served_campaign
        assert code == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        samples = parse_exposition(body.decode("utf-8"))
        assert samples  # non-empty registry

    def test_metrics_exposes_campaign_gauges(self, served_campaign):
        _, (_, _, body), _, _, _ = served_campaign
        samples = parse_exposition(body.decode("utf-8"))
        assert samples["repro_campaign_workers_live"] == 2.0
        assert samples["repro_campaign_sync_epoch"] == 1.0
        assert samples["repro_campaign_union_covered"] > 0
        assert samples["repro_server_events_seen"] > 0

    def test_status_aggregates_both_workers(self, served_campaign):
        result, _, (code, ctype, body), _, _ = served_campaign
        assert code == 200 and ctype == "application/json"
        frame = json.loads(body)
        assert frame["workers"] == 2
        assert frame["phase"] == "done"
        assert frame["cases"] == len(result.suite)
        detail = frame["workers_detail"]
        assert set(detail) == {"0", "1"}
        for entry in detail.values():
            assert entry["phase"] == "idle"
            assert entry["execs"] > 0
            assert entry["heartbeat_age_s"] >= 0.0
        assert frame["sink"]["degraded"] is False

    def test_events_tail_is_schema_valid(self, served_campaign):
        _, _, _, (code, ctype, body), _ = served_campaign
        assert code == 200 and ctype == "application/json"
        tail = json.loads(body)
        assert 0 < len(tail) <= 32
        for event in tail:
            validate_event(event)

    def test_unknown_path_is_404(self, served_campaign):
        *_, missing = served_campaign
        assert missing[0] == 404


# -------------------------------------------------------------------- #
# sink degradation: stale snapshot, live endpoints
# -------------------------------------------------------------------- #
class TestSinkDegradation:
    def test_endpoints_answer_after_io_errors_disable_sink(self, tmp_path):
        tel = Telemetry(enabled=True, trace_path=str(tmp_path / "t.jsonl"))
        with MetricsServer(tel) as server:
            tel.counter("cache.hits").inc()
            tel.emit("plateau", t=0.1, execs=10, stagnant=5)
            with fault_scope(parse_faults("trace_io_error")):
                tel.emit("plateau", t=0.2, execs=20, stagnant=6)
            assert tel.io_errors == 1
            # the sink is gone, but listeners still feed the server:
            tel.emit("plateau", t=0.3, execs=30, stagnant=7)
            _, _, body = _get(server.url + "/metrics")
            samples = parse_exposition(body.decode("utf-8"))
            assert samples["repro_cache_hits_total"] == 1.0
            assert samples["repro_telemetry_io_errors"] == 1.0
            _, _, body = _get(server.url + "/status")
            frame = json.loads(body)
            assert frame["sink"]["degraded"] is True
            assert frame["sink"]["io_errors"] == 1
            _, _, body = _get(server.url + "/events")
            tail = json.loads(body)
            # all three emits reached the ring, including post-degradation
            assert [e["t"] for e in tail if e["ev"] == "plateau"] == [0.1, 0.2, 0.3]
        tel.close()

    def test_scrape_race_serves_stale_snapshot(self, monkeypatch):
        tel = Telemetry(enabled=True)
        tel.gauge("engine.execs").set(42)
        server = MetricsServer(tel)
        good = server.render_metrics()
        assert "repro_engine_execs 42" in good

        def raging_snapshot():
            raise RuntimeError("dictionary changed size during iteration")

        monkeypatch.setattr(tel, "snapshot", raging_snapshot)
        assert server.render_metrics() == good  # stale, not a 500


# -------------------------------------------------------------------- #
# lifecycle
# -------------------------------------------------------------------- #
class TestFreePortAssignment:
    def test_serve_metrics_zero_picks_a_free_port(self, tmp_path):
        """``--serve-metrics 0`` (PR 9 pin): the CLI binds an OS-assigned
        free port, announces the real URL on stderr before fuzzing, and
        the endpoints answer live on that URL."""
        import os
        import re
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "fuzz",
                "CPUTask",
                "--seconds",
                "20",
                "--serve-metrics",
                "0",
                "--out",
                str(tmp_path / "suite"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            url = None
            while time.monotonic() < deadline:
                line = proc.stderr.readline()
                if not line:
                    raise AssertionError(
                        "campaign exited before announcing its URL"
                    )
                match = re.search(r"serving metrics on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, "no 'serving metrics on' line within 60s"
            port = int(url.rsplit(":", 1)[1])
            assert port != 0  # the OS assigned a real port
            code, ctype, body = _get(url + "/metrics", timeout=30)
            assert code == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            parse_exposition(body.decode("utf-8"))  # raises if malformed
            code, _, body = _get(url + "/status", timeout=30)
            assert code == 200
            frame = json.loads(body)
            assert frame["uptime_s"] >= 0.0
            assert "sink" in frame  # the degradation block is present
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class TestLifecycle:
    def test_clean_shutdown_at_campaign_end(self, schedule, tmp_path):
        tel = Telemetry(enabled=True, trace_path=str(tmp_path / "t.jsonl"))
        server = MetricsServer(tel).start()
        url = server.url
        config = FuzzerConfig(max_seconds=600.0, max_inputs=100, seed=7)
        Fuzzer(schedule, config, telemetry=tel).run()
        assert _get(url + "/status")[0] == 200
        thread = server._thread
        server.close()
        tel.close()
        assert thread is not None and not thread.is_alive()
        assert tel.status is None  # detached from the registry
        with pytest.raises(urllib.error.URLError):
            _get(url + "/status", timeout=1.0)
        # close is idempotent
        server.close()

    def test_close_removes_listener(self, tmp_path):
        tel = Telemetry(enabled=True, trace_path=str(tmp_path / "t.jsonl"))
        server = MetricsServer(tel).start()
        tel.emit("plateau", t=0.1, execs=1, stagnant=1)
        assert len(server.event_tail()) == 1
        server.close()
        tel.emit("plateau", t=0.2, execs=2, stagnant=2)
        assert len(server.event_tail()) == 1  # ring stopped growing
        tel.close()

    def test_status_heartbeat_ages_are_monotonic_fields(self):
        status = CampaignStatus()
        status.update(model="m", phase="fuzz")
        status.worker_update(0, phase="running", execs=10)
        status.worker_update(1, heartbeat=False, phase="dispatched")
        frame = status.as_dict()
        assert frame["model"] == "m"
        assert frame["uptime_s"] >= 0.0
        assert frame["workers_detail"]["0"]["heartbeat_age_s"] >= 0.0
        # no heartbeat recorded -> no age, and private keys stay hidden
        assert "heartbeat_age_s" not in frame["workers_detail"]["1"]
        assert not any(
            k.startswith("_") for k in frame["workers_detail"]["0"]
        )
