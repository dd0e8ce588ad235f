"""End-to-end battery for the campaign service (PR 10).

The acceptance contract, exercised over the real HTTP API with real
(tiny) models:

- submit -> schedule -> poll -> results: a job served by the daemon
  produces the **byte-identical** suite digest of the standalone
  ``run_campaign`` call with the same configuration;
- two overlapping jobs multiplexed over one shared pool both complete,
  each byte-identical to its standalone run (per-job isolation);
- input-budget slicing is deterministic: two identically-sliced service
  runs agree byte-for-byte — which is what makes crash-resume exact;
- a SIGKILL'd daemon restarted over the same store resumes its
  in-flight job and finishes with the digest of an uninterrupted run;
- the durable store never trusts damaged bytes: corrupted records are
  quarantined (file or whole job), and a job whose snapshot is lost
  restarts from scratch to the same final digest;
- bad payloads are 400s, unknown jobs 404s, results-before-done and
  cancel-after-finish 409s; queued and running jobs cancel cleanly.

Budget discipline: every digest-bearing job pins ``kernel_threads=1``
and an input cap with a generous wall budget, so the input cap always
binds — wall-clock budgets are not deterministic, input budgets are.
The fault soak (worker deaths under concurrency) is ``-m slow``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from conftest import demo_model, no_inport_model, skip_if_no_cc
from repro import convert, model_from_xml, model_to_xml, save_container
from repro.errors import JobNotFound
from repro.faults.plan import fault_scope, parse_faults
from repro.fuzzing import FuzzerConfig
from repro.fuzzing.parallel import run_campaign
from repro.service import JobStore, ServiceDaemon
from repro.slx import load_container
from repro.telemetry.metrics import parse_exposition

#: the deterministic job config of the golden-digest tests; the input
#: cap binds (wall budget is slack), kernel_threads pinned
GOLDEN = {"max_inputs": 150, "max_seconds": 60.0, "kernel_threads": 1}

_DEADLINE = 120.0


# -------------------------------------------------------------------- #
# plumbing
# -------------------------------------------------------------------- #
class Client:
    """A tiny urllib client returning (status, parsed-or-raw body)."""

    def __init__(self, url: str):
        self.url = url

    def request(self, method, path, body=None, raw=False):
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(self.url + path, method=method, data=data)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                payload = resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            status = exc.code
        if raw:
            return status, payload
        return status, json.loads(payload) if payload else None

    def get(self, path, raw=False):
        return self.request("GET", path, raw=raw)

    def post(self, path, body):
        return self.request("POST", path, body=body)

    def delete(self, path):
        return self.request("DELETE", path)

    def wait(self, job_id, until=("done", "failed", "cancelled")):
        deadline = time.monotonic() + _DEADLINE
        while time.monotonic() < deadline:
            status, frame = self.get("/jobs/%s" % job_id)
            assert status == 200, frame
            if frame["state"] in until:
                return frame
            time.sleep(0.05)
        raise AssertionError("job %s never reached %s" % (job_id, until))


def demo_slxz(tmp_path) -> str:
    path = str(tmp_path / "demo.slxz")
    save_container(model_to_xml(demo_model()), path)
    return path


def standalone_digest(model_path: str, **overrides) -> str:
    """The reference digest: the same campaign run without the service."""
    schedule = convert(model_from_xml(load_container(model_path)))
    result = run_campaign(schedule, FuzzerConfig(**dict(GOLDEN, **overrides)))
    return result.suite.digest()


@pytest.fixture
def daemon(tmp_path):
    svc = ServiceDaemon(str(tmp_path / "store"), pool_size=2)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(daemon):
    return Client(daemon.api.url)


# -------------------------------------------------------------------- #
# the API battery: submit -> schedule -> poll -> results
# -------------------------------------------------------------------- #
class TestServiceAPI:
    def test_served_job_matches_standalone_byte_for_byte(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        status, body = client.post(
            "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
        )
        assert status == 201
        job_id = body["id"]
        frame = client.wait(job_id)
        assert frame["state"] == "done"
        assert frame["execs"] == GOLDEN["max_inputs"]
        status, result = client.get("/jobs/%s/results" % job_id)
        assert status == 200
        assert result["digest"] == standalone_digest(model, seed=7)
        # the hex suite round-trips to the same digest the daemon stored
        import hashlib

        h = hashlib.sha256()
        for case_hex in result["suite"]:
            data = bytes.fromhex(case_hex)
            h.update(len(data).to_bytes(4, "little"))
            h.update(data)
        assert h.hexdigest() == result["digest"]
        assert result["report"]["decision"] > 0

    def test_job_trace_reads_like_a_standalone_campaign(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        _, body = client.post(
            "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
        )
        client.wait(body["id"])
        status, raw = client.get("/jobs/%s/trace" % body["id"], raw=True)
        assert status == 200
        events = [json.loads(line) for line in raw.decode().splitlines()]
        kinds = [e["ev"] for e in events]
        assert kinds.count("campaign_start") == 1
        assert kinds.count("campaign_end") == 1
        assert kinds.index("campaign_start") == 0
        # the live frame endpoint multiplexes the PR-9 status shape
        status, frame = client.get("/jobs/%s" % body["id"])
        assert frame["status"]["phase"] == "done"
        assert "workers_detail" in frame["status"]

    def test_job_listing_status_and_metrics_frames(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        _, body = client.post(
            "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
        )
        client.wait(body["id"])
        status, listing = client.get("/jobs")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [body["id"]]
        assert listing["jobs"][0]["state"] == "done"
        status, frame = client.get("/status")
        assert frame["jobs"] == {"done": 1}
        assert frame["pool"]["size"] == 2
        status, raw = client.get("/metrics", raw=True)
        samples = parse_exposition(raw.decode("utf-8"))
        job = body["id"]
        assert samples['repro_job_state{job="%s"}' % job] == 2.0  # done
        assert (
            samples['repro_job_execs{job="%s"}' % job]
            == GOLDEN["max_inputs"]
        )
        assert samples["repro_service_pool_size"] == 2.0

    def test_events_endpoint_serves_the_job_tail(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        _, body = client.post(
            "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
        )
        client.wait(body["id"])
        status, events = client.get("/jobs/%s/events?n=500" % body["id"])
        assert status == 200
        kinds = {e["ev"] for e in events}
        assert "job_state" in kinds and "campaign_end" in kinds

    def test_bad_payloads_are_400(self, daemon, client):
        status, body = client.request("POST", "/jobs", body=None)
        assert status == 400
        req = urllib.request.Request(
            client.url + "/jobs", method="POST", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        for spec in (
            {"config": {}},  # no model
            {"model": "NotAModel"},
            {"model": "CPUTask", "config": {"bogus_field": 1}},
            {"model": "CPUTask", "config": {"workers": 2}},
            {"model": "CPUTask", "slice_inputs": 0},
            {"model": "CPUTask", "slice_inputs": True},
            {"model": "CPUTask", "config": "seed=7"},
            {"model": "CPUTask", "config": {"kernel": "maybe"}},
            {"model": "CPUTask", "config": {"lanes": 0}},
            {"model": "CPUTask", "config": {"level": "gate"}},
            {"model": "CPUTask", "config": {"lanes": 4, "kernel_threads": 0}},
        ):
            status, body = client.post("/jobs", spec)
            assert status == 400, spec
            assert "error" in body
        # nothing was admitted
        assert client.get("/jobs")[1]["jobs"] == []

    def test_unknown_job_is_404_everywhere(self, daemon, client):
        for path in (
            "/jobs/job9999",
            "/jobs/job9999/results",
            "/jobs/job9999/events",
            "/jobs/job9999/trace",
        ):
            assert client.get(path, raw=True)[0] == 404, path
        assert client.delete("/jobs/job9999")[0] == 404
        assert client.get("/nonsense", raw=True)[0] == 404

    def test_results_before_done_is_409_and_cancel_finishes(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        # a job that cannot finish soon: huge input budget, long wall
        _, body = client.post(
            "/jobs",
            {
                "model": model,
                "config": {
                    "seed": 3,
                    "max_inputs": 10_000_000,
                    "max_seconds": 3600.0,
                    "kernel_threads": 1,
                },
                "slice_inputs": 50,
            },
        )
        job_id = body["id"]
        status, err = client.get("/jobs/%s/results" % job_id)
        assert status == 409
        assert "not done" in err["error"]
        status, body = client.delete("/jobs/%s" % job_id)
        assert status == 200
        frame = client.wait(job_id)
        assert frame["state"] == "cancelled"
        # terminal: cancelling again conflicts, results still 409
        assert client.delete("/jobs/%s" % job_id)[0] == 409
        assert client.get("/jobs/%s/results" % job_id)[0] == 409

    def test_cancel_queued_job_before_dispatch(self, tmp_path):
        svc = ServiceDaemon(str(tmp_path / "store"), pool_size=1)
        svc.start()
        try:
            client = Client(svc.api.url)
            model = demo_slxz(tmp_path)
            blocker = {
                "model": model,
                "config": {
                    "seed": 1,
                    "max_inputs": 10_000_000,
                    "max_seconds": 3600.0,
                    "kernel_threads": 1,
                },
                "slice_inputs": 50,
            }
            _, first = client.post("/jobs", blocker)
            _, second = client.post("/jobs", dict(blocker, model=model))
            status, body = client.delete("/jobs/%s" % second["id"])
            assert status == 200
            assert body["state"] == "cancelled"
            assert client.wait(second["id"])["state"] == "cancelled"
            client.delete("/jobs/%s" % first["id"])
            client.wait(first["id"])
        finally:
            svc.stop()


# -------------------------------------------------------------------- #
# concurrency: overlapping jobs over one shared pool
# -------------------------------------------------------------------- #
class TestConcurrency:
    def test_overlapping_jobs_each_match_their_standalone_run(
        self, daemon, client, tmp_path
    ):
        model = demo_slxz(tmp_path)
        ids = {}
        for seed in (7, 11):
            _, body = client.post(
                "/jobs", {"model": model, "config": dict(GOLDEN, seed=seed)}
            )
            ids[seed] = body["id"]
        for seed, job_id in ids.items():
            frame = client.wait(job_id)
            assert frame["state"] == "done", frame
            _, result = client.get("/jobs/%s/results" % job_id)
            assert result["digest"] == standalone_digest(model, seed=seed), (
                "job seed=%d diverged from its standalone run" % seed
            )

    def test_sliced_runs_are_deterministic(self, tmp_path):
        model = demo_slxz(tmp_path)

        def sliced_digest(which):
            svc = ServiceDaemon(
                str(tmp_path / ("store%d" % which)),
                pool_size=2,
                slice_inputs=40,
            )
            svc.start()
            try:
                client = Client(svc.api.url)
                _, body = client.post(
                    "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
                )
                frame = client.wait(body["id"])
                assert frame["state"] == "done"
                assert frame["rounds"] > 1  # it really ran in slices
                _, result = client.get("/jobs/%s/results" % body["id"])
                return result["digest"]

            finally:
                svc.stop()

        assert sliced_digest(1) == sliced_digest(2)

    def test_round_robin_keeps_every_job_advancing(self, tmp_path):
        """3 sliced jobs on a 1-slot pool: all make progress interleaved
        (no job starves behind another), and all finish."""
        svc = ServiceDaemon(
            str(tmp_path / "store"), pool_size=1, slice_inputs=30
        )
        svc.start()
        try:
            client = Client(svc.api.url)
            model = demo_slxz(tmp_path)
            ids = []
            for seed in (7, 11, 23):
                _, body = client.post(
                    "/jobs",
                    {
                        "model": model,
                        "config": dict(GOLDEN, seed=seed, max_inputs=240),
                    },
                )
                ids.append(body["id"])
            interleaved = False
            deadline = time.monotonic() + _DEADLINE
            while time.monotonic() < deadline:
                _, listing = client.get("/jobs")
                by_id = {j["id"]: j for j in listing["jobs"]}
                partial = [
                    j
                    for j in by_id.values()
                    if j["state"] == "running" and 0 < j["execs"] < 240
                ]
                if len(partial) >= 2:
                    interleaved = True
                if all(by_id[i]["state"] == "done" for i in ids):
                    break
                time.sleep(0.02)
            for job_id in ids:
                assert client.wait(job_id)["state"] == "done"
            assert interleaved, (
                "never saw two jobs partially complete at once — the "
                "queue is not round-robining slices"
            )
        finally:
            svc.stop()

    @pytest.mark.slow
    def test_soak_worker_deaths_stay_isolated(self, tmp_path):
        """4 concurrent jobs while 3 injected worker deaths land: every
        job survives (per-job respawn budgets), every digest matches the
        fault-free standalone run."""
        model = demo_slxz(tmp_path)
        seeds = (7, 11, 23, 42)
        with fault_scope(parse_faults("worker_death:times=3")):
            svc = ServiceDaemon(str(tmp_path / "store"), pool_size=2)
            svc.start()
            try:
                client = Client(svc.api.url)
                ids = {}
                for seed in seeds:
                    _, body = client.post(
                        "/jobs",
                        {"model": model, "config": dict(GOLDEN, seed=seed)},
                    )
                    ids[seed] = body["id"]
                frames = {
                    seed: client.wait(job_id) for seed, job_id in ids.items()
                }
                results = {
                    seed: client.get("/jobs/%s/results" % job_id)[1]
                    for seed, job_id in ids.items()
                }
            finally:
                svc.stop()
        assert all(f["state"] == "done" for f in frames.values()), frames
        assert sum(f["respawns"] for f in frames.values()) == 3
        assert sum(f["failures"] for f in frames.values()) == 3
        for seed in seeds:
            assert results[seed]["digest"] == standalone_digest(
                model, seed=seed
            ), "job seed=%d diverged after injected worker deaths" % seed


# -------------------------------------------------------------------- #
# slices that raise: an ``err`` reply is not a process failure
# -------------------------------------------------------------------- #
class TestErroringSlices:
    def test_erroring_job_fails_alone_and_its_worker_lives(self, tmp_path):
        """A model with no inports passes submission, but the worker's
        Fuzzer raises on every try.  That job ends failed with the
        exception text, the valid job beside it on the one slot finishes
        with its standalone digest, and the worker that replied ``err``
        is never terminated: the slot keeps its pid throughout."""
        bad = str(tmp_path / "noin.slxz")
        save_container(model_to_xml(no_inport_model()), bad)
        model = demo_slxz(tmp_path)
        # short wall budgets and respawn budgets, so a pool that wedged
        # on a terminated worker fails within seconds, not minutes
        good_config = dict(GOLDEN, seed=7, max_seconds=5.0, max_respawns=0)
        svc = ServiceDaemon(str(tmp_path / "store"), pool_size=1)
        svc.start()
        try:
            pid = svc.pool.procs[0].pid
            client = Client(svc.api.url)
            _, bad_job = client.post(
                "/jobs",
                {
                    "model": bad,
                    "config": dict(GOLDEN, max_seconds=1.0, max_respawns=1),
                },
            )
            _, good_job = client.post(
                "/jobs", {"model": model, "config": good_config}
            )
            bad_frame = client.wait(bad_job["id"])
            good_frame = client.wait(good_job["id"])
            _, result = client.get("/jobs/%s/results" % good_job["id"])
            assert svc.pool.procs[0].pid == pid
        finally:
            svc.stop()
        assert bad_frame["state"] == "failed"
        # two failures spent the budget of one retry; no process restarted
        assert bad_frame["failures"] == 2
        assert bad_frame["respawns"] == 0
        assert "FuzzingError" in bad_frame["error"]
        assert "has no inports" in bad_frame["error"]
        assert good_frame["state"] == "done", good_frame
        assert result["digest"] == standalone_digest(model, **good_config)


# -------------------------------------------------------------------- #
# a hung slice: deadline, reap, respawn, retry
# -------------------------------------------------------------------- #
class TestHungSlice:
    def test_hung_slice_is_reaped_and_retried(self, tmp_path):
        """A slice that hangs past its deadline (wall budget left plus
        the grace) is reaped, its worker respawned and the slice retried
        without the fault: the job ends done with one failure, one
        respawn and the standalone digest."""
        model = demo_slxz(tmp_path)
        config = dict(GOLDEN, seed=7, max_seconds=1.0, worker_timeout=0.5)
        with fault_scope(parse_faults("slow_exec:times=1:seconds=60")):
            svc = ServiceDaemon(str(tmp_path / "store"), pool_size=1)
            svc.start()
            try:
                client = Client(svc.api.url)
                _, body = client.post(
                    "/jobs", {"model": model, "config": config}
                )
                frame = client.wait(body["id"])
                _, result = client.get("/jobs/%s/results" % body["id"])
            finally:
                svc.stop()
        assert frame["state"] == "done", frame
        assert frame["failures"] == frame["respawns"] == 1
        assert result["digest"] == standalone_digest(model, **config)


# -------------------------------------------------------------------- #
# the per-model Fuzzer cache of a service worker (known defect)
# -------------------------------------------------------------------- #
class TestPerModelFuzzerCache:
    @skip_if_no_cc
    @pytest.mark.xfail(
        strict=True,
        reason="a service worker caches one Fuzzer per model, built with "
        "the first job's engine settings (ROADMAP item 2)",
    )
    def test_scalar_then_kernel_job_each_match_standalone(self, tmp_path):
        model = demo_slxz(tmp_path)
        kernel = {"lanes": 4, "kernel": "on", "kernel_threads": 1}
        svc = ServiceDaemon(str(tmp_path / "store"), pool_size=1)
        svc.start()
        try:
            client = Client(svc.api.url)
            digests = []
            for overrides in ({}, kernel):
                _, body = client.post(
                    "/jobs",
                    {"model": model, "config": dict(GOLDEN, seed=7, **overrides)},
                )
                assert client.wait(body["id"])["state"] == "done"
                _, result = client.get("/jobs/%s/results" % body["id"])
                digests.append(result["digest"])
        finally:
            svc.stop()
        assert digests == [
            standalone_digest(model, seed=7),
            standalone_digest(model, seed=7, **kernel),
        ]


# -------------------------------------------------------------------- #
# durability: SIGKILL resume + corruption quarantine
# -------------------------------------------------------------------- #
def _spawn_daemon(store: str, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store, *extra],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    endpoint = os.path.join(store, "endpoint")
    deadline = time.monotonic() + 60
    marker = os.path.getmtime(endpoint) if os.path.exists(endpoint) else None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError("daemon exited with %s" % proc.returncode)
        if os.path.exists(endpoint) and os.path.getmtime(endpoint) != marker:
            with open(endpoint) as fh:
                return proc, Client(fh.read().strip())
        time.sleep(0.05)
    raise AssertionError("daemon never published its endpoint")


def _children(pid: int):
    """Child pids of ``pid`` (Linux ``/proc``; empty where unavailable)."""
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as fh:
            return [int(child) for child in fh.read().split()]
    except OSError:
        return []


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live, non-zombie process."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


CRASH_CONFIG = {
    "seed": 7,
    "max_inputs": 6000,
    "max_seconds": 3600.0,
    "kernel_threads": 1,
}


def _uninterrupted_sliced_digest(tmp_path) -> str:
    svc = ServiceDaemon(str(tmp_path / "ref-store"), pool_size=2)
    svc.start()
    try:
        client = Client(svc.api.url)
        _, body = client.post(
            "/jobs",
            {"model": "CPUTask", "config": CRASH_CONFIG, "slice_inputs": 40},
        )
        frame = client.wait(body["id"])
        assert frame["state"] == "done"
        return client.get("/jobs/%s/results" % body["id"])[1]["digest"]
    finally:
        svc.stop()


class TestDurability:
    def test_sigkill_mid_campaign_resumes_to_identical_digest(self, tmp_path):
        store = str(tmp_path / "store")
        proc, client = _spawn_daemon(store, "--pool", "2")
        workers = []
        try:
            _, body = client.post(
                "/jobs",
                {
                    "model": "CPUTask",
                    "config": CRASH_CONFIG,
                    "slice_inputs": 40,
                },
            )
            job_id = body["id"]
            # wait until the campaign is genuinely mid-flight (snapshots
            # exist) and kill the daemon without ceremony
            deadline = time.monotonic() + _DEADLINE
            while time.monotonic() < deadline:
                _, frame = client.get("/jobs/%s" % job_id)
                if frame["rounds"] >= 2:
                    break
                time.sleep(0.02)
            assert frame["rounds"] >= 2, "job finished before the kill"
            assert frame["state"] == "running"
            workers = _children(proc.pid)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # the killed daemon's pool workers notice their parent is
            # gone and exit instead of idling forever under init
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and any(map(_running, workers)):
                time.sleep(0.1)
            orphans = [pid for pid in workers if _running(pid)]
            assert not orphans, "orphaned pool workers: %s" % orphans
        except BaseException:
            proc.kill()
            raise
        finally:
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
        # restart over the same store: the job resumes from its last
        # snapshot and the lost in-flight slice re-runs deterministically
        proc, client = _spawn_daemon(store, "--pool", "2")
        try:
            frame = client.wait(job_id)
            assert frame["state"] == "done"
            assert frame["resumed"] is True
            _, result = client.get("/jobs/%s/results" % job_id)
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        assert result["digest"] == _uninterrupted_sliced_digest(tmp_path)

    def test_restart_preserves_finished_jobs(self, tmp_path):
        store = str(tmp_path / "store")
        model = demo_slxz(tmp_path)
        svc = ServiceDaemon(store, pool_size=2)
        svc.start()
        try:
            client = Client(svc.api.url)
            _, body = client.post(
                "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
            )
            job_id = body["id"]
            client.wait(job_id)
            _, before = client.get("/jobs/%s/results" % job_id)
        finally:
            svc.stop()
        svc = ServiceDaemon(store, pool_size=2)
        svc.start()
        try:
            client = Client(svc.api.url)
            status, frame = client.get("/jobs/%s" % job_id)
            assert frame["state"] == "done"
            assert frame["resumed"] is False  # finished jobs don't re-run
            status, after = client.get("/jobs/%s/results" % job_id)
            assert status == 200
            assert after["digest"] == before["digest"]
            # and its events survive via the durable trace
            _, events = client.get("/jobs/%s/events" % job_id)
            assert any(e["ev"] == "campaign_end" for e in events)
        finally:
            svc.stop()

    def test_restart_keeps_failure_and_respawn_counts(self, tmp_path):
        """Two ``running`` jobs recovered with ``failures: 2, respawns:
        1`` each.  The first job dispatched takes one injected worker
        death and continues its counts to 3 and 2, so the budget spent
        before the restart stays spent; the other reads the same counts
        back.  Both finish with their standalone digests."""
        store = str(tmp_path / "store")
        model = demo_slxz(tmp_path)
        # submitted to a daemon that never starts, then rewound to a
        # mid-campaign record that has spent part of its budget
        queued = ServiceDaemon(store, pool_size=1)
        seeds = {}
        for seed in (7, 11):
            spec = {"model": model, "config": dict(GOLDEN, seed=seed)}
            seeds[queued.submit(spec)] = seed
        job_store = JobStore(store)
        for job_id in seeds:
            record = job_store.load_job(job_id)
            record.update(state="running", failures=2, respawns=1)
            job_store.save_job(record)
        first, second = sorted(seeds)
        with fault_scope(parse_faults("worker_death:times=1")):
            svc = ServiceDaemon(store, pool_size=1)
            svc.start()
            try:
                client = Client(svc.api.url)
                frames = {job_id: client.wait(job_id) for job_id in seeds}
                digests = {
                    job_id: client.get("/jobs/%s/results" % job_id)[1][
                        "digest"
                    ]
                    for job_id in seeds
                }
            finally:
                svc.stop()
        counts = {
            job_id: (frame["failures"], frame["respawns"])
            for job_id, frame in frames.items()
        }
        assert counts == {first: (3, 2), second: (2, 1)}
        for job_id, frame in frames.items():
            assert frame["state"] == "done", frame
            record = job_store.load_job(job_id)
            assert (record["failures"], record["respawns"]) == counts[job_id]
            assert digests[job_id] == standalone_digest(
                model, seed=seeds[job_id]
            )

    def test_lost_snapshot_restarts_job_to_same_digest(self, tmp_path):
        """A running job whose state.pkl is garbled restarts from scratch
        on recovery — same seed, same slicing, same final digest."""
        store = str(tmp_path / "store")
        model = demo_slxz(tmp_path)
        reference = None
        svc = ServiceDaemon(store, pool_size=2, slice_inputs=40)
        svc.start()
        try:
            client = Client(svc.api.url)
            _, body = client.post(
                "/jobs", {"model": model, "config": dict(GOLDEN, seed=7)}
            )
            job_id = body["id"]
            client.wait(job_id)
            _, result = client.get("/jobs/%s/results" % job_id)
            reference = result["digest"]
        finally:
            svc.stop()
        # rewind the record to mid-campaign and garble its snapshot
        job_store = JobStore(store)
        record = job_store.load_job(job_id)
        record.update(state="running", rounds=2)
        job_store.save_job(record)
        with open(job_store.state_path(job_id), "wb") as fh:
            fh.write(b"\x00garbage, definitely not a pickle")
        for leftover in (
            job_store.result_path(job_id),
            os.path.join(job_store.suite_dir(job_id), "index.json"),
            job_store.trace_path(job_id),
        ):
            os.unlink(leftover)
        svc = ServiceDaemon(store, pool_size=2, slice_inputs=40)
        svc.start()
        try:
            client = Client(svc.api.url)
            frame = client.wait(job_id)
            assert frame["state"] == "done"
            assert frame["resumed"] is True
            _, result = client.get("/jobs/%s/results" % job_id)
            assert result["digest"] == reference
        finally:
            svc.stop()
        # the damaged snapshot was preserved, not deleted
        quarantined = os.path.join(
            job_store.quarantine_dir, job_id, "state.pkl"
        )
        assert os.path.exists(quarantined)


class TestStoreQuarantine:
    def test_corrupt_state_pickle_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        record = {"id": "job0001", "state": "running"}
        store.save_job(record)
        with open(store.state_path("job0001"), "wb") as fh:
            fh.write(b"not a pickle at all")
        assert store.load_state("job0001") is None
        assert os.path.exists(
            os.path.join(store.quarantine_dir, "job0001", "state.pkl")
        )
        assert not os.path.exists(store.state_path("job0001"))

    def test_corrupt_job_record_quarantines_the_job(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        store.save_job({"id": "job0001", "state": "queued"})
        with open(store.job_path("job0001"), "w") as fh:
            fh.write("{torn json")
        with pytest.raises(JobNotFound):
            store.load_job("job0001")
        assert not os.path.exists(store.job_dir("job0001"))
        assert os.path.exists(os.path.join(store.quarantine_dir, "job0001"))
        # the id is burned: new ids never collide with quarantined ones
        assert store.new_job_id() == "job0002"

    def test_injected_store_corrupt_fault_fires_the_same_path(
        self, tmp_path
    ):
        store = JobStore(str(tmp_path / "store"))
        store.save_job({"id": "job0001", "state": "queued"})
        with fault_scope(parse_faults("store_corrupt:times=1")):
            with pytest.raises(JobNotFound):
                store.load_job("job0001")
        assert os.path.exists(os.path.join(store.quarantine_dir, "job0001"))

    def test_atomic_writes_leave_no_temp_droppings(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        for i in range(3):
            store.save_job({"id": "job0001", "state": "queued", "rev": i})
        names = os.listdir(store.job_dir("job0001"))
        assert names == ["job.json"]
        assert store.load_job("job0001")["rev"] == 2
