"""Service jobs: the job spec and the worker side.

A job is a model (a benchmark name or an ``.slxz`` path) plus a
``config`` object of :class:`~repro.fuzzing.engine.FuzzerConfig`
overrides, run as a single-worker campaign (``workers=1``):
:func:`build_job_config` validates the overrides with the engine's own
:func:`~repro.fuzzing.engine.check_config`, and
:func:`load_model_schedule` resolves the model.  The daemon
(:class:`~repro.service.daemon.ServiceDaemon`) runs the job in
*input-budget slices* over its shared
:class:`~repro.fuzzing.parallel.WorkerPool`; each pool worker runs
:func:`_service_worker_main`, the campaign's own worker loop over
:func:`_run_job_payload`, which resumes the job's
:class:`~repro.fuzzing.engine.FuzzState` for one slice or replays the
finished suite.

Determinism contract: a job with ``slice_inputs=None`` runs its whole
budget as one slice and is **byte-identical** to the standalone CLI run
of the same config; a sliced job is byte-identical to any other
identically-sliced run of the same config — including one interrupted
by a daemon kill — but not to the one-slice run (``Fuzzer.resume``
re-derives the RNG stream per slice from the snapshot's round counter).
"""

from __future__ import annotations

import os
from dataclasses import fields as dataclass_fields
from typing import Dict

from ..bench.registry import build_schedule, model_names
from ..bits import popcount
from ..errors import FuzzingError, JobSpecError
from ..fuzzing.engine import Fuzzer, FuzzerConfig, check_config
from ..fuzzing.parallel import (  # noqa: F401 - resolved_config re-exported
    payload_telemetry,
    resolved_config,
    run_slice,
    worker_loop,
)
from ..parser import model_from_xml
from ..schedule import convert
from ..slx import load_container

__all__ = [
    "JOB_STATES",
    "build_job_config",
    "load_model_schedule",
]

#: the job lifecycle; ``queued -> running -> done|failed|cancelled``
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def load_model_schedule(spec: str):
    """A benchmark name or an ``.slxz`` container path -> Schedule."""
    if spec in model_names():
        return build_schedule(spec)
    if not os.path.exists(spec):
        raise JobSpecError(
            "model %r is neither a benchmark (%s) nor a file"
            % (spec, ", ".join(model_names()))
        )
    return convert(model_from_xml(load_container(spec)))


def build_job_config(overrides) -> FuzzerConfig:
    """A job's ``config`` JSON object -> a validated FuzzerConfig.

    Jobs are single-worker by construction — the daemon's pool is the
    parallelism — so ``workers`` other than 1 is a spec error, as is any
    field :class:`FuzzerConfig` does not define, or any engine setting
    :func:`~repro.fuzzing.engine.check_config` rejects (the HTTP 400
    class).
    """
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise JobSpecError("job config must be a JSON object")
    allowed = {f.name for f in dataclass_fields(FuzzerConfig)}
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise JobSpecError(
            "unknown config fields: %s" % ", ".join(unknown)
        )
    if overrides.get("workers", 1) != 1:
        raise JobSpecError(
            "service jobs run single-worker campaign slices; submit "
            "workers=1 (the default) and scale via the daemon's pool"
        )
    try:
        config = FuzzerConfig(**overrides)
        check_config(config)
    except (TypeError, ValueError, FuzzingError) as exc:
        raise JobSpecError("invalid job config: %s" % (exc,))
    return config


# ---------------------------------------------------------------------- #
# the worker side (runs in pool processes; must stay spawn-picklable)
# ---------------------------------------------------------------------- #
def _run_job_payload(fuzzers: Dict[str, Fuzzer], payload: Dict) -> Dict:
    """Run one job slice (or the finalize replay) in a pool worker.

    ``fuzzers`` caches one :class:`Fuzzer` per model spec, so jobs over
    the same model share the compiled artifact within a worker process;
    the per-job config and state travel inside the payload, keeping the
    worker stateless between dispatches.  The slice trace lands in the
    job's ``trace.part``, which the daemon absorbs into the job's trace
    after the result arrives.
    """
    model = payload["model"]
    fuzzer = fuzzers.get(model)
    if fuzzer is None:
        fuzzer = Fuzzer(load_model_schedule(model), payload["config"])
        fuzzers[model] = fuzzer
    job = payload["job"]
    n_probes = fuzzer.schedule.branch_db.n_probes
    if payload["action"] == "slice":
        state = run_slice(fuzzer, payload)
        covered = popcount(state.total_int)
        return {
            "job": job,
            "action": "slice",
            "state": state,
            "covered": covered,
            "n_probes": n_probes,
            "full": bool(n_probes) and covered == n_probes,
            "execs": state.inputs_executed,
            "corpus": len(state.corpus),
            "cases": len(state.suite),
            "elapsed": state.elapsed,
        }
    state = payload["state"]
    fuzzer.config = payload["config"]
    tel = fuzzer.telemetry = payload_telemetry(payload)
    try:
        result = fuzzer.finalize(state)
    finally:
        tel.close()
    return {
        "job": job,
        "action": "finalize",
        "digest": result.suite.digest(),
        "cases": [(c.data, c.found_at, c.origin) for c in result.suite],
        "report": {
            "decision": result.report.decision,
            "condition": result.report.condition,
            "mcdc": result.report.mcdc,
        },
        "execs": result.inputs_executed,
        "iterations": result.iterations_executed,
        "elapsed": result.elapsed,
        "timeouts": result.timeouts,
        "covered": popcount(state.total_int),
        "n_probes": n_probes,
    }


def _service_worker_main(slot: int, gen: int, task_q, result_q) -> None:
    """Entry point of one shared service-pool worker process: the shared
    :func:`~repro.fuzzing.parallel.worker_loop` over
    :func:`_run_job_payload`, with one :class:`Fuzzer` per model."""
    fuzzers: Dict[str, Fuzzer] = {}
    worker_loop(
        slot,
        gen,
        task_q,
        result_q,
        lambda payload: _run_job_payload(fuzzers, payload),
    )
