"""Prometheus text-exposition rendering of a telemetry snapshot.

The :class:`~repro.telemetry.core.Telemetry` registry already holds
everything a scrape needs — counters, gauges, phase times —
this module only *renders* it, so the exporter adds zero bookkeeping to
the fuzzing hot path.  The engine feeds the campaign gauges the exporter
surfaces (:data:`ENGINE_GAUGES`: execs/s, corpus size, coverage
fraction, lanes/threads in flight, pipeline stall seconds,
fallback-ladder position) through the ordinary tick-gated telemetry
path.

Exposition format (text/plain; version=0.0.4)::

    # HELP repro_engine_execs_per_s <...>
    # TYPE repro_engine_execs_per_s gauge
    repro_engine_execs_per_s 12345.0

Metric-name mapping: registry names are dotted (``engine.execs_per_s``);
exposition names are ``repro_`` + the name with every non-alphanumeric
character folded to ``_``.  Counters get Prometheus' conventional
``_total`` suffix; phase times become one ``repro_phase_seconds``
family with a ``phase`` label.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

__all__ = [
    "ENGINE_GAUGES",
    "JOB_GAUGES",
    "JOB_STATE_CODES",
    "LADDER_POSITIONS",
    "metric_name",
    "parse_exposition",
    "render_job_metrics",
    "render_prometheus",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro_"

#: the engine-maintained campaign gauges (registry name -> HELP text).
#: ``Fuzzer.resume`` refreshes them once per telemetry tick; the parallel
#: campaign parent refreshes the union view at every sync epoch.
ENGINE_GAUGES: Dict[str, str] = {
    "engine.execs_per_s": "Inputs executed per second over the current slice",
    "engine.iterations_per_s": "Model iterations per second over the current slice",
    "engine.execs": "Inputs executed so far in this campaign",
    "engine.corpus_size": "Live corpus entries",
    "engine.covered_probes": "Probes covered so far",
    "engine.coverage_fraction": "Covered probes / total probes (0..1)",
    "engine.lanes": "Lane-parallel width of the active execution backend",
    "engine.kernel_threads": "Kernel execution threads per worker",
    "engine.pipeline_stall_s": (
        "Seconds the mutate/exec pipeline stalled waiting on an inflight "
        "kernel batch (cumulative per slice)"
    ),
    "engine.ladder_position": (
        "Fallback-ladder position of the active backend: "
        "2=kernel, 0=scalar"
    ),
    "engine.plateau": "1 while the campaign is coverage-plateaued, else 0",
    "campaign.workers_live": "Worker slots still alive (parallel campaigns)",
    "campaign.sync_epoch": "Last completed corpus-merge sync epoch",
    "campaign.union_covered": "Union probe coverage across all workers",
}

#: maps ``Fuzzer.engine`` strings to the ladder-position gauge value;
#: the values predate the ladder's two-rung form and stay put so the
#: gauge reads the same across versions
LADDER_POSITIONS: Dict[str, int] = {"scalar": 0, "kernel": 2}

#: the per-job gauge families of the campaign-service ``/metrics``
#: exposition (registry name -> HELP text); every sample carries a
#: ``job="<id>"`` label, so one daemon scrape covers every job it holds
JOB_GAUGES: Dict[str, str] = {
    "job.state": (
        "Job lifecycle state: 0=queued 1=running 2=done 3=failed "
        "4=cancelled"
    ),
    "job.execs": "Inputs executed so far by this job",
    "job.covered_probes": "Probes this job has covered so far",
    "job.coverage_fraction": "Covered probes / total probes (0..1)",
    "job.cases": "Test cases in the job's suite so far",
    "job.rounds": "Completed scheduler slices of this job",
    "job.respawns": "Worker respawns consumed recovering this job",
}

#: job lifecycle state -> the ``job.state`` gauge value
JOB_STATE_CODES: Dict[str, int] = {
    "queued": 0,
    "running": 1,
    "done": 2,
    "failed": 3,
    "cancelled": 4,
}


def metric_name(name: str, suffix: str = "") -> str:
    """Registry name -> Prometheus exposition name."""
    return _PREFIX + _NAME_RE.sub("_", name) + suffix


def _fmt(value: float) -> str:
    """A float the Prometheus text parser accepts (no exotic reprs)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _family(
    out: List[str], name: str, kind: str, value, help_text: Optional[str] = None
) -> None:
    if help_text:
        out.append("# HELP %s %s" % (name, help_text.replace("\n", " ")))
    out.append("# TYPE %s %s" % (name, kind))
    out.append("%s %s" % (name, _fmt(value)))


def render_prometheus(
    snapshot: Dict[str, object],
    extra: Optional[Dict[str, float]] = None,
) -> str:
    """Render one telemetry snapshot as Prometheus text exposition.

    ``snapshot`` is :meth:`Telemetry.snapshot`'s dict.  ``extra`` adds
    server-side gauges (events seen, sink io_errors, uptime) under the
    same naming scheme.
    """
    out: List[str] = []
    for name, value in (snapshot.get("counters") or {}).items():
        _family(out, metric_name(name, "_total"), "counter", value)
    for name, value in (snapshot.get("gauges") or {}).items():
        _family(
            out,
            metric_name(name),
            "gauge",
            value,
            help_text=ENGINE_GAUGES.get(name),
        )
    phases = snapshot.get("phases") or {}
    if phases:
        out.append(
            "# HELP repro_phase_seconds Cumulative wall time per pipeline phase"
        )
        out.append("# TYPE repro_phase_seconds gauge")
        for phase, seconds in sorted(phases.items()):
            out.append(
                'repro_phase_seconds{phase="%s"} %s'
                % (_NAME_RE.sub("_", phase), _fmt(seconds))
            )
    for name, value in (extra or {}).items():
        _family(out, metric_name(name), "gauge", value)
    return "\n".join(out) + "\n"


_LABEL_ESCAPE = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPE.get(ch, ch) for ch in str(value))


def render_job_metrics(
    jobs: Dict[str, Dict[str, float]], label: str = "job"
) -> str:
    """Render per-job gauges as one labeled family per metric.

    ``jobs`` maps a job id to its metric values (registry names, e.g.
    ``job.execs``).  Each metric becomes a single Prometheus family —
    one TYPE/HELP header, one ``{job="<id>"}``-labeled sample per job —
    so concatenating this text after :func:`render_prometheus` yields a
    valid multi-job exposition (a family never repeats its headers).
    """
    families: Dict[str, List[str]] = {}
    for job_id in sorted(jobs):
        for name, value in sorted(jobs[job_id].items()):
            families.setdefault(name, []).append(
                '%s{%s="%s"} %s'
                % (metric_name(name), label, _label_value(job_id), _fmt(value))
            )
    out: List[str] = []
    for name, samples in sorted(families.items()):
        help_text = JOB_GAUGES.get(name)
        if help_text:
            out.append(
                "# HELP %s %s"
                % (metric_name(name), help_text.replace("\n", " "))
            )
        out.append("# TYPE %s gauge" % metric_name(name))
        out.extend(samples)
    if not out:
        return ""
    return "\n".join(out) + "\n"


def parse_exposition(text: str) -> Dict[str, float]:
    """A minimal exposition parser — the test/CI side of the contract.

    Returns ``{sample_name_with_labels: value}``; chokes (ValueError) on
    lines the real Prometheus parser would reject, which is exactly what
    the CI gate wants.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError("malformed sample line: %r" % line)
        samples[name] = float(value)
    return samples
