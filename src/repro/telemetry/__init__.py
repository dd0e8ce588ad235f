"""Campaign observability: metrics, traces, spans, live stats, HTTP.

The subsystem CFTCG's rate argument deserves: LibFuzzer prints periodic
stat lines and AFL writes ``plot_data``; our campaigns emit a structured
JSONL **event trace** (:mod:`repro.telemetry.events` documents the
schema), keep a registry of counters and gauges with phase-time
attribution (:mod:`repro.telemetry.core`), print throttled status lines
(:mod:`repro.telemetry.stats`), and reconstruct coverage-over-time curves
plus mutation-operator effectiveness tables from a trace alone
(:mod:`repro.telemetry.report`) — no re-execution required.

Live campaigns additionally expose the registry over HTTP
(:mod:`repro.telemetry.server`: Prometheus ``/metrics``, JSON
``/status``, ``/events`` tail — ``fuzz --serve-metrics``), emit
structured span events forming one campaign-wide span tree
(:mod:`repro.telemetry.spans`), and ship a trace-analysis toolkit
(:mod:`repro.telemetry.tools`: ``repro trace summary|curve|diff``).

Disabled telemetry (the default) is a no-op fast path: campaigns produce
byte-identical suites with telemetry on or off, and the enabled overhead
is bounded by ``benchmarks/bench_telemetry.py`` — spans and the metrics
server included.
"""

from .core import (
    NULL,
    Counter,
    Gauge,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_scope,
)
from .events import EVENT_TYPES, Trace, merge_traces, read_trace, validate_event
from .metrics import ENGINE_GAUGES, render_prometheus
from .report import (
    coverage_curve,
    final_summary,
    mutation_table,
    phase_table,
    render_trace_report,
)
from .spans import build_span_tree, render_span_tree, span_table
from .stats import StatusPrinter, format_status_line

__all__ = [
    "NULL",
    "Counter",
    "Gauge",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "telemetry_scope",
    "EVENT_TYPES",
    "Trace",
    "merge_traces",
    "read_trace",
    "validate_event",
    "ENGINE_GAUGES",
    "render_prometheus",
    "coverage_curve",
    "final_summary",
    "mutation_table",
    "phase_table",
    "render_trace_report",
    "build_span_tree",
    "render_span_tree",
    "span_table",
    "StatusPrinter",
    "format_status_line",
]
