"""Trace-only campaign reconstruction (``repro report --trace``).

Everything here works from a JSONL event trace alone — no model, no
re-execution.  The coverage-over-time curve is rebuilt from the ``cov``
events' probe bitmaps (hex ``bits``), so multi-worker traces union
correctly: each worker reports its private total bitmap, and the running
union's popcount is monotone by construction.  The mutation-operator
effectiveness table aggregates the cumulative per-operator counters of
the ``mutation_stats`` events (last event per worker wins — the counters
are cumulative within a worker).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bits import popcount

__all__ = [
    "coverage_curve",
    "final_summary",
    "mutation_table",
    "phase_table",
    "render_trace_report",
]


def coverage_curve(events: Sequence[Dict]) -> List[Tuple[float, int]]:
    """(campaign_t, union_covered) points from the trace's cov events."""
    cov_events = [e for e in events if e.get("ev") == "cov"]
    cov_events.sort(key=lambda e: e.get("t", 0.0))
    curve: List[Tuple[float, int]] = []
    union = 0
    for event in cov_events:
        try:
            union |= int(event["bits"], 16)
        except (KeyError, ValueError):
            continue
        covered = popcount(union)
        if curve and covered == curve[-1][1]:
            continue  # a worker re-finding probes another already hit
        curve.append((event.get("t", 0.0), covered))
    return curve


def final_summary(events: Sequence[Dict]) -> Optional[Dict]:
    """Aggregate of the trace's campaign_end events (or ``None``).

    A single-worker trace has exactly one; a merged parallel trace has
    the parent's (workers never emit one — they only run slices).
    """
    ends = [e for e in events if e.get("ev") == "campaign_end"]
    if not ends:
        return None
    return ends[-1]


def mutation_table(events: Sequence[Dict]) -> List[Tuple[str, int, int, float]]:
    """Per-operator ``(name, applied, wins, win_rate)`` rows: ``wins``
    counts the corpus admissions the operator's mutations produced.

    ``mutation_stats`` counters are cumulative per worker, so only the
    last event of each worker contributes; workers sum.
    """
    latest: Dict[object, Dict] = {}
    for event in events:
        if event.get("ev") == "mutation_stats":
            latest[event.get("worker", "-")] = event
    applied: Dict[str, int] = {}
    wins: Dict[str, int] = {}
    for event in latest.values():
        for op, n in (event.get("applied") or {}).items():
            applied[op] = applied.get(op, 0) + int(n)
        for op, n in (event.get("wins") or {}).items():
            wins[op] = wins.get(op, 0) + int(n)
    rows = []
    for op in sorted(applied, key=lambda o: (-wins.get(o, 0), o)):
        a = applied[op]
        w = wins.get(op, 0)
        rows.append((op, a, w, (100.0 * w / a) if a else 0.0))
    return rows


def phase_table(events: Sequence[Dict]) -> List[Tuple[str, float]]:
    """Phase-time rows summed over every campaign_end's ``phases``."""
    totals: Dict[str, float] = {}
    for event in events:
        if event.get("ev") == "campaign_end":
            for name, seconds in (event.get("phases") or {}).items():
                totals[name] = totals.get(name, 0.0) + float(seconds)
    return sorted(totals.items(), key=lambda kv: -kv[1])


def render_trace_report(events: Sequence[Dict], width: int = 60) -> str:
    """A human-readable campaign reconstruction from a trace alone."""
    # local import: repro.experiments pulls in the whole generator stack,
    # which itself reports through repro.telemetry (import cycle otherwise)
    from ..experiments.report import format_series, format_table

    out: List[str] = []
    starts = [e for e in events if e.get("ev") == "campaign_start"]
    if starts:
        s = starts[0]
        out.append(
            "campaign: model=%s seed=%s workers=%s probes=%s"
            % (s.get("model"), s.get("seed"), s.get("workers"), s.get("n_probes"))
        )
    summary = final_summary(events)
    if summary is not None:
        out.append(
            "final: %d execs, %d iterations, %d cases, covered %d probe(s)"
            % (
                summary.get("execs", 0),
                summary.get("iterations", 0),
                summary.get("cases", 0),
                summary.get("covered", 0),
            )
        )
        out.append(
            "coverage: DC %.1f%%  CC %.1f%%  MCDC %.1f%%"
            % (
                summary.get("decision", 0.0),
                summary.get("condition", 0.0),
                summary.get("mcdc", 0.0),
            )
        )
    curve = coverage_curve(events)
    if curve:
        n_probes = starts[0].get("n_probes") if starts else None
        if n_probes:
            series = [(t, 100.0 * c / n_probes) for t, c in curve]
        else:
            peak = curve[-1][1] or 1
            series = [(t, 100.0 * c / peak) for t, c in curve]
        out.append("")
        out.append(format_series("probe coverage over time", series, width))
        out.append(
            "curve: %d points, final %d probe(s) at t=%.3fs"
            % (len(curve), curve[-1][1], curve[-1][0])
        )
    phases = phase_table(events)
    if phases:
        out.append("")
        out.append(
            format_table(
                ["phase", "seconds"],
                [[name, "%.3f" % secs] for name, secs in phases],
            )
        )
    ops = mutation_table(events)
    if ops:
        out.append("")
        out.append(
            format_table(
                ["operator", "applied", "corpus adds", "win rate"],
                [
                    [name, applied, wins, "%.2f%%" % rate]
                    for name, applied, wins, rate in ops
                ],
            )
        )
    plateaus = [e for e in events if e.get("ev") == "plateau"]
    if plateaus:
        out.append("")
        out.append(
            "plateaus: %d (longest idle %.2fs)"
            % (len(plateaus), max(p.get("idle_s", 0.0) for p in plateaus))
        )
    if not out:
        return "(empty trace)"
    return "\n".join(out)
