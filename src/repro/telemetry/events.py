"""The campaign event schema and JSONL trace IO.

Every trace line is one JSON object with at least ``ev`` (the event type)
and ``ts`` (absolute wall-clock seconds, ``time.time()``).  Events also
carry ``mt`` (``time.monotonic()`` seconds): ``ts`` is for display,
``mt`` is what duration and ordering analysis (``repro trace diff`` /
``curve``, span durations) should prefer — it is immune to wall-clock
steps.  ``mt`` is per-process monotonic: comparable between two events
of the same process (same ``worker`` tag, same campaign), never across
processes or runs.  Campaign-time fields (``t``) are seconds since the
campaign's own start, which is what the coverage-over-time
reconstruction sorts on.  Events from parallel workers additionally
carry ``worker`` (the worker index tag).

This schema is the contract downstream consumers build on — the trace
report renderer (:mod:`repro.telemetry.report`), the CI artifact, and
future adaptive-scheduling / distributed-campaign work.  Add fields
freely; never repurpose an existing one.

Schema change: the per-admission ``corpus_add`` and ``corpus_evict``
events are gone (no consumer read them, and they were most of a
campaign's events).  ``slice_end`` carries the corpus size and
``mutation_stats`` the per-operator admission counts (``wins``); a
strict read of an older trace that holds them now fails on the
unknown event type.

==================  =====================================================
event               required fields (beyond ``ev``/``ts``)
==================  =====================================================
campaign_start      model, seed, workers, n_probes
seed_phase          t, execs — the initial seed inputs finished executing
cov                 t, execs, covered, bits — new-coverage delta; ``bits``
                    is the hex total probe bitmap, so worker curves can
                    be unioned without re-executing anything
plateau             t, execs, covered, idle_s — no new coverage lately
slice_end           t, execs, iterations, corpus, covered
mutation_stats      applied, wins — cumulative per-operator dicts
heartbeat           worker, epoch, t, execs, covered, corpus
sync_epoch          epoch, union_covered, pool, execs
compile_cache       tier ("memory" | "disk" | "miss" | "uncacheable"),
                    level
optimizer_stats     stats — the optimizer pass counters
tool_run            tool, seconds, decision, condition, mcdc, cases
hybrid_round        round, t, covered, plateaued
solver_escalation   round, t, targets, solved
fault               kind — an injected or observed fault (swallowed IO
                    error, corrupted cache entry, dead worker signal);
                    context fields (op, path, error, worker, epoch) vary
                    by kind
span                name, span_id, dur — one timed pipeline region;
                    ``parent_id`` links the span tree, ``batches``
                    marks a coalesced hot-path span (kernel
                    dispatch/fold aggregated per telemetry tick)
crash_artifact      t, kind, hash, count, size — a deduplicated
                    crash/timeout input recorded by the fuzzer
worker_respawn      worker, epoch, attempt, backoff_s — a campaign
                    worker slot was restarted after death/hang
worker_dead         worker, epoch, reason — a worker slot exhausted its
                    respawn budget and was retired
degraded            workers_left — the campaign continues on fewer
                    workers than configured
campaign_end        t, execs, iterations, covered, decision, condition,
                    mcdc, cases
==================  =====================================================
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import TelemetryError

__all__ = ["EVENT_TYPES", "Trace", "validate_event", "read_trace", "merge_traces"]

#: event type -> tuple of required field names (beyond ev/ts)
EVENT_TYPES: Dict[str, tuple] = {
    "campaign_start": ("model", "seed", "workers", "n_probes"),
    "seed_phase": ("t", "execs"),
    "cov": ("t", "execs", "covered", "bits"),
    "plateau": ("t", "execs", "covered", "idle_s"),
    "slice_end": ("t", "execs", "iterations", "corpus", "covered"),
    "mutation_stats": ("applied", "wins"),
    "heartbeat": ("worker", "epoch", "t", "execs", "covered", "corpus"),
    "sync_epoch": ("epoch", "union_covered", "pool", "execs"),
    "compile_cache": ("tier", "level"),
    "optimizer_stats": ("stats",),
    "tool_run": ("tool", "seconds", "decision", "condition", "mcdc", "cases"),
    "hybrid_round": ("round", "t", "covered", "plateaued"),
    "solver_escalation": ("round", "t", "targets", "solved"),
    "fault": ("kind",),
    # a structured span: one timed region of the pipeline (parse,
    # codegen, compile, seed, mutate_exec, merge, replay, kernel
    # dispatch/fold).  ``span_id`` is unique within a campaign trace
    # (worker/epoch-prefixed), ``parent_id`` (optional) links the tree,
    # ``dur`` is monotonic seconds.  Coalesced hot-path spans carry
    # ``batches`` (how many dispatches the span aggregates).
    "span": ("name", "span_id", "dur"),
    # per-slice kernel thread-pool stats: block utilization + the time
    # the driving thread stalled waiting on an inflight batch
    "kernel_threads": ("threads", "lanes", "block_busy_s", "stall_s"),
    "crash_artifact": ("t", "kind", "hash", "count", "size"),
    # campaign-service job lifecycle: one event per state transition
    # (queued, running, done, failed, cancelled, resumed); ``job`` is the
    # service-assigned job id
    "job_state": ("job", "state"),
    # per-slice progress of a service job, emitted by the daemon as each
    # scheduled budget slice returns from the shared worker pool
    "job_slice": ("job", "round", "execs", "covered"),
    "worker_respawn": ("worker", "epoch", "attempt", "backoff_s"),
    "worker_dead": ("worker", "epoch", "reason"),
    "degraded": ("workers_left",),
    "campaign_end": (
        "t",
        "execs",
        "iterations",
        "covered",
        "decision",
        "condition",
        "mcdc",
        "cases",
    ),
}


def validate_event(event: Dict) -> None:
    """Raise :class:`TelemetryError` unless ``event`` matches the schema."""
    ev = event.get("ev")
    if ev not in EVENT_TYPES:
        raise TelemetryError("unknown event type %r" % (ev,))
    if "ts" not in event:
        raise TelemetryError("event %r missing 'ts'" % (ev,))
    missing = [f for f in EVENT_TYPES[ev] if f not in event]
    if missing:
        raise TelemetryError(
            "event %r missing fields: %s" % (ev, ", ".join(missing))
        )


class Trace(List[Dict]):
    """A parsed trace: a plain event list plus damage accounting.

    ``skipped`` counts the malformed lines :func:`read_trace` dropped in
    non-strict mode (torn tail from a crashed writer, interleaved
    partial writes during worker trace absorption).  A nonzero count is
    surfaced by ``repro trace summary`` so trace damage is never silent.
    """

    __slots__ = ("skipped",)

    def __init__(self, events=(), skipped: int = 0):
        super().__init__(events)
        self.skipped = skipped


def _salvage_line(line: str) -> tuple:
    """Recover whole JSON objects from a damaged trace line.

    Interleaved writers can tear a line into ``{..}{..}`` (two records
    fused) or ``{..}{trunc`` (a whole record plus a torn prefix).  Walk
    the line with ``raw_decode``, keeping every complete object; the
    first undecodable remainder counts as one skipped fragment.
    """
    decoder = json.JSONDecoder()
    events: List[Dict] = []
    skipped = 0
    pos = 0
    n = len(line)
    while pos < n:
        while pos < n and line[pos].isspace():
            pos += 1
        if pos >= n:
            break
        try:
            obj, pos = decoder.raw_decode(line, pos)
        except ValueError:
            skipped += 1
            break
        if isinstance(obj, dict):
            events.append(obj)
        else:
            skipped += 1  # a bare scalar is not an event
    return events, skipped


def read_trace(path: str, strict: bool = False) -> Trace:
    """Parse a JSONL trace file into a :class:`Trace` of event dicts.

    Non-strict mode (the default) is hardened against real campaign
    damage: a truncated final line (crashed writer), fused records from
    interleaved partial writes, and non-object lines are each skipped
    and *counted* on the returned trace's ``skipped`` attribute.
    ``strict=True`` makes any damage fatal and additionally validates
    every event against :data:`EVENT_TYPES`.
    """
    events = Trace()
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TelemetryError("cannot read trace %r: %s" % (path, exc)) from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                if strict:
                    raise TelemetryError(
                        "%s:%d: malformed trace line: %s" % (path, lineno, exc)
                    ) from exc
                salvaged, skipped = _salvage_line(line)
                events.extend(salvaged)
                events.skipped += skipped
                continue
            if not isinstance(event, dict):
                if strict:
                    raise TelemetryError(
                        "%s:%d: trace line is not a JSON object" % (path, lineno)
                    )
                events.skipped += 1
                continue
            if strict:
                validate_event(event)
            events.append(event)
    return events


def merge_traces(
    paths: Sequence[str],
    out_path: Optional[str] = None,
    extra: Optional[Iterable[Dict]] = None,
) -> Trace:
    """Merge several trace files into one time-sorted event list.

    Events are ordered by absolute ``ts`` (stable, so same-timestamp
    events keep their per-file order).  ``out_path``, when given, receives
    the merged JSONL; ``extra`` events join the merge unsorted-cost-free.
    Missing input files are skipped — a worker that found nothing may
    never have opened its trace.  The returned trace's ``skipped``
    accumulates the damaged-line counts of every input.
    """
    events = Trace()
    for path in paths:
        try:
            part = read_trace(path)
        except TelemetryError:
            continue
        events.extend(part)
        events.skipped += part.skipped
    if extra:
        events.extend(extra)
    events.sort(key=lambda e: e.get("ts", 0.0))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
    return events
