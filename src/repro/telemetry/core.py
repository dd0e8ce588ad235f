"""The telemetry registry: counters, gauges, phases, events.

Design constraints (mirrored by ``benchmarks/bench_telemetry.py``):

* **no-op fast path** — a disabled :class:`Telemetry` must cost one
  attribute check (``tel.enabled``) on the fuzzing hot path, nothing
  else; campaign byte streams are *identical* with telemetry on or off
  because nothing here ever touches the RNG or the corpus;
* **dependency-free** — stdlib only (``json``, ``time``), no background
  threads, no sockets; the trace sink is a line-buffered JSONL file;
* **process-local** — one registry per process.  Parallel campaign
  workers each build their own registry writing a private trace file;
  the parent merges the files afterwards (:func:`repro.telemetry.events.
  merge_traces` via :meth:`Telemetry.absorb`).

The *active* telemetry is a module global manipulated with
:func:`set_telemetry` / :func:`telemetry_scope`; code deep in the stack
(``compile_model``, ``optimize_source``, the experiment runner) reports
through :func:`get_telemetry` without any signature changes.  The default
is :data:`NULL`, whose every method is a no-op.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, TextIO

from ..faults.plan import should_fire as _should_fire

__all__ = [
    "Counter",
    "Gauge",
    "Telemetry",
    "NULL",
    "get_telemetry",
    "set_telemetry",
    "telemetry_scope",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value metric."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class _NullPhase:
    """Reusable no-op context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    """Context manager accumulating one phase's wall time.

    On a telemetry registry with an event sink (or listeners) the phase
    also emits a ``span`` event on exit — phases *are* the pipeline's
    coarse spans (parse, codegen, optimize, compile, merge, replay), so
    instrumenting them once gives every campaign a span tree for free.
    """

    __slots__ = ("_tel", "_name", "_start", "_span")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel = tel
        self._name = name
        self._span = None

    def __enter__(self):
        self._span = self._tel.span_begin(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tel.add_phase(self._name, time.perf_counter() - self._start)
        if self._span is not None:
            self._tel.span_end(self._span)
        return False


class _SpanHandle:
    """An open span: identity plus start time (monotonic)."""

    __slots__ = ("name", "span_id", "parent_id", "start")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()


class _SpanCtx:
    """Context manager pairing ``span_begin``/``span_end``."""

    __slots__ = ("_tel", "_name", "_fields", "_handle")

    def __init__(self, tel: "Telemetry", name: str, fields: Dict):
        self._tel = tel
        self._name = name
        self._fields = fields
        self._handle = None

    def __enter__(self):
        self._handle = self._tel.span_begin(self._name)
        return self._handle

    def __exit__(self, *exc):
        if self._handle is not None:
            self._tel.span_end(self._handle, **self._fields)
        return False


class Telemetry:
    """Process-local registry of metrics, phase timers and an event sink.

    ``enabled`` gates event emission and metric updates on hot paths
    (callers check it once and skip all bookkeeping when ``False``).
    Phase timing stays live even on a disabled registry — it is a handful
    of ``perf_counter`` pairs per campaign, and it is what populates
    ``FuzzResult.phase_times`` for every run.

    ``tags`` are merged into every emitted event (a parallel worker sets
    ``{"worker": N}`` so the merged campaign trace stays attributable).

    ``span_prefix`` namespaces span ids: a parallel worker's per-epoch
    registry is built with ``span_prefix="w0e2-"`` so span ids never
    collide across workers or epochs when traces are absorbed into one
    campaign file.  ``span_root`` is the parent span id adopted by
    top-of-stack spans — a campaign ships its root span id to workers so
    the merged trace forms one coherent span tree.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace_path: Optional[str] = None,
        stats_stream: Optional[TextIO] = None,
        stats_interval: float = 0.5,
        tags: Optional[Dict] = None,
        append: bool = False,
        span_prefix: str = "",
    ):
        self.enabled = enabled
        self.trace_path = trace_path
        self.stats_stream = stats_stream
        self.stats_interval = stats_interval
        self.tags = dict(tags or {})
        self.phase_times: Dict[str, float] = {}
        #: trace-sink write/flush failures absorbed so far; a nonzero
        #: count means the sink degraded to no-trace mid-run
        self.io_errors = 0
        #: span id namespace + adopted parent for top-level spans
        self.span_prefix = span_prefix
        self.span_root: Optional[str] = None
        #: live campaign status (set by :class:`repro.telemetry.server.
        #: MetricsServer`); the engine updates it per telemetry tick
        self.status = None
        self._span_seq = 0
        self._span_stack: List[str] = []
        #: in-process event observers, called with each emitted event dict
        #: — independent of the JSONL sink, so a live metrics server keeps
        #: seeing events after the sink degrades
        self._listeners: List = []
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._trace_fh: Optional[TextIO] = None
        if enabled and trace_path:
            self._trace_fh = open(
                trace_path, "a" if append else "w", encoding="utf-8"
            )

    # --------------------------- metrics ------------------------------ #
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def snapshot(self) -> Dict[str, object]:
        """All metric values plus phase times, as one plain dict."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "phases": dict(self.phase_times),
        }

    # ---------------------------- phases ------------------------------ #
    def phase(self, name: str) -> object:
        """Context manager accumulating wall time under ``name``."""
        return _Phase(self, name)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_times[name] = self.phase_times.get(name, 0.0) + seconds

    # ---------------------------- events ------------------------------ #
    def add_listener(self, fn) -> None:
        """Register an in-process observer called with each event dict."""
        self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def emit(self, ev: str, **fields) -> None:
        """Append one structured event to the JSONL trace (if any).

        Every event carries ``ts`` (wall clock, for display) and ``mt``
        (``time.monotonic()``, for durations and ordering — immune to
        clock steps; comparable within one process only).

        A failing sink (disk full, revoked handle — or an injected
        ``trace_io_error`` fault) degrades the registry to no-trace
        instead of crashing the campaign: the error is counted in
        :attr:`io_errors` and subsequent emits become no-ops.  Listeners
        keep receiving events regardless of sink health, so a live
        metrics server stays answering on a degraded sink.
        """
        if not self.enabled:
            return
        listeners = self._listeners
        if self._trace_fh is None and not listeners:
            return
        event = {
            "ev": ev,
            "ts": round(time.time(), 6),
            "mt": round(time.monotonic(), 6),
        }
        if self.tags:
            event.update(self.tags)
        event.update(fields)
        if self._trace_fh is not None:
            try:
                if _should_fire("trace_io_error"):
                    raise OSError("injected trace_io_error fault")
                self._trace_fh.write(
                    json.dumps(event, separators=(",", ":")) + "\n"
                )
            except OSError:
                self._sink_failed()
        for fn in listeners:
            try:
                fn(event)
            except Exception:  # noqa: BLE001 - observers never kill a run
                pass

    # ---------------------------- spans ------------------------------- #
    def span_begin(self, name: str) -> Optional[_SpanHandle]:
        """Open a span under the current stack top (or :attr:`span_root`).

        Returns ``None`` on a registry that would drop the event anyway,
        so hot paths pay one check.  Span ids are ``<prefix>s<n>`` with a
        per-registry sequence — deterministic, never random.
        """
        if not self.enabled or (self._trace_fh is None and not self._listeners):
            return None
        self._span_seq += 1
        span_id = "%ss%d" % (self.span_prefix, self._span_seq)
        parent = self._span_stack[-1] if self._span_stack else self.span_root
        self._span_stack.append(span_id)
        return _SpanHandle(name, span_id, parent)

    def span_end(self, handle: Optional[_SpanHandle], **fields) -> None:
        """Close an open span and emit its ``span`` event."""
        if handle is None:
            return
        if self._span_stack and self._span_stack[-1] == handle.span_id:
            self._span_stack.pop()
        self.emit_span(
            handle.name,
            time.perf_counter() - handle.start,
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            **fields,
        )

    def span(self, name: str, **fields) -> object:
        """Context manager emitting one ``span`` event on exit."""
        return _SpanCtx(self, name, fields)

    @property
    def active_span(self) -> Optional[str]:
        """The span id new spans would parent under, or ``None``."""
        return self._span_stack[-1] if self._span_stack else self.span_root

    def emit_span(
        self,
        name: str,
        dur: float,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Emit a ``span`` event with a precomputed duration.

        ``parent_id`` defaults to the current stack top (then
        :attr:`span_root`) — callers measuring durations out-of-band
        (the engine's seed/mutate_exec splits, coalesced kernel
        dispatches) attach to the surrounding span automatically.
        """
        if not self.enabled:
            return
        if span_id is None:
            self._span_seq += 1
            span_id = "%ss%d" % (self.span_prefix, self._span_seq)
        if parent_id is None:
            parent = self._span_stack[-1] if self._span_stack else self.span_root
        else:
            parent = parent_id
        event_fields = dict(fields)
        if parent is not None:
            event_fields["parent_id"] = parent
        self.emit(
            "span",
            name=name,
            span_id=span_id,
            dur=round(dur, 6),
            **event_fields,
        )

    def absorb(self, events) -> None:
        """Re-emit raw event dicts (a worker trace) through this sink."""
        if not self.enabled or self._trace_fh is None:
            return
        try:
            for event in events:
                self._trace_fh.write(
                    json.dumps(event, separators=(",", ":")) + "\n"
                )
        except OSError:
            self._sink_failed()

    def _sink_failed(self) -> None:
        """Degrade to no-trace: close the sink, keep the campaign alive."""
        self.io_errors += 1
        fh, self._trace_fh = self._trace_fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass

    def flush(self) -> None:
        if self._trace_fh is not None:
            try:
                self._trace_fh.flush()
            except OSError:
                self._sink_failed()

    def close(self) -> None:
        if self._trace_fh is not None:
            try:
                self._trace_fh.flush()
                self._trace_fh.close()
            except OSError:
                self.io_errors += 1
            self._trace_fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _NullTelemetry(Telemetry):
    """The shared disabled singleton: every method a no-op.

    Unlike a plain disabled :class:`Telemetry`, the singleton also drops
    phase timing — it is shared process-wide, so accumulating state on it
    would bleed between unrelated runs.
    """

    def __init__(self):
        super().__init__(enabled=False)

    def phase(self, name: str):
        return _NULL_PHASE

    def add_phase(self, name: str, seconds: float) -> None:
        pass

    def emit(self, ev: str, **fields) -> None:
        pass


NULL = _NullTelemetry()

_ACTIVE: Telemetry = NULL


def get_telemetry() -> Telemetry:
    """The currently installed process-local telemetry (default NULL)."""
    return _ACTIVE


def set_telemetry(tel: Optional[Telemetry]) -> Telemetry:
    """Install ``tel`` (or NULL) as the active telemetry; returns the old."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tel if tel is not None else NULL
    return previous


@contextmanager
def telemetry_scope(tel: Optional[Telemetry]) -> Iterator[Telemetry]:
    """Temporarily install ``tel`` as the active telemetry."""
    previous = set_telemetry(tel)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)
