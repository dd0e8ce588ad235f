"""Deterministic fault-injection plans.

A plan is a list of :class:`FaultSpec` values, each naming one failure
mode plus the site parameters that select exactly *where* it fires and a
``times`` budget bounding *how often*.  Instrumented code asks
:func:`should_fire` at its failure site; the call matches the site
context against the installed plan and consumes one firing on a match —
so an injected fault happens at one deterministic point and, once the
recovery path has retried past it, never again.  That consumability is
what makes "campaign survives a worker death and still produces the
golden corpus digest" a testable statement.

Supported kinds (:data:`FAULT_KINDS`):

``worker_death``
    A pool worker (campaign or service) calls ``os._exit`` at the start
    of its budget slice.  Params: ``worker``, ``epoch``.
``slow_exec``
    A worker sleeps instead of fuzzing, simulating hung generated code
    that the in-process watchdog cannot interrupt.  Params: ``worker``,
    ``epoch``, ``seconds`` (default 3600 — effectively forever).
``cache_corrupt``
    The compile cache's disk read returns garbled bytes, exercising the
    corruption-quarantine path.  No params.
``trace_io_error``
    A telemetry trace write raises :class:`OSError`, exercising the
    degrade-to-disabled-sink path.  No params.
``store_corrupt``
    The campaign service's durable job store reads a garbled record,
    exercising its corruption-quarantine path (the job-store analogue of
    ``cache_corrupt``).  No params.

The site selectors ``worker`` (the pool slot) and ``epoch`` (the sync
epoch, or a service job's slice round) narrow where a spec fires; a spec
without them matches every site.

The environment syntax (``REPRO_FAULTS``) is a comma-separated list of
``kind`` or ``kind:param=value:param=value`` entries, e.g.::

    REPRO_FAULTS=worker_death:worker=0:epoch=1,cache_corrupt

Plans are plain picklable values.  Worker faults are consumed by the
process that dispatches the payload — a campaign parent or the service
daemon (:func:`repro.fuzzing.parallel.ship_faults`) — so ``times``
counts firings per campaign or per daemon, not per worker.  A consumed
spec ships inside that one payload; retry payloads ship none, which is
how a retried slice re-runs *without* the fault.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "parse_faults",
    "plan_from_env",
    "install",
    "get_plan",
    "clear",
    "fault_scope",
    "should_fire",
]

#: the failure modes the stack knows how to inject
FAULT_KINDS = (
    "worker_death",
    "slow_exec",
    "cache_corrupt",
    "trace_io_error",
    "store_corrupt",
)

#: REPRO_FAULTS params that are site selectors (matched against context)
_SITE_PARAMS = ("worker", "epoch")


@dataclass
class FaultSpec:
    """One injectable fault: kind + site selectors + firing budget."""

    kind: str
    #: site selectors (e.g. worker index, epoch); a spec matches a
    #: firing site only when every selector equals the site's context
    params: Dict[str, float] = field(default_factory=dict)
    #: how many times this spec may fire before it is exhausted
    times: int = 1
    #: firings consumed so far
    fired: int = 0

    def matches(self, context: Dict) -> bool:
        if self.fired >= self.times:
            return False
        for name in _SITE_PARAMS:
            if name in self.params and context.get(name) != self.params[name]:
                return False
        return True

    def param(self, name: str, default: float) -> float:
        return self.params.get(name, default)


@dataclass
class FaultPlan:
    """An ordered set of fault specs, installable process-locally."""

    specs: List[FaultSpec] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def first_matching(self, kind: str, context: Dict) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.kind == kind and spec.matches(context):
                return spec
        return None


def parse_faults(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` value into a :class:`FaultPlan`.

    Raises :class:`~repro.errors.FaultPlanError` on unknown kinds or
    malformed parameters — a typoed fault matrix entry must fail loudly,
    not silently inject nothing.
    """
    specs: List[FaultSpec] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        kind = parts[0].strip()
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                "unknown fault kind %r (known: %s)" % (kind, ", ".join(FAULT_KINDS))
            )
        params: Dict[str, float] = {}
        times = 1
        for part in parts[1:]:
            if "=" not in part:
                raise FaultPlanError(
                    "malformed fault param %r in %r (want name=value)"
                    % (part, entry)
                )
            name, _, raw = part.partition("=")
            name = name.strip()
            try:
                value = float(raw)
            except ValueError as exc:
                raise FaultPlanError(
                    "non-numeric fault param %r in %r" % (part, entry)
                ) from exc
            if name == "times":
                times = int(value)
            else:
                value = int(value) if value == int(value) else value
                params[name] = value
        specs.append(FaultSpec(kind, params, times))
    return FaultPlan(specs)


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> FaultPlan:
    """The plan described by ``REPRO_FAULTS`` (empty when unset)."""
    environ = os.environ if environ is None else environ
    return parse_faults(environ.get("REPRO_FAULTS", ""))


# ---------------------------------------------------------------------- #
# process-local installation
# ---------------------------------------------------------------------- #
_ACTIVE: Optional[FaultPlan] = None
_ENV_LOADED = False


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` process-locally; returns the previous plan.

    Passing ``None`` clears injection entirely (the ``REPRO_FAULTS``
    environment is *not* re-read until :func:`clear` resets the module).
    """
    global _ACTIVE, _ENV_LOADED
    previous = _ACTIVE
    _ACTIVE = plan
    _ENV_LOADED = True
    return previous


def get_plan() -> Optional[FaultPlan]:
    """The active plan; lazily loads ``REPRO_FAULTS`` on first use."""
    global _ACTIVE, _ENV_LOADED
    if not _ENV_LOADED:
        _ENV_LOADED = True
        env_plan = plan_from_env()
        _ACTIVE = env_plan if env_plan else None
    return _ACTIVE


def clear() -> None:
    """Drop the active plan and forget the env was ever read (tests)."""
    global _ACTIVE, _ENV_LOADED
    _ACTIVE = None
    _ENV_LOADED = False


@contextmanager
def fault_scope(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Temporarily install ``plan`` (restores the previous on exit)."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)


def should_fire(kind: str, **context) -> Optional[FaultSpec]:
    """Consume and return a matching spec, or ``None``.

    The hot-path cost with no plan installed is one global read and one
    ``None`` check, so instrumented sites can call this unconditionally.
    """
    plan = _ACTIVE if _ENV_LOADED else get_plan()
    if plan is None:
        return None
    spec = plan.first_matching(kind, context)
    if spec is None:
        return None
    spec.fired += 1
    return spec
