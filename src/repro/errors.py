"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """The model structure is invalid (bad wiring, duplicate names, ...)."""


class ScheduleError(ModelError):
    """The model cannot be scheduled (e.g. an algebraic loop)."""


class TypeError_(ModelError):
    """A signal or parameter has an unsupported or inconsistent data type."""


class ParseError(ReproError):
    """A model file (SLX container or XML document) could not be parsed."""


class CodegenError(ReproError):
    """Code synthesis failed for a block or a model."""


class SimulationError(ReproError):
    """The interpreted simulation engine hit an unrecoverable condition."""


class FuzzingError(ReproError):
    """The fuzzing engine was misconfigured or hit an internal fault."""


class SolverError(ReproError):
    """The constraint-directed (SLDV-like) generator failed internally."""


class TelemetryError(ReproError):
    """A campaign trace is unreadable, malformed, or schema-invalid."""


class WatchdogTimeout(ReproError):
    """Generated code exceeded its per-execution step budget.

    Raised from inside generated loop bodies (and the interpreter's loop
    execution) when the armed :class:`repro.faults.watchdog.Watchdog`
    runs out of steps — the campaign-level signal that an input drove a
    MATLAB-function ``while`` loop (or similar) into nontermination.
    """


class FaultPlanError(ReproError):
    """A fault-injection spec (``REPRO_FAULTS``) could not be parsed."""


class CampaignDegradedError(FuzzingError):
    """Every worker of a parallel campaign failed beyond its respawn budget."""


class ServiceError(ReproError):
    """The campaign service rejected a request or hit an internal fault."""


class JobNotFound(ServiceError):
    """No job with the requested id exists in the service's store."""


class JobSpecError(ServiceError):
    """A submitted job specification is malformed (the HTTP 400 class)."""
