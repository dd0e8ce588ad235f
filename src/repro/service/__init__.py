"""The campaign service: a daemon multiplexing fuzzing jobs.

``repro serve`` runs a long-lived :class:`~repro.service.daemon.
ServiceDaemon`: an HTTP job API (:mod:`~repro.service.api`) feeding the
daemon's FIFO job queue, a dispatch loop that round-robins queued
campaigns over one shared :class:`~repro.fuzzing.parallel.WorkerPool` in
input-budget slices (the job spec and the workers' side are
:mod:`~repro.service.scheduler`), and a durable :class:`~repro.service.
store.JobStore` that snapshots every job after every slice — so a killed
daemon restarts into the exact campaigns it was running, and a job run
through the service produces the byte-identical suite of the standalone
CLI run with the same configuration.
"""

from .daemon import ServiceDaemon
from .store import JobStore

__all__ = ["JobStore", "ServiceDaemon"]
