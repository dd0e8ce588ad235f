"""The durable on-disk job store: atomic writes, quarantined corruption.

Layout (one directory per job under the store root)::

    <root>/
      endpoint                  the daemon's URL, written at startup
      daemon.jsonl              the daemon's own telemetry trace
      jobs/<id>/
        job.json                the job record (spec, state, counters)
        state.pkl               FuzzState snapshot after the last slice
        trace.part              the in-flight slice's worker trace
        trace.jsonl             the job's campaign trace (absorbed parts)
        suite/                  the final TestSuite (save/load format)
        result.json             digest + coverage report of a done job
      quarantine/<id>/          corrupted records, moved aside verbatim

The durability contract mirrors the compile cache's: every record is
written with the shared :func:`~repro.atomic.atomic_write` (temp file +
``os.replace`` in the same directory, the temp name one ``list_jobs``
skips), so a SIGKILL'd daemon never leaves a half-written ``job.json`` or
``state.pkl`` — restart reads either the previous snapshot or the new
one, both of which resume the campaign deterministically.  A record
that *is* damaged (torn by an operator, bit-rotted, or garbled by an
injected ``store_corrupt`` fault) is never trusted and never fatal: the
read quarantines the offending file (or the whole job directory when
the record itself is unreadable) under ``quarantine/``, keeping the
original bytes for forensics, emits a ``fault`` telemetry event, and
the caller falls back — a lost snapshot restarts the job from scratch
(same seed, so same final digest), a lost record drops the job.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
from typing import Dict, List, Optional

from ..atomic import atomic_write
from ..errors import JobNotFound, ServiceError
from ..faults.plan import should_fire
from ..fuzzing.engine import FuzzState
from ..telemetry.core import NULL, Telemetry

__all__ = ["JobStore"]

_JOB_ID_RE = re.compile(r"^job(\d+)$")


class JobStore:
    """Filesystem persistence for campaign-service jobs."""

    def __init__(self, root: str, telemetry: Optional[Telemetry] = None):
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self.telemetry = telemetry if telemetry is not None else NULL

    # ------------------------------ paths ------------------------------ #
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def state_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "state.pkl")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.jsonl")

    def part_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.part")

    def suite_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "suite")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def endpoint_path(self) -> str:
        return os.path.join(self.root, "endpoint")

    def daemon_trace_path(self) -> str:
        return os.path.join(self.root, "daemon.jsonl")

    # ---------------------------- job records -------------------------- #
    def new_job_id(self) -> str:
        """The next sequential id, never reusing a quarantined one."""
        top = 0
        for directory in (self.jobs_dir, self.quarantine_dir):
            for name in os.listdir(directory):
                match = _JOB_ID_RE.match(name)
                if match:
                    top = max(top, int(match.group(1)))
        return "job%04d" % (top + 1)

    def list_jobs(self) -> List[str]:
        return sorted(
            name
            for name in os.listdir(self.jobs_dir)
            if _JOB_ID_RE.match(name)
        )

    def save_job(self, record: Dict) -> None:
        job_id = record["id"]
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        atomic_write(
            self.job_path(job_id),
            json.dumps(record, sort_keys=True, indent=2).encode("utf-8"),
        )

    def load_job(self, job_id: str) -> Dict:
        """Read one job record; corruption quarantines the whole job.

        Raises :class:`JobNotFound` both for a missing job and for one
        just quarantined — from the caller's view a corrupted job has
        ceased to exist, its bytes preserved under ``quarantine/``.
        """
        path = self.job_path(job_id)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            if should_fire("store_corrupt"):
                raise ValueError("injected store_corrupt fault")
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("job record is not a JSON object")
        except FileNotFoundError:
            raise JobNotFound("no job %r in this store" % (job_id,))
        except (ValueError, UnicodeDecodeError) as exc:
            self._quarantine(self.job_dir(job_id), job_id, "job.json", exc)
            raise JobNotFound(
                "job %r record was corrupted and quarantined" % (job_id,)
            )
        return record

    # --------------------------- state snapshots ----------------------- #
    def save_state(self, job_id: str, state: FuzzState) -> None:
        atomic_write(
            self.state_path(job_id),
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load_state(self, job_id: str) -> Optional[FuzzState]:
        """Read a job's snapshot; corruption quarantines just the file.

        Returns ``None`` for both a missing and a quarantined snapshot:
        the daemon restarts the job from a fresh state, which — same
        seed, same slicing — reproduces the campaign from the beginning
        rather than losing it.
        """
        path = self.state_path(job_id)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            if should_fire("store_corrupt"):
                raise pickle.UnpicklingError("injected store_corrupt fault")
            state = pickle.loads(raw)
            if not isinstance(state, FuzzState):
                raise pickle.UnpicklingError("snapshot is not a FuzzState")
        except FileNotFoundError:
            return None
        except Exception as exc:  # noqa: BLE001 - garbage unpickles variously
            self._quarantine(path, job_id, "state.pkl", exc)
            return None
        return state

    def discard_part(self, job_id: str) -> None:
        """Drop a stale slice trace before (re-)dispatching the slice."""
        try:
            os.unlink(self.part_path(job_id))
        except OSError:
            pass

    # ------------------------------ results ---------------------------- #
    def save_result(self, job_id: str, result: Dict) -> None:
        atomic_write(
            self.result_path(job_id),
            json.dumps(result, sort_keys=True, indent=2).encode("utf-8"),
        )

    def load_result(self, job_id: str) -> Dict:
        path = self.result_path(job_id)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            if should_fire("store_corrupt"):
                raise ValueError("injected store_corrupt fault")
            result = json.loads(raw.decode("utf-8"))
            if not isinstance(result, dict):
                raise ValueError("result record is not a JSON object")
        except FileNotFoundError:
            raise ServiceError("job %r has no stored result" % (job_id,))
        except (ValueError, UnicodeDecodeError) as exc:
            self._quarantine(path, job_id, "result.json", exc)
            raise ServiceError(
                "job %r result was corrupted and quarantined" % (job_id,)
            )
        return result

    # ----------------------------- endpoint ---------------------------- #
    def write_endpoint(self, url: str) -> None:
        """Publish the daemon's URL for tests/CI to discover."""
        atomic_write(self.endpoint_path(), (url + "\n").encode("utf-8"))

    # ---------------------------- quarantine ---------------------------- #
    def _quarantine(self, src: str, job_id: str, what: str, error) -> None:
        """Move a damaged path under ``quarantine/<job_id>/``, keep bytes."""
        dest_dir = os.path.join(self.quarantine_dir, job_id)
        dest = (
            dest_dir
            if src == self.job_dir(job_id)
            else os.path.join(dest_dir, os.path.basename(src))
        )
        if dest != dest_dir:
            os.makedirs(dest_dir, exist_ok=True)
        base, n = dest, 1
        while os.path.exists(dest):
            dest = "%s.%d" % (base, n)
            n += 1
        try:
            shutil.move(src, dest)
        except OSError:
            dest = None  # quarantine is best-effort; the fault is recorded
        self.telemetry.emit(
            "fault",
            kind="store_corrupt",
            job=job_id,
            what=what,
            path=src,
            quarantined=dest,
            error=str(error),
        )
