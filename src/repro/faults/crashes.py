"""LibFuzzer-style crash artifacts for hung or crashing generated code.

When the watchdog interrupts a nonterminating execution the campaign
must not lose the evidence: the offending input *is* the bug report.
:class:`CrashStore` keeps one artifact per distinct failure point,
deduplicated by a **stack hash** — the hash of the (file, function,
line) frames of the raised exception's traceback, restricted to
generated/library code.  Ten thousand inputs that hang the same
``while`` loop produce one artifact with a count of ten thousand, just
like LibFuzzer's ``timeout-<hash>`` files.

With a ``root`` directory the store persists each new artifact as two
files, each through the shared :func:`~repro.atomic.atomic_write` so a
killed campaign never leaves torn artifacts (its temp files are not
``*.json``, so :meth:`CrashStore.load` skips them, and a failed write
is dropped: the artifacts are best-effort evidence):

* ``<kind>-<hash>`` — the raw input bytes, replayable with
  ``repro report`` / the fuzz driver;
* ``<kind>-<hash>.json`` — metadata: the stack frames, the exception
  text, first-seen campaign time, and the duplicate count (rewritten on
  later duplicates).

Without a root the store is memory-only, which is what a fuzzing worker
uses when no crash dir was configured.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..atomic import atomic_write

__all__ = ["stack_hash", "CrashArtifact", "CrashStore"]


def stack_hash(exc: BaseException) -> str:
    """A stable hex digest of the exception's raise site.

    Hashes the (filename, function, line) triples of the traceback —
    the same loop exhausting the budget from two different inputs hashes
    identically, while distinct loops (or distinct generated models)
    hash apart.  Falls back to the exception type name when the
    traceback is unavailable.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    h = hashlib.sha256()
    if not frames:
        h.update(type(exc).__name__.encode("utf-8"))
    for frame in frames:
        h.update(
            ("%s:%s:%d\n" % (frame.filename, frame.name, frame.lineno or 0)).encode(
                "utf-8"
            )
        )
    return h.hexdigest()[:16]


@dataclass
class CrashArtifact:
    """One deduplicated failure: input bytes + where it failed."""

    kind: str  # "timeout" | "crash"
    hash: str
    data: bytes
    message: str
    frames: List[str] = field(default_factory=list)
    found_at: float = 0.0
    count: int = 1
    #: campaign-wide covered-probe count when the failure was recorded —
    #: documents that a watchdog abort did not discard pre-abort coverage
    probes_covered: Optional[int] = None

    @property
    def name(self) -> str:
        return "%s-%s" % (self.kind, self.hash)

    def meta(self) -> Dict:
        meta = {
            "kind": self.kind,
            "hash": self.hash,
            "message": self.message,
            "frames": self.frames,
            "found_at": round(self.found_at, 6),
            "count": self.count,
            "size": len(self.data),
        }
        if self.probes_covered is not None:
            meta["probes_covered"] = self.probes_covered
        return meta


class CrashStore:
    """Stack-hash-deduplicated artifact collection, optionally on disk."""

    def __init__(self, root: Optional[str] = None):
        self.root = root
        self.artifacts: Dict[str, CrashArtifact] = {}

    def __len__(self) -> int:
        return len(self.artifacts)

    def record(
        self,
        kind: str,
        data: bytes,
        exc: BaseException,
        found_at: float = 0.0,
        probes_covered: Optional[int] = None,
    ) -> CrashArtifact:
        """Record one failure; returns its (possibly pre-existing) artifact.

        A repeat of a known stack hash only bumps the duplicate count —
        the first-seen input is the canonical reproducer, matching
        LibFuzzer's keep-the-first behavior.  ``probes_covered`` (the
        campaign coverage at record time) tracks the latest duplicate, so
        the persisted metadata shows coverage kept advancing past the hang.
        """
        digest = stack_hash(exc)
        key = "%s-%s" % (kind, digest)
        artifact = self.artifacts.get(key)
        if artifact is not None:
            artifact.count += 1
            if probes_covered is not None:
                artifact.probes_covered = probes_covered
            self._persist(artifact, with_data=False)
            return artifact
        frames = [
            "%s:%s:%d" % (f.filename, f.name, f.lineno or 0)
            for f in traceback.extract_tb(exc.__traceback__)
        ]
        artifact = CrashArtifact(
            kind=kind,
            hash=digest,
            data=data,
            message=str(exc),
            frames=frames,
            found_at=found_at,
            probes_covered=probes_covered,
        )
        self.artifacts[key] = artifact
        self._persist(artifact, with_data=True)
        return artifact

    # --------------------------- persistence -------------------------- #
    def _persist(self, artifact: CrashArtifact, with_data: bool) -> None:
        """Write the metadata, after the input bytes when ``with_data``
        (a duplicate only rewrites its count)."""
        if self.root is None:
            return
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, artifact.name)
        meta = json.dumps(artifact.meta(), indent=2, sort_keys=True)
        try:
            if with_data:
                atomic_write(path, artifact.data)
            atomic_write(path + ".json", meta.encode("utf-8"))
        except OSError:
            # artifacts are best-effort evidence; a full disk must not
            # take the campaign down with it
            pass

    @classmethod
    def load(cls, root: str) -> "CrashStore":
        """Read a persisted crash dir back into a store (for reports)."""
        store = cls(root)
        try:
            names = sorted(os.listdir(root))
        except OSError:
            return store
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(root, name), "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
                with open(os.path.join(root, name[: -len(".json")]), "rb") as fh:
                    data = fh.read()
            except (OSError, ValueError):
                continue  # torn artifact: skip, never crash the reader
            artifact = CrashArtifact(
                kind=meta.get("kind", "crash"),
                hash=meta.get("hash", ""),
                data=data,
                message=meta.get("message", ""),
                frames=list(meta.get("frames", ())),
                found_at=float(meta.get("found_at", 0.0)),
                count=int(meta.get("count", 1)),
                probes_covered=meta.get("probes_covered"),
            )
            store.artifacts[artifact.name] = artifact
        return store
