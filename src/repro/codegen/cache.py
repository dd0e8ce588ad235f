"""Persistent content-addressed compile cache for generated model code.

Codegen + ``compile()`` of a large model costs tens of milliseconds; a
parallel campaign pays it once per worker and the CLI pays it once per
invocation.  This module makes every compile after the first a disk read:
entries are keyed by the SHA-256 of the *canonical model form* (a
deterministic textual serialization of the block diagram) together with
the instrumentation level, the optimizer flag and :data:`CODEGEN_VERSION`
— so any change to the model, the requested variant, or the code
generator itself changes the key and invalidates stale artifacts without
any bookkeeping.

Storage layout (default ``.repro_cache/codegen/``, overridable with the
``REPRO_CACHE_DIR`` environment variable; ``REPRO_CACHE=0`` disables the
cache entirely):

* ``<key>.py`` — the generated module source (debuggable with an editor);
* ``<key>.<cache_tag>.bin`` — the marshalled code object, tagged with
  ``sys.implementation.cache_tag`` exactly like CPython's own ``.pyc``
  files so interpreters never load each other's bytecode;
* ``<key>.c`` / ``<key>.<platform>.so`` — the native kernel backend's
  lowered C source and built shared object (see
  :mod:`repro.codegen.kernel`), platform-tagged for the same reason and
  covered by the same quarantine path.

Writes go through the shared :func:`~repro.atomic.atomic_write` (temp
file + ``os.replace``); ``put_disk`` drops a failed write, because the
cache is an accelerator.  A missing or unreadable entry is a plain
miss.  An entry that is *present but corrupted* (bad marshal payload,
non-code object, failed validation — or an injected
``cache_corrupt`` fault) is **quarantined**: both files are moved into a
``quarantine/`` subdirectory so the poisoned entry can never be read
again, a ``fault`` telemetry event records it, and the caller recompiles
from scratch — the retry then re-persists a fresh entry under the same
key.  An in-memory LRU of executed classes sits in front of the disk
tier so repeat compiles inside one process skip even the ``exec``.

Models whose parameters are not canonicalizable (an unknown object type
in ``block.params``) are **uncacheable**: :func:`cache_key` raises
:class:`Uncacheable` and the caller falls back to a plain compile rather
than risking a false cache hit on an ambiguous key.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from collections import OrderedDict
from typing import Optional, Tuple

from ..atomic import atomic_write
from ..dtypes import DType
from ..faults.plan import should_fire as _should_fire

__all__ = [
    "CODEGEN_VERSION",
    "Uncacheable",
    "canonical_model_form",
    "cache_key",
    "CompileCache",
    "default_cache",
]

#: Bump on ANY change to code generation, optimization or the runtime
#: helpers: the constant is folded into every cache key, so stale disk
#: entries from older generators can never be loaded.
CODEGEN_VERSION = "5"

_MEMORY_SLOTS = 32


class Uncacheable(Exception):
    """The model contains parameters with no canonical serialization."""


# ---------------------------------------------------------------------- #
# canonical model form
# ---------------------------------------------------------------------- #
def _canon_value(value, out, depth) -> None:
    from ..model.model import Model  # local: avoid an import cycle

    if value is None or isinstance(value, (bool, int, str, bytes)):
        out.append("%s:%r" % (type(value).__name__, value))
    elif isinstance(value, float):
        # repr round-trips doubles exactly; distinguishes 1.0 from 1
        out.append("float:%r" % value)
    elif isinstance(value, DType):
        out.append("dtype:%s" % value.name)
    elif isinstance(value, (list, tuple)):
        out.append("seq[")
        for item in value:
            _canon_value(item, out, depth)
            out.append(",")
        out.append("]")
    elif isinstance(value, dict):
        out.append("map{")
        try:
            keys = sorted(value)
        except TypeError as exc:
            raise Uncacheable("unsortable dict keys in params") from exc
        for key in keys:
            out.append("%r=" % (key,))
            _canon_value(value[key], out, depth)
            out.append(",")
        out.append("}")
    elif isinstance(value, Model):
        _canon_model(value, out, depth + 1)
    else:
        raise Uncacheable(
            "parameter of type %s has no canonical form" % type(value).__name__
        )


def _canon_model(model, out, depth) -> None:
    if depth > 64:
        raise Uncacheable("model nesting too deep to canonicalize")
    out.append("model(%r){" % model.name)
    for name, block in model.blocks.items():  # insertion order: part of identity
        out.append("block(%r,%r," % (name, block.type_name))
        _canon_value(block.params, out, depth)
        out.append(")")
    for conn in model.connections:
        out.append(
            "wire(%r,%d,%r,%d)" % (conn.src, conn.src_port, conn.dst, conn.dst_port)
        )
    out.append("}")


def canonical_model_form(model) -> str:
    """A deterministic textual form of a model (hierarchy included)."""
    out: list = []
    _canon_model(model, out, 0)
    return "".join(out)


def cache_key(
    model,
    level: str,
    optimize: bool,
    kernel: int = 0,
) -> str:
    """SHA-256 key for one (model, level, optimize, backend, generator)
    variant — ``kernel`` is 0 for the Python artifacts and the native
    backend's ABI version for its slot, so an ABI bump misses cleanly.

    Raises :class:`Uncacheable` for models whose parameters cannot be
    serialized deterministically.
    """
    payload = "\x00".join(
        (
            canonical_model_form(model),
            "level=%s" % level,
            "optimize=%d" % bool(optimize),
            "kernel=%d" % kernel,
            "codegen=%s" % CODEGEN_VERSION,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# the cache proper
# ---------------------------------------------------------------------- #
def _env_disabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1") in ("0", "off", "no", "false")


def default_cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(".repro_cache", "codegen")
    )


class CompileCache:
    """Two-tier (memory LRU + disk) cache of compiled generated modules.

    Disk entries hold ``(source, code object)``; the memory tier holds the
    executed artifact ``(source, value)`` where ``value`` is whatever the
    caller chose to keep (for model modules: the ``GeneratedModel`` class).
    """

    def __init__(self, root: Optional[str] = None, memory_slots: int = _MEMORY_SLOTS):
        self.root = root or default_cache_dir()
        self._memory: "OrderedDict[str, Tuple[str, object]]" = OrderedDict()
        self._memory_slots = memory_slots
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.quarantined = 0

    def stats(self) -> dict:
        """Hit/miss counters per tier — the telemetry-facing snapshot."""
        return {
            "memory_hits": self.hits,
            "memory_misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "quarantined": self.quarantined,
        }

    # -------------------------- memory tier -------------------------- #
    def get_memory(self, key: str) -> Optional[Tuple[str, object]]:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put_memory(self, key: str, source: str, value: object) -> None:
        self._memory[key] = (source, value)
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_slots:
            self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        self._memory.clear()

    # --------------------------- disk tier --------------------------- #
    def _paths(self, key: str) -> Tuple[str, str]:
        tag = sys.implementation.cache_tag or "py"
        return (
            os.path.join(self.root, "%s.py" % key),
            os.path.join(self.root, "%s.%s.bin" % (key, tag)),
        )

    def native_paths(self, key: str) -> Tuple[str, str]:
        """``(<key>.c, <key>.<platform>.so)`` for the kernel backend.

        The ``.c`` keeps the lowered source debuggable next to the built
        artifact; the ``.so`` is tagged with ``sys.platform`` so hosts
        sharing one cache directory never dlopen a foreign binary.
        """
        return (
            os.path.join(self.root, "%s.c" % key),
            os.path.join(self.root, "%s.%s.so" % (key, sys.platform)),
        )

    def get_disk(self, key: str):
        """``(source, code)`` from disk, or ``None`` on miss/corruption.

        A present-but-corrupted entry is quarantined (see
        :meth:`quarantine`) before reporting the miss, so the caller's
        fresh recompile can re-persist a clean entry under the same key.
        """
        src_path, bin_path = self._paths(key)
        try:
            with open(src_path, "r", encoding="utf-8") as fh:
                source = fh.read()
            with open(bin_path, "rb") as fh:
                payload = fh.read()
        except OSError:
            # missing or unreadable: plain miss, nothing to quarantine
            self.disk_misses += 1
            return None
        try:
            if _should_fire("cache_corrupt"):
                raise ValueError("injected cache_corrupt fault")
            code = marshal.loads(payload)
            if not source or not hasattr(code, "co_code"):
                raise ValueError("cache entry failed validation")
        except (ValueError, EOFError, TypeError) as exc:
            self.quarantine(key, exc)
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return source, code

    def quarantine(self, key: str, error: Exception) -> None:
        """Move a corrupted entry into ``quarantine/`` and record a fault.

        The moved files keep their names, so the poisoned payload stays
        available for post-mortem while the live key becomes a clean miss.
        Quarantine failures (read-only FS) are non-fatal: the entry is
        still reported as a miss and the recompile's ``put_disk``
        overwrites it atomically.
        """
        from ..telemetry.core import get_telemetry  # local: avoid cycle at import

        self.quarantined += 1
        qdir = os.path.join(self.root, "quarantine")
        for path in self._paths(key) + self.native_paths(key):
            try:
                os.makedirs(qdir, exist_ok=True)
                os.replace(path, os.path.join(qdir, os.path.basename(path)))
            except OSError:
                pass
        tel = get_telemetry()
        if tel.enabled:
            tel.emit("fault", kind="cache_corrupt", key=key, error=str(error))

    def put_disk(self, key: str, source: str, code) -> None:
        """Atomically persist one entry; IO errors are non-fatal."""
        src_path, bin_path = self._paths(key)
        try:
            os.makedirs(self.root, exist_ok=True)
            atomic_write(src_path, source.encode("utf-8"))
            atomic_write(bin_path, marshal.dumps(code))
        except OSError:  # pragma: no cover - read-only FS etc.
            pass  # the cache is an accelerator, never a requirement


_DEFAULT: Optional[CompileCache] = None


def default_cache() -> Optional[CompileCache]:
    """The process-wide cache instance, or ``None`` when disabled."""
    global _DEFAULT
    if _env_disabled():
        return None
    if _DEFAULT is None or _DEFAULT.root != default_cache_dir():
        _DEFAULT = CompileCache()
    return _DEFAULT
