"""Crash-atomic file writes, shared by the compile cache, the service's
job store and the crash store.  Standard library only, so each of them
can import it without an import cycle."""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    The temp file sits in the target's directory, so a reader sees the
    old file or the new one, never a torn one; its ``.tmp-*.tmp`` name
    is one the stores' directory scanners skip.  On failure the temp
    file is removed and the error re-raised: best-effort callers catch
    ``OSError`` themselves.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=".tmp-", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
