"""Container-aware CPU core detection.

``os.cpu_count()`` reports the machine, not the container: a CI runner
pinned to 2 cores of a 64-core host would oversubscribe 32x if worker
or thread counts defaulted to it.  :func:`available_cpus` is the one
shared answer to "how many cores may this process actually use" —
scheduler affinity (``os.sched_getaffinity``) intersected with the
cgroup CPU quota (v2 ``cpu.max`` or v1 ``cfs_quota_us/cfs_period_us``),
overridable with ``REPRO_CPUS`` for tests and benchmarks.

:func:`resolve_kernel_threads` turns ``FuzzerConfig.kernel_threads``
(``int | "auto" | None``) into a concrete thread count, dividing the
available cores by the campaign's worker count so threads x workers
never oversubscribes the container.  :data:`MAX_KERNEL_LANES`, the
native kernel's lane ceiling, lives here too, so config checks read it
without loading the kernel module.
"""

from __future__ import annotations

import os
from typing import Optional, Union

__all__ = ["MAX_KERNEL_LANES", "available_cpus", "resolve_kernel_threads"]

#: per-model lane capacity of the native kernel: per-lane state is
#: plain arrays, so lanes are cheap.
MAX_KERNEL_LANES = 256

_CGROUP_V2_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _read_int(path: str) -> Optional[int]:
    try:
        with open(path) as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


def _cgroup_quota_cpus() -> Optional[int]:
    """Whole cores granted by the cgroup CPU bandwidth quota, or None
    when unlimited/undetectable."""
    try:
        with open(_CGROUP_V2_MAX) as fh:
            parts = fh.read().split()
        if len(parts) >= 2 and parts[0] != "max":
            quota, period = int(parts[0]), int(parts[1])
            if quota > 0 and period > 0:
                return max(1, quota // period)
    except (OSError, ValueError):
        pass
    quota = _read_int(_CGROUP_V1_QUOTA)
    period = _read_int(_CGROUP_V1_PERIOD)
    if quota is not None and period is not None and quota > 0 and period > 0:
        return max(1, quota // period)
    return None


def available_cpus() -> int:
    """Cores this process may actually use (affinity ∩ cgroup quota).

    ``REPRO_CPUS=<n>`` overrides detection entirely — benchmarks and CI
    use it to pin a deterministic answer.
    """
    override = os.environ.get("REPRO_CPUS")
    if override:
        try:
            n = int(override)
        except ValueError:
            n = 0
        if n > 0:
            return n
    cpus = _affinity_cpus()
    quota = _cgroup_quota_cpus()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def resolve_kernel_threads(
    threads: Union[int, str, None],
    workers: int = 1,
    lanes: Optional[int] = None,
) -> int:
    """Concrete kernel thread count for one worker process.

    ``"auto"`` (or None) honors ``REPRO_KERNEL_THREADS`` when set (CI
    pins runners with it), else takes the container's available cores
    divided by the campaign's worker count, so a 4-worker campaign on 8
    cores runs 2 kernel threads per worker instead of 8.  Explicit ints
    are honored as given (clamped to >= 1).  When ``lanes`` is known
    the result is additionally clamped to it — more threads than lanes
    would only idle.
    """
    if threads in (None, "auto"):
        env = os.environ.get("REPRO_KERNEL_THREADS")
        n = 0
        if env:
            try:
                n = int(env)
            except ValueError:
                n = 0
        if n < 1:
            n = max(1, available_cpus() // max(1, int(workers or 1)))
    else:
        n = max(1, int(threads))
    if lanes is not None and lanes > 0:
        n = min(n, int(lanes))
    return n
