"""Compilation of generated sources into executable objects.

The paper compiles fuzz driver + instrumented code with Clang; our
equivalent is ``compile()``/``exec`` of the generated Python module, which
produces the fast execution path (orders of magnitude above the
interpreter — the speed gap the whole approach rests on).

Two accelerators sit between codegen and ``exec``:

* the AST optimizer (:mod:`repro.codegen.optimize`) — the ``-O2`` pass of
  the pipeline, on by default and audited to preserve instrumentation
  byte-for-byte;
* the persistent compile cache (:mod:`repro.codegen.cache`) — keyed by
  the canonical model form, so a warm ``compile_model`` is a disk read
  (or, within one process, a dict lookup) instead of a codegen run.
"""

from __future__ import annotations

from typing import Optional

from ..coverage.recorder import CoverageRecorder
from ..errors import CodegenError
from ..schedule.schedule import Schedule
from ..telemetry.core import get_telemetry
from .cache import Uncacheable, cache_key, default_cache
from .emitter import generate_model_code
from .optimize import optimize_module, step_arg_kinds
from .runtime import runtime_globals

__all__ = ["CompiledModel", "compile_model"]


class CompiledModel:
    """A compiled model: source text + class object + schedule metadata."""

    def __init__(
        self,
        schedule: Schedule,
        level: str,
        source: str,
        cls,
        optimized: bool = False,
        from_cache: Optional[str] = None,
    ):
        self.schedule = schedule
        self.level = level
        self.source = source
        self._cls = cls
        #: whether the optimizer pipeline ran over this module
        self.optimized = optimized
        #: ``None`` (fresh compile), ``"memory"`` or ``"disk"``
        self.from_cache = from_cache

    @property
    def branch_db(self):
        return self.schedule.branch_db

    @property
    def layout(self):
        return self.schedule.layout

    def instantiate(self, recorder: Optional[CoverageRecorder] = None):
        """A fresh program instance bound to ``recorder`` (or a fresh one).

        Returns ``(program, recorder)``; the program's probe writes target
        ``recorder.curr`` and its MCDC records go to ``recorder``.
        """
        if recorder is None:
            recorder = CoverageRecorder(self.branch_db)
        program = self._cls(recorder.curr, recorder.record_mcdc)
        program.init()
        return program, recorder


def _generate_source(schedule: Schedule, level: str, optimize: bool) -> str:
    tel = get_telemetry()
    with tel.phase("codegen"):
        source = generate_model_code(schedule, level)
    if optimize:
        with tel.phase("optimize"):
            source = optimize_module(source, step_arg_kinds(schedule))
    return source


def _exec_module(source, code, schedule: Schedule):
    env = runtime_globals()
    try:
        if code is None:
            code = compile(source, "<generated:%s>" % schedule.model.name, "exec")
        exec(code, env)
    except SyntaxError as exc:  # pragma: no cover - emitter bug guard
        raise CodegenError(
            "generated code failed to compile: %s\n%s" % (exc, source)
        ) from exc
    return code, env["GeneratedModel"]


def compile_model(
    schedule: Schedule,
    level: str = "model",
    optimize: bool = True,
    cache: bool = True,
) -> CompiledModel:
    """Generate and compile the model's code at an instrumentation level.

    ``optimize`` runs the audited AST optimizer over the generated module;
    ``cache`` consults the persistent compile cache first (silently skipped
    when the cache is disabled or the model is uncacheable).
    """
    tel = get_telemetry()
    store = default_cache() if cache else None
    key = None
    uncacheable = False
    if store is not None:
        try:
            key = cache_key(schedule.model, level, optimize)
        except Uncacheable:
            store = None
            uncacheable = True

    if store is not None and key is not None:
        hit = store.get_memory(key)
        if hit is not None:
            source, cls = hit
            if tel.enabled:
                tel.emit("compile_cache", tier="memory", level=level)
            return CompiledModel(
                schedule,
                level,
                source,
                cls,
                optimized=optimize,
                from_cache="memory",
            )
        disk = store.get_disk(key)
        if disk is not None:
            source, code = disk
            try:
                with tel.phase("compile"):
                    _, cls = _exec_module(source, code, schedule)
            except Exception as exc:
                # bytecode that unmarshalled but won't execute: poison —
                # quarantine the entry, then recompile from scratch (the
                # fresh compile re-persists a clean entry under this key)
                store.quarantine(key, exc)
                disk = None
            else:
                store.put_memory(key, source, cls)
                if tel.enabled:
                    tel.emit("compile_cache", tier="disk", level=level)
                return CompiledModel(
                    schedule,
                    level,
                    source,
                    cls,
                    optimized=optimize,
                    from_cache="disk",
                )

    if tel.enabled and cache:
        tel.emit(
            "compile_cache",
            tier="uncacheable" if uncacheable else "miss",
            level=level,
        )
    source = _generate_source(schedule, level, optimize)
    with tel.phase("compile"):
        code, cls = _exec_module(source, None, schedule)
    if store is not None and key is not None:
        store.put_disk(key, source, code)
        store.put_memory(key, source, cls)
    return CompiledModel(schedule, level, source, cls, optimized=optimize)
