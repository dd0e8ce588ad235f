"""Code synthesis pipeline (paper Fig. 2, "Fuzzing Code Generation").

Given a :class:`~repro.schedule.schedule.Schedule`, this package emits one
Python module per model — the analogue of the paper's generated C code —
and compiles it in-process.  Three instrumentation levels:

* ``"model"`` — full model-level branch instrumentation, modes (a)–(d)
  of §3.1.2 (decision, condition and MCDC probes).  This is CFTCG's code.
* ``"code"`` — only probes at real control-flow branches, the behaviour
  of a stock compiler+LibFuzzer pipeline; boolean logic is compiled
  branchlessly.  This is the "Fuzz Only" ablation's code (Fig. 8).
* ``"none"`` — bare code, used for speed measurements.

:func:`generate_fuzz_driver` renders the driver of Figure 3 /
Algorithm 1; :func:`compile_model` / :func:`compile_driver` turn sources
into callables.
"""

from .cache import CODEGEN_VERSION, CompileCache, cache_key, canonical_model_form
from .compile import CompiledModel, compile_model
from .driver import compile_fuzz_driver, generate_fuzz_driver
from .emitter import generate_model_code
from .optimize import optimize_module, optimize_source, step_arg_kinds
from .runtime import runtime_globals

__all__ = [
    "CODEGEN_VERSION",
    "CompileCache",
    "CompiledModel",
    "cache_key",
    "canonical_model_form",
    "compile_fuzz_driver",
    "compile_model",
    "generate_fuzz_driver",
    "generate_model_code",
    "optimize_module",
    "optimize_source",
    "runtime_globals",
    "step_arg_kinds",
]
