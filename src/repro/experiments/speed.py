"""§4 speed analysis — the compiled-vs-interpreted iteration-rate gap.

Reproduces the two quantitative claims in the paper's evaluation text:

* SolarPV: CFTCG executes >26 000 model iterations per second while the
  simulation-based SimCoTest manages ~6 — we measure our generated
  code's two execution paths (the generated Python driver, and the
  one-lane native kernel every default campaign runs on a host with a
  C compiler) and the interpreter on the same model;
* CPUTask: CFTCG reaches (near-)full coverage in ~37 s; at the
  simulation engine's rate the same number of iterations would take an
  estimated 44.5 hours — we report our time-to-peak and the same
  extrapolation using our measured interpreter rate.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..bench.registry import build_schedule
from ..codegen.compile import compile_model
from ..codegen.driver import compile_fuzz_driver
from ..coverage.recorder import CoverageRecorder
from ..fuzzing.engine import Fuzzer, FuzzerConfig
from ..simulate.interpreter import ModelInstance
from .paper_data import PAPER_SPEED

__all__ = ["measure_iteration_rates", "measure_time_to_coverage", "run_speed"]


def _interpreted_rate(schedule, seconds: float) -> float:
    """Iterations/second of the simulation interpreter on zero inputs."""
    layout = schedule.layout
    instance = ModelInstance(schedule)
    instance.init()
    fields = layout.unpack_tuple(bytes(layout.size))
    iters = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        instance.step(*fields)
        iters += 1
    return iters / (time.perf_counter() - start)


def _kernel_rate(schedule, data: bytes, seconds: float) -> Optional[float]:
    """Iterations/second of the one-lane native kernel over ``data``, or
    ``None`` when no kernel can be built here."""
    from ..codegen import kernel as _kernel

    try:
        if not _kernel.have_cc():
            return None
        ck = _kernel.compile_kernel(
            compile_model(schedule, "model", optimize=False)
        )
    except (_kernel.Unloweable, _kernel.KernelBuildError):
        return None
    program = ck.instantiate_kernel(1)
    driver = _kernel.compile_kernel_fuzz_driver(schedule)
    iters = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ((_, _, _, executed, _),) = driver(program, None, [data], 0)
        iters += executed
    return iters / (time.perf_counter() - start)


def measure_iteration_rates(model_name: str = "SolarPV", seconds: float = 1.0) -> Dict:
    """Iterations/second of the generated code's two fuzzing paths (the
    Python driver, the one-lane native kernel) vs the interpreted path."""
    schedule = build_schedule(model_name)
    layout = schedule.layout

    compiled = compile_model(schedule, "model")
    driver = compile_fuzz_driver(schedule)
    recorder = CoverageRecorder(schedule.branch_db)
    program, _ = compiled.instantiate(recorder)
    data = bytes(layout.size * 64)  # 64 iterations per driver call
    iters = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        _, _, _, executed = driver(program, recorder.curr, data, 0)
        iters += executed
    compiled_rate = iters / (time.perf_counter() - start)
    kernel_rate = _kernel_rate(schedule, data, seconds)
    interpreted_rate = _interpreted_rate(schedule, seconds)

    return {
        "model": model_name,
        # the generated Python driver over the optimized module
        "compiled_iters_per_sec": compiled_rate,
        # the one-lane native kernel; None without a C compiler
        "kernel_iters_per_sec": kernel_rate,
        "interpreted_iters_per_sec": interpreted_rate,
        "speedup": compiled_rate / interpreted_rate if interpreted_rate else 0.0,
        "kernel_speedup": (
            kernel_rate / interpreted_rate
            if kernel_rate is not None and interpreted_rate
            else None
        ),
        "paper_cftcg_rate": PAPER_SPEED["solarpv_cftcg_iters_per_sec"],
        "paper_simcotest_rate": PAPER_SPEED["solarpv_simcotest_iters_per_sec"],
    }


def measure_time_to_coverage(
    model_name: str = "CPUTask",
    max_seconds: float = 30.0,
    seed: int = 0,
    interpreted_rate: Optional[float] = None,
) -> Dict:
    """CFTCG time-to-peak coverage + simulation-speed extrapolation."""
    schedule = build_schedule(model_name)
    config = FuzzerConfig(max_seconds=max_seconds, seed=seed)
    fuzzer = Fuzzer(schedule, config)
    result = fuzzer.run()
    time_to_peak = result.timeline[-1][0] if result.timeline else result.elapsed
    if interpreted_rate is None:
        interpreted_rate = _interpreted_rate(schedule, 0.5)
    iterations_needed = result.iterations_executed * (
        time_to_peak / result.elapsed if result.elapsed else 1.0
    )
    simulated_hours = (
        iterations_needed / interpreted_rate / 3600.0 if interpreted_rate else 0.0
    )
    return {
        "model": model_name,
        "engine": fuzzer.engine,
        "decision_coverage": result.report.decision,
        "time_to_peak_seconds": time_to_peak,
        "iterations_to_peak": int(iterations_needed),
        "simulation_speed_hours_estimate": simulated_hours,
        "paper_seconds": PAPER_SPEED["cputask_cftcg_seconds_to_full"],
        "paper_hours_estimate": PAPER_SPEED["cputask_simulated_hours_estimate"],
    }


def run_speed(seconds: float = 1.0) -> Dict:
    """Both speed measurements, as one report dict."""
    rates = measure_iteration_rates("SolarPV", seconds)
    ttc = measure_time_to_coverage("CPUTask", max_seconds=max(seconds * 10, 10.0))
    return {"rates": rates, "time_to_coverage": ttc}
