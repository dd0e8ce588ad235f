"""Regenerates the paper's §4 speed analysis.

* SolarPV iteration rates: the generated code's fuzzing paths (the
  Python driver, and the one-lane native kernel a default campaign runs
  when a C compiler is present) vs the interpreted simulation path
  (paper: 26 000 it/s vs 6 it/s — ours differ in absolute terms but must
  reproduce the orders-of-magnitude gap).
* CPUTask: time to peak coverage under CFTCG, plus the extrapolated
  wall-clock the same iteration count would need at simulation speed
  (paper: 37 s vs an estimated 44.5 h).
"""

from repro.experiments.speed import (
    measure_iteration_rates,
    measure_time_to_coverage,
)

from conftest import write_result


def test_speed_iteration_rate_gap(benchmark):
    rates = benchmark.pedantic(
        measure_iteration_rates, args=("SolarPV", 1.0), rounds=1, iterations=1
    )
    kernel_rate = rates["kernel_iters_per_sec"]
    kernel_line = (
        "  native kernel, 1 lane : %10.0f iterations/s (%.1fx)\n"
        % (kernel_rate, rates["kernel_speedup"])
        if kernel_rate is not None
        else "  native kernel, 1 lane :       none (no kernel built here)\n"
    )
    text = (
        "SolarPV iteration rates (64 zero tuples per call)\n"
        "  Python fuzz driver    : %10.0f iterations/s (paper: %d)\n"
        "%s"
        "  interpreted simulation: %10.0f iterations/s (paper: %d)\n"
        "  speedup (Python)      : %10.1fx"
        % (
            rates["compiled_iters_per_sec"],
            rates["paper_cftcg_rate"],
            kernel_line,
            rates["interpreted_iters_per_sec"],
            rates["paper_simcotest_rate"],
            rates["speedup"],
        )
    )
    write_result("speed_rates.txt", text)
    # the paper's core mechanism: a large compiled-vs-interpreted gap
    assert rates["speedup"] > 10.0
    assert rates["compiled_iters_per_sec"] > 26_000  # matches paper's ">26000"


def test_speed_time_to_coverage(benchmark):
    result = benchmark.pedantic(
        measure_time_to_coverage,
        kwargs={"model_name": "CPUTask", "max_seconds": 15.0, "seed": 0},
        rounds=1,
        iterations=1,
    )
    text = (
        "CPUTask time-to-coverage (CFTCG, %s engine)\n"
        "  decision coverage reached : %5.1f%%\n"
        "  time to last new coverage : %6.1f s (paper: %d s)\n"
        "  iterations executed       : %d\n"
        "  at simulation speed       : %8.2f hours (paper estimate: %.1f h)"
        % (
            result["engine"],
            result["decision_coverage"],
            result["time_to_peak_seconds"],
            result["paper_seconds"],
            result["iterations_to_peak"],
            result["simulation_speed_hours_estimate"],
            result["paper_hours_estimate"],
        )
    )
    write_result("speed_cputask.txt", text)
    assert result["decision_coverage"] > 70.0
    # the extrapolation must show the simulation path is wildly slower
    assert (
        result["simulation_speed_hours_estimate"] * 3600.0
        > 10.0 * result["time_to_peak_seconds"]
    )
