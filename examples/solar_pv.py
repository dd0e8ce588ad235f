#!/usr/bin/env python
"""The paper's running example: the SolarPV panel energy controller.

Reproduces the paper's §4 analysis on its Figure 1 model: generates the
fuzz driver (the paper's Figure 3), runs CFTCG and the two baselines
under the same budget, and prints the coverage comparison plus the
iteration-rate gap that makes code-based fuzzing win.

Run:  python examples/solar_pv.py [seconds-per-tool]
"""

import sys

from repro.bench import build_schedule
from repro.codegen import generate_fuzz_driver
from repro.experiments.runner import run_tool
from repro.experiments.speed import measure_iteration_rates


def main():
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 8.0
    schedule = build_schedule("SolarPV")

    print("=== generated fuzz driver (paper Fig. 3 analogue) ===")
    print(generate_fuzz_driver(schedule))

    print("=== iteration rates (paper: 26000 it/s vs 6 it/s) ===")
    rates = measure_iteration_rates("SolarPV", seconds=0.5)
    print(
        "Python driver: %.0f it/s   interpreted: %.0f it/s   gap: %.0fx"
        % (
            rates["compiled_iters_per_sec"],
            rates["interpreted_iters_per_sec"],
            rates["speedup"],
        )
    )
    if rates["kernel_iters_per_sec"] is not None:
        print(
            "native kernel (1 lane, the default engine): %.0f it/s   gap: %.0fx"
            % (rates["kernel_iters_per_sec"], rates["kernel_speedup"])
        )

    print("\n=== coverage after %.0fs per tool (paper Table 3 row) ===" % budget)
    print("%-10s %-10s %-10s %-10s" % ("tool", "decision", "condition", "mcdc"))
    for tool in ("sldv", "simcotest", "cftcg"):
        result = run_tool(tool, schedule, budget, seed=1)
        print(
            "%-10s %-10.1f %-10.1f %-10.1f  (%d test cases)"
            % (
                tool,
                result.report.decision,
                result.report.condition,
                result.report.mcdc,
                len(result.suite),
            )
        )
    print("\npaper reports: SLDV 78/83/57, SimCoTest 74/73/43, CFTCG 89/95/86")


if __name__ == "__main__":
    main()
