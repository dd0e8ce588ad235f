"""Regenerates paper Table 3: SLDV vs SimCoTest vs CFTCG coverage.

Runs all three generators on all eight benchmark models under an equal
wall-clock budget, replays every suite on the instrumented model, and
prints per-model DC/CC/MCDC plus CFTCG's average improvement rows.

Scale with ``REPRO_BUDGET`` (seconds/tool/model) and ``REPRO_REPEATS``.
The headline *shape* asserted here: averaged over the suite, CFTCG beats
both baselines on every metric.
"""

from repro.experiments.table3 import (
    average_improvement,
    render_table3,
    run_table3,
)

from conftest import engine_note, write_result


def test_table3_coverage_comparison(benchmark):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    assert len(rows) == 24  # 8 models x 3 tools
    write_result(
        "table3.txt",
        render_table3(rows) + "\n" + engine_note(rows, "cftcg", "CFTCG"),
    )

    improvements = average_improvement(rows)
    for baseline in ("sldv", "simcotest"):
        gains = improvements[baseline]
        # the paper's ordering: CFTCG ahead on average on all three metrics
        assert gains["decision"] > 0, (baseline, gains)
        assert gains["condition"] > 0, (baseline, gains)
        assert gains["mcdc"] > 0, (baseline, gains)
