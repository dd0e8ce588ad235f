"""Regenerates paper Figure 8: CFTCG vs the "Fuzz Only" ablation.

Same engine, same budget; the ablation drops model-level instrumentation
and field-wise mutation.  Asserted shape (the paper's finding): CFTCG's
averaged coverage is at least the ablation's on every metric, with a
strictly better Condition/MCDC average (boolean dataflow is invisible to
code-level instrumentation).
"""

from repro.experiments.fig8 import render_fig8, run_fig8

from conftest import engine_note, write_result


def test_fig8_model_oriented_ablation(benchmark):
    rows = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    assert len(rows) == 16  # 8 models x 2 configurations
    write_result(
        "fig8.txt",
        "\n".join([
            render_fig8(rows),
            engine_note(rows, "cftcg", "CFTCG"),
            engine_note(rows, "fuzz_only", "Fuzz Only"),
        ]),
    )

    def avg(tool, metric):
        values = [r[metric] for r in rows if r["tool"] == tool]
        return sum(values) / len(values)

    assert avg("cftcg", "decision") > avg("fuzz_only", "decision")
    assert avg("cftcg", "condition") > avg("fuzz_only", "condition")
    assert avg("cftcg", "mcdc") > avg("fuzz_only", "mcdc")
