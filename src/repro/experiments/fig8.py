"""Figure 8 — CFTCG versus the "Fuzz Only" ablation.

Same budget, same engine skeleton; the ablation loses model-level
instrumentation (code-level probes only, boolean logic invisible) and
field-wise mutation (generic byte mutations misalign the stream).  Both
suites are measured on the fully instrumented model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..bench.registry import build_schedule
from .budget import repeat_count, tool_budget
from .paper_data import MODEL_ORDER
from .report import format_table
from .runner import run_tool

__all__ = ["run_fig8", "render_fig8"]

FIG8_TOOLS = ("cftcg", "fuzz_only")


def run_fig8(
    models: Optional[Sequence[str]] = None,
    budget: Optional[float] = None,
    repeats: Optional[int] = None,
) -> List[Dict]:
    """Rows of (model, tool, DC/CC/MCDC) averaged over seeds, with the
    engine the fuzzing loops ran on."""
    models = list(models or MODEL_ORDER)
    budget = budget if budget is not None else tool_budget()
    repeats = repeats if repeats is not None else repeat_count()
    rows: List[Dict] = []
    for name in models:
        schedule = build_schedule(name)
        for tool in FIG8_TOOLS:
            results = [
                run_tool(tool, schedule, budget, seed=seed)
                for seed in range(repeats)
            ]
            reports = [r.report for r in results]
            rows.append(
                {
                    "model": name,
                    "tool": tool,
                    "decision": sum(r.decision for r in reports) / len(reports),
                    "condition": sum(r.condition for r in reports) / len(reports),
                    "mcdc": sum(r.mcdc for r in reports) / len(reports),
                    "engine": "/".join(sorted({r.engine for r in results})),
                }
            )
    return rows


def render_fig8(rows: Sequence[Dict]) -> str:
    headers = ["Model", "Tool", "Decision", "Condition", "MCDC"]
    table = [
        [
            r["model"], r["tool"],
            "%.0f%%" % r["decision"],
            "%.0f%%" % r["condition"],
            "%.0f%%" % r["mcdc"],
        ]
        for r in rows
    ]
    return format_table(headers, table)
