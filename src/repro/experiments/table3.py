"""Table 3 — coverage comparison of SLDV / SimCoTest / CFTCG.

For each benchmark model, every tool generates test cases under the same
wall-clock budget; randomized tools (SimCoTest, CFTCG) average over
several seeds, matching the paper's repeated-run protocol.  Every suite
is replayed on the fully instrumented model, and the bottom rows give
CFTCG's average relative improvement — the paper's headline numbers
(+47.2 % / +38.3 % / +144.5 % over SLDV, +100.8 % / +44.6 % / +232.4 %
over SimCoTest).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..bench.registry import build_schedule
from ..codegen.compile import compile_model
from .budget import repeat_count, tool_budget
from .paper_data import MODEL_ORDER, PAPER_TABLE3
from .report import format_table
from .runner import run_tool

__all__ = ["run_table3", "average_improvement", "render_table3"]

TABLE3_TOOLS = ("sldv", "simcotest", "cftcg")
_RANDOMIZED = ("simcotest", "cftcg")


def run_table3(
    models: Optional[Sequence[str]] = None,
    budget: Optional[float] = None,
    repeats: Optional[int] = None,
) -> List[Dict]:
    """Produce rows: one per (model, tool) with averaged DC/CC/MCDC and
    the engine its fuzzing loops ran on (``""`` for a baseline)."""
    models = list(models or MODEL_ORDER)
    budget = budget if budget is not None else tool_budget()
    repeats = repeats if repeats is not None else repeat_count()
    rows: List[Dict] = []
    for name in models:
        schedule = build_schedule(name)
        compiled = compile_model(schedule, "model")  # shared replay artifact
        for tool in TABLE3_TOOLS:
            seeds = range(repeats) if tool in _RANDOMIZED else range(1)
            results = [
                run_tool(tool, schedule, budget, seed=seed, compiled=compiled)
                for seed in seeds
            ]
            reports = [r.report for r in results]
            rows.append(
                {
                    "model": name,
                    "tool": tool,
                    "decision": sum(r.decision for r in reports) / len(reports),
                    "condition": sum(r.condition for r in reports) / len(reports),
                    "mcdc": sum(r.mcdc for r in reports) / len(reports),
                    "runs": len(reports),
                    "engine": "/".join(sorted({r.engine for r in results})),
                }
            )
    return rows


def average_improvement(rows: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """CFTCG's mean relative improvement vs each baseline (paper's bottom
    rows): mean over models of (cftcg - base) / base per metric."""
    by_model: Dict[str, Dict[str, Dict]] = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["tool"]] = row
    improvements: Dict[str, Dict[str, float]] = {}
    for baseline in ("sldv", "simcotest"):
        sums = {"decision": 0.0, "condition": 0.0, "mcdc": 0.0}
        count = 0
        for model, tools in by_model.items():
            if "cftcg" not in tools or baseline not in tools:
                continue
            count += 1
            for metric in sums:
                base = max(tools[baseline][metric], 1.0)  # avoid div by ~0
                sums[metric] += 100.0 * (tools["cftcg"][metric] - base) / base
        if count:
            improvements[baseline] = {m: s / count for m, s in sums.items()}
    return improvements


def render_table3(rows: Sequence[Dict]) -> str:
    headers = [
        "Model", "Tool", "Decision", "Condition", "MCDC",
        "paperDC", "paperCC", "paperMCDC",
    ]
    table = []
    for row in rows:
        paper = PAPER_TABLE3.get(row["model"], {}).get(row["tool"])
        paper_cells = ["%d%%" % v for v in paper] if paper else ["-", "-", "-"]
        table.append(
            [
                row["model"], row["tool"],
                "%.0f%%" % row["decision"],
                "%.0f%%" % row["condition"],
                "%.0f%%" % row["mcdc"],
            ]
            + paper_cells
        )
    text = format_table(headers, table)
    improvements = average_improvement(rows)
    lines = [text, ""]
    for baseline, metrics in improvements.items():
        lines.append(
            "CFTCG vs %-9s  DC %+.1f%%  CC %+.1f%%  MCDC %+.1f%%"
            % (
                baseline,
                metrics["decision"],
                metrics["condition"],
                metrics["mcdc"],
            )
        )
    return "\n".join(lines)
