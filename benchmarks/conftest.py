"""Shared benchmark utilities.

Every experiment bench writes its rendered output to
``benchmarks/results/<name>.txt`` (and prints it, visible with ``-s``),
so a full ``pytest benchmarks/ --benchmark-only`` run leaves the
regenerated tables/figures on disk.  ``REPRO_BUDGET`` (seconds per tool
per model, default 5) and ``REPRO_REPEATS`` (seeds per randomized tool,
default 2) scale the fidelity; the EXPERIMENTS.md numbers were recorded
with a larger budget.
"""

import os
from collections import Counter

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path


def engine_note(rows, tool: str, label: str) -> str:
    """``<label> engine (lanes=1): ...`` — the engine ``tool``'s runs
    ran on, per model, read from the experiment's own rows."""
    engines = Counter(row["engine"] for row in rows if row["tool"] == tool)
    n_models = sum(engines.values())
    return "%s engine (lanes=1): %s" % (
        label,
        ", ".join(
            "%s on %d of %d models" % (engine, n, n_models)
            for engine, n in sorted(engines.items())
        ),
    )
