"""Property-based differential suite over the seeded model generator.

``tests/modelgen.py`` grows random models (stateful blocks, switches,
charts, MATLAB Function blocks with bounded while loops) and the tests
here assert the core CFTCG soundness property over ≥200 of them per run:
interpreter and compiled code agree on outputs, probe bytes and MCDC
vectors — with the optimizer both on and off.

``REPRO_DIFF_MODELS`` scales the sweep (default 200; CI can raise it).
Any divergence is shrunk and dumped as a JSON repro artifact under
``diff-artifacts/`` before the test fails.
"""

import json
import os

import pytest

from conftest import skip_if_no_cc
from modelgen import (
    Divergence,
    dump_divergence,
    generate_model,
    generate_rows,
    minimize_divergence,
    run_differential,
    run_kernel_differential,
)
from repro import convert
from repro.codegen.cache import canonical_model_form

_N_MODELS = int(os.environ.get("REPRO_DIFF_MODELS", "200"))
_ARTIFACT_DIR = os.environ.get("REPRO_DIFF_ARTIFACTS", "diff-artifacts")


def test_generator_is_deterministic():
    for seed in (0, 7, 123):
        a = canonical_model_form(generate_model(seed))
        b = canonical_model_form(generate_model(seed))
        assert a == b


def test_generator_rows_are_deterministic():
    layout = convert(generate_model(3)).layout
    assert generate_rows(layout, 3) == generate_rows(layout, 3)
    assert generate_rows(layout, 3) != generate_rows(layout, 4)


def test_generator_exercises_hard_block_types():
    """The sweep must include the block types most likely to diverge."""
    seen = set()
    for seed in range(_N_MODELS):
        for blk in generate_model(seed).blocks.values():
            seen.add(blk.type_name)
            if blk.type_name == "MatlabFunction" and "while" in blk.params["body"]:
                seen.add("MatlabFunction+while")
    assert {"Chart", "MatlabFunction", "MatlabFunction+while", "UnitDelay",
            "Switch", "Delay"} <= seen


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_engines_agree_on_generated_models(optimize):
    """The headline property: no divergence across the seeded sweep."""
    failures = []
    for seed in range(_N_MODELS):
        div = run_differential(seed, n_rows=16, optimize=optimize)
        if div is not None:
            div = minimize_divergence(div)
            path = dump_divergence(div, _ARTIFACT_DIR)
            failures.append(
                "seed=%d row=%d %s (repro: %s)"
                % (seed, div.row_index, div.detail, path)
            )
    assert not failures, "engine divergences:\n" + "\n".join(failures)


@skip_if_no_cc
@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_kernel_engine_matches_scalar(optimize):
    """Lane-by-lane parity sweep for the fused native kernel: every lane
    reproduces the scalar generated code exactly (outputs and per-step
    probe bytes) over the seeded model sweep, at lane widths {1, 4, 64}
    strided across the seeds so the sweep stays tier-1-sized while each
    width sees about a third of the models; any seed reproduces directly
    via ``run_kernel_differential(seed, lanes, optimize=...)``.

    The widened exactness lattice (signed-wrap and C-remainder idiom
    recognition plus the 31-bit ladder rung) lowers every generator
    model, so the sweep holds the ``Unloweable`` rate at zero — a
    nonzero count means the lattice lost grammar coverage.
    """
    from repro.codegen.kernel import Unloweable

    failures = []
    unloweable = 0
    for seed in range(_N_MODELS):
        lanes = (1, 4, 64)[seed % 3]
        try:
            div = run_kernel_differential(seed, lanes=lanes, optimize=optimize)
        except Unloweable:
            unloweable += 1
            continue
        if div is not None:
            failures.append(
                "seed=%d lanes=%d lane=%s row=%d %s"
                % (seed, lanes, div.extra.get("lane"), div.row_index, div.detail)
            )
    assert not failures, "kernel-engine divergences:\n" + "\n".join(failures)
    assert unloweable == 0, (
        "%d/%d seeds un-loweable: the kernel lowering lost grammar coverage"
        % (unloweable, _N_MODELS)
    )


def test_minimizer_and_dump_roundtrip(tmp_path):
    """Artifact machinery works even though no real divergence exists:
    a fabricated divergence passes through shrink + dump and lands as a
    well-formed, reproducible JSON artifact."""
    seed = 11
    layout = convert(generate_model(seed)).layout
    rows = generate_rows(layout, seed, 6)
    div = Divergence(
        seed=seed,
        optimize=True,
        rows=rows,
        row_index=3,
        detail="outputs differ",
        compiled_out=(1,),
        interp_out=(2,),
    )
    shrunk = minimize_divergence(div)
    assert shrunk.minimized
    # the oracle finds no real divergence, so shrinking must not invent one
    assert shrunk.rows == rows
    path = dump_divergence(shrunk, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["seed"] == seed
    assert payload["detail"] == "outputs differ"
    assert payload["rows_hex"] == [r.hex() for r in rows]
    assert payload["model"] == canonical_model_form(generate_model(seed))
    assert "tests/modelgen.py --seed 11" in payload["repro"]
