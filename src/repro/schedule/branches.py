"""The BranchDB: model-level branch elements and probe allocation.

The paper instruments four kinds of branch elements (§3.1.2).  We model
them with three record types:

* :class:`Decision` — a point where control selects one of N *outcomes*
  (Switch pass/fail, If branch index, chart transition choice, ...).  Each
  outcome owns one coverage probe.
* :class:`Condition` — a boolean sub-expression whose true and false
  values each own a probe (inputs of logic blocks, guard atoms).
* :class:`McdcGroup` — a decision's set of conditions for which MCDC
  independence is assessed from recorded truth vectors.

Probe ids index the flat coverage bitmap (`g_CurrCov` in the paper's
Algorithm 1); ``BranchDB.n_probes`` is the paper's ``branchCount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ModelError
from ..model.block import BlockBranches

__all__ = ["Decision", "Condition", "McdcGroup", "BranchDB", "BranchDeclarator"]


@dataclass(frozen=True)
class Decision:
    """A control-selection point with ``len(outcomes)`` possible outcomes.

    ``control_flow`` records whether a C compiler would realize this
    decision as an actual branch instruction (if/switch) or as branchless
    select/min/max code.  The "Fuzz Only" ablation's code-level
    instrumentation only sees control-flow decisions — the paper's
    explanation for its lower Condition/MCDC results.
    """

    id: int
    block_path: str
    label: str
    outcomes: Tuple[str, ...]
    probe_base: int
    control_flow: bool = True

    def probe(self, outcome_idx: int) -> int:
        """Probe id for one outcome."""
        if not 0 <= outcome_idx < len(self.outcomes):
            raise ModelError(
                "decision %s has no outcome %d" % (self.label, outcome_idx)
            )
        return self.probe_base + outcome_idx

    @property
    def probes(self) -> Tuple[int, ...]:
        return tuple(range(self.probe_base, self.probe_base + len(self.outcomes)))


@dataclass(frozen=True)
class Condition:
    """A boolean condition with separate probes for its two values."""

    id: int
    block_path: str
    label: str
    probe_true: int
    probe_false: int

    def probe(self, value: int) -> int:
        return self.probe_true if value else self.probe_false


@dataclass(frozen=True)
class McdcGroup:
    """Conditions of one decision, checked for MCDC independence.

    ``outcome_kind`` records how the group's outcome is defined:
    ``"bool"`` for single-guard decisions (outcome = guard value) or
    ``"branch"`` for if/elseif chains (outcome = taken branch index).
    """

    id: int
    block_path: str
    label: str
    condition_ids: Tuple[int, ...]
    outcome_kind: str = "bool"


class BranchDB:
    """All branch elements of one model, in deterministic declaration order."""

    def __init__(self):
        self.decisions: List[Decision] = []
        self.conditions: List[Condition] = []
        self.mcdc_groups: List[McdcGroup] = []
        self.per_block: Dict[str, BlockBranches] = {}
        self.n_probes: int = 0

    # ------------------------------------------------------------------ #
    # aggregate counts (Table 2's #Branch uses n_probes)
    # ------------------------------------------------------------------ #
    @property
    def n_decision_outcomes(self) -> int:
        return sum(len(d.outcomes) for d in self.decisions)

    @property
    def n_mcdc_conditions(self) -> int:
        return sum(len(g.condition_ids) for g in self.mcdc_groups)

    def block_branches(self, block_path: str) -> BlockBranches:
        """The declarations of one block (empty record if it has none)."""
        return self.per_block.get(block_path) or BlockBranches()

    def summary(self) -> Dict[str, int]:
        """Counts used in reports and in the Table 2 harness."""
        return {
            "probes": self.n_probes,
            "decisions": len(self.decisions),
            "decision_outcomes": self.n_decision_outcomes,
            "conditions": len(self.conditions),
            "mcdc_groups": len(self.mcdc_groups),
            "mcdc_conditions": self.n_mcdc_conditions,
        }


class BranchDeclarator:
    """Block-scoped facade through which blocks declare branch elements.

    Created by the schedule converter for each block path and passed to
    :meth:`repro.model.block.Block.declare_branches`.  Declaration order is
    deterministic (schedule order, then the block's own call order), which
    is what keeps interpreter and generated code hitting identical probes.
    """

    def __init__(self, db: BranchDB, block_path: str):
        self._db = db
        self._path = block_path
        self._branches = BlockBranches()
        db.per_block[block_path] = self._branches

    @property
    def branches(self) -> BlockBranches:
        return self._branches

    def decision(self, label: str, outcomes, control_flow: bool = True) -> Decision:
        """Declare a decision with the given outcome labels."""
        outcomes = tuple(outcomes)
        if len(outcomes) < 2:
            raise ModelError("decision %r needs >= 2 outcomes" % (label,))
        dec = Decision(
            id=len(self._db.decisions),
            block_path=self._path,
            label=label,
            outcomes=outcomes,
            probe_base=self._db.n_probes,
            control_flow=control_flow,
        )
        self._db.n_probes += len(outcomes)
        self._db.decisions.append(dec)
        self._branches.decisions.append(dec)
        return dec

    def condition(self, label: str) -> Condition:
        """Declare a boolean condition (allocates true + false probes)."""
        cond = Condition(
            id=len(self._db.conditions),
            block_path=self._path,
            label=label,
            probe_true=self._db.n_probes,
            probe_false=self._db.n_probes + 1,
        )
        self._db.n_probes += 2
        self._db.conditions.append(cond)
        self._branches.conditions.append(cond)
        return cond

    def mcdc_group(self, label: str, conditions, outcome_kind: str = "bool") -> McdcGroup:
        """Declare an MCDC group over previously-declared conditions."""
        group = McdcGroup(
            id=len(self._db.mcdc_groups),
            block_path=self._path,
            label=label,
            condition_ids=tuple(c.id for c in conditions),
            outcome_kind=outcome_kind,
        )
        self._db.mcdc_groups.append(group)
        self._branches.mcdc_groups.append(group)
        return group
