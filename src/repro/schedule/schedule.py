"""Schedule conversion: model → executable schedule + BranchDB.

:func:`convert` is the entry point.  It recursively builds, per diagram
level, the execution order, resolved signal data types and the subsystem
feedthrough matrix; then it walks the schedule in deterministic order
letting every block declare its branch elements into one flat
:class:`~repro.schedule.branches.BranchDB`.

Both execution backends consume the same :class:`Schedule`:

* the dynamic interpreter (:mod:`repro.simulate`) walks it directly;
* the code generator (:mod:`repro.codegen`) emits one Python module from
  it — including the paper's branch instrumentation, whose probe ids come
  from the BranchDB built here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dtypes import DOUBLE, DType
from ..errors import ScheduleError
from ..model.model import Model, child_models
from ..parser.inport_info import TupleLayout, tuple_layout
from .branches import BranchDB, BranchDeclarator
from .graph import reachable_inports, topological_order

__all__ = ["ModelSchedule", "Schedule", "convert"]


class ModelSchedule:
    """The schedule of one diagram level.

    Attributes:
        model: the level's model.
        order: block names in output-phase execution order.
        drivers: (dst block, in port) → (src block, out port) index.
        dtypes: (block, out port) → resolved :class:`DType`.
        feedthrough: block name → per-input feedthrough flags.
        children: block name → list of child ModelSchedules (in
            :func:`child_models` order) for hierarchical blocks.
        ft_matrix: level inport index (1-based) → set of level outport
            indices it feeds through to.
    """

    def __init__(self, model: Model):
        self.model = model
        self.order: List[str] = []
        self.drivers: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.dtypes: Dict[Tuple[str, int], DType] = {}
        self.feedthrough: Dict[str, List[bool]] = {}
        self.children: Dict[str, List["ModelSchedule"]] = {}
        self.ft_matrix: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    def input_dtype(self, block_name: str, in_port: int) -> Optional[DType]:
        """Resolved dtype of the signal driving an input port."""
        src = self.drivers.get((block_name, in_port))
        if src is None:
            return None
        return self.dtypes.get(src)

    def input_dtypes(self, block_name: str) -> List[Optional[DType]]:
        block = self.model.blocks[block_name]
        return [self.input_dtype(block_name, i) for i in range(block.n_inputs())]


class Schedule:
    """Top-level schedule: root level + BranchDB + inport tuple layout."""

    def __init__(self, root: ModelSchedule, branch_db: BranchDB, layout: TupleLayout):
        self.root = root
        self.branch_db = branch_db
        self.layout = layout

    @property
    def model(self) -> Model:
        return self.root.model


def convert(model: Model, validate: bool = True) -> Schedule:
    """Convert a model into a :class:`Schedule` (paper's Schedule Convert)."""
    if validate:
        model.validate()
    root = _build_level(model)
    branch_db = BranchDB()
    _declare_branches(root, "", branch_db)
    return Schedule(root, branch_db, tuple_layout(model))


# ---------------------------------------------------------------------- #
# level construction
# ---------------------------------------------------------------------- #
def _build_level(model: Model) -> ModelSchedule:
    sched = ModelSchedule(model)

    # children first: their feedthrough matrices shape this level's edges
    for block in model.blocks.values():
        kids = child_models(block)
        if kids:
            sched.children[block.name] = [_build_level(child) for child in kids]

    for conn in model.connections:
        sched.drivers[(conn.dst, conn.dst_port)] = (conn.src, conn.src_port)

    # per-input feedthrough flags
    for block in model.blocks.values():
        kids = sched.children.get(block.name)
        flags = [
            block.hierarchical_feedthrough(kids, i)
            if kids is not None
            else block.direct_feedthrough(i)
            for i in range(block.n_inputs())
        ]
        sched.feedthrough[block.name] = flags

    # topological order over feedthrough edges
    names = list(model.blocks)
    edges: Dict[str, Set[str]] = {name: set() for name in names}
    for conn in model.connections:
        if sched.feedthrough[conn.dst][conn.dst_port]:
            edges[conn.src].add(conn.dst)
    sched.order = topological_order(names, edges)

    _resolve_dtypes(sched)
    _compute_ft_matrix(sched)
    return sched


def _resolve_dtypes(sched: ModelSchedule) -> None:
    """Fixpoint signal-type propagation.

    Runs passes in schedule order until stable; any output still
    unresolved (a state block inheriting through a feedback loop) falls
    back to ``double`` and one final pass propagates that choice.
    """
    model = sched.model
    max_passes = len(model.blocks) + 2
    for _ in range(max_passes):
        changed = False
        for name in sched.order:
            block = model.blocks[name]
            if all(
                (name, o) in sched.dtypes for o in range(block.n_outputs())
            ):
                continue
            in_dtypes = sched.input_dtypes(name)
            kids = sched.children.get(name)
            outs = _block_output_dtypes(block, in_dtypes, kids)
            if outs is None:
                continue
            for o, dtype in enumerate(outs):
                if dtype is not None and (name, o) not in sched.dtypes:
                    sched.dtypes[(name, o)] = dtype
                    changed = True
        if not changed:
            break
    for name in sched.order:
        block = model.blocks[name]
        for o in range(block.n_outputs()):
            sched.dtypes.setdefault((name, o), DOUBLE)


def _block_output_dtypes(block, in_dtypes, kids):
    """Output dtypes, or None if inputs needed for inference are missing.

    Hierarchical blocks take their output types from their first child's
    outports (all If/SwitchCase children are required to agree, which
    :func:`_check_children_agree` enforces).
    """
    if kids:
        child = kids[0]
        outs = []
        for port in child.model.outports():
            driver = child.drivers.get((port.name, 0))
            if driver is None or driver not in child.dtypes:
                return None
            outs.append(child.dtypes[driver])
        return outs
    if any(d is None for d in in_dtypes) and block.needs_input_dtypes():
        return None
    return block.output_dtypes(in_dtypes)


def _compute_ft_matrix(sched: ModelSchedule) -> None:
    inport_indices = {
        p.name: p.params["index"] for p in sched.model.inports()
    }
    depends = reachable_inports(
        sched.order, sched.feedthrough, sched.drivers, inport_indices
    )
    matrix: Dict[int, Set[int]] = {i: set() for i in inport_indices.values()}
    for port in sched.model.outports():
        out_idx = port.params["index"]
        src = sched.drivers.get((port.name, 0))
        if src is None:
            continue
        for in_idx in depends.get(src[0], set()):
            matrix[in_idx].add(out_idx)
    sched.ft_matrix = matrix


# ---------------------------------------------------------------------- #
# branch declaration
# ---------------------------------------------------------------------- #
def _declare_branches(sched: ModelSchedule, prefix: str, db: BranchDB) -> None:
    """Walk schedule order, letting blocks declare their branch elements.

    Hierarchical blocks declare their own elements first (e.g. the If
    block's branch decision), then their children recurse — this is the
    order the code generator emits probes in, so ids line up everywhere.
    """
    for name in sched.order:
        block = sched.model.blocks[name]
        path = prefix + name
        decl = BranchDeclarator(db, path)
        block.declare_branches(decl)
        kids = sched.children.get(name)
        if kids:
            for child in kids:
                _declare_branches(child, path + "/" + child.model.name + "/", db)


def _check_children_agree(kids: List[ModelSchedule], context: str) -> None:
    """Validate that all action-subsystem children share an IO signature."""
    first = kids[0].model
    n_in = len(first.inports())
    n_out = len(first.outports())
    for child in kids[1:]:
        if len(child.model.inports()) != n_in or len(child.model.outports()) != n_out:
            raise ScheduleError(
                "children of %s disagree on port counts" % context
            )
