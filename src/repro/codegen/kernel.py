"""Fused native kernel backend: the lane-parallel execution engine.

The second codegen backend (after the scalar module): the scalar
generated module a ``CompiledModel`` carries, optimizer output included,
is lowered to one C translation unit whose ``lane_step`` runs a whole
model iteration for one lane — real branches, probe writes as byte
stores, watchdog ticks and the ``safe_div``/``safe_mod`` totality
semantics inlined — and ``kern_run`` fuses the entire per-input fuzz
loop (decode → step → coverage delta accounting) into a single native
call per batch.  Inputs cross into C as raw bytes: each lane's byte
stream is split into tuples and every inport field is loaded at its
tuple offset in C, as the paper's fuzz driver does (§3.1.1, Fig. 3).
Where the scalar engine pays one Python ``step`` call per tuple, the
kernel pays one ctypes crossing per *batch*.

Semantics contract: a lane must behave bit-for-bit like the scalar
driver running the same byte stream, gated by the lane-by-lane
differential sweep in ``tests/modelgen.py``.  One deliberate
exception: MCDC truth vectors are not recorded; campaigns that need
MCDC stay on the scalar path (replay always runs scalar).

Models using constructs the lowering cannot prove bit-exact raise
:class:`Unloweable`; the engine catches it and degrades to the scalar
engine, loudly, via a ``fault`` telemetry event.

Bit-exactness notes baked into the emitter:

* inport fields load little-endian (the build refuses a big-endian
  host); integers widen to ``int64_t``, a boolean is ``!= 0`` and a
  float NaN becomes 0.0, the scalar driver's decode;
* every Python int is carried as ``int64_t``; the type inference below
  tracks a conservative magnitude *width* (``|v| <= 2**w``) and an
  *exact* bit per expression.  Inexact values (correct modulo 2**64
  only) may flow into mask-ANDs and ``_w_*`` wrappers, never into
  comparisons, truthiness, probe indices, shifts' RHS, division, or
  float conversion — those demand proof of exactness or the model is
  declared unloweable;
* int arithmetic is emitted through unsigned-wrapping helpers so signed
  overflow UB cannot occur regardless of fuzz inputs;
* the shared object is built with ``-ffp-contract=off -fno-fast-math``:
  FMA contraction is the classic way a "faster" build silently breaks
  float bit-parity with CPython;
* ``round`` maps to ``nearbyint`` (round-half-even, like CPython),
  ``exp`` saturates above 700 like ``_clamped_exp``, trig/sqrt hit the
  same libm CPython's ``math`` module wraps.
"""

from __future__ import annotations

import ast
import ctypes
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from ..cpu import MAX_KERNEL_LANES
from ..dtypes import ALL_DTYPES
from ..errors import CodegenError
from ..faults.plan import should_fire as _should_fire
from ..faults.watchdog import WATCHDOG, WatchdogTimeout
from ..telemetry.core import get_telemetry
from .cache import Uncacheable, cache_key, default_cache

__all__ = [
    "KERNEL_ABI_VERSION",
    "MAX_KERNEL_LANES",
    "Unloweable",
    "KernelBuildError",
    "find_cc",
    "have_cc",
    "lower_kernel_source",
    "compile_kernel",
    "compile_kernel_fuzz_driver",
    "CompiledKernel",
    "KernelProgram",
]

#: bumped whenever the emitted C ABI (symbol set / layouts) changes; it
#: is part of the kernel's cache key, and a loaded .so stamped with
#: another ABI is quarantined.  v3 passes inputs as raw bytes: one
#: joined buffer plus per-lane byte offsets and tuple counts, decoded
#: in C at each field's tuple offset.
KERNEL_ABI_VERSION = 3

#: per-field dtype codes as ``kern_field_dtypes`` bakes them in
_DTYPE_CODES = {dt.name: code for code, dt in enumerate(ALL_DTYPES)}


class Unloweable(CodegenError):
    """The generated module uses a construct the C lowering cannot prove
    bit-exact; callers degrade to the scalar engine."""


class KernelBuildError(CodegenError):
    """No usable C compiler, or the out-of-process build failed."""


# --------------------------------------------------------------------- #
# toolchain discovery
# --------------------------------------------------------------------- #
def find_cc() -> Optional[str]:
    """Path of a usable C compiler (``$CC``, then cc/gcc/clang), or None."""
    cands = []
    env = os.environ.get("CC")
    if env:
        cands.append(env)
    cands += ["cc", "gcc", "clang"]
    for cand in cands:
        path = shutil.which(cand)
        if path:
            return path
    return None


def have_cc() -> bool:
    return find_cc() is not None


# --------------------------------------------------------------------- #
# the value lattice: ("i", width, exact) | ("d", bound)
# --------------------------------------------------------------------- #
# ints: |v| <= 2**width; exact=False means the int64 is only correct
# modulo 2**64 (a wrapped intermediate awaiting a mask).  doubles:
# |v| <= 2**bound when bound is not None (used to prove int(x) exact).
def _ti(width: int, exact: bool = True) -> tuple:
    w = min(int(width), 64)
    return ("i", w, bool(exact) and w <= 62)


def _td(bound=None) -> tuple:
    if bound is None or bound > 1020:
        return ("d", None)
    return ("d", int(bound))


def _is_int(t) -> bool:
    return t[0] == "i"


def _int_const_type(value: int) -> tuple:
    return _ti(abs(value).bit_length())


def _dbl_const_bound(value: float):
    if value != value or math.isinf(value):
        return None
    if value == 0.0:
        return 0
    return math.frexp(abs(value))[1]


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if _is_int(a) and _is_int(b):
        return _ti(max(a[1], b[1]), a[2] and b[2])
    if not _is_int(a) and not _is_int(b):
        if a[1] is None or b[1] is None:
            return _td(None)
        return _td(max(a[1], b[1]))
    it, dt = (a, b) if _is_int(a) else (b, a)
    if not it[2] or it[1] > 53:
        raise Unloweable(
            "int/double storage join beyond exact double range (width %d)"
            % it[1]
        )
    return _td(None if dt[1] is None else max(dt[1], it[1]))


# widening ladders: joins that keep growing across fixpoint passes jump
# to the next rung instead of climbing one bit per pass (an integrator
# state's magnitude bound otherwise climbs forever and never converges)
# 7/15/31 are first-class rungs: signed wraps (_w_int8/16/32) produce
# exactly those widths, and overshooting them by one rung (e.g. 31->32)
# pushes downstream products past the 62-bit exactness cap
_INT_LADDER = (1, 2, 4, 7, 8, 15, 16, 24, 31, 32, 40, 48, 53, 56, 60, 62, 64)
_DBL_LADDER = (0, 1, 2, 4, 8, 16, 32, 53, 64, 128, 256, 512, 1020)


def _widen(old, new):
    j = _join(old, new)
    if old is None or j == old:
        return j
    if _is_int(j):
        if _is_int(old) and j[1] > old[1]:
            for w in _INT_LADDER:
                if w >= j[1]:
                    return _ti(w, j[2])
            return _ti(64, False)
        return j
    if j[1] is None:
        return j
    old_bound = old[1] if not _is_int(old) else None
    if old_bound is not None and j[1] > old_bound:
        for b in _DBL_LADDER:
            if b >= j[1]:
                return _td(b)
        return _td(None)
    return j


def _cint(value: int) -> str:
    if value >= (1 << 63):
        return "((int64_t)UINT64_C(0x%x))" % (value & ((1 << 64) - 1))
    if value >= 0:
        return "INT64_C(%d)" % value
    if value == -(1 << 63):
        return "(-INT64_C(9223372036854775807) - 1)"
    if value < -(1 << 63):
        raise Unloweable("integer constant below int64 range: %d" % value)
    return "(-INT64_C(%d))" % -value


def _cdbl(value: float) -> str:
    if value != value:
        return "NAN"
    if value == math.inf:
        return "INFINITY"
    if value == -math.inf:
        return "(-INFINITY)"
    text = repr(float(value))
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


_CMP_OPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

_WRAP_DTYPES = {
    "int8": (8, True),
    "int16": (16, True),
    "int32": (32, True),
    "uint8": (8, False),
    "uint16": (16, False),
    "uint32": (32, False),
}


class _Lowering:
    """One scalar generated module -> one C translation unit."""

    def __init__(self, schedule, py_source: str):
        self.schedule = schedule
        self.n_probes = schedule.branch_db.n_probes
        self.fields = list(schedule.layout.fields)
        self.py_source = py_source
        # name -> lattice type
        self.env: Dict[str, tuple] = {}
        self.state: Dict[str, tuple] = {}
        self.state_init: Dict[str, object] = {}
        self.lists: Dict[str, tuple] = {}  # attr -> (length, elem type)
        self.list_init: Dict[str, list] = {}
        self.out_types: List[Optional[tuple]] = []
        self.arg_names: List[str] = []
        self.arg_types: Dict[str, tuple] = {}
        self.emitting = False
        self.lines: List[str] = []
        self.indent = 1
        self._tmp = 0
        self._luts: Dict[tuple, str] = {}
        self._lut_decls: List[str] = []
        self._parse_module()

    # -------------------------------------------------------------- #
    # module scaffolding
    # -------------------------------------------------------------- #
    def _parse_module(self) -> None:
        tree = ast.parse(self.py_source)
        self._state_init_dict: Dict[str, object] = {}
        cls = None
        for node in tree.body:
            if isinstance(node, ast.Assign) and (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_STATE_INIT"
            ):
                if not isinstance(node.value, ast.Dict):
                    raise Unloweable("_STATE_INIT is not a dict literal")
                for k, v in zip(node.value.keys, node.value.values):
                    kv = _const_of(k)
                    vv = _const_of(v)
                    if not isinstance(kv, str):
                        raise Unloweable("non-string _STATE_INIT key")
                    self._state_init_dict[kv] = vv
            elif isinstance(node, ast.ClassDef) and node.name == "GeneratedModel":
                cls = node
        if cls is None:
            raise Unloweable("no GeneratedModel class in module")
        init_fn = step_fn = None
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                if node.name == "init":
                    init_fn = node
                elif node.name == "step":
                    step_fn = node
        if step_fn is None:
            raise Unloweable("GeneratedModel has no step()")
        self._lower_init(init_fn)
        args = [a.arg for a in step_fn.args.args if a.arg != "self"]
        if len(args) != len(self.fields):
            raise Unloweable(
                "step() arity %d != layout fields %d"
                % (len(args), len(self.fields))
            )
        self.arg_names = args
        for name, field in zip(args, self.fields):
            self.arg_types[name] = _field_type(field)
        self.step_body = step_fn.body

    def _lower_init(self, init_fn) -> None:
        for attr, value in self._state_init_dict.items():
            self._seed_state(attr, value)
        if init_fn is None:
            return
        for node in init_fn.body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                continue  # self.__dict__.update(_STATE_INIT)
            if isinstance(node, ast.Pass):
                continue
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
            ):
                attr = node.targets[0].attr
                lit = _list_literal(node.value)
                if lit is not None:
                    elem = None
                    for v in lit:
                        elem = _join(elem, _const_type(v))
                    self.lists[attr] = (len(lit), elem)
                    self.list_init[attr] = list(lit)
                else:
                    self._seed_state(attr, _const_of(node.value))
                continue
            raise Unloweable("unsupported init statement: %s" % ast.dump(node))

    def _seed_state(self, attr: str, value) -> None:
        self.state[attr] = _join(self.state.get(attr), _const_type(value))
        self.state_init[attr] = value

    # -------------------------------------------------------------- #
    # inference + emission driver
    # -------------------------------------------------------------- #
    def run(self) -> str:
        for _ in range(80):
            before = self._snapshot()
            self.emitting = False
            self.env = dict(self.arg_types)
            for node in self.step_body:
                self.stmt(node)
            if self._snapshot() == before:
                break
        else:  # pragma: no cover - widened lattice converges fast
            raise Unloweable("type inference did not converge")
        self.emitting = True
        self.lines = []
        self.indent = 1
        locals_env = dict(self.env)
        self.env = dict(self.env)
        for node in self.step_body:
            self.stmt(node)
        body_lines = self.lines
        return self._render(locals_env, body_lines)

    def _snapshot(self):
        return (
            dict(self.env),
            dict(self.state),
            dict(self.lists),
            tuple(self.out_types),
        )

    # -------------------------------------------------------------- #
    # emission utilities
    # -------------------------------------------------------------- #
    def line(self, text: str) -> None:
        if self.emitting:
            self.lines.append("    " * self.indent + text)

    def tmp(self) -> str:
        self._tmp += 1
        return "knl_t%d" % self._tmp

    def _ctype(self, t) -> str:
        return "int64_t" if _is_int(t) else "double"

    def _coerce(self, code: str, t, storage) -> str:
        if _is_int(storage):
            if not _is_int(t):
                raise Unloweable("double value stored in int slot")
            return code
        if _is_int(t):
            if not t[2]:
                raise Unloweable("inexact int widened to double")
            return "((double)%s)" % code
        return code

    def _as_double(self, code: str, t) -> Tuple[str, object]:
        if _is_int(t):
            if not t[2]:
                raise Unloweable("inexact int used as double")
            return "((double)%s)" % code, t[1]
        return code, t[1]

    def _need_exact(self, t, what: str) -> None:
        if _is_int(t) and not t[2]:
            raise Unloweable("inexact int in %s" % what)

    def _truthy(self, code: str, t) -> str:
        if _is_int(t):
            self._need_exact(t, "truth test")
            return "(%s != INT64_C(0))" % code
        return "(%s != 0.0)" % code

    def _lut(self, values: tuple) -> str:
        key = tuple(float(v) for v in values)
        name = self._luts.get(key)
        if name is None:
            name = "knl_lut%d" % len(self._luts)
            self._luts[key] = name
            self._lut_decls.append(
                "static const double %s[] = {%s};"
                % (name, ", ".join(_cdbl(v) for v in key))
            )
        return name

    # -------------------------------------------------------------- #
    # expressions
    # -------------------------------------------------------------- #
    def ex(self, node) -> Tuple[str, tuple]:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return ("INT64_C(1)" if v else "INT64_C(0)"), _ti(1)
            if isinstance(v, int):
                return _cint(v), _int_const_type(v)
            if isinstance(v, float):
                return _cdbl(v), _td(_dbl_const_bound(v))
            raise Unloweable("unsupported constant %r" % (v,))
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.arg_types:
                return "a_%s" % name, self.arg_types[name]
            t = self.env.get(name)
            if t is None:
                if self.emitting:
                    raise Unloweable("read of unassigned local %r" % name)
                return "v_%s" % name, _ti(0)
            return "v_%s" % name, t
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                raise Unloweable("attribute read of non-self object")
            attr = node.attr
            t = self.state.get(attr)
            if t is None:
                raise Unloweable("read of unknown state %r" % attr)
            return "m->s_%s[l]" % attr, t
        if isinstance(node, ast.Subscript):
            return self._subscript_read(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.BoolOp):
            return self._boolop_value(node)
        if isinstance(node, ast.Compare):
            return self._compare(node), _ti(1)
        if isinstance(node, ast.IfExp):
            return self._ifexp(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        raise Unloweable("unsupported expression: %s" % ast.dump(node)[:120])

    def _subscript_read(self, node) -> Tuple[str, tuple]:
        base = node.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and base.attr in self.lists
        ):
            length, elem = self.lists[base.attr]
            idx = _const_of_opt(node.slice)
            if not isinstance(idx, int):
                raise Unloweable("dynamic delay-buffer index")
            if idx < 0:
                idx += length
            if not 0 <= idx < length:
                raise Unloweable("delay-buffer index out of range")
            if elem is None:
                raise Unloweable("read of uninitialized delay buffer")
            return "m->s_%s[l * %d + %d]" % (base.attr, length, idx), elem
        if isinstance(base, (ast.Tuple, ast.List)):
            # multiport-select: (_a, _b, _c)[sel] with a clamped selector;
            # lowered to nested ternaries (elements are pure expressions)
            parts = [self.ex(elt) for elt in base.elts]
            if not parts:
                raise Unloweable("subscript of empty tuple")
            idx = _const_of_opt(node.slice)
            if isinstance(idx, int):
                if idx < 0:
                    idx += len(parts)
                if not 0 <= idx < len(parts):
                    raise Unloweable("constant tuple index out of range")
                return parts[idx]
            ic, it = self.ex(node.slice)
            if not _is_int(it):
                raise Unloweable("double tuple index")
            self._need_exact(it, "tuple index")
            j = None
            for _, t in parts:
                j = _join(j, t)
            code = self._coerce(parts[-1][0], parts[-1][1], j)
            for k in range(len(parts) - 2, -1, -1):
                code = "(%s == %s ? %s : %s)" % (
                    ic,
                    _cint(k),
                    self._coerce(parts[k][0], parts[k][1], j),
                    code,
                )
            return code, j
        raise Unloweable("unsupported subscript read")

    def _binop(self, node) -> Tuple[str, tuple]:
        op = node.op
        lc, lt = self.ex(node.left)
        rc, rt = self.ex(node.right)
        both_int = _is_int(lt) and _is_int(rt)
        if isinstance(op, (ast.Add, ast.Sub, ast.Mult)):
            if both_int:
                if isinstance(op, ast.Mult):
                    w = lt[1] + rt[1]
                else:
                    w = max(lt[1], rt[1]) + 1
                    wrapped = _signed_wrap_width(node)
                    if isinstance(op, ast.Sub) and wrapped is not None:
                        # optimizer-inlined signed wrap
                        # ((x & (2**k - 1)) ^ 2**(k-1)) - 2**(k-1): the
                        # value provably sits in [-2**(k-1), 2**(k-1)-1],
                        # and the mask re-established exactness, so type
                        # it like _w_intK instead of the generic sub rule
                        # (which overshoots to k+1 and poisons products)
                        return "k_sub(%s, %s)" % (lc, rc), _ti(wrapped)
                    if isinstance(op, ast.Sub) and lt[2]:
                        rem = _c_rem_pattern(node)
                        # only Name/Constant divisors: retyping those via
                        # ex() is side-effect-free (no temps emitted)
                        if rem is not None and isinstance(
                            rem[1], (ast.Name, ast.Constant)
                        ):
                            bt = self.ex(rem[1])[1]
                            if _is_int(bt) and bt[2]:
                                # C remainder: |a - trunc(a/b)*b| < |b|,
                                # and no intermediate exceeds |a| so the
                                # int64 arithmetic never actually wraps
                                return (
                                    "k_sub(%s, %s)" % (lc, rc),
                                    _ti(bt[1]),
                                )
                fn = {ast.Add: "k_add", ast.Sub: "k_sub", ast.Mult: "k_mul"}[
                    type(op)
                ]
                return "%s(%s, %s)" % (fn, lc, rc), _ti(w, lt[2] and rt[2])
            la, lb = self._as_double(lc, lt)
            ra, rb = self._as_double(rc, rt)
            sym = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}[type(op)]
            if lb is None or rb is None:
                bound = None
            elif isinstance(op, ast.Mult):
                bound = lb + rb
            else:
                bound = max(lb, rb) + 1
            return "(%s %s %s)" % (la, sym, ra), _td(bound)
        if isinstance(op, ast.Div):
            if both_int:
                # Python int/int is correctly rounded from the rational;
                # double division only matches when both fit in 53 bits
                self._need_exact(lt, "division")
                self._need_exact(rt, "division")
                if lt[1] > 53 or rt[1] > 53:
                    raise Unloweable("int/int true division beyond 53 bits")
            la, lb = self._as_double(lc, lt)
            ra, _ = self._as_double(rc, rt)
            # dividing by a nonzero constant keeps the magnitude bound:
            # |a/b| <= 2**ba / 2**(eb-1) where 2**(eb-1) <= |b|
            bound = None
            dc = _const_of_opt(node.right)
            if (
                lb is not None
                and isinstance(dc, (int, float))
                and not isinstance(dc, bool)
                and dc != 0
                and float(dc) == float(dc)
                and not math.isinf(float(dc))
            ):
                bound = lb - (math.frexp(abs(float(dc)))[1] - 1) + 1
                bound = max(bound, 0)
            return "(%s / %s)" % (la, ra), _td(bound)
        if isinstance(op, ast.FloorDiv):
            if both_int:
                self._need_exact(lt, "floor division")
                self._need_exact(rt, "floor division")
                return "py_floordiv(%s, %s)" % (lc, rc), _ti(lt[1] + 1)
            la, _ = self._as_double(lc, lt)
            ra, _ = self._as_double(rc, rt)
            return "k_ffloordiv(%s, %s)" % (la, ra), _td(None)
        if isinstance(op, ast.Mod):
            if both_int:
                self._need_exact(lt, "modulo")
                self._need_exact(rt, "modulo")
                return "py_imod(%s, %s)" % (lc, rc), _ti(rt[1])
            la, _ = self._as_double(lc, lt)
            ra, rb = self._as_double(rc, rt)
            return "py_fmodf(%s, %s)" % (la, ra), _td(rb)
        if isinstance(op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            if not both_int:
                raise Unloweable("bitwise op on double")
            if isinstance(op, ast.BitAnd):
                mask = _mask_const(node.right)
                if mask is None:
                    mask = _mask_const(node.left)
                if mask is not None:
                    # masking with a non-negative constant re-establishes
                    # exactness regardless of operand wrap state
                    return (
                        "(%s & %s)" % (lc, rc),
                        _ti(mask.bit_length(), True),
                    )
            sym = {ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^"}[type(op)]
            return (
                "(%s %s %s)" % (lc, sym, rc),
                _ti(max(lt[1], rt[1]), lt[2] and rt[2]),
            )
        if isinstance(op, ast.LShift):
            if not both_int:
                raise Unloweable("shift on double")
            self._need_exact(rt, "shift count")
            sc = _const_of_opt(node.right)
            w = lt[1] + (sc if isinstance(sc, int) else 64)
            return "k_shl(%s, %s)" % (lc, rc), _ti(w, lt[2] and w <= 62)
        if isinstance(op, ast.RShift):
            if not both_int:
                raise Unloweable("shift on double")
            self._need_exact(lt, "arithmetic shift")
            self._need_exact(rt, "shift count")
            return "k_shr(%s, %s)" % (lc, rc), _ti(lt[1])
        raise Unloweable("unsupported binary operator %s" % type(op).__name__)

    def _unary(self, node) -> Tuple[str, tuple]:
        oc, ot = self.ex(node.operand)
        if isinstance(node.op, ast.USub):
            if _is_int(ot):
                return "k_neg(%s)" % oc, _ti(ot[1], ot[2])
            return "(-%s)" % oc, ot
        if isinstance(node.op, ast.UAdd):
            return oc, ot
        if isinstance(node.op, ast.Invert):
            if not _is_int(ot):
                raise Unloweable("~ on double")
            w = ot[1] + 1
            return "(~%s)" % oc, _ti(w, ot[2] and w <= 62)
        if isinstance(node.op, ast.Not):
            return "((int64_t)!%s)" % self._truthy(oc, ot), _ti(1)
        raise Unloweable("unsupported unary operator")

    def _boolop_value(self, node) -> Tuple[str, tuple]:
        parts = [self.ex(v) for v in node.values]
        code, t = parts[-1]
        is_and = isinstance(node.op, ast.And)
        for pc, pt in reversed(parts[:-1]):
            test = self._truthy(pc, pt)
            j = _join(pt, t)
            taken = self._coerce(code, t, j)
            kept = self._coerce(pc, pt, j)
            if is_and:
                code = "(%s ? %s : %s)" % (test, taken, kept)
            else:
                code = "(%s ? %s : %s)" % (test, kept, taken)
            t = j
        return code, t

    def _compare(self, node) -> str:
        if len(node.ops) != 1:
            # a <= x <= b: operands are pure, expand to pairwise AND
            terms = []
            operands = [node.left] + list(node.comparators)
            for k, op in enumerate(node.ops):
                pair = ast.Compare(
                    left=operands[k], ops=[op], comparators=[operands[k + 1]]
                )
                terms.append(self._compare(pair))
            return "(%s)" % " && ".join(terms)
        op = node.ops[0]
        if isinstance(op, (ast.In, ast.NotIn)):
            comp = node.comparators[0]
            if not isinstance(comp, (ast.Tuple, ast.List)):
                raise Unloweable("membership test on non-literal")
            lc, lt = self.ex(node.left)
            terms = []
            for elt in comp.elts:
                rc, rt = self.ex(elt)
                terms.append(self._cmp_pair(lc, lt, rc, rt, "=="))
            joined = " || ".join(terms) if terms else "0"
            if isinstance(op, ast.NotIn):
                return "(!(%s))" % joined
            return "(%s)" % joined
        sym = _CMP_OPS.get(type(op))
        if sym is None:
            raise Unloweable("unsupported comparison %s" % type(op).__name__)
        lc, lt = self.ex(node.left)
        rc, rt = self.ex(node.comparators[0])
        return self._cmp_pair(lc, lt, rc, rt, sym)

    def _cmp_pair(self, lc, lt, rc, rt, sym) -> str:
        if _is_int(lt) and _is_int(rt):
            self._need_exact(lt, "comparison")
            self._need_exact(rt, "comparison")
            return "(%s %s %s)" % (lc, sym, rc)
        # Python compares int and float exactly; the double promotion is
        # only faithful when the int side fits the 53-bit mantissa
        for t in (lt, rt):
            if _is_int(t):
                self._need_exact(t, "comparison")
                if t[1] > 53:
                    raise Unloweable("int/double comparison beyond 53 bits")
        la, _ = self._as_double(lc, lt)
        ra, _ = self._as_double(rc, rt)
        return "(%s %s %s)" % (la, sym, ra)

    def cond(self, node) -> str:
        if isinstance(node, ast.BoolOp):
            sym = " && " if isinstance(node.op, ast.And) else " || "
            return "(%s)" % sym.join(self.cond(v) for v in node.values)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return "(!%s)" % self.cond(node.operand)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        code, t = self.ex(node)
        return self._truthy(code, t)

    def _ifexp(self, node) -> Tuple[str, tuple]:
        const = _const_of_opt(node.test)
        if const is not None or isinstance(node.test, ast.Constant):
            chosen = node.body if const else node.orelse
            return self.ex(chosen)
        test = self.cond(node.test)
        ac, at = self.ex(node.body)
        bc, bt = self.ex(node.orelse)
        j = _join(at, bt)
        return (
            "(%s ? %s : %s)"
            % (test, self._coerce(ac, at, j), self._coerce(bc, bt, j)),
            j,
        )

    # -------------------------------------------------------------- #
    # calls
    # -------------------------------------------------------------- #
    def _call(self, node) -> Tuple[str, tuple]:
        if not isinstance(node.func, ast.Name):
            raise Unloweable("call of non-name")
        name = node.func.id
        args = node.args
        if name == "int":
            return self._call_int(args)
        if name == "float":
            oc, ot = self.ex(args[0])
            if _is_int(ot):
                self._need_exact(ot, "float()")
                return "((double)%s)" % oc, _td(ot[1])
            return oc, ot
        if name in ("abs", "_f_abs"):
            oc, ot = self.ex(args[0])
            if _is_int(ot):
                self._need_exact(ot, "abs()")
                return "k_absi(%s)" % oc, _ti(ot[1])
            return "fabs(%s)" % oc, ot
        if name in ("min", "_f_min"):
            return self._minmax(args, "min")
        if name in ("max", "_f_max"):
            return self._minmax(args, "max")
        if name in ("_f_floor", "_f_ceil"):
            oc, ot = self.ex(args[0])
            if _is_int(ot):
                return oc, ot
            fn = "floor" if name == "_f_floor" else "ceil"
            if ot[1] is not None and ot[1] <= 61:
                return "dbl_lowbits(%s(%s))" % (fn, oc), _ti(ot[1] + 1)
            return "dbl_lowbits(%s(%s))" % (fn, oc), _ti(64, False)
        if name in ("round", "_f_round"):
            if len(args) != 1:
                raise Unloweable("round with ndigits")
            oc, ot = self.ex(args[0])
            if _is_int(ot):
                return oc, ot
            if ot[1] is not None and ot[1] <= 61:
                return "dbl_lowbits(knl_round(%s))" % oc, _ti(ot[1] + 1)
            return "dbl_lowbits(knl_round(%s))" % oc, _ti(64, False)
        if name == "_f_sqrt":
            oc, ot = self.ex(args[0])
            da, bound = self._as_double(oc, ot)
            return (
                "ssqrt(%s)" % da,
                _td(None if bound is None else bound // 2 + 1),
            )
        if name in ("_f_sin", "_f_cos"):
            da, _ = self._as_double(*self.ex(args[0]))
            return "%s(%s)" % (name[3:], da), _td(1)
        if name == "_f_tan":
            da, _ = self._as_double(*self.ex(args[0]))
            return "tan(%s)" % da, _td(None)
        if name == "_f_exp":
            da, _ = self._as_double(*self.ex(args[0]))
            return "cexp(%s)" % da, _td(None)
        if name == "_f_sign":
            oc, ot = self.ex(args[0])
            if _is_int(ot):
                self._need_exact(ot, "sign()")
                return "k_sign_i(%s)" % oc, _ti(1)
            return "k_sign_d(%s)" % oc, _ti(1)
        if name in ("_safe_mod", "_f_mod"):
            lc, lt = self.ex(args[0])
            rc, rt = self.ex(args[1])
            if _is_int(lt) and _is_int(rt):
                self._need_exact(lt, "safe_mod")
                self._need_exact(rt, "safe_mod")
                return "c_rem(%s, %s)" % (lc, rc), _ti(rt[1])
            la, _ = self._as_double(lc, lt)
            ra, rb = self._as_double(rc, rt)
            return "py_fmod(%s, %s)" % (la, ra), _td(rb)
        if name == "_safe_div":
            lc, lt = self.ex(args[0])
            rc, rt = self.ex(args[1])
            if _is_int(lt) and _is_int(rt):
                self._need_exact(lt, "safe_div")
                self._need_exact(rt, "safe_div")
                return "c_quot(%s, %s)" % (lc, rc), _ti(lt[1])
            la, _ = self._as_double(lc, lt)
            ra, _ = self._as_double(rc, rt)
            return "sdivf(%s, %s)" % (la, ra), _td(None)
        if name == "_lookup1d":
            return self._lookup1d(args)
        if name == "_lookup2d":
            return self._lookup2d(args)
        if name.startswith("_w_"):
            return self._wrap_call(name[3:], args)
        if name.startswith("_sat_"):
            return self._sat_call(name[5:], args)
        raise Unloweable("unsupported call %r" % name)

    def _call_int(self, args) -> Tuple[str, tuple]:
        oc, ot = self.ex(args[0])
        if _is_int(ot):
            return oc, ot
        # dbl_lowbits truncates toward zero and reduces modulo 2**64 —
        # exact (int)x whenever the magnitude bound proves it fits
        if ot[1] is not None and ot[1] <= 62:
            return "dbl_lowbits(%s)" % oc, _ti(ot[1])
        return "dbl_lowbits(%s)" % oc, _ti(64, False)

    def _minmax(self, args, which: str) -> Tuple[str, tuple]:
        parts = [self.ex(a) for a in args]
        if len(parts) < 2:
            raise Unloweable("%s() needs 2+ args" % which)
        all_int = all(_is_int(t) for _, t in parts)
        if all_int:
            for _, t in parts:
                self._need_exact(t, which)
            code, t = parts[0]
            w = t[1]
            for pc, pt in parts[1:]:
                code = "py_%s_i(%s, %s)" % (which, code, pc)
                w = max(w, pt[1])
            return code, _ti(w)
        dparts = []
        bound = 0
        for pc, pt in parts:
            if _is_int(pt):
                self._need_exact(pt, which)
                if pt[1] > 53:
                    raise Unloweable("int in float %s beyond 53 bits" % which)
            da, db = self._as_double(pc, pt)
            dparts.append(da)
            bound = None if (bound is None or db is None) else max(bound, db)
        code = dparts[0]
        for da in dparts[1:]:
            code = "py_%s_d(%s, %s)" % (which, code, da)
        return code, _td(bound)

    def _lookup1d(self, args) -> Tuple[str, tuple]:
        vc, vt = self.ex(args[0])
        bp = _float_tuple(args[1])
        tab = _float_tuple(args[2])
        if bp is None or tab is None or len(bp) != len(tab) or len(bp) < 2:
            raise Unloweable("non-literal lookup1d tables")
        if _is_int(vt) and vt[1] > 53:
            raise Unloweable("lookup input beyond 53 bits")
        da, _ = self._as_double(vc, vt)
        bound = 0
        for y in tab:
            b = _dbl_const_bound(float(y))
            bound = None if (bound is None or b is None) else max(bound, b)
        return (
            "k_lookup1d(%s, %s, %s, %d)"
            % (da, self._lut(bp), self._lut(tab), len(bp)),
            _td(None if bound is None else bound + 1),
        )

    def _lookup2d(self, args) -> Tuple[str, tuple]:
        uc, ut = self.ex(args[0])
        vc, vt = self.ex(args[1])
        row_bp = _float_tuple(args[2])
        col_bp = _float_tuple(args[3])
        if row_bp is None or col_bp is None:
            raise Unloweable("non-literal lookup2d breakpoints")
        if not isinstance(args[4], (ast.Tuple, ast.List)):
            raise Unloweable("non-literal lookup2d table")
        rows = []
        for elt in args[4].elts:
            row = _float_tuple(elt)
            if row is None or len(row) != len(col_bp):
                raise Unloweable("ragged lookup2d table")
            rows.append(row)
        if len(rows) != len(row_bp):
            raise Unloweable("lookup2d table/breakpoint mismatch")
        for t in (ut, vt):
            if _is_int(t) and t[1] > 53:
                raise Unloweable("lookup input beyond 53 bits")
        ua, _ = self._as_double(uc, ut)
        va, _ = self._as_double(vc, vt)
        flat = tuple(v for row in rows for v in row)
        bound = 0
        for y in flat:
            b = _dbl_const_bound(float(y))
            bound = None if (bound is None or b is None) else max(bound, b)
        return (
            "k_lookup2d(%s, %s, %s, %s, %s, %d, %d)"
            % (
                ua,
                va,
                self._lut(row_bp),
                self._lut(col_bp),
                self._lut(flat),
                len(row_bp),
                len(col_bp),
            ),
            _td(None if bound is None else bound + 1),
        )

    def _wrap_call(self, dtype_name: str, args) -> Tuple[str, tuple]:
        oc, ot = self.ex(args[0])
        if dtype_name == "boolean":
            return "((int64_t)%s)" % self._truthy(oc, ot), _ti(1)
        if dtype_name == "double":
            if _is_int(ot):
                self._need_exact(ot, "double wrap")
                return "((double)%s)" % oc, _td(ot[1])
            return oc, ot
        if dtype_name == "single":
            # float(value) then a float32 round-trip; finite overflow
            # saturates to inf where scalar raises (see module doc)
            da, _ = self._as_double(oc, ot)
            return "((double)(float)%s)" % da, _td(129)
        spec = _WRAP_DTYPES.get(dtype_name)
        if spec is None:
            raise Unloweable("unknown wrapper _w_%s" % dtype_name)
        bits, signed = spec
        if not _is_int(ot):
            oc = "dbl_lowbits(%s)" % oc  # int(value) truncation first
        mask = (1 << bits) - 1
        if signed:
            half = 1 << (bits - 1)
            code = "(((%s & %s) ^ %s) - %s)" % (
                oc,
                _cint(mask),
                _cint(half),
                _cint(half),
            )
            return code, _ti(bits - 1)
        return "(%s & %s)" % (oc, _cint(mask)), _ti(bits)

    def _sat_call(self, dtype_name: str, args) -> Tuple[str, tuple]:
        oc, ot = self.ex(args[0])
        if dtype_name == "boolean":
            return "((int64_t)%s)" % self._truthy(oc, ot), _ti(1)
        if dtype_name in ("single", "double"):
            return self._wrap_call(dtype_name, args)
        spec = _WRAP_DTYPES.get(dtype_name)
        if spec is None:
            raise Unloweable("unknown saturator _sat_%s" % dtype_name)
        bits, signed = spec
        lo = -(1 << (bits - 1)) if signed else 0
        hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        if _is_int(ot):
            self._need_exact(ot, "saturating cast")
            return (
                "sat_i(%s, %s, %s)" % (oc, _cint(lo), _cint(hi)),
                _ti(bits if not signed else bits - 1),
            )
        return (
            "sat_d(%s, %s, %s)" % (oc, _cint(lo), _cint(hi)),
            _ti(bits if not signed else bits - 1),
        )

    # -------------------------------------------------------------- #
    # statements
    # -------------------------------------------------------------- #
    def stmt(self, node) -> None:
        if isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, ast.AugAssign):
            synthetic = ast.Assign(
                targets=[node.target],
                value=ast.BinOp(
                    left=_as_load(node.target), op=node.op, right=node.value
                ),
            )
            self._assign(synthetic)
        elif isinstance(node, ast.Expr):
            self._expr_stmt(node)
        elif isinstance(node, ast.If):
            self.line("if (%s) {" % self.cond(node.test))
            self.indent += 1
            for child in node.body:
                self.stmt(child)
            self.indent -= 1
            if node.orelse:
                self.line("} else {")
                self.indent += 1
                for child in node.orelse:
                    self.stmt(child)
                self.indent -= 1
            self.line("}")
        elif isinstance(node, ast.While):
            # the generators never emit `break`, so a while/else runs its
            # else unconditionally — lower it as code after the loop
            if node.orelse and any(
                isinstance(n, ast.Break) for n in ast.walk(node)
            ):
                raise Unloweable("while/else with break")
            if not self.emitting:
                # loop bodies feed their own inputs: iterate to a local
                # fixpoint so loop-carried locals reach their widened type
                for _ in range(60):
                    before = self._snapshot()
                    self.cond(node.test)
                    for child in node.body:
                        self.stmt(child)
                    if self._snapshot() == before:
                        break
                else:
                    raise Unloweable("loop type inference did not converge")
                for child in node.orelse:
                    self.stmt(child)
                return
            self.line("while (%s) {" % self.cond(node.test))
            self.indent += 1
            for child in node.body:
                self.stmt(child)
            self.indent -= 1
            self.line("}")
            for child in node.orelse:
                self.stmt(child)
        elif isinstance(node, ast.Return):
            self._return(node)
        elif isinstance(node, ast.Pass):
            self.line(";")
        else:
            raise Unloweable(
                "unsupported statement: %s" % type(node).__name__
            )

    def _expr_stmt(self, node) -> None:
        v = node.value
        if isinstance(v, ast.Constant):
            return  # docstring
        if isinstance(v, ast.Call) and isinstance(v.func, ast.Name):
            name = v.func.id
            if name == "_wd_tick":
                self.line(
                    "if (m->wd_armed) { if (m->wd_rem[l] <= INT64_C(0)) "
                    "return 1; m->wd_rem[l] -= 1; }"
                )
                return
            if name.startswith("_mcdc"):
                return  # kernel path records no MCDC (module doc)
        raise Unloweable("unsupported expression statement")

    def _assign(self, node) -> None:
        if len(node.targets) != 1:
            raise Unloweable("multi-target assignment")
        tgt = node.targets[0]
        if isinstance(tgt, ast.Name):
            name = tgt.id
            if name == "cov" or name.startswith(("_mcdc", "_wd_")):
                return
            code, t = self.ex(node.value)
            storage = _widen(self.env.get(name), t)
            self.env[name] = storage
            self.line("v_%s = %s;" % (name, self._coerce(code, t, storage)))
            return
        if isinstance(tgt, ast.Attribute):
            if not (isinstance(tgt.value, ast.Name) and tgt.value.id == "self"):
                raise Unloweable("assignment to non-self attribute")
            attr = tgt.attr
            if attr in self.lists:
                self._list_assign(attr, node.value)
                return
            code, t = self.ex(node.value)
            storage = _widen(self.state.get(attr), t)
            self.state[attr] = storage
            self.line(
                "m->s_%s[l] = %s;" % (attr, self._coerce(code, t, storage))
            )
            return
        if isinstance(tgt, ast.Subscript):
            base = tgt.value
            if isinstance(base, ast.Name) and base.id == "cov":
                self._probe_write(tgt.slice, node.value)
                return
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in self.lists
            ):
                length, elem = self.lists[base.attr]
                idx = _const_of_opt(tgt.slice)
                if not isinstance(idx, int):
                    raise Unloweable("dynamic delay-buffer store index")
                if idx < 0:
                    idx += length
                if not 0 <= idx < length:
                    raise Unloweable("delay-buffer store out of range")
                code, t = self.ex(node.value)
                storage = _widen(elem, t)
                self.lists[base.attr] = (length, storage)
                self.line(
                    "m->s_%s[l * %d + %d] = %s;"
                    % (base.attr, length, idx, self._coerce(code, t, storage))
                )
                return
        raise Unloweable("unsupported assignment target")

    def _list_assign(self, attr: str, value) -> None:
        length, elem = self.lists[attr]
        rot = _rotate_pattern(value, attr)
        if rot is not None:
            code, t = self.ex(rot)
            storage = _widen(elem, t)
            self.lists[attr] = (length, storage)
            if self.emitting:
                tmp = self.tmp()
                self.line("{")
                self.indent += 1
                self.line(
                    "%s %s = %s;"
                    % (self._ctype(storage), tmp, self._coerce(code, t, storage))
                )
                for k in range(length - 1):
                    self.line(
                        "m->s_%s[l * %d + %d] = m->s_%s[l * %d + %d];"
                        % (attr, length, k, attr, length, k + 1)
                    )
                self.line(
                    "m->s_%s[l * %d + %d] = %s;" % (attr, length, length - 1, tmp)
                )
                self.indent -= 1
                self.line("}")
            return
        lit = _list_literal(value)
        if lit is not None:
            if len(lit) != length:
                raise Unloweable("delay buffer length changed")
            storage = elem
            for v in lit:
                storage = _join(storage, _const_type(v))
            self.lists[attr] = (length, storage)
            for k, v in enumerate(lit):
                code, t = (_cint(v), _int_const_type(v)) if isinstance(
                    v, int
                ) else (_cdbl(v), _td(_dbl_const_bound(v)))
                self.line(
                    "m->s_%s[l * %d + %d] = %s;"
                    % (attr, length, k, self._coerce(code, t, storage))
                )
            return
        raise Unloweable("unsupported delay-buffer assignment")

    def _probe_write(self, index_node, value_node) -> None:
        if _const_of_opt(value_node) != 1:
            raise Unloweable("probe write of non-1 value")
        idx = _const_of_opt(index_node)
        if isinstance(idx, int):
            if idx < 0:
                idx += self.n_probes
            if not 0 <= idx < self.n_probes:
                raise Unloweable("constant probe index out of range")
            self.line("cov[%d] = 1;" % idx)
            return
        code, t = self.ex(index_node)
        if not _is_int(t):
            raise Unloweable("double probe index")
        self._need_exact(t, "probe index")
        if self.emitting:
            tmp = self.tmp()
            self.line("{")
            self.indent += 1
            self.line("int64_t %s = %s;" % (tmp, code))
            self.line("if (%s < 0) %s += %d;" % (tmp, tmp, self.n_probes))
            self.line(
                "if (%s >= 0 && %s < %d) cov[%s] = 1;"
                % (tmp, tmp, self.n_probes, tmp)
            )
            self.indent -= 1
            self.line("}")

    def _return(self, node) -> None:
        values: List = []
        if node.value is not None:
            if isinstance(node.value, ast.Tuple):
                values = list(node.value.elts)
            else:
                values = [node.value]
        if not self.out_types:
            self.out_types = [None] * len(values)
        if len(values) != len(self.out_types):
            raise Unloweable("return arity mismatch across return sites")
        codes = []
        for j, v in enumerate(values):
            code, t = self.ex(v)
            self.out_types[j] = _widen(self.out_types[j], t)
            codes.append((code, t))
        if self.emitting:
            for j, (code, t) in enumerate(codes):
                storage = self.out_types[j]
                if _is_int(storage):
                    self._need_exact(t, "output value")
                    self.line("io[%d] = %s;" % (j, code))
                else:
                    self.line("dob[%d] = %s;" % (j, self._coerce(code, t, storage)))
        self.line("return 0;")

    # -------------------------------------------------------------- #
    # final C rendering
    # -------------------------------------------------------------- #
    def _render(self, locals_env: Dict[str, tuple], body: List[str]) -> str:
        np_ = self.n_probes
        n_out = len(self.out_types)
        n_fields = len(self.fields)
        out_kinds = [0 if _is_int(t) else 1 for t in self.out_types]

        parts: List[str] = [_C_PRELUDE]
        parts.append("#define NP %d" % np_)
        parts.append("#define NPA %d" % max(np_, 1))
        parts.append("#define KMAX %d" % MAX_KERNEL_LANES)
        parts.append("#define NOUT %d" % n_out)
        parts.append("#define NOUTA %d" % max(n_out, 1))
        parts.append("#define TUPLE %d" % self.schedule.layout.size)
        parts.append("")
        parts.extend(self._lut_decls)
        parts.append("")
        # model struct: per-lane watchdog islands + per-lane state slabs
        parts.append("typedef struct {")
        parts.append("    int64_t wd_rem[KMAX];")
        parts.append("    int wd_armed;")
        parts.append("    uint8_t cur[NPA];")
        parts.append("    uint8_t prev[NPA];")
        for attr in sorted(self.state):
            parts.append(
                "    %s s_%s[KMAX];" % (self._ctype(self.state[attr]), attr)
            )
        for attr in sorted(self.lists):
            length, elem = self.lists[attr]
            parts.append(
                "    %s s_%s[KMAX * %d];" % (self._ctype(elem), attr, length)
            )
        parts.append("} Model;")
        parts.append("")
        parts.append(
            "EXPORT const int64_t kern_meta[6] = "
            "{%d, NP, NOUT, %d, KMAX, TUPLE};" % (KERNEL_ABI_VERSION, n_fields)
        )
        parts.append(
            "EXPORT const uint8_t kern_out_kinds[NOUTA] = {%s};"
            % (", ".join(str(k) for k in out_kinds) or "0")
        )
        parts.append(
            "EXPORT const uint8_t kern_field_dtypes[%d] = {%s};"
            % (
                max(n_fields, 1),
                ", ".join(str(_DTYPE_CODES[f.dtype.name]) for f in self.fields)
                or "0",
            )
        )
        parts.append("")
        parts.append("EXPORT Model* kern_new(void) {")
        parts.append("    return (Model*)calloc(1, sizeof(Model));")
        parts.append("}")
        parts.append("")
        parts.append("EXPORT void kern_free(Model* m) { free(m); }")
        parts.append("")
        parts.append("EXPORT void kern_reset(Model* m, int64_t lanes) {")
        parts.append("    int64_t l;")
        parts.append("    for (l = 0; l < lanes; l++) {")
        for attr in sorted(self.state):
            storage = self.state[attr]
            init = self.state_init.get(attr, 0)
            lit = (
                self._coerce(_cint(init), _int_const_type(init), storage)
                if isinstance(init, int)
                else _cdbl(float(init))
            )
            parts.append("        m->s_%s[l] = %s;" % (attr, lit))
        for attr in sorted(self.lists):
            length, elem = self.lists[attr]
            init = self.list_init.get(attr, [0] * length)
            for k, v in enumerate(init):
                lit = (
                    self._coerce(_cint(v), _int_const_type(v), elem)
                    if isinstance(v, int)
                    else _cdbl(float(v))
                )
                parts.append(
                    "        m->s_%s[l * %d + %d] = %s;" % (attr, length, k, lit)
                )
        parts.append("    }")
        parts.append("}")
        parts.append("")
        parts.append(
            "EXPORT void kern_arm(Model* m, int64_t lanes, int64_t limit) {"
        )
        parts.append("    int64_t l;")
        parts.append("    if (limit < 0) { m->wd_armed = 0; return; }")
        parts.append("    m->wd_armed = 1;")
        parts.append("    for (l = 0; l < lanes; l++) m->wd_rem[l] = limit;")
        parts.append("}")
        parts.append("")

        # --- lane_step ------------------------------------------------ #
        params = []
        for name in self.arg_names:
            t = self.arg_types[name]
            params.append("%s a_%s" % (self._ctype(t), name))
        parts.append(
            "static int lane_step(Model* m, int64_t l, uint8_t* cov%s, "
            "int64_t* io, double* dob) {"
            % ("".join(", " + p for p in params))
        )
        parts.append("    (void)m; (void)l; (void)cov; (void)io; (void)dob;")
        for name in sorted(locals_env):
            if name in self.arg_types:
                continue
            t = locals_env[name]
            init = "INT64_C(0)" if _is_int(t) else "0.0"
            parts.append("    %s v_%s = %s;" % (self._ctype(t), name, init))
        parts.extend(body)
        if not body or not body[-1].strip().startswith("return"):
            parts.append("    return 0;")
        parts.append("}")
        parts.append("")

        # --- the one input decode -------------------------------------- #
        # the fuzz driver's memcpy of each inport field at its tuple
        # offset (paper Fig. 3), with the scalar driver's rules
        parts.append(
            "static int step_tuple(Model* m, int64_t l, const uint8_t* in,\n"
            "                      uint8_t* cov, int64_t* io, double* dob) {"
        )
        parts.append("    (void)in;")
        parts.append(
            "    return lane_step(m, l, cov%s, io, dob);"
            % "".join(
                ", ld_%s(in + %d)" % (f.dtype.name, f.offset)
                for f in self.fields
            )
        )
        parts.append("}")
        parts.append("")

        # --- fused whole-batch loop ----------------------------------- #
        # lane l decodes iters[l] tuples from data + offs[l]; a thread
        # block running lanes [lo, lo+n) passes the per-lane pointers
        # pre-offset by lo, so disjoint blocks share every buffer
        parts.append(
            "EXPORT void kern_run(Model* m, int64_t n, const uint8_t* data,\n"
            "                     const int64_t* offs, const int64_t* iters,\n"
            "                     int64_t* metric, int64_t* done,\n"
            "                     uint8_t* timed_out, uint8_t* cum) {"
        )
        parts.append("    int64_t l, t; int p;")
        parts.append("    int64_t io[NOUTA]; double dob[NOUTA];")
        parts.append("    for (l = 0; l < n; l++) {")
        parts.append("        int64_t met = 0;")
        parts.append("        uint8_t* cm = cum + l * NP;")
        parts.append("        const uint8_t* in = data + offs[l];")
        parts.append("        int64_t ni = iters[l];")
        parts.append("        memset(m->prev, 0, NP);")
        parts.append("        done[l] = ni; timed_out[l] = 0;")
        parts.append("        for (t = 0; t < ni; t++) {")
        parts.append("            int rc;")
        parts.append("            memset(m->cur, 0, NP);")
        parts.append(
            "            rc = step_tuple(m, l, in + t * TUPLE, m->cur, io, dob);"
        )
        parts.append("            if (rc) {")
        parts.append(
            "                /* watchdog abort: the partial probe row is\n"
            "                 * real coverage (scalar folds it into\n"
            "                 * partial_total_int) but earns no metric */"
        )
        parts.append("                for (p = 0; p < NP; p++) cm[p] |= m->cur[p];")
        parts.append("                done[l] = t; timed_out[l] = 1;")
        parts.append("                break;")
        parts.append("            }")
        parts.append("            if (memcmp(m->cur, m->prev, NP) != 0) {")
        parts.append("                for (p = 0; p < NP; p++) {")
        parts.append("                    met += (m->cur[p] != m->prev[p]);")
        parts.append("                    cm[p] |= m->cur[p];")
        parts.append("                }")
        parts.append("                memcpy(m->prev, m->cur, NP);")
        parts.append("            }")
        parts.append("        }")
        parts.append("        metric[l] = met;")
        parts.append("    }")
        parts.append("}")
        parts.append("")

        # --- per-step entry (differential harness) -------------------- #
        parts.append(
            "EXPORT void kern_step(Model* m, int64_t n, const uint8_t* act,\n"
            "                      const uint8_t* rows, uint8_t* covout,\n"
            "                      int64_t* iouts, double* douts,\n"
            "                      uint8_t* status) {"
        )
        parts.append("    int64_t l;")
        parts.append("    for (l = 0; l < n; l++) {")
        parts.append("        if (!act[l]) { status[l] = 2; continue; }")
        parts.append("        memset(covout + l * NP, 0, NP);")
        parts.append(
            "        status[l] = (uint8_t)step_tuple(m, l, rows + l * TUPLE, "
            "covout + l * NP, iouts + l * NOUT, douts + l * NOUT);"
        )
        parts.append("    }")
        parts.append("}")
        parts.append("")
        return "\n".join(parts)


_C_PRELUDE = r"""/* generated by repro.codegen.kernel — do not edit */
#include <stdint.h>
#include <string.h>
#include <stdlib.h>
#include <math.h>

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* input tuples are packed little-endian (TupleLayout, struct "<") */
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the kernel decodes little-endian input tuples: little-endian host only"
#endif

/* inport field loads, the scalar fuzz driver's decode: integers widen
 * to int64, a boolean is != 0, a float NaN becomes 0.0 */
static inline int64_t ld_int8(const uint8_t* p) {
    int8_t v; memcpy(&v, p, 1); return v;
}
static inline int64_t ld_int16(const uint8_t* p) {
    int16_t v; memcpy(&v, p, 2); return v;
}
static inline int64_t ld_int32(const uint8_t* p) {
    int32_t v; memcpy(&v, p, 4); return v;
}
static inline int64_t ld_uint8(const uint8_t* p) { return p[0]; }
static inline int64_t ld_uint16(const uint8_t* p) {
    uint16_t v; memcpy(&v, p, 2); return v;
}
static inline int64_t ld_uint32(const uint8_t* p) {
    uint32_t v; memcpy(&v, p, 4); return v;
}
static inline int64_t ld_boolean(const uint8_t* p) { return p[0] != 0; }
static inline double ld_single(const uint8_t* p) {
    float v; memcpy(&v, p, 4); return v != v ? 0.0 : (double)v;
}
static inline double ld_double(const uint8_t* p) {
    double v; memcpy(&v, p, 8); return v != v ? 0.0 : v;
}

/* int arithmetic wraps through uint64 so signed overflow is never UB;
 * the Python emitter tracks which values are exact vs wrapped. */
static inline int64_t k_add(int64_t a, int64_t b) {
    return (int64_t)((uint64_t)a + (uint64_t)b);
}
static inline int64_t k_sub(int64_t a, int64_t b) {
    return (int64_t)((uint64_t)a - (uint64_t)b);
}
static inline int64_t k_mul(int64_t a, int64_t b) {
    return (int64_t)((uint64_t)a * (uint64_t)b);
}
static inline int64_t k_neg(int64_t a) {
    return (int64_t)(0 - (uint64_t)a);
}
static inline int64_t k_shl(int64_t a, int64_t s) {
    if (s < 0 || s >= 64) return 0;
    return (int64_t)((uint64_t)a << (uint64_t)s);
}
static inline int64_t k_shr(int64_t a, int64_t s) {
    if (s < 0) return 0;
    if (s >= 63) return a < 0 ? -1 : 0;
    return a >> s; /* arithmetic on gcc/clang: floor-shift, like Python */
}
static inline int64_t k_absi(int64_t a) { return a < 0 ? k_neg(a) : a; }
static inline int64_t k_sign_i(int64_t x) { return (x > 0) - (x < 0); }
static inline int64_t k_sign_d(double x) { return (x > 0.0) - (x < 0.0); }

/* Python floor division / floor modulo (b == 0 is defensively 0: the
 * generated code only reaches these behind its own zero guards). */
static inline int64_t py_floordiv(int64_t a, int64_t b) {
    int64_t q, r;
    if (b == 0) return 0;
    if (b == -1) return k_neg(a);
    q = a / b; r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) q -= 1;
    return q;
}
static inline int64_t py_imod(int64_t a, int64_t b) {
    int64_t r;
    if (b == 0 || b == -1) return 0;
    r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
/* safe_div / safe_mod int paths: C truncation, total on b == 0 */
static inline int64_t c_quot(int64_t a, int64_t b) {
    if (b == 0) return 0;
    if (b == -1) return k_neg(a);
    return a / b;
}
static inline int64_t c_rem(int64_t a, int64_t b) {
    if (b == 0 || b == -1) return 0;
    return a % b;
}
static inline double sdivf(double a, double b) {
    return b == 0.0 ? 0.0 : a / b;
}
/* safe_mod float path: math.fmod, total on b == 0 */
static inline double py_fmod(double a, double b) {
    return b == 0.0 ? 0.0 : fmod(a, b);
}
/* Python's float %% (CPython float_rem): sign follows the divisor */
static inline double py_fmodf(double a, double b) {
    double r;
    if (b == 0.0) return 0.0;
    r = fmod(a, b);
    if (r != 0.0) {
        if ((b < 0.0) != (r < 0.0)) r += b;
    } else {
        r = copysign(0.0, b);
    }
    return r;
}
/* Python's float // (ported from CPython float_divmod) */
static inline double k_ffloordiv(double a, double b) {
    double mod, div;
    if (b == 0.0) return 0.0;
    mod = fmod(a, b);
    div = (a - mod) / b;
    if (mod != 0.0) {
        if ((b < 0.0) != (mod < 0.0)) { mod += b; div -= 1.0; }
    }
    if (div != 0.0) {
        double floordiv = floor(div);
        if (div - floordiv > 0.5) floordiv += 1.0;
        return floordiv;
    }
    return copysign(0.0, a / b);
}
static inline double ssqrt(double x) { return x < 0.0 ? 0.0 : sqrt(x); }
static inline double cexp(double x) {
    return x > 700.0 ? INFINITY : exp(x);
}
/* round-half-even, like CPython round(float) */
static inline double knl_round(double x) { return nearbyint(x); }
static inline double py_min_d(double a, double b) { return b < a ? b : a; }
static inline double py_max_d(double a, double b) { return b > a ? b : a; }
static inline int64_t py_min_i(int64_t a, int64_t b) { return b < a ? b : a; }
static inline int64_t py_max_i(int64_t a, int64_t b) { return b > a ? b : a; }
static inline int64_t sat_i(int64_t v, int64_t lo, int64_t hi) {
    return v < lo ? lo : (v > hi ? hi : v);
}
static inline int64_t sat_d(double x, int64_t lo, int64_t hi) {
    double t;
    if (x != x) return 0;
    t = trunc(x);
    if (t < (double)lo) return lo;
    if (t > (double)hi) return hi;
    return (int64_t)t;
}
/* int(x): truncate toward zero, reduced modulo 2**64 — exact whenever
 * |x| < 2**63, and Python's low 64 bits otherwise (fed to masks only) */
static inline int64_t dbl_lowbits(double x) {
    if (x != x) return 0;
    if (x >= -9223372036854775808.0 && x < 9223372036854775808.0)
        return (int64_t)x;
    if (isinf(x)) return 0;
    {
        int e, sh;
        double mant = frexp(x, &e);
        int64_t i = (int64_t)ldexp(mant, 53);
        sh = e - 53;
        if (sh >= 64) return 0;
        return (int64_t)((uint64_t)i << sh);
    }
}
/* exact ports of repro.model.blocks.lookup interp1d / interp2d */
static double k_lookup1d(double v, const double* bp, const double* tab,
                         int n) {
    int i;
    if (v <= bp[0]) return tab[0];
    if (v >= bp[n - 1]) return tab[n - 1];
    for (i = 0; i < n - 1; i++) {
        if (v <= bp[i + 1]) {
            double x0 = bp[i], x1 = bp[i + 1];
            double y0 = tab[i], y1 = tab[i + 1];
            return y0 + (y1 - y0) * (v - x0) / (x1 - x0);
        }
    }
    return tab[n - 1];
}
static double k_lookup2d(double u, double v, const double* rbp,
                         const double* cbp, const double* tab, int nr,
                         int nc) {
    double cuts[nr < 1 ? 1 : nr];
    int i;
    for (i = 0; i < nr; i++)
        cuts[i] = k_lookup1d(v, cbp, tab + (int64_t)i * nc, nc);
    return k_lookup1d(u, rbp, cuts, nr);
}
"""


# --------------------------------------------------------------------- #
# literal/pattern helpers
# --------------------------------------------------------------------- #
def _const_of(node):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_of(node.operand)
        if isinstance(inner, (int, float)):
            return -inner
    raise Unloweable("expected a constant, got %s" % ast.dump(node)[:80])


def _const_of_opt(node):
    try:
        return _const_of(node)
    except Unloweable:
        return None


def _const_type(value) -> tuple:
    if isinstance(value, bool):
        return _ti(1)
    if isinstance(value, int):
        return _int_const_type(value)
    if isinstance(value, float):
        return _td(_dbl_const_bound(value))
    raise Unloweable("unsupported state constant %r" % (value,))


def _float_tuple(node) -> Optional[tuple]:
    """A literal tuple/list of numbers as floats, else None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.elts:
        v = _const_of_opt(elt)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return None
        out.append(float(v))
    return tuple(out)


def _signed_wrap_width(node) -> Optional[int]:
    """Width k-1 when ``node`` is the inlined signed-wrap idiom
    ``((expr & (2**k - 1)) ^ 2**(k-1)) - 2**(k-1)`` (what the optimizer
    produces by inlining ``_w_intK``), else None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return None
    half = _const_of_opt(node.right)
    if (
        not isinstance(half, int)
        or isinstance(half, bool)
        or half <= 0
        or half & (half - 1)
        or half >= (1 << 62)
    ):
        return None
    xor = node.left
    if not (isinstance(xor, ast.BinOp) and isinstance(xor.op, ast.BitXor)):
        return None
    if _const_of_opt(xor.right) != half:
        return None
    mask_op = xor.left
    if not (
        isinstance(mask_op, ast.BinOp) and isinstance(mask_op.op, ast.BitAnd)
    ):
        return None
    mask = _mask_const(mask_op.right)
    if mask is None:
        mask = _mask_const(mask_op.left)
    if mask != 2 * half - 1:
        return None
    return half.bit_length() - 1  # == k - 1 for half = 2**(k-1)


def _is_lt_zero(node, dump: str) -> bool:
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Lt)
        and ast.dump(node.left) == dump
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value == 0
    )


def _c_rem_pattern(node):
    """(a, b) AST nodes when ``node`` is the inlined C-remainder idiom
    ``a - (a // b if (a < 0) == (b < 0) else -(-a // b)) * b`` (what the
    optimizer produces by inlining ``_safe_mod``), else None.  The true
    value satisfies |r| < |b|, which the generic sub/mult width rules
    cannot see."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return None
    mul = node.right
    if not (isinstance(mul, ast.BinOp) and isinstance(mul.op, ast.Mult)):
        return None
    a = node.left
    da = ast.dump(a)
    for q, b in ((mul.left, mul.right), (mul.right, mul.left)):
        if not isinstance(q, ast.IfExp):
            continue
        db = ast.dump(b)
        body = q.body
        if not (
            isinstance(body, ast.BinOp)
            and isinstance(body.op, ast.FloorDiv)
            and ast.dump(body.left) == da
            and ast.dump(body.right) == db
        ):
            continue
        o = q.orelse
        if not (isinstance(o, ast.UnaryOp) and isinstance(o.op, ast.USub)):
            continue
        inner = o.operand
        if not (
            isinstance(inner, ast.BinOp)
            and isinstance(inner.op, ast.FloorDiv)
            and isinstance(inner.left, ast.UnaryOp)
            and isinstance(inner.left.op, ast.USub)
            and ast.dump(inner.left.operand) == da
            and ast.dump(inner.right) == db
        ):
            continue
        t = q.test
        if (
            isinstance(t, ast.Compare)
            and len(t.ops) == 1
            and isinstance(t.ops[0], ast.Eq)
            and _is_lt_zero(t.left, da)
            and _is_lt_zero(t.comparators[0], db)
        ):
            return a, b
    return None


def _mask_const(node) -> Optional[int]:
    v = _const_of_opt(node)
    if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < (1 << 62):
        return v
    return None


def _field_type(field) -> tuple:
    dt = field.dtype
    if dt.is_float:
        return _td(129 if dt.name == "single" else None)
    if dt.is_bool:
        return _ti(1)
    bits = 8 * dt.size
    return _ti(bits - 1 if dt.is_signed else bits)


def _list_literal(node) -> Optional[list]:
    if isinstance(node, ast.List):
        return [_const_of(elt) for elt in node.elts]
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.List)
        and len(node.left.elts) == 1
    ):
        count = _const_of(node.right)
        if isinstance(count, int) and count > 0:
            return [_const_of(node.left.elts[0])] * count
    return None


def _rotate_pattern(node, attr: str):
    """Match ``self.<attr>[1:] + [expr]`` → the appended expr node."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return None
    left, right = node.left, node.right
    if not (isinstance(right, ast.List) and len(right.elts) == 1):
        return None
    if not (
        isinstance(left, ast.Subscript)
        and isinstance(left.value, ast.Attribute)
        and left.value.attr == attr
        and isinstance(left.slice, ast.Slice)
        and left.slice.upper is None
        and left.slice.step is None
        and _const_of_opt(left.slice.lower) == 1
    ):
        return None
    return right.elts[0]


def _as_load(node):
    clone = ast.copy_location(
        ast.parse(ast.unparse(node), mode="eval").body, node
    )
    return clone


# --------------------------------------------------------------------- #
# out-of-process build
# --------------------------------------------------------------------- #
def lower_kernel_source(schedule, py_source: str) -> str:
    """Lower one scalar generated module to its C kernel source."""
    return _Lowering(schedule, py_source).run()


#: flags chosen for bit-parity, not raw speed: no fast-math, no FMA
#: contraction (the default -ffp-contract=fast silently changes float
#: results vs CPython's strict IEEE evaluation order)
_CC_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]


def build_shared_object(c_path: str, so_path: str, cc: Optional[str] = None) -> None:
    """Compile one kernel C file into a shared object (out of process)."""
    cc = cc or find_cc()
    if cc is None:
        raise KernelBuildError(
            "no C compiler found (set $CC or install gcc/clang)"
        )
    cmd = [cc] + _CC_FLAGS + ["-o", so_path, c_path, "-lm"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBuildError("kernel cc failed to run: %s" % exc) from exc
    if proc.returncode != 0:
        raise KernelBuildError(
            "kernel cc exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:])
        )


# --------------------------------------------------------------------- #
# ctypes binding
# --------------------------------------------------------------------- #
class _KernelLib:
    """ctypes view over one built kernel shared object."""

    def __init__(self, so_path: str):
        lib = ctypes.CDLL(so_path)
        # the stamp comes first: another ABI's meta block may be shorter
        self.abi_version = ctypes.c_int64.in_dll(lib, "kern_meta").value
        if self.abi_version != KERNEL_ABI_VERSION:
            raise KernelBuildError(
                "kernel ABI %d != expected %d"
                % (self.abi_version, KERNEL_ABI_VERSION)
            )
        meta = (ctypes.c_int64 * 6).in_dll(lib, "kern_meta")
        self.n_probes = int(meta[1])
        self.n_out = int(meta[2])
        self.n_fields = int(meta[3])
        self.max_lanes = int(meta[4])
        self.tuple_size = int(meta[5])
        self.out_kinds = tuple(
            (ctypes.c_uint8 * max(self.n_out, 1)).in_dll(lib, "kern_out_kinds")
        )[: self.n_out]
        self.field_dtypes = tuple(
            (ctypes.c_uint8 * max(self.n_fields, 1)).in_dll(
                lib, "kern_field_dtypes"
            )
        )[: self.n_fields]
        vp = ctypes.c_void_p
        i64 = ctypes.c_int64
        lib.kern_new.restype = vp
        lib.kern_new.argtypes = []
        lib.kern_free.argtypes = [vp]
        lib.kern_free.restype = None
        lib.kern_reset.argtypes = [vp, i64]
        lib.kern_reset.restype = None
        lib.kern_arm.argtypes = [vp, i64, i64]
        lib.kern_arm.restype = None
        # (state, n, data, offs, iters, metric, done, timed_out, cum)
        lib.kern_run.argtypes = [vp, i64] + [vp] * 7
        lib.kern_run.restype = None
        # (state, n, act, rows, covout, iouts, douts, status)
        lib.kern_step.argtypes = [vp, i64] + [vp] * 6
        lib.kern_step.restype = None
        self.lib = lib

    def validate_for(self, schedule) -> None:
        layout = schedule.layout
        if self.n_probes != schedule.branch_db.n_probes:
            raise KernelBuildError(
                "kernel probe count %d != schedule %d"
                % (self.n_probes, schedule.branch_db.n_probes)
            )
        if self.tuple_size != layout.size or self.field_dtypes != tuple(
            _DTYPE_CODES[f.dtype.name] for f in layout.fields
        ):
            raise KernelBuildError("kernel input tuple layout mismatch")


class KernelProgram:
    """One instantiated native kernel (per-lane state lives in C).

    With ``threads > 1`` the lane range is partitioned into contiguous
    blocks, each backed by its *own* ``kern_new`` state struct and driven
    from its own dedicated pool thread — ctypes releases the GIL for the
    duration of ``kern_run``, so blocks execute genuinely concurrently.
    The generated C is per-state reentrant (all mutable state lives in
    the ``Model`` struct; file-level data is ``const``), which the
    reentrancy test in ``tests/test_kernel.py`` pins.  Per-lane results
    are written to disjoint offsets of shared output buffers, so any
    partition yields bit-identical per-lane outputs and the sequential
    Python-side fold is thread-count-invariant.
    """

    def __init__(self, compiled: "CompiledKernel", lanes: int, threads: int = 1):
        if not 1 <= lanes <= MAX_KERNEL_LANES:
            raise CodegenError(
                "kernel lanes must be in 1..%d, got %r"
                % (MAX_KERNEL_LANES, lanes)
            )
        if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
            raise CodegenError(
                "kernel threads must be a positive int, got %r" % (threads,)
            )
        self._compiled = compiled
        self._klib = compiled.klib
        self._lanes = lanes
        # more blocks than lanes would only idle
        self._threads = min(threads, lanes)
        self._handles = []
        for _ in range(self._threads):
            handle = self._klib.lib.kern_new()
            if not handle:  # pragma: no cover - allocation failure
                raise MemoryError("kern_new failed")
            self._handles.append(handle)
        self._handle = self._handles[0]
        self._pools: Optional[List[ThreadPoolExecutor]] = None
        #: per-block busy seconds inside kern_run (telemetry)
        self.block_busy_s = [0.0] * self._threads
        #: dispatched async batches (telemetry)
        self.dispatches = 0
        #: seconds the driving thread blocked waiting on inflight batches
        #: (pipeline stall; accumulated by the fuzz driver's finish side)
        self.stall_s = 0.0

    @property
    def threads(self) -> int:
        return self._threads

    def _block_pools(self) -> List[ThreadPoolExecutor]:
        # one single-thread executor per block: tasks for one state
        # struct serialize in submission order (batch N+1 on handle b
        # cannot start before batch N on handle b finished), while
        # distinct blocks run concurrently
        if self._pools is None:
            self._pools = [
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="kern-blk%d" % b
                )
                for b in range(self._threads)
            ]
        return self._pools

    def __del__(self):  # pragma: no cover - interpreter-shutdown noise
        pools = getattr(self, "_pools", None)
        if pools:
            try:
                for pool in pools:
                    pool.shutdown(wait=True)
            except Exception:
                pass
            self._pools = None
        handles = getattr(self, "_handles", None)
        if handles:
            try:
                for handle in handles:
                    self._klib.lib.kern_free(handle)
            except Exception:
                pass
            self._handles = []
            self._handle = None

    def reset(self) -> None:
        for handle in self._handles:
            self._klib.lib.kern_reset(handle, self._lanes)

    def arm_lanes(self) -> None:
        limit = WATCHDOG.limit
        for handle in self._handles:
            self._klib.lib.kern_arm(
                handle, self._lanes, -1 if limit is None else int(limit)
            )

    def _run_block(self, b, lo, bn, data, offs, iters, outs, limit):
        """Reset, arm and run lanes ``[lo, lo + bn)`` on block ``b``'s
        state struct.

        Runs on the block's dedicated pool thread; the reset/arm live
        here (not on the driving thread) because the block's previous
        batch may still be executing when the next one is dispatched.
        Every per-lane buffer is passed from lane ``lo`` on; ``data``
        and the offsets into it are shared by all blocks.
        """
        lib = self._klib.lib
        handle = self._handles[b]
        metric, done, timed, cum = outs
        t0 = time.perf_counter()
        lib.kern_reset(handle, bn)
        lib.kern_arm(handle, bn, -1 if limit is None else int(limit))
        lib.kern_run(
            handle,
            bn,
            data,
            ctypes.byref(offs, 8 * lo),
            ctypes.byref(iters, 8 * lo),
            ctypes.byref(metric, 8 * lo),
            ctypes.byref(done, 8 * lo),
            ctypes.byref(timed, lo),
            ctypes.byref(cum, lo * self._klib.n_probes),
        )
        self.block_busy_s[b] += time.perf_counter() - t0

    def run_async(self, n, data, offs, iters, limit):
        """Dispatch ``n`` lanes across the thread blocks; returns a
        ``wait()`` callable yielding ``(metric, done, timed_out, cum)``.

        ``data`` holds the lanes' byte streams joined; lane ``l`` runs
        ``iters[l]`` tuples from byte ``offs[l]`` on (both ``c_int64``
        arrays).  ``limit`` is the watchdog step budget (``None``:
        unarmed), sampled by the caller on the driving thread so arming
        keeps the scalar engine's per-batch semantics.  The one batch
        path at every thread count: each block resets and arms its own
        state struct before running (:meth:`_run_block`), so callers do
        neither.  Results come back in ctypes buffers, in input lane
        order regardless of partition; ``cum`` holds ``n_probes`` bytes
        per lane.
        """
        outs = (
            (ctypes.c_int64 * n)(),
            (ctypes.c_int64 * n)(),
            (ctypes.c_uint8 * n)(),
            (ctypes.c_uint8 * max(n * self._klib.n_probes, 1))(),
        )
        nb = min(self._threads, n)
        pools = self._block_pools()
        base, rem = divmod(n, nb)
        futures = []
        lo = 0
        for b in range(nb):
            bn = base + (1 if b < rem else 0)
            futures.append(
                pools[b].submit(
                    self._run_block, b, lo, bn, data, offs, iters, outs, limit
                )
            )
            lo += bn
        self.dispatches += 1

        def wait():
            for fut in futures:
                fut.result()
            return outs

        return wait

    def step_row(self, rows):
        """One lockstep iteration across lanes (differential harness).

        ``rows`` holds one tuple's bytes per lane, or ``None`` for a lane
        that sits the step out.  Returns one ``(status, probe bytes,
        outputs)`` triple per lane; status 0 = stepped, 1 = watchdog
        timeout, 2 = inactive lane.
        """
        klib = self._klib
        n = len(rows)
        size, np_, n_out = klib.tuple_size, klib.n_probes, klib.n_out
        if n > self._lanes:
            raise ValueError("%d rows exceed %d lanes" % (n, self._lanes))
        if any(row is not None and len(row) != size for row in rows):
            raise ValueError("step_row takes one %d-byte tuple per lane" % size)
        idle = bytes(size)
        data = b"".join(idle if row is None else row for row in rows)
        cov = (ctypes.c_uint8 * max(n * np_, 1))()
        iouts = (ctypes.c_int64 * max(n * n_out, 1))()
        douts = (ctypes.c_double * max(n * n_out, 1))()
        status = (ctypes.c_uint8 * n)()
        klib.lib.kern_step(
            self._handle,
            n,
            bytes(row is not None for row in rows),
            data,
            cov,
            iouts,
            douts,
            status,
        )
        cov = bytes(cov)
        return [
            (
                status[l],
                cov[l * np_ : (l + 1) * np_],
                tuple(
                    (douts if kind else iouts)[l * n_out + j]
                    for j, kind in enumerate(klib.out_kinds)
                ),
            )
            for l in range(n)
        ]


class CompiledKernel:
    """A built + loaded native kernel for one model schedule."""

    def __init__(
        self,
        schedule,
        level: str,
        klib: _KernelLib,
        c_source: Optional[str] = None,
        optimized: bool = True,
        from_cache: Optional[str] = None,
    ):
        self.schedule = schedule
        self.level = level
        self.klib = klib
        self.c_source = c_source
        self.optimized = optimized
        self.from_cache = from_cache

    @property
    def branch_db(self):
        return self.schedule.branch_db

    @property
    def out_kinds(self):
        return self.klib.out_kinds

    def instantiate_kernel(self, lanes: int, threads: int = 1) -> KernelProgram:
        program = KernelProgram(self, lanes, threads)
        program.reset()
        return program


# key -> CompiledKernel; the in-process memory tier of the kernel cache
# (dlopen handles cannot be marshalled, so this mirrors CompileCache's
# memory tier rather than living inside it)
_LOADED: Dict[str, CompiledKernel] = {}


def clear_kernel_memory() -> None:
    """Drop the in-process kernel handle cache (tests)."""
    _LOADED.clear()


def compile_kernel(compiled, cache: bool = True) -> CompiledKernel:
    """Lower, build and load the fused native kernel for a compiled model.

    ``compiled`` is the :class:`~repro.codegen.compile.CompiledModel`
    the scalar engine runs: the kernel lowers its ``source`` as is, and
    takes the schedule, level and optimize flag from it, so a cold build
    generates and optimizes the model once, in ``compile_model``.  With
    ``cache`` the built kernel is stored under the model's kernel slot,
    ``cache_key(model, level, optimized, kernel=KERNEL_ABI_VERSION)``.

    Raises :class:`Unloweable` when the generated module uses constructs
    the C lowering cannot prove bit-exact, and :class:`KernelBuildError`
    when no C compiler is available or the build fails; callers degrade
    to the scalar engine on either.
    """
    schedule = compiled.schedule
    level = compiled.level
    optimize = compiled.optimized
    tel = get_telemetry()
    store = default_cache() if cache else None
    key = None
    if store is not None:
        try:
            key = cache_key(
                schedule.model, level, optimize, kernel=KERNEL_ABI_VERSION
            )
        except Uncacheable:
            store = None
    if key is not None:
        hit = _LOADED.get(key)
        if hit is not None:
            if tel.enabled:
                tel.emit(
                    "compile_cache", tier="memory", level=level,
                    backend="kernel",
                )
            return CompiledKernel(
                schedule,
                level,
                hit.klib,
                c_source=hit.c_source,
                optimized=optimize,
                from_cache="memory",
            )
    if store is not None and key is not None:
        c_path, so_path = store.native_paths(key)
        if os.path.exists(so_path):
            try:
                if _should_fire("cache_corrupt"):
                    raise KernelBuildError(
                        "injected kernel cache corruption"
                    )
                klib = _KernelLib(so_path)
                klib.validate_for(schedule)
            except Exception as exc:
                # a stale/foreign/truncated .so is poison: quarantine it
                # and fall through to a fresh build under the same key
                store.quarantine(key, exc)
            else:
                c_source = None
                try:
                    with open(c_path, "r") as fh:
                        c_source = fh.read()
                except OSError:
                    pass
                compiled = CompiledKernel(
                    schedule,
                    level,
                    klib,
                    c_source=c_source,
                    optimized=optimize,
                    from_cache="disk",
                )
                _LOADED[key] = compiled
                if tel.enabled:
                    tel.emit(
                        "compile_cache", tier="disk", level=level,
                        backend="kernel",
                    )
                return compiled

    if tel.enabled and cache:
        tel.emit(
            "compile_cache", tier="miss", level=level, backend="kernel"
        )
    with tel.phase("kernel_lower"):
        c_source = lower_kernel_source(schedule, compiled.source)
    temp_dir = None
    if store is not None and key is not None:
        c_path, so_path = store.native_paths(key)
        build_dir = os.path.dirname(so_path)
        os.makedirs(build_dir, exist_ok=True)
    else:
        # an uncached build's directory goes once its .so is loaded (a
        # dlopened library stays mapped) or its build has failed
        build_dir = temp_dir = tempfile.mkdtemp(prefix="repro-kernel-")
        c_path = os.path.join(build_dir, "kernel.c")
        so_path = os.path.join(build_dir, "kernel.so")
    try:
        fd, tmp_c = tempfile.mkstemp(dir=build_dir, suffix=".c")
        with os.fdopen(fd, "w") as fh:
            fh.write(c_source)
        fd, tmp_so = tempfile.mkstemp(dir=build_dir, suffix=".so")
        os.close(fd)
        os.unlink(tmp_so)
        try:
            with tel.phase("kernel_cc"):
                build_shared_object(tmp_c, tmp_so)
            os.replace(tmp_c, c_path)
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        klib = _KernelLib(so_path)
        klib.validate_for(schedule)
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    compiled = CompiledKernel(
        schedule, level, klib, c_source=c_source, optimized=optimize
    )
    if key is not None:
        _LOADED[key] = compiled
    return compiled


# --------------------------------------------------------------------- #
# the kernel fuzz driver
# --------------------------------------------------------------------- #
def compile_kernel_fuzz_driver(schedule):
    """Build ``fuzz_test_kernel(program, cov, batch, total_int)``.

    ``cov`` is accepted and ignored — the kernel owns its probe buffers;
    ``batch`` is a list of byte streams, the return value is one
    ``(metric, found_new, total_int, iterations, timeout_exc)`` tuple per
    stream with the scalar engine's sequential accounting.  The
    ``start``/``finish`` attributes split the call into an asynchronous
    dispatch and a sequential fold.
    """
    tuple_size = schedule.layout.size
    n_probes = schedule.branch_db.n_probes

    def start(program, batch):
        """Join ``batch`` and dispatch it to the kernel asynchronously.

        Returns an opaque ``(wait, watchdog limit, lanes used)`` handle
        for :func:`finish`.  The streams cross into C as raw bytes, and
        the kernel call releases the GIL, so after ``start`` returns the
        driving thread can mutate/clamp/join the *next* batch while this
        one executes.
        """
        n = len(batch)
        if n == 0:
            return None
        if n > program._lanes:
            raise ValueError(
                "batch of %d exceeds %d lanes" % (n, program._lanes)
            )
        lens = [len(data) for data in batch]
        offs = (ctypes.c_int64 * n)()
        offs[:] = list(accumulate(lens[:-1], initial=0))
        iters = (ctypes.c_int64 * n)()
        iters[:] = [size // tuple_size for size in lens]
        limit = WATCHDOG.limit
        wait = program.run_async(n, b"".join(batch), offs, iters, limit)
        return (wait, limit, n)

    def finish(program, handle, total_int):
        """Wait for a dispatched batch and fold it sequentially.

        The fold visits lanes in submission order threading ``running``
        exactly like the scalar engine, so corpus admission and suite
        digests are bit-identical at any thread count.
        """
        if handle is None:
            return []
        wait, limit, n = handle
        t0 = time.perf_counter()
        metric, done, timed, cum = wait()
        program.stall_s += time.perf_counter() - t0
        cum = bytes(cum)
        results = []
        running = total_int
        for l in range(n):
            cum_l = int.from_bytes(
                cum[l * n_probes : (l + 1) * n_probes], "little"
            )
            found = bool(cum_l & ~running)
            running |= cum_l
            texc = None
            if timed[l]:
                texc = WatchdogTimeout(
                    "generated code exceeded the %d-step execution budget"
                    % (limit or 0)
                )
            results.append((metric[l], found, running, done[l], texc))
        return results

    def fuzz_test_kernel(program, cov, batch, total_int):
        return finish(program, start(program, batch), total_int)

    # the engine's execution loop drives the two halves directly
    fuzz_test_kernel.start = start
    fuzz_test_kernel.finish = finish
    return fuzz_test_kernel
