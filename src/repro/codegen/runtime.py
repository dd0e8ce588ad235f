"""Runtime support injected into generated modules.

Generated code never imports anything: every helper it references —
type-wrapping functions, safe arithmetic, mini-language builtins — is
placed in the module globals by :func:`runtime_globals`.  Wrappers are
specialized per type for speed; the generated step function is the hot
loop of the whole fuzzer (the paper reports >26 000 iterations/s, and the
compiled-code speed advantage is the paper's core mechanism).
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict

from ..dtypes import DType, saturate_cast
from ..faults.watchdog import WATCHDOG
from ..lang.ops import BUILTIN_IMPLS, safe_div, safe_mod

__all__ = ["runtime_globals", "wrapper_name", "sat_name"]

_PACK_F = struct.Struct("<f")


def _make_int_wrapper(bits: int, signed: bool) -> Callable:
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits
    if signed:

        def wrap_signed(value):
            value = int(value) & mask
            return value - full if value >= half else value

        return wrap_signed

    def wrap_unsigned(value):
        return int(value) & mask

    return wrap_unsigned


def _wrap_boolean(value):
    return 1 if value else 0


def _wrap_single(value):
    value = float(value)
    if value != value or value in (math.inf, -math.inf):
        return value
    try:
        return _PACK_F.unpack(_PACK_F.pack(value))[0]
    except OverflowError:
        # pack raises exactly where C's (float)value is +-inf
        return math.copysign(math.inf, value)


def _wrap_double(value):
    return float(value)


_WRAPPERS = {
    "int8": _make_int_wrapper(8, True),
    "int16": _make_int_wrapper(16, True),
    "int32": _make_int_wrapper(32, True),
    "uint8": _make_int_wrapper(8, False),
    "uint16": _make_int_wrapper(16, False),
    "uint32": _make_int_wrapper(32, False),
    "boolean": _wrap_boolean,
    "single": _wrap_single,
    "double": _wrap_double,
}


def wrapper_name(dtype: DType) -> str:
    """Name of the wrapping helper for ``dtype`` in generated globals."""
    return "_w_%s" % dtype.name


def sat_name(dtype: DType) -> str:
    """Name of the saturating-cast helper for ``dtype``."""
    return "_sat_%s" % dtype.name


def _make_sat(dtype: DType) -> Callable:
    def sat(value, _dt=dtype):
        return saturate_cast(value, _dt)

    return sat


def _mcdc_adders(hook, n_groups):
    """Per-group MCDC sinks for the optimizer's prebound call sites.

    The optimizer rewrites ``_mcdc(g, v, o)`` statements into
    ``_mcdc_a{g}((v, o))`` against this table (see
    ``repro.codegen.optimize._McdcPrebinder``).  For the stock recorder
    hook the sink is the group set's bound ``set.add`` — a C call with no
    Python frame.  Any other callable is bridged through a closure with
    identical semantics, and ``None`` stays ``None`` so a missing hook
    fails on first use exactly like the legacy ``_mcdc(...)`` call.
    """
    from ..coverage.recorder import CoverageRecorder

    if getattr(hook, "__func__", None) is CoverageRecorder.record_mcdc:
        return tuple(vectors.add for vectors in hook.__self__.mcdc_vectors)
    if hook is None:
        return (None,) * n_groups

    def _bridge(group):
        def add(vector_outcome):
            hook(group, vector_outcome[0], vector_outcome[1])

        return add

    return tuple(_bridge(group) for group in range(n_groups))


def runtime_globals() -> Dict[str, object]:
    """Fresh globals dict for executing one generated module."""
    from ..model.blocks.lookup import interp1d, interp2d

    env: Dict[str, object] = {
        "_safe_div": safe_div,
        "_safe_mod": safe_mod,
        "_lookup1d": interp1d,
        "_lookup2d": interp2d,
        "_mcdc_adders": _mcdc_adders,
        # while-loop bodies call this once per iteration; a bound C-method
        # no-op when the watchdog is disarmed, raises WatchdogTimeout when
        # an armed budget runs out (see repro.faults.watchdog)
        "_wd_tick": WATCHDOG.tick,
    }
    for name, impl in BUILTIN_IMPLS.items():
        env["_f_%s" % name] = impl
    for type_name, wrapper in _WRAPPERS.items():
        env["_w_%s" % type_name] = wrapper
    from ..dtypes import ALL_DTYPES

    for dtype in ALL_DTYPES:
        env[sat_name(dtype)] = _make_sat(dtype)
    return env
