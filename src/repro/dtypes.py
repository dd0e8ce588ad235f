"""Data type system for model signals.

Mirrors the Simulink numeric types that embedded control models use:
fixed-width integers (``int8`` .. ``uint32``), IEEE floats (``single``,
``double``) and ``boolean``.  Values are stored as plain Python ``int`` /
``float`` / ``bool`` objects, but every typed assignment goes through
:func:`wrap` so integer arithmetic matches C's two's-complement behaviour —
the same behaviour the paper's generated C code exhibits.

The byte layout functions (:meth:`DType.pack` / :meth:`DType.unpack`) define
how inport fields map onto the fuzzer's binary byte stream (little-endian,
exactly like the ``memcpy`` calls in the paper's Figure 3 fuzz driver).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .errors import TypeError_

__all__ = [
    "DType",
    "INT8",
    "INT16",
    "INT32",
    "UINT8",
    "UINT16",
    "UINT32",
    "BOOLEAN",
    "SINGLE",
    "DOUBLE",
    "ALL_DTYPES",
    "dtype_by_name",
    "wrap",
    "saturate_cast",
    "common_dtype",
]


@dataclass(frozen=True)
class DType:
    """A scalar signal data type.

    Attributes:
        name: canonical Simulink-style name, e.g. ``"int32"``.
        size: storage size in bytes (what one field contributes to a tuple).
        kind: one of ``"int"``, ``"uint"``, ``"float"``, ``"bool"``.
        fmt: ``struct`` format character (little-endian is applied by pack).
    """

    name: str
    size: int
    kind: str
    fmt: str

    # ------------------------------------------------------------------ #
    # classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_integer(self) -> bool:
        return self.kind in ("int", "uint")

    @property
    def is_signed(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_bool(self) -> bool:
        return self.kind == "bool"

    # ------------------------------------------------------------------ #
    # value range
    # ------------------------------------------------------------------ #
    @property
    def min_value(self):
        """Smallest representable value (floats: most negative finite)."""
        if self.kind == "int":
            return -(1 << (8 * self.size - 1))
        if self.kind == "uint":
            return 0
        if self.kind == "bool":
            return 0
        if self.name == "single":
            return -3.4028234663852886e38
        return -1.7976931348623157e308

    @property
    def max_value(self):
        """Largest representable value."""
        if self.kind == "int":
            return (1 << (8 * self.size - 1)) - 1
        if self.kind == "uint":
            return (1 << (8 * self.size)) - 1
        if self.kind == "bool":
            return 1
        if self.name == "single":
            return 3.4028234663852886e38
        return 1.7976931348623157e308

    # ------------------------------------------------------------------ #
    # byte stream layout (fuzz driver <-> tuple fields)
    # ------------------------------------------------------------------ #
    def pack(self, value) -> bytes:
        """Pack ``value`` into ``size`` little-endian bytes."""
        value = wrap(value, self)
        return struct.pack("<" + self.fmt, value)

    def unpack(self, data: bytes, offset: int = 0):
        """Unpack one value from ``data`` at ``offset``.

        This is the Python analogue of the fuzz driver's ``memcpy`` into a
        typed inport variable.
        """
        raw = struct.unpack_from("<" + self.fmt, data, offset)[0]
        if self.kind == "bool":
            return 1 if raw else 0
        if self.is_float:
            # NaN inputs would poison comparisons in control logic in ways a
            # real plant never produces; clamp them to 0 like a limiter would.
            if math.isnan(raw):
                return 0.0
            return float(raw)
        return int(raw)

    def zero(self):
        """The type's zero / default initial value."""
        if self.is_float:
            return 0.0
        return 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


INT8 = DType("int8", 1, "int", "b")
INT16 = DType("int16", 2, "int", "h")
INT32 = DType("int32", 4, "int", "i")
UINT8 = DType("uint8", 1, "uint", "B")
UINT16 = DType("uint16", 2, "uint", "H")
UINT32 = DType("uint32", 4, "uint", "I")
BOOLEAN = DType("boolean", 1, "bool", "B")
SINGLE = DType("single", 4, "float", "f")
DOUBLE = DType("double", 8, "float", "d")

ALL_DTYPES = (
    INT8,
    INT16,
    INT32,
    UINT8,
    UINT16,
    UINT32,
    BOOLEAN,
    SINGLE,
    DOUBLE,
)

_BY_NAME = {dt.name: dt for dt in ALL_DTYPES}
# Aliases seen in Simulink dialogs / generated code.
_BY_NAME["bool"] = BOOLEAN
_BY_NAME["float32"] = SINGLE
_BY_NAME["float64"] = DOUBLE
_BY_NAME["float"] = SINGLE
_BY_NAME["real"] = DOUBLE


def dtype_by_name(name: str) -> DType:
    """Look up a data type by its canonical name or a common alias."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise TypeError_("unknown data type: %r" % (name,)) from None


def wrap(value, dtype: DType):
    """Coerce ``value`` into ``dtype`` with C semantics.

    Integers wrap modulo 2^N (two's complement); booleans collapse to 0/1;
    ``single`` round-trips through 32-bit storage so it loses precision
    exactly like the generated C code's ``float`` variables, and a finite
    value beyond float32 range becomes infinity as C's cast does.
    """
    if dtype.is_bool:
        return 1 if value else 0
    if dtype.is_integer:
        bits = 8 * dtype.size
        ivalue = int(value)
        ivalue &= (1 << bits) - 1
        if dtype.is_signed and ivalue >= (1 << (bits - 1)):
            ivalue -= 1 << bits
        return ivalue
    fvalue = float(value)
    if dtype.name == "single":
        if math.isinf(fvalue) or math.isnan(fvalue):
            return fvalue
        try:
            return struct.unpack("<f", struct.pack("<f", fvalue))[0]
        except OverflowError:
            # pack raises exactly where C's (float)fvalue is +-inf
            return math.copysign(math.inf, fvalue)
    return fvalue


def saturate_cast(value, dtype: DType):
    """Cast ``value`` to ``dtype`` with saturation instead of wrapping.

    Matches Simulink's "saturate on integer overflow" block option, which
    the benchmark models use for limiter-style conversions.
    """
    if dtype.is_bool:
        return 1 if value else 0
    if dtype.is_float:
        return wrap(value, dtype)
    if isinstance(value, float):
        if math.isnan(value):
            return 0
        value = int(value)
    lo, hi = dtype.min_value, dtype.max_value
    if value < lo:
        return lo
    if value > hi:
        return hi
    return int(value)


def common_dtype(a: DType, b: DType) -> DType:
    """The result type of arithmetic mixing ``a`` and ``b``.

    A simplified version of C's usual arithmetic conversions, sufficient
    for the scalar control-model blocks: any float operand promotes the
    result to the wider float; otherwise the wider (or unsigned-preferring)
    integer wins; booleans act as ``uint8``.
    """
    if a.is_float or b.is_float:
        if DOUBLE in (a, b):
            return DOUBLE
        if a.is_float and b.is_float:
            return SINGLE
        return a if a.is_float else b
    ra = UINT8 if a.is_bool else a
    rb = UINT8 if b.is_bool else b
    if ra.size != rb.size:
        return ra if ra.size > rb.size else rb
    if ra.kind == rb.kind:
        return ra
    # same size, mixed signedness -> unsigned (C promotion rule)
    return ra if ra.kind == "uint" else rb
