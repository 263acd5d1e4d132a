"""Ternary value domain: logic levels, voltage/binary encodings, reference gates.

The logic family is unbalanced positive ternary: levels 0, 1, 2 map onto the
voltage rails GND, VDD/2 and VDD.  Every gate in the cell library has a pure
functional reference defined here (``ref_sti`` .. ``ref_tor``); both simulator
backends are verified against these functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np


class TernaryLevel(enum.IntEnum):
    """One of the three logic levels, totally ordered L0 < L1 < L2."""

    L0 = 0
    L1 = 1
    L2 = 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


L0, L1, L2 = TernaryLevel.L0, TernaryLevel.L1, TernaryLevel.L2
LEVELS = (L0, L1, L2)
_LEVEL_OF = {lv: lv for lv in LEVELS}
_LEVEL_SET = frozenset(LEVELS)


def as_level(value) -> TernaryLevel:
    """``value`` as a TernaryLevel; ValueError if it is not 0, 1 or 2."""
    try:
        return _LEVEL_OF[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"{value!r} is not a ternary level") from None


def levels_of(inputs: Mapping, names, owner: str) -> list:
    """The levels ``inputs`` gives the ports ``names``, in that order.  A
    ValueError names an extra port, else a missing one, else a non-level."""
    try:
        levels = [inputs[name] for name in names]
        if len(levels) == len(inputs) and _LEVEL_SET.issuperset(levels):
            return levels
    except (KeyError, TypeError):  # a port left out, or an unhashable value
        pass
    check_ports(inputs, names, owner)
    for name in names:
        try:
            as_level(inputs[name])
        except ValueError as exc:
            raise ValueError(f"input port {name!r} of {owner!r}: {exc}") from None
    return levels


def check_ports(given, names, owner: str) -> None:
    """ValueError naming a port of ``given`` that is not in ``names``, else
    one of ``names`` that is not in ``given``."""
    for port in (*given, *names):  # a port in one but not the other
        if (port in given) != (port in names):
            raise ValueError(f"{'unknown' if port in given else 'missing'} "
                             f"input port {port!r} of {owner!r}")


class Indeterminate:
    """Analog value that falls between quantization bands.

    Representable so glitch analysis can talk about it, but never a legal
    steady-state value in verification.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Indeterminate"


INDETERMINATE = Indeterminate()

Quantized = Union[TernaryLevel, Indeterminate]

# Quantization regions in voltage order; ``VoltageBands.codes`` indexes them.
REGIONS = ("L0", "gap01", "L1", "gap12", "L2")
# The value each region quantizes to.
REGION_LEVELS = (L0, INDETERMINATE, L1, INDETERMINATE, L2)


class InvalidEncoding(ValueError):
    """Raised when decoding the reserved two-bit code 11."""


@dataclass(frozen=True)
class BitPair:
    """Two-bit ternary code: (0, 1, 2) = (00, 01, 10).  Code 11 is reserved."""

    hi: int
    lo: int

    def __post_init__(self):
        if self.hi not in (0, 1) or self.lo not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({self.hi}, {self.lo})")

    def __str__(self) -> str:
        return f"{self.hi}{self.lo}"


@dataclass(frozen=True)
class VoltageBands:
    """Decision bands used to quantize analog node voltages back to levels.

    Voltages in [0, lo_max] read as L0, [mid_lo, mid_hi] as L1 and
    [hi_min, vdd] as L2; anything in the two guard gaps is Indeterminate.
    """

    vdd: float
    lo_max: float
    mid_lo: float
    mid_hi: float
    hi_min: float

    def __post_init__(self):
        if not (0.0 <= self.lo_max < self.mid_lo < self.mid_hi < self.hi_min <= self.vdd):
            raise ValueError(f"bands must be ordered and disjoint: {self}")

    @classmethod
    def default(cls, vdd: float = 1.0) -> "VoltageBands":
        # Symmetric 20% guard bands around the three nominal rails.
        return cls(vdd=vdd, lo_max=0.2 * vdd, mid_lo=0.4 * vdd,
                   mid_hi=0.6 * vdd, hi_min=0.8 * vdd)

    def codes(self, v) -> np.ndarray:
        """Region index of each voltage in ``v``: 0..4 into ``REGIONS``.

        Band edges belong to their band; the guard gaps are open.  Raises
        ValueError on a non-finite voltage, which reads as no level.
        """
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("cannot quantize a non-finite voltage")
        return ((v > self.lo_max).astype(np.intp) + (v >= self.mid_lo)
                + (v > self.mid_hi) + (v >= self.hi_min))

    def region(self, v: float) -> str:
        """Classify a voltage into one of five regions: L0|gap01|L1|gap12|L2."""
        return REGIONS[int(self.codes(v))]


def level_to_voltage(level: TernaryLevel, vdd: float) -> float:
    """Map a logic level onto its nominal rail: L0=0, L1=vdd/2, L2=vdd."""
    if not 0 < vdd < math.inf:
        raise ValueError(f"vdd must be finite and positive, got {vdd}")
    return (0.0, vdd / 2.0, vdd)[as_level(level)]


def voltage_to_level(v: float, bands: VoltageBands) -> Quantized:
    """Quantize a node voltage; values in the guard gaps are Indeterminate."""
    return REGION_LEVELS[int(bands.codes(v))]


# The canonical code of each level, indexed by level.
BIT_CODES = (BitPair(0, 0), BitPair(0, 1), BitPair(1, 0))


def encode_2bit(level: TernaryLevel) -> BitPair:
    """The level's two-bit code; ValueError for a value that is not a level."""
    return BIT_CODES[as_level(level)]


def decode_2bit(b: BitPair) -> TernaryLevel:
    if b.hi and b.lo:
        raise InvalidEncoding("two-bit code 11 is reserved")
    return LEVELS[2 * b.hi + b.lo]


# Reference (functional) gate semantics.  The three inverters differ only in
# how they treat the middle level; TAND/TOR are min/max under L0 < L1 < L2.

def ref_sti(a: TernaryLevel) -> TernaryLevel:
    """Standard ternary inverter: 0->2, 1->1, 2->0 (an involution)."""
    return TernaryLevel(2 - int(a))


def ref_nti(a: TernaryLevel) -> TernaryLevel:
    """Negative ternary inverter: only a hard 0 input reads as low."""
    return L2 if a == L0 else L0


def ref_pti(a: TernaryLevel) -> TernaryLevel:
    """Positive ternary inverter: everything below a hard 2 reads as low."""
    return L0 if a == L2 else L2


def ref_tand(a: TernaryLevel, b: TernaryLevel) -> TernaryLevel:
    return min(a, b)


def ref_tor(a: TernaryLevel, b: TernaryLevel) -> TernaryLevel:
    return max(a, b)
