import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ternsim.core import (BIT_CODES, BitPair, INDETERMINATE, InvalidEncoding,
                          LEVELS, REGIONS, TernaryLevel, VoltageBands,
                          as_level, decode_2bit, encode_2bit, level_to_voltage,
                          levels_of, ref_nti, ref_pti, ref_sti, ref_tand,
                          ref_tor, voltage_to_level)

L0, L1, L2 = LEVELS


class TestLevels:
    def test_total_order(self):
        assert L0 < L1 < L2
        assert sorted([L2, L0, L1]) == [L0, L1, L2]

    def test_level_to_voltage_rails(self):
        assert level_to_voltage(L1, 1.0) == 0.5
        assert level_to_voltage(L0, 1.0) == 0.0
        assert level_to_voltage(L2, 1.2) == 1.2

    def test_level_to_voltage_rejects_bad_vdd(self):
        with pytest.raises(ValueError):
            level_to_voltage(L0, 0.0)

    @pytest.mark.parametrize("vdd", [-1.0, math.nan, math.inf])
    def test_level_to_voltage_rejects_negative_or_non_finite_vdd(self, vdd):
        with pytest.raises(ValueError, match="vdd must be finite"):
            level_to_voltage(L0, vdd)

    @pytest.mark.parametrize("level", [-1, 3, 7, 2.9, 0.5, "L1", None])
    def test_level_to_voltage_rejects_non_levels(self, level):
        with pytest.raises(ValueError, match="not a ternary level"):
            level_to_voltage(level, 1.0)


class TestLevelCheck:
    """``as_level`` and ``levels_of`` are the one definition of a level."""

    @pytest.mark.parametrize("value,level", [
        (0, L0), (1, L1), (2, L2), (L2, L2), (1.0, L1), (np.int64(2), L2)])
    def test_as_level_accepts_levels(self, value, level):
        got = as_level(value)
        assert got is level and type(got) is TernaryLevel

    @pytest.mark.parametrize("value", [
        3, -1, 1.5, math.nan, "2", None, [1], BitPair(0, 1), np.array([1])])
    def test_as_level_rejects_non_levels(self, value):
        with pytest.raises(ValueError) as e:
            as_level(value)
        assert str(e.value) == f"{value!r} is not a ternary level"

    def test_levels_of_in_port_order(self):
        assert levels_of({"B": 2, "A": L0}, ("A", "B"), "n") == [L0, 2]
        assert levels_of({}, (), "n") == []

    @pytest.mark.parametrize("inputs,message", [
        ({"A": 0, "B": 0, "C": 9}, "unknown input port 'C' of 'n'"),
        ({"A": 9, "C": 0}, "unknown input port 'C' of 'n'"),
        ({"A": 9}, "missing input port 'B' of 'n'"),
        ({"B": 0}, "missing input port 'A' of 'n'"),
        ({"A": 0, "B": 3}, "input port 'B' of 'n': 3 is not a ternary level"),
        ({"A": [1], "B": 3},
         "input port 'A' of 'n': [1] is not a ternary level"),
    ])
    def test_levels_of_names_the_first_bad_port(self, inputs, message):
        # An unknown port is named first, then a missing one, then a value.
        with pytest.raises(ValueError) as e:
            levels_of(inputs, ("A", "B"), "n")
        assert str(e.value) == message


class TestBands:
    def test_default_bands(self):
        b = VoltageBands.default(1.0)
        assert (b.lo_max, b.mid_lo, b.mid_hi, b.hi_min) == (0.2, 0.4, 0.6, 0.8)

    def test_quantize(self):
        b = VoltageBands.default(1.0)
        assert voltage_to_level(0.50, b) == L1
        assert voltage_to_level(0.98, b) == L2
        assert voltage_to_level(0.33, b) is INDETERMINATE

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            VoltageBands(vdd=1.0, lo_max=0.5, mid_lo=0.4, mid_hi=0.6, hi_min=0.8)

    # Each band edge, and one ulp past it, with the region it reads as.
    # Edges belong to their band; the guard gaps are open.
    EDGES = [
        ("lo_max", 0.0, "L0"), ("lo_max", 1.0, "gap01"),
        ("mid_lo", 0.0, "L1"), ("mid_lo", -1.0, "gap01"),
        ("mid_hi", 0.0, "L1"), ("mid_hi", 1.0, "gap12"),
        ("hi_min", 0.0, "L2"), ("hi_min", -1.0, "gap12"),
    ]

    @staticmethod
    def edge_voltage(bands, edge, direction):
        v = getattr(bands, edge)
        return v if direction == 0.0 else float(np.nextafter(v, direction))

    @pytest.mark.parametrize("edge,direction,region", EDGES)
    def test_band_edges(self, edge, direction, region):
        b = VoltageBands.default(1.0)
        v = self.edge_voltage(b, edge, direction)
        assert b.region(v) == region
        want = {"L0": L0, "L1": L1, "L2": L2}.get(region, INDETERMINATE)
        assert voltage_to_level(v, b) is want

    def test_codes_index_regions(self):
        b = VoltageBands.default(1.0)
        volts = [self.edge_voltage(b, e, d) for e, d, _ in self.EDGES]
        codes = b.codes(np.array(volts).reshape(2, 4))
        assert codes.shape == (2, 4)
        assert [REGIONS[c] for c in codes.ravel()] == [r for *_, r in self.EDGES]
        assert [b.region(v) for v in volts] == [r for *_, r in self.EDGES]

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_voltage_has_no_level(self, v):
        b = VoltageBands.default(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            b.region(v)
        with pytest.raises(ValueError, match="non-finite"):
            voltage_to_level(v, b)
        with pytest.raises(ValueError, match="non-finite"):
            b.codes(np.array([0.5, v]))

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_voltage_roundtrip_any_vdd(self, vdd):
        b = VoltageBands.default(vdd)
        for lv in LEVELS:
            assert voltage_to_level(level_to_voltage(lv, vdd), b) == lv


class TestTwoBitEncoding:
    def test_codes(self):
        assert encode_2bit(L2) == BitPair(1, 0)
        assert decode_2bit(BitPair(0, 1)) == L1

    def test_reserved_code(self):
        with pytest.raises(InvalidEncoding):
            decode_2bit(BitPair(1, 1))

    def test_roundtrip(self):
        for lv in LEVELS:
            assert decode_2bit(encode_2bit(lv)) is lv
            code = encode_2bit(lv)
            assert decode_2bit(BitPair(code.hi, code.lo)) is lv

    def test_encode_returns_canonical_instance(self):
        for lv in LEVELS:
            assert encode_2bit(lv) is encode_2bit(lv) is BIT_CODES[lv]
            assert encode_2bit(int(lv)) is BIT_CODES[lv]

    @pytest.mark.parametrize("value", [-1, 3, 0.5, math.nan, None, "1", [1]])
    def test_encode_rejects_non_levels(self, value):
        # -1 used to index L2's code and 3 to raise IndexError.
        with pytest.raises(ValueError) as e:
            encode_2bit(value)
        assert str(e.value) == f"{value!r} is not a ternary level"

    def test_bitpair_validates_bits(self):
        with pytest.raises(ValueError):
            BitPair(2, 0)


class TestInverters:
    def test_sti_table(self):
        assert [ref_sti(x) for x in LEVELS] == [L2, L1, L0]

    def test_nti_table(self):
        assert [ref_nti(x) for x in LEVELS] == [L2, L0, L0]

    def test_pti_table(self):
        assert [ref_pti(x) for x in LEVELS] == [L2, L2, L0]

    def test_sti_involution(self):
        for x in LEVELS:
            assert ref_sti(ref_sti(x)) == x

    def test_inverters_agree_on_rails(self):
        for x in (L0, L2):
            assert ref_nti(x) == ref_sti(x)
            assert ref_pti(x) == ref_sti(x)


class TestMinMaxGates:
    def test_examples(self):
        assert ref_tand(L2, L1) == L1
        assert ref_tor(L0, L0) == L0
        assert ref_tor(L2, L1) == L2

    def test_commutative_idempotent(self):
        for a, b in itertools.product(LEVELS, repeat=2):
            assert ref_tand(a, b) == ref_tand(b, a)
            assert ref_tor(a, b) == ref_tor(b, a)
        for a in LEVELS:
            assert ref_tand(a, a) == a
            assert ref_tor(a, a) == a

    def test_associative(self):
        for a, b, c in itertools.product(LEVELS, repeat=3):
            assert ref_tand(ref_tand(a, b), c) == ref_tand(a, ref_tand(b, c))
            assert ref_tor(ref_tor(a, b), c) == ref_tor(a, ref_tor(b, c))

    def test_identities(self):
        for a in LEVELS:
            assert ref_tand(a, L2) == a
            assert ref_tor(a, L0) == a

    def test_de_morgan(self):
        for a, b in itertools.product(LEVELS, repeat=2):
            assert ref_sti(ref_tand(a, b)) == ref_tor(ref_sti(a), ref_sti(b))
