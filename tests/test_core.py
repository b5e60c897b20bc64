"""Core arithmetic: dimension formulas, intersection pairing, text form."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.core import (LinearSystem, SystemParseError, arithmetic_genus,
                            canonical_intersect, expected_dim, format_system, intersect,
                            parse_system, virtual_dim)


def L(text):
    return parse_system(text)


systems = st.builds(
    lambda d, mults: LinearSystem(d, tuple(mults)),
    st.integers(0, 40),
    st.lists(st.integers(0, 12), max_size=10),
)


class TestVirtualDim:
    def test_table_values(self):
        assert virtual_dim(L("L(10,2,6^3)")) == -1
        assert virtual_dim(L("L(24,16,6^9)")) == -1

    def test_no_points(self):
        assert virtual_dim(L("L(0)")) == 0

    def test_arbitrarily_negative(self):
        assert virtual_dim(L("L(0,6^4)")) == -84


class TestExpectedDim:
    def test_clamped_at_minus_one(self):
        assert virtual_dim(L("L(10,8,6^2)")) == -13
        assert expected_dim(L("L(10,8,6^2)")) == -1

    def test_positive(self):
        assert virtual_dim(L("L(14,0,6^5)")) == 14
        assert expected_dim(L("L(14,0,6^5)")) == 14

    def test_zero_boundary(self):
        sys = L("L(2,1^5)")
        assert virtual_dim(sys) == 0
        assert expected_dim(sys) == 0

    @given(systems)
    def test_clamp_law(self, sys):
        e, v = expected_dim(sys), virtual_dim(sys)
        assert e >= -1
        assert e >= v
        assert (e == v) == (v >= -1)


class TestIntersect:
    def test_direct(self):
        assert intersect(L("L(10,8,6,6)"), L("L(1,0,1,1)")) == -2

    def test_self_intersections(self):
        assert intersect(L("L(2,0,1^5)"), L("L(2,0,1^5)")) == -1
        assert intersect(L("L(12,8,3^9)"), L("L(12,8,3^9)")) == -1

    def test_zero_padding(self):
        assert intersect(L("L(3,1)"), L("L(2,1,1,1)")) == 5

    @given(systems, systems, systems, st.integers(-3, 3), st.integers(-3, 3))
    def test_symmetric_and_bilinear(self, a, b, c, s, t):
        assert intersect(a, b) == intersect(b, a)
        # bilinearity over integer scaling, checked on the raw pairing
        lhs = s * intersect(a, c) + t * intersect(b, c)
        width = max(len(a.mults), len(b.mults))
        pad = lambda m, k: tuple(m) + (0,) * (k - len(m))
        combo_deg = s * a.degree + t * b.degree
        combo = [s * x + t * y for x, y in zip(pad(a.mults, width), pad(b.mults, width))]
        rhs = combo_deg * c.degree - sum(
            x * y for x, y in zip(combo, pad(c.mults, max(width, len(c.mults)))))
        assert lhs == rhs


class TestCanonicalIntersect:
    def test_examples(self):
        assert canonical_intersect(L("L(2,0,1^5)")) == -1
        assert canonical_intersect(L("L(6,3,2^7)")) == -1
        assert canonical_intersect(L("L(0)")) == 0


class TestArithmeticGenus:
    def test_examples(self):
        assert arithmetic_genus(L("L(2,0,1^5)")) == 0
        assert arithmetic_genus(L("L(3,0)")) == 1
        assert arithmetic_genus(L("L(1,0)")) == 0

    @given(systems)
    def test_parity_always_even(self, sys):
        arithmetic_genus(sys)  # never raises for integral classes


class TestFormulaIdentities:
    @given(systems)
    @settings(max_examples=1000)
    def test_adjunction_forms_agree(self, sys):
        v = virtual_dim(sys)
        assert 2 * v == intersect(sys, sys) - canonical_intersect(sys)
        assert v == intersect(sys, sys) - arithmetic_genus(sys) + 1

    @given(systems)
    def test_appending_zero_point_is_neutral(self, sys):
        padded = LinearSystem(sys.degree, sys.mults + (0,))
        assert virtual_dim(padded) == virtual_dim(sys)
        assert expected_dim(padded) == expected_dim(sys)
        assert canonical_intersect(padded) == canonical_intersect(sys)
        assert arithmetic_genus(padded) == arithmetic_genus(sys)
        other = L("L(9,2,3,4)")
        assert intersect(padded, other) == intersect(sys, other)


class TestLinearSystemType:
    def test_rejects_negative_data(self):
        with pytest.raises(ValueError):
            LinearSystem(-1, ())
        with pytest.raises(ValueError):
            LinearSystem(3, (2, -1))

    def test_quasi_homogeneous(self):
        assert L("L(10,2,6^3)").is_quasi_homogeneous()
        assert L("L(10,2)").is_quasi_homogeneous()
        assert L("L(10,2,6,6,0)").is_quasi_homogeneous()
        assert not L("L(10,2,6,5)").is_quasi_homogeneous()
        assert L("L(10,2,6^3)").tail_multiplicity() == 6

    def test_normalize_keeps_first_slot(self):
        sys = LinearSystem(9, (2, 0, 6, 3, 0))
        assert sys.normalize() == LinearSystem(9, (2, 6, 3))
        assert LinearSystem(9, (0, 6)).normalize() == LinearSystem(9, (0, 6))


class TestTextForm:
    def test_run_length(self):
        assert format_system(22, (7,) + (6,) * 12) == "L(22,7,6^12)"
        assert str(L("L(0)")) == "L(0)"
        assert format_system(9, (2, 6, 6, 6)) == "L(9,2,6^3)"

    @given(systems)
    def test_round_trip(self, sys):
        assert parse_system(format_system(sys.degree, sys.mults)) == sys

    def test_whitespace(self):
        assert L(" L( 22 , 7 , 6 ^ 12 ) ") == L("L(22,7,6^12)")

    @pytest.mark.parametrize("text,pos", [
        ("L(22,7,^12)", 7),
        ("M(3)", 0),
        ("L(3", 3),
        ("L(3,2)x", 6),
        ("L(3,2^0)", 6),
        ("L(²)", 2),      # str.isdigit() is true, int() refuses it
        ("L(3,٣)", 4),    # an Arabic-Indic three is no INT either
        ("L(3,0,6^10000,1)", 13),  # 10002 multiplicities
    ])
    def test_errors_carry_position(self, text, pos):
        with pytest.raises(SystemParseError) as err:
            parse_system(text)
        assert err.value.pos == pos
        assert err.value.caret().splitlines()[1].index("^") == pos

    @pytest.mark.parametrize("text,pos", [
        ("L(" + "9" * 5000 + ")", 2),   # more digits than int() converts
        ("L(" + "7" * 2001 + ")", 2),   # a dimension with more digits than str() converts
        ("L(3" + ",1" * 10002 + ")", 20005),
    ], ids=["5000-digits", "2001-digits", "10002-singles"])
    def test_oversized_input_carries_position(self, text, pos):
        with pytest.raises(SystemParseError) as err:
            parse_system(text)
        assert err.value.pos == pos

    @pytest.mark.parametrize("text", ["L(3,0,6^10000)", "L(3,0,6^9999,1)",
                                      "L(3" + ",1" * 10001 + ")"],
                             ids=["one-group", "two-groups", "10001-singles"])
    def test_most_multiplicities_accepted(self, text):
        assert len(parse_system(text).mults) == 10001

    def test_total_multiplicities_bounded_before_allocation(self):
        # 804 characters that would expand to a million multiplicities (8 MB of list)
        text = "L(5" + ",1^10000" * 100 + ")"
        tracemalloc.start()
        try:
            with pytest.raises(SystemParseError, match="more than 10001 multiplicities"):
                parse_system(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
