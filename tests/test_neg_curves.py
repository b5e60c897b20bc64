"""Catalog soundness, the splitting classifier, and the classification table."""

import dataclasses
import json
import random
import re
from itertools import combinations

import pytest

from conftest import catalog_pieces, packaged_csv, reference_catalog
from fatpoints import neg_curves
from fatpoints.core import (LinearSystem, expected_dim, format_system, intersect, parse_system,
                            virtual_dim)
from fatpoints.degeneration import CertificateError, check_certificate
from fatpoints.neg_curves import (_simple_classes, find_splittings, generate_classification,
                                  hh_dimension, is_minus_one_class, is_minus_one_special)
from fatpoints.tables import classification_to_csv
from fatpoints.verdict import EMPTY, REGULAR, SPECIAL


def L(text):
    return parse_system(text)


class TestMinusOneClass:
    def test_line_through_p0(self):
        assert is_minus_one_class(L("L(1,1,1)"))

    def test_plain_line_is_not(self):
        assert not is_minus_one_class(L("L(1,0)"))

    def test_degree_family(self):
        for e in range(1, 11):
            assert is_minus_one_class(LinearSystem(e, (e - 1,) + (1,) * (2 * e)))


def simple_labels(t):
    """The simple classes on ``t`` tail slots, in the split chain's order."""
    return [format_system(e, (a,) + (mu,) * r) for e, a, mu, r in _simple_classes(t)]


class TestCatalog:
    def test_five_points_cap_one(self):
        assert simple_labels(5) == ["L(2,1,1^4)", "L(2,0,1^5)", "L(1,1,1)", "L(1,0,1^2)"]

    def test_seven_points_cap_two(self):
        assert simple_labels(7) == ["L(6,3,2^7)", "L(3,2,1^6)", "L(2,1,1^4)", "L(2,0,1^5)",
                                    "L(1,1,1)", "L(1,0,1^2)"]

    def test_one_point(self):
        assert simple_labels(1) == ["L(1,1,1)"]

    def test_soundness(self):
        # every simple class is a (-1)-class; every compound is a sum of
        # pairwise disjoint (-1)-classes
        for total, parts in catalog_pieces(20):
            assert all(is_minus_one_class(p) for p in parts)
            for a, b in combinations(parts, 2):
                assert intersect(a, b) == 0
            assert intersect(total, total) == -len(parts)
            summed = [sum(p.mults[i] for p in parts) for i in range(21)]
            assert (total.degree, tuple(summed)) == (
                sum(p.degree for p in parts), total.mults)


def _brute_splittings(sys):
    """All negative catalog intersections, enumerated independently, by degree
    of the curve, then by multiplicity vector (largest first)."""
    base = sys.normalize()
    t = len(base.tail)
    out = []
    for entry in reference_catalog(t):
        for placement in combinations(range(t), entry.tail_points):
            tail = [0] * t
            for s in placement:
                tail[s] = entry.tail_mult
            val = (entry.degree * base.degree - entry.m0 * base.m0
                   - sum(a * b for a, b in zip(tail, base.tail)))
            if val <= -1:
                out.append((entry.degree, (entry.m0,) + tuple(tail), val))
    return sorted(out, key=lambda c: (c[0], tuple(-x for x in c[1])))


def _listed(sys):
    return [(s.curve.degree, s.curve.mults, s.intersection) for s in find_splittings(sys)]


class TestFindSplittings:
    def test_small_special_system(self):
        found = find_splittings(L("L(10,8,6^2)"))
        assert _listed(L("L(10,8,6^2)")) == _brute_splittings(L("L(10,8,6^2)"))
        head = [(str(s.curve), s.intersection) for s in found[:3]]
        assert head == [("L(1,1,1,0)", -4), ("L(1,1,0,1)", -4), ("L(1,0,1^2)", -2)]

    def test_conic_case(self):
        found = find_splittings(L("L(14,0,6^5)"))
        assert [(str(s.curve), s.intersection) for s in found] == [("L(2,0,1^5)", -2)]

    def test_empty(self):
        assert find_splittings(L("L(5,0,1^2)")) == ()

    @pytest.fixture
    def no_placement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a placement was built")
        monkeypatch.setattr(neg_curves, "_curve", refuse)

    def test_no_placement_built_without_a_result(self, no_placement):
        # 19 tail points: listing every placement of every family took
        # seconds, but no family meets L(40,30,6^19) negatively
        assert find_splittings(L("L(40,30,6^19)")) == ()

    @pytest.mark.parametrize("name", ["L(30,20,6^30)", "L(3,0,6^10000)"])
    def test_oversized_listing_refused_before_enumeration(self, no_placement, name):
        with pytest.raises(ValueError, match="refusing to list"):
            find_splittings(L(name))

    def test_listing_below_the_cap(self):
        assert len(find_splittings(L("L(14,10,6^14)"))) == 31919

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            find_splittings(L("L(9,1,7^3)"))
        with pytest.raises(ValueError):
            find_splittings(L("L(9,1,6,5)"))

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(50):
            d = rng.randint(0, 18)
            n = rng.randint(1, 7)
            m = rng.randint(1, 6)
            m0 = rng.randint(0, d) if d else 0
            sys = LinearSystem(d, (m0,) + (m,) * n)
            assert _listed(sys) == _brute_splittings(sys)


class TestIsMinusOneSpecial:
    def test_triangle_witness(self):
        special, witness = is_minus_one_special(L("L(10,2,6^3)"))
        assert special
        assert witness == hh_dimension(L("L(10,2,6^3)"))
        residual = L(witness.trace["residual"])
        assert residual == L("L(4,2,2^3)")
        assert virtual_dim(residual) == 2
        # the triangle L(3,0,2^3) splits off as its three lines, each twice
        assert witness.trace["steps"] == [
            {"curve": "L(1,0,1^2,0)", "n": 2}, {"curve": "L(1,0,1,0,1)", "n": 2},
            {"curve": "L(1,0,0,1^2)", "n": 2}]
        check_certificate(json.loads(witness.dumps()))

    def test_sporadic(self):
        assert is_minus_one_special(L("L(14,5,6^5)"))[0]

    def test_plain_regular(self):
        assert is_minus_one_special(L("L(7,0,1^3)")) == (False, None)

    def test_witness_validation(self):
        _, witness = is_minus_one_special(L("L(10,2,6^3)"))
        wrong_residual = json.loads(witness.dumps())
        wrong_residual["trace"]["residual"] = "L(4,2,2,2,1)"
        dropped_step = json.loads(witness.dumps())
        dropped_step["trace"]["steps"].pop()
        for cert in (wrong_residual, dropped_step):
            with pytest.raises(CertificateError):
                check_certificate(cert)


class TestHHDimension:
    @pytest.mark.parametrize("name,ell", [
        ("L(10,8,6^2)", 0),
        ("L(9,0,6^3)", 0),
        ("L(14,0,6^5)", 15),
        ("L(24,16,6^9)", 0),
        ("L(18,9,6^7)", 0),
        ("L(13,2,6^5)", 2),
    ])
    def test_table_values(self, name, ell):
        assert hh_dimension(L(name)).ell == ell

    def test_statuses(self):
        assert hh_dimension(L("L(10,2,6^3)")).status == SPECIAL
        assert hh_dimension(L("L(7,0,1^3)")).status == REGULAR
        assert hh_dimension(L("L(6,6,6^2)")).status == EMPTY

    def test_conjecture_opt_in(self):
        with pytest.raises(ValueError):
            hh_dimension(L("L(20,3,7^4)"))

    def test_bound_and_equality_law(self):
        rng = random.Random(23)
        for _ in range(500):
            d = rng.randint(0, 26)
            n = rng.randint(0, 9)
            m = rng.randint(1, 6)
            m0 = rng.randint(0, d) if d else 0
            sys = LinearSystem(d, (m0,) + (m,) * n)
            ell = hh_dimension(sys).ell
            special, witness = is_minus_one_special(sys)
            assert ell >= expected_dim(sys)
            assert (ell > expected_dim(sys)) == special
            if special:
                # a multiple (-1)-part strictly raises the residual dimension
                assert virtual_dim(L(witness.trace["residual"])) > virtual_dim(sys)


@pytest.fixture(scope="module")
def rows():
    return generate_classification(4)


class TestGenerateClassification:
    def test_row_count_and_layout(self, rows):
        assert len(rows) == 46
        assert [r.offset for r in rows] == sorted(r.offset for r in rows)

    def test_offset_five_block_at_e_one(self, rows):
        block = [r for r in rows if r.offset == 5]
        got = [(str(inst[0]), inst[2]) for r in block
               for inst in r.instances(e_limit=1)]
        assert got == [("L(7,2,6^2)", 0), ("L(8,3,6^2)", 2),
                       ("L(9,4,6^2)", 5), ("L(10,5,6^2)", 9)]

    def test_sporadic_block(self, rows):
        match = [r for r in rows if r.system == "L(18,9,6^7)"]
        assert len(match) == 1
        assert (match[0].v, match[0].ell) == ("-3", "0")

    def test_equal_multiplicity_block(self, rows):
        row = next(r for r in rows if r.system == "L(d,d,6^n)")
        inst = [(sys, v, ell) for sys, v, ell, _ in row.instances(e_limit=1, d_cap=6)]
        assert (str(inst[0][0]), inst[0][1], inst[0][2]) == ("L(6,6,6)", -15, 0)

    def test_family_validity_ranges(self, rows):
        by_system = {r.system: r for r in rows}
        assert by_system["L(5e+5,5e-2,6^2e)"].range == "10 >= e >= 1"
        assert by_system["L(4e+6,4e-2,6^2e)"].range == "4 >= e >= 1"
        assert by_system["L(10e,10e-2,6^2e)"].range == "e >= 1"
        # the range of this family follows from its residual L(e+5,e,3^2e),
        # whose virtual dimension -6e+20 stays nonnegative up to e = 3
        assert by_system["L(4e+5,4e-3,6^2e)"].range == "3 >= e >= 1"

    def test_boundary_flags(self, rows):
        flagged = {r.system: r.boundary_case for r in rows if r.boundary_case}
        assert flagged == {"L(d,d-3,6^n)": "d = 9n/2+1, n even",
                           "L(d,d-4,6^n)": "d = 4n+2, n even"}

    def test_instances_are_special_with_exact_v(self, rows):
        for row in rows:
            for sys, v, ell, boundary in row.instances(e_limit=3, d_cap=30):
                assert virtual_dim(sys) == v
                special, _ = is_minus_one_special(sys)
                assert special, f"{sys} from row {row.system}"
                if not boundary:
                    assert hh_dimension(sys).ell == ell
                else:
                    assert hh_dimension(sys).ell > ell


class TestCoverageFromInstances:
    """The generator reads which systems a row covers from ``instances`` alone."""

    def test_truncated_family_leaves_the_general_range_not_sharp(self):
        # L(10e,10e-2,6^2e) cut at e = 1 no longer covers L(20,18,6^4), the
        # special system just below the range of L(d,d-2,6^n) at n = 4
        families = [dataclasses.replace(f, payload=f.payload[:6] + (1,))
                    if f.system == "L(10e,10e-2,6^2e)" else f
                    for f in neg_curves._family_rows(3)]
        with pytest.raises(RuntimeError, match=re.escape(
                "general x=2: range not sharp at L(20,18,6^4)")):
            neg_curves._general_rows(families, 3)

    def test_every_e_max_gives_the_packaged_table_with_the_same_classifier_calls(
            self, monkeypatch):
        calls = []
        real = neg_curves.hh_prediction
        monkeypatch.setattr(neg_curves, "hh_prediction", lambda L: calls.append(L) or real(L))
        golden = packaged_csv("classification_table.csv")
        counts = {}
        for e_max in range(1, 7):
            calls.clear()
            assert classification_to_csv(generate_classification(e_max)) == golden
            counts[e_max] = len(calls)
        assert counts == {1: 310, 2: 310, 3: 310, 4: 375, 5: 440, 6: 505}
