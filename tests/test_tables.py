"""Table generation, golden files, verification reports, hard-case data."""

import csv
import dataclasses
import io

import pytest

from conftest import packaged_csv
from fatpoints.core import expected_dim, virtual_dim
from fatpoints.neg_curves import generate_classification
from fatpoints.tables import (classification_table, classification_to_csv,
                              classification_to_json, known_hard_cases, verify_table)
from fatpoints.verdict import EMPTY, REGULAR


@pytest.fixture(scope="module")
def rows():
    return classification_table(4)


class TestClassificationTable:
    def test_matches_golden_bytes(self, rows):
        assert classification_to_csv(rows) == packaged_csv("classification_table.csv")

    def test_offset_six_block_at_e_one(self, rows):
        block = [r for r in rows if r.offset == 6]
        inst = [(str(i[0]), i[1], i[2]) for r in block for i in r.instances(e_limit=1)]
        assert [x[0] for x in inst] == ["L(6,0,6^2)", "L(7,1,6^2)", "L(8,2,6^2)",
                                        "L(9,3,6^2)", "L(10,4,6^2)"]
        assert [x[1] for x in inst] == [-15, -8, -1, 6, 13]
        assert [x[2] for x in inst] == [0, 2, 5, 9, 14]

    def test_sporadic_row(self, rows):
        row = next(r for r in rows if r.system == "L(13,2,6^5)")
        assert (row.v, row.ell) == ("-4", "2")

    def test_bounded_family_emission(self, rows):
        row = next(r for r in rows if r.system == "L(5e+5,5e-2,6^2e)")
        assert row.payload[6] == 10  # valid exactly for 1 <= e <= 10
        degrees = [sys.degree for sys, *_ in row.instances(e_limit=50)]
        assert degrees == [5 * e + 5 for e in range(1, 11)]

    def test_csv_round_trip(self, rows):
        header, *parsed = csv.reader(io.StringIO(classification_to_csv(rows)))
        assert header == ["d_minus_m0", "system", "v", "ell", "range", "boundary_case"]
        assert len(parsed) == len(rows)
        for raw, row in zip(parsed, rows):
            assert raw == [str(row.offset), row.system, row.v, row.ell,
                           row.range, row.boundary_case]

    def test_json_mirror(self, rows):
        data = classification_to_json(rows)
        assert len(data) == len(rows)
        assert data[0]["system"] == "L(d,d,6^n)"


class TestVerifyTable:
    def test_formula_mode_all_pass(self, rows):
        report = verify_table(rows, "formula", e_limit=4, d_cap=40)
        assert report.ok
        assert len(report.results) == len(rows)

    def test_hh_mode_all_pass(self, rows):
        assert verify_table(rows, "hh", e_limit=3, d_cap=30).ok

    def test_corrupted_row_fails_exactly_once(self, rows):
        target = next(i for i, r in enumerate(rows) if r.system == "L(13,2,6^5)")
        d, m0, n, v, ell = rows[target].payload
        bad = dataclasses.replace(rows[target], ell=str(ell + 1),
                                  payload=(d, m0, n, v, ell + 1))
        mutated = rows[:target] + (bad,) + rows[target + 1:]
        report = verify_table(mutated, "hh", e_limit=2, d_cap=30)
        assert [r.system for r in report.results if not r.passed] == ["L(13,2,6^5)"]

    def test_reports_carry_repro_commands(self, rows):
        report = verify_table(rows[:1], "formula", e_limit=1, d_cap=10)
        assert all("fatpoints" in c.command
                   for r in report.results for c in r.checks)


class TestHardCases:
    def test_spot_values(self):
        cases = {c.system: c.status for c in known_hard_cases()}
        assert cases["L(9,1,6^3)"] == EMPTY
        assert cases["L(23,11,6^11)"] == REGULAR
        assert cases["L(46,36,6^22)"] == EMPTY

    def test_direct_computation_subset(self):
        direct = {c.system for c in known_hard_cases()
                  if c.method == "direct rank computation"}
        assert direct == {"L(20,8,6^9)", "L(22,7,6^12)", "L(22,9,6^11)",
                          "L(23,11,6^11)", "L(25,12,6^13)", "L(26,14,6^13)",
                          "L(29,19,6^13)", "L(31,18,6^17)", "L(40,27,6^23)",
                          "L(40,30,6^19)"}

    def test_verdicts_have_consistent_sign(self):
        for case in known_hard_cases():
            sys = case.parsed()
            assert case.offset == sys.degree - sys.m0
            if case.status == EMPTY:
                assert virtual_dim(sys) <= -1
            else:
                assert expected_dim(sys) >= 0

    def test_matches_golden_bytes(self):
        cases = known_hard_cases()
        assert len(cases) == 81
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d_minus_m0", "system", "status", "method"])
        writer.writerows([c.offset, c.system, c.status, c.method] for c in cases)
        assert buf.getvalue() == packaged_csv("hard_cases.csv")

    def test_not_minus_one_special(self):
        from fatpoints.neg_curves import is_minus_one_special
        for case in known_hard_cases():
            assert not is_minus_one_special(case.parsed())[0]
