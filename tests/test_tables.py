"""Table generation, golden files, verification reports, hard-case data."""

import copy
import csv
import dataclasses
import hashlib
import io
import json

import pytest

from conftest import packaged_csv
from fatpoints import tables
from fatpoints.core import expected_dim, virtual_dim
from fatpoints.neg_curves import generate_classification, hh_dimension
from fatpoints.tables import (classification_table, classification_to_csv,
                              classification_to_json, known_hard_cases, verify_table)
from fatpoints.verdict import EMPTY, REGULAR
from test_oracle import _count_builds

# sha256 of json.dumps of the [system, passed, got, command] list of every
# oracle-mode check, for (d_cap, seed), recorded before the oracle check
# stopped its trials at a checker-verified lower bound.
ORACLE_REPORT_SHA256 = {
    (22, 7): "f9d2adc4c5efeb4ac4c73119f342b1dc72886e32d3e70348aa4901aad5e2b301",
    (26, 0): "4f425c7304a4e18f2d175e33ef8def0b025cd3ddf1b0be5ee4ca80538a19b56a",
}


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


def _no_instance(*args, **kwargs):
    raise AssertionError("an instance was checked")


class TestVerifyTable:
    def test_formula_mode_all_pass(self, rows):
        report = verify_table(rows, "formula", e_limit=4, d_cap=40)
        assert report.ok
        assert len(report.results) == len(rows)

    def test_hh_mode_all_pass(self, rows):
        assert verify_table(rows, "hh", e_limit=3, d_cap=30).ok

    @pytest.mark.parametrize("mode, shift", [("hh", 1), ("oracle", 1), ("oracle", -1)])
    def test_corrupted_row_fails_exactly_once(self, rows, monkeypatch, mode, shift):
        target = next(i for i, r in enumerate(rows) if r.system == "L(13,2,6^5)")
        d, m0, n, v, ell = rows[target].payload
        bad = dataclasses.replace(rows[target], ell=str(ell + shift),
                                  payload=(d, m0, n, v, ell + shift))
        mutated = rows[:target] + (bad,) + rows[target + 1:]
        if mode == "oracle":  # the mutated row alone keeps the oracle cheap
            mutated = (bad,)
        builds = _count_builds(monkeypatch)
        report = verify_table(mutated, mode, e_limit=2, d_cap=30)
        assert [r.system for r in report.results if not r.passed] == ["L(13,2,6^5)"]
        if mode == "oracle":
            # the floor is the witness's ell = 2, which the first trial reaches;
            # a floor of the claimed 3 or 1 would have run all three trials
            assert [c.got for c in report.results[0].checks] == ["2"] and len(builds) == 1

    @pytest.mark.parametrize("tamper", [
        lambda t: t["steps"][0].update(n=t["steps"][0]["n"] + 1),
        lambda t: t.update(residual="L(5,2,2^4)"),
        lambda t: t.update(special=False),
    ], ids=["step-n", "residual", "special"])
    def test_rejected_witness_gives_no_floor(self, rows, monkeypatch, tamper):
        def tampered(sys):
            verdict = hh_dimension(sys)
            trace = copy.deepcopy(verdict.trace)
            tamper(trace)
            return dataclasses.replace(verdict, trace=trace)

        monkeypatch.setattr(tables, "hh_dimension", tampered)
        row = next(r for r in rows if r.system == "L(13,2,6^5)")
        builds = _count_builds(monkeypatch)
        report = verify_table((row,), "oracle", trials=3)
        assert [c.got for c in report.results[0].checks] == ["2"]
        assert len(builds) == 3

    @pytest.mark.parametrize("d_cap, seed, instances", [(22, 7, 272), (26, 0, 372)])
    def test_oracle_report_unchanged_with_one_matrix_per_instance(self, rows, monkeypatch,
                                                                   d_cap, seed, instances):
        builds = _count_builds(monkeypatch)
        report = verify_table(rows, "oracle", d_cap=d_cap, seed=seed)
        checks = [(c.system, c.passed, c.got, c.command)
                  for r in report.results for c in r.checks]
        assert (hashlib.sha256(json.dumps(checks).encode()).hexdigest()
                == ORACLE_REPORT_SHA256[d_cap, seed])
        assert len(checks) == len(builds) == instances  # three builds each before the floor

    @pytest.mark.parametrize("mode, settings", [
        ("bogus", {}), ("oracle", {"trials": 99}), ("oracle", {"prime": 4}),
        ("oracle", {"trials": 0}), ("oracle", {"trials": 2.0}), ("oracle", {"trials": True}),
        ("oracle", {"seed": 1.5}), ("oracle", {"seed": True}),  # --seed 1.5 would not parse
    ])
    def test_settings_checked_before_any_row(self, rows, mode, settings):
        with pytest.raises(ValueError):
            verify_table(rows, mode, d_cap=0, **settings)

    @pytest.mark.parametrize("limits, reason", [
        ({"e_limit": 27}, "e_limit must be <= 26"), ({"d_cap": 301}, "d_cap must be <= 300"),
        # a check of no instance would pass
        ({"e_limit": 0}, "e_limit must be >= 1"), ({"d_cap": -1}, "d_cap must be >= 0"),
        ({"d_cap": 5}, r"no instance has degree <= d_cap \(5\)"),
    ], ids=["e_limit", "d_cap", "e_limit_zero", "d_cap_negative", "d_cap_no_instance"])
    def test_limits_checked_before_any_row(self, rows, monkeypatch, limits, reason):
        # the report keeps every instance, so an unbounded d_cap exhausts memory
        monkeypatch.setattr(tables, "_check_instance", _no_instance)
        with pytest.raises(ValueError, match=reason):
            verify_table(rows, "formula", **limits)

    def test_largest_limits_accepted(self, rows):
        assert verify_table(rows, "formula", e_limit=26, d_cap=300).ok

    def test_oracle_instance_over_the_size_cap_refused_before_any_row(self, rows, monkeypatch):
        monkeypatch.setattr(tables, "dimension_char_p", _no_instance)
        with pytest.raises(ValueError, match=r"L\(100,100,6\^5\) has a 5155 x 5151 matrix"):
            verify_table(rows, "oracle", d_cap=100)

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
