"""Generation, verification and export of the two big result tables.

The classification table lists every (-1)-special system ``L(d, m0, 6^n)``;
it is produced by :func:`fatpoints.neg_curves.generate_classification` and
checked here against a golden CSV, against the closed formulas, against the
splitting engine, and against the finite-field oracle.

The hard-case list collects the low-degree systems that resist the automatic
degeneration search and records their known dimensions (empty or regular);
it serves as a regression sweep for the recursive prover and the oracle.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources

from .core import LinearSystem, parse_system, virtual_dim
from .neg_curves import ClassificationRow, generate_classification, hh_dimension
from .oracle import DEFAULT_PRIME, dimension_char_p

__all__ = [
    "classification_table",
    "classification_to_csv",
    "classification_to_json",
    "HardCase",
    "known_hard_cases",
    "hard_cases_to_csv",
    "verify_table",
    "RowResult",
    "TableReport",
    "golden_classification_csv",
    "golden_hard_cases_csv",
]


def classification_table(e_max: int = 4) -> tuple[ClassificationRow, ...]:
    """The classification rows, grouped by d - m0 as in the published layout."""
    return generate_classification(e_max)


_CSV_HEADER = ["d_minus_m0", "system", "v", "ell", "range", "boundary_case"]


def classification_to_csv(rows: tuple[ClassificationRow, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in rows:
        writer.writerow([r.offset, r.system, r.v, r.ell, r.range, r.boundary_case])
    return buf.getvalue()


def classification_to_json(rows: tuple[ClassificationRow, ...]) -> list[dict]:
    return [{"d_minus_m0": r.offset, "system": r.system, "v": r.v, "ell": r.ell,
             "range": r.range, "boundary_case": r.boundary_case} for r in rows]


def golden_classification_csv() -> str:
    return resources.files("fatpoints.data").joinpath(
        "classification_table.csv").read_text()


def golden_hard_cases_csv() -> str:
    return resources.files("fatpoints.data").joinpath("hard_cases.csv").read_text()


# -- hard-case regression list -------------------------------------------------

EMPTY_CASE = "empty"
REGULAR_CASE = "regular"

# (d - m0, system, status, how the dimension was originally settled)
_HARD_CASES: tuple[tuple[int, str, str, str], ...] = (
    (8, "L(8,0,6^3)", EMPTY_CASE, "three-point base case"),
    (8, "L(9,1,6^3)", EMPTY_CASE, "splitting off lines"),
    (14, "L(14,0,6^6)", EMPTY_CASE, "quadratic transformations and line splits"),
    (13, "L(14,1,6^6)", EMPTY_CASE, "contained in L(14,0,6^6)"),
    (12, "L(14,2,6^6)", EMPTY_CASE, "contained in L(14,0,6^6)"),
    (11, "L(14,3,6^6)", EMPTY_CASE, "contained in L(14,0,6^6)"),
    (10, "L(14,4,6^6)", EMPTY_CASE, "contained in L(14,0,6^6)"),
    (8, "L(14,6,6^5)", EMPTY_CASE, "contained in L(14,0,6^6)"),
    (15, "L(15,0,6^7)", EMPTY_CASE, "quadratic transformations"),
    (15, "L(15,0,6^6)", REGULAR_CASE, "contains L(15,3,6^6)"),
    (14, "L(15,1,6^6)", REGULAR_CASE, "contains L(15,3,6^6)"),
    (13, "L(15,2,6^6)", REGULAR_CASE, "contains L(15,3,6^6)"),
    (12, "L(15,3,6^6)", REGULAR_CASE, "quadratic transformations, multiplicity-3 case"),
    (11, "L(15,4,6^6)", EMPTY_CASE, "quadratic transformations and line splits"),
    (10, "L(15,5,6^6)", EMPTY_CASE, "contained in L(15,4,6^6)"),
    (9, "L(15,6,6^6)", EMPTY_CASE, "contained in L(15,4,6^6)"),
    (9, "L(15,6,6^5)", REGULAR_CASE, "contains L(15,0,6^6)"),
    (8, "L(15,7,6^5)", REGULAR_CASE, "quadratic transformations, multiplicity-3 case"),
    (16, "L(16,0,6^8)", EMPTY_CASE, "via L(16,3,6^7)"),
    (16, "L(16,0,6^7)", REGULAR_CASE, "contains L(16,2,6^7)"),
    (15, "L(16,1,6^7)", REGULAR_CASE, "contains L(16,2,6^7)"),
    (14, "L(16,2,6^7)", REGULAR_CASE, "quadratic transformations, multiplicity-3 case"),
    (13, "L(16,3,6^7)", EMPTY_CASE, "quadratic transformations and line splits"),
    (12, "L(16,4,6^7)", EMPTY_CASE, "contained in L(16,3,6^7)"),
    (11, "L(16,5,6^7)", EMPTY_CASE, "contained in L(16,3,6^7)"),
    (10, "L(16,6,6^7)", EMPTY_CASE, "contained in L(16,3,6^7)"),
    (10, "L(16,6,6^6)", REGULAR_CASE, "contains L(16,2,6^7)"),
    (9, "L(16,7,6^6)", EMPTY_CASE, "quadratic transformations and line splits"),
    (8, "L(16,8,6^6)", EMPTY_CASE, "contained in L(16,7,6^6)"),
    (17, "L(17,0,6^8)", REGULAR_CASE, "contains L(17,1,6^8)"),
    (16, "L(17,1,6^8)", REGULAR_CASE, "quadratic transformations"),
    (15, "L(17,2,6^8)", EMPTY_CASE, "quadratic transformations and line splits"),
    (11, "L(17,6,6^7)", REGULAR_CASE, "contains L(17,1,6^8)"),
    (10, "L(17,7,6^7)", EMPTY_CASE, "quadratic transformations and line splits"),
    (9, "L(17,8,6^7)", EMPTY_CASE, "contained in L(17,7,6^7)"),
    (8, "L(18,10,6^7)", EMPTY_CASE, "quadratic transformations and line splits"),
    (19, "L(19,0,6^10)", EMPTY_CASE, "homogeneous multiplicity-6 case"),
    (18, "L(19,1,6^10)", EMPTY_CASE, "contained in L(19,0,6^10)"),
    (17, "L(19,2,6^10)", EMPTY_CASE, "contained in L(19,0,6^10)"),
    (15, "L(19,4,6^9)", REGULAR_CASE, "contains L(19,5,6^9)"),
    (14, "L(19,5,6^9)", REGULAR_CASE, "independence after specializing to a line"),
    (13, "L(19,6,6^9)", EMPTY_CASE, "contained in L(19,0,6^10)"),
    (12, "L(19,7,6^9)", EMPTY_CASE, "contained in L(19,0,6^10)"),
    (9, "L(19,10,6^7)", REGULAR_CASE, "quadratic transformations, homogeneous case"),
    (8, "L(19,11,6^7)", EMPTY_CASE, "quadratic transformations and line splits"),
    (12, "L(20,8,6^9)", REGULAR_CASE, "direct rank computation"),
    (11, "L(20,9,6^9)", EMPTY_CASE, "quadratic transformations, multiplicity-5 case"),
    (8, "L(20,12,6^7)", REGULAR_CASE, "quadratic transformations, homogeneous case"),
    (11, "L(21,10,6^9)", REGULAR_CASE, "quadratic transformations, bounded multiplicities"),
    (10, "L(21,11,6^9)", EMPTY_CASE, "quadratic transformations, bounded multiplicities"),
    (9, "L(21,12,6^8)", REGULAR_CASE, "quadratic transformations, homogeneous case"),
    (8, "L(21,13,6^8)", EMPTY_CASE, "quadratic transformations and line splits"),
    (22, "L(22,0,6^13)", REGULAR_CASE, "contains L(22,1,6^13)"),
    (21, "L(22,1,6^13)", REGULAR_CASE, "independence after specializing to a line"),
    (20, "L(22,2,6^13)", EMPTY_CASE, "independence after specializing to a line"),
    (19, "L(22,3,6^13)", EMPTY_CASE, "contained in L(22,2,6^13)"),
    (16, "L(22,6,6^12)", REGULAR_CASE, "contains L(22,1,6^13)"),
    (15, "L(22,7,6^12)", EMPTY_CASE, "direct rank computation"),
    (13, "L(22,9,6^11)", EMPTY_CASE, "direct rank computation"),
    (11, "L(22,11,6^10)", EMPTY_CASE, "quadratic transformations, bounded multiplicities"),
    (10, "L(22,12,6^10)", EMPTY_CASE, "contained in L(22,11,6^10)"),
    (10, "L(22,12,6^9)", REGULAR_CASE, "quadratic transformations, multiplicity-4 case"),
    (9, "L(22,13,6^9)", EMPTY_CASE, "quadratic transformations and line splits"),
    (8, "L(22,14,6^9)", EMPTY_CASE, "contained in L(22,13,6^9)"),
    (12, "L(23,11,6^11)", REGULAR_CASE, "direct rank computation"),
    (10, "L(23,13,6^10)", EMPTY_CASE, "quadratic transformations, multiplicity-4 case"),
    (9, "L(23,14,6^9)", REGULAR_CASE, "quadratic transformations, homogeneous case"),
    (8, "L(23,15,6^9)", EMPTY_CASE, "quadratic transformations and line splits"),
    (10, "L(24,14,6^10)", REGULAR_CASE, "quadratic transformations, homogeneous case"),
    (9, "L(24,15,6^10)", EMPTY_CASE, "quadratic transformations, bounded multiplicities"),
    (8, "L(24,16,6^10)", EMPTY_CASE, "contained in L(24,15,6^10)"),
    (13, "L(25,12,6^13)", EMPTY_CASE, "direct rank computation"),
    (10, "L(25,15,6^11)", EMPTY_CASE, "quadratic transformations, bounded multiplicities"),
    (12, "L(26,14,6^13)", EMPTY_CASE, "direct rank computation"),
    (10, "L(29,19,6^13)", REGULAR_CASE, "direct rank computation"),
    (13, "L(31,18,6^17)", EMPTY_CASE, "direct rank computation"),
    (10, "L(31,21,6^14)", REGULAR_CASE, "quadratic transformations, multiplicity-4 case"),
    (10, "L(38,28,6^18)", EMPTY_CASE, "quadratic transformations, multiplicity-4 case"),
    (13, "L(40,27,6^23)", EMPTY_CASE, "direct rank computation"),
    (10, "L(40,30,6^19)", EMPTY_CASE, "direct rank computation"),
    (10, "L(46,36,6^22)", EMPTY_CASE, "quadratic transformations, multiplicity-4 case"),
)


@dataclass(frozen=True)
class HardCase:
    offset: int
    system: str
    status: str  # "empty" | "regular"
    method: str

    def parsed(self) -> LinearSystem:
        return parse_system(self.system)


def known_hard_cases() -> tuple[HardCase, ...]:
    """Low-degree systems that defeated the degeneration search, with verdicts."""
    return tuple(HardCase(*row) for row in _HARD_CASES)


def hard_cases_to_csv() -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d_minus_m0", "system", "status", "method"])
    for c in known_hard_cases():
        writer.writerow([c.offset, c.system, c.status, c.method])
    return buf.getvalue()


# -- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class InstanceCheck:
    system: str
    passed: bool
    expected: str
    got: str
    command: str


@dataclass(frozen=True)
class RowResult:
    system: str
    mode: str
    passed: bool
    checks: tuple[InstanceCheck, ...]


@dataclass(frozen=True)
class TableReport:
    results: tuple[RowResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _check_instance(mode: str, sys: LinearSystem, v: int, ell: int, boundary: bool,
                    prime: int, seed: int, trials: int) -> InstanceCheck:
    name = str(sys)
    if mode == "formula":
        got = virtual_dim(sys)
        return InstanceCheck(name, got == v, str(v), str(got),
                             f'fatpoints vdim "{name}"')
    if mode == "hh":
        got = hh_dimension(sys).ell
        ok = got > ell if boundary else got == ell
        want = f"> {ell}" if boundary else str(ell)
        return InstanceCheck(name, ok, want, str(got), f'fatpoints classify "{name}"')
    if mode == "oracle":
        got = dimension_char_p(sys, seed, prime, trials)
        ok = got > ell if boundary else got == ell
        want = f"> {ell}" if boundary else str(ell)
        cmd = (f'fatpoints oracle --system "{name}" --prime {prime} '
               f'--seed {seed} --trials {trials}')
        return InstanceCheck(name, ok, want, str(got), cmd)
    raise ValueError(f"unknown mode {mode!r}")


def verify_table(rows: tuple[ClassificationRow, ...], mode: str = "formula", *,
                 e_limit: int = 4, d_cap: int | None = None,
                 prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 3) -> TableReport:
    """Per-row checks of the v column, the ell column, or both against the oracle.

    In oracle mode only instances with degree at most ``d_cap`` are run.
    Boundary instances of the all-n rows (where the value jumps onto a
    parameter family) are checked for a strict excess instead of equality.
    """
    results = []
    for row in rows:
        checks = tuple(_check_instance(mode, *inst, prime, seed, trials)
                       for inst in row.instances(e_limit=e_limit, d_cap=d_cap))
        results.append(RowResult(row.system, mode, all(c.passed for c in checks), checks))
    return TableReport(tuple(results))
