"""Generation, verification and export of the two big result tables.

The classification table lists every (-1)-special system ``L(d, m0, 6^n)``;
it is produced by :func:`fatpoints.neg_curves.generate_classification` and
checked here against the closed formulas, against the splitting engine, and
against the finite-field oracle.

The hard-case list, shipped as ``data/hard_cases.csv``, collects the
low-degree systems that resist the automatic degeneration search and records
their known dimensions (empty or regular); it serves as a regression sweep for
the recursive prover and the oracle.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources

from .core import LinearSystem, parse_system, virtual_dim
from .degeneration import CertificateError, check_certificate
from .neg_curves import (_E_MAX_LIMIT, ClassificationRow, generate_classification,
                         hh_dimension, hh_prediction)
from .oracle import DEFAULT_PRIME, check_settings, dimension_char_p, size_failure
from .verdict import SPECIAL

__all__ = [
    "classification_table",
    "classification_to_csv",
    "classification_to_json",
    "HardCase",
    "known_hard_cases",
    "hard_cases_csv",
    "verify_table",
    "RowResult",
    "TableReport",
]


def classification_table(e_max: int = 4) -> tuple[ClassificationRow, ...]:
    """The classification rows, grouped by d - m0 as in the published layout."""
    return generate_classification(e_max)


_CSV_HEADER = ["d_minus_m0", "system", "v", "ell", "range", "boundary_case"]


def classification_to_csv(rows: tuple[ClassificationRow, ...]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(classification_to_json(rows))
    return buf.getvalue()


def classification_to_json(rows: tuple[ClassificationRow, ...]) -> list[dict]:
    return [dict(zip(_CSV_HEADER, (r.offset, r.system, r.v, r.ell, r.range, r.boundary_case)))
            for r in rows]


# -- hard-case regression list -------------------------------------------------


@dataclass(frozen=True)
class HardCase:
    offset: int
    system: str
    status: str  # "empty" | "regular"
    method: str

    def parsed(self) -> LinearSystem:
        return parse_system(self.system)


def hard_cases_csv() -> str:
    """The hard-case list as shipped, ``data/hard_cases.csv``."""
    return resources.files("fatpoints.data").joinpath("hard_cases.csv").read_text()


def known_hard_cases() -> tuple[HardCase, ...]:
    """Low-degree systems that defeated the degeneration search, with verdicts."""
    _header, *rows = csv.reader(io.StringIO(hard_cases_csv()))
    return tuple(HardCase(int(offset), system, status, method)
                 for offset, system, status, method in rows)


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
    passed: bool
    checks: tuple[InstanceCheck, ...]


@dataclass(frozen=True)
class TableReport:
    results: tuple[RowResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _proven_floor(sys: LinearSystem) -> int | None:
    """The ``ell`` of the classifier's special fixed-part removal for ``sys`` if
    :func:`check_certificate` accepts it, else None.  The removal proves
    ``dim sys = dim(residual) >= v(residual) = ell``; only that bound is used."""
    verdict = hh_dimension(sys)
    if verdict.status != SPECIAL:
        return None
    try:
        check_certificate(verdict.to_json())
    except CertificateError:
        return None
    return verdict.ell


def _check_instance(mode: str, sys: LinearSystem, v: int, ell: int, boundary: bool,
                    prime: int, seed: int, trials: int) -> InstanceCheck:
    name = str(sys)
    if mode == "formula":
        got = virtual_dim(sys)
        return InstanceCheck(name, got == v, str(v), str(got),
                             f'fatpoints vdim "{name}"')
    if mode == "hh":
        got, cmd = hh_prediction(sys)[1], f'fatpoints classify "{name}"'
    else:  # the reproduce command runs every trial: it recomputes without the floor
        got = dimension_char_p(sys, seed, prime, trials, floor=_proven_floor(sys))
        cmd = (f'fatpoints oracle --system "{name}" --prime {prime} '
               f'--seed {seed} --trials {trials}')
    ok = got > ell if boundary else got == ell
    return InstanceCheck(name, ok, f"> {ell}" if boundary else str(ell), str(got), cmd)


# the report keeps every instance; each family instance at e <= 26 has degree <= 260
_D_CAP_LIMIT = 300


def verify_table(rows: tuple[ClassificationRow, ...], mode: str = "formula", *,
                 e_limit: int = 4, d_cap: int | None = None,
                 prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 3) -> TableReport:
    """Per-row checks of the v column, the ell column, or both against the oracle.

    In every mode only instances with degree at most ``d_cap`` are run.
    Boundary instances of the all-n rows (where the value jumps onto a
    parameter family) are checked for a strict excess instead of equality.
    In oracle mode the trials stop at the bound of :func:`_proven_floor`.  Before
    any row, ValueError refuses an unknown mode, an ``e_limit`` outside 1..26 (the
    range of ``e_max``), a ``d_cap`` outside 0..``_D_CAP_LIMIT`` (either would
    check no instance or too many), in oracle mode a bad prime, seed or trial
    count or an instance over the oracle's size cap, and last a plan of no instance.
    """
    if mode not in ("formula", "hh", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    if e_limit < 1:
        raise ValueError(f"e_limit must be >= 1, got {e_limit}")
    if e_limit > _E_MAX_LIMIT:
        raise ValueError(f"e_limit must be <= {_E_MAX_LIMIT}, got {e_limit}")
    if d_cap is not None and d_cap < 0:
        raise ValueError(f"d_cap must be >= 0, got {d_cap}")
    if d_cap is not None and d_cap > _D_CAP_LIMIT:
        raise ValueError(f"d_cap must be <= {_D_CAP_LIMIT}, got {d_cap}")
    plan = [(row, tuple(row.instances(e_limit=e_limit, d_cap=d_cap))) for row in rows]
    if mode == "oracle":
        prime = check_settings(prime, trials, seed)
        for system in (inst[0] for _, instances in plan for inst in instances):
            reason = size_failure(system)
            if reason is not None:
                raise ValueError(reason)
    if not any(instances for _, instances in plan):
        raise ValueError(f"no instance has degree <= d_cap ({d_cap})")
    results = []
    for row, instances in plan:
        checks = tuple(_check_instance(mode, *inst, prime, seed, trials) for inst in instances)
        results.append(RowResult(row.system, all(c.passed for c in checks), checks))
    return TableReport(tuple(results))
