"""(-1)-curves, fixed-part splitting, and the speciality classifier.

For quasi-homogeneous systems with multiplicities up to 6 away from ``p0``,
every (-1)-curve that can split off twice has tail multiplicity at most 3 and
belongs to a short catalog: the conic through five points, the degree-e family
``L(e, e-1, 1^2e)``, the line through ``p0`` and one point, the sextic
``L(6, 3, 2^7)``, the degree-12 curve ``L(12, 8, 3^9)``, and two compound
configurations built from permuted lines, ``L(k, k, 1^k)`` and ``L(3, 0, 2^3)``.
The catalog is encoded once, as given data; its completeness is not re-derived
here.  The split chain tries the compounds first, so that symmetric fixed parts
are removed as units, then the simple classes of ``_simple_classes``;
``find_splittings`` lists every placement of the same classes.  The module
keeps no cache.

A system is ``(-1)-special`` when some catalog curve splits off at least
twice and the residual system, after all fixed (-1)-parts are removed, still
has nonnegative virtual dimension.  The removal turns into a dimension value:
the dimension of a special system equals the expected dimension of its
residual.  ``hh_prediction`` computes that ``(status, ell)`` on raw
``(degree, mults)`` data and builds no system: it is the prover's prediction
for every piece it meets, and the value the table generator and the table
checks read.  ``hh_dimension`` is the same value with the trace that a
certificate holds.  ``split_off`` (the arithmetic of one split) and
``speciality_failure`` (the speciality rule) are written once here; the
certificate checker replays removals with the same two functions.

``generate_classification`` re-runs the case analysis over the catalog and
produces the complete table of (-1)-special quasi-homogeneous systems of tail
multiplicity 6, organized by ``d - m0``.  ``ClassificationRow.instances`` is
the one definition of the systems a row covers: the generator's checks of its
general rows and its search for single rows read it, as the table checks do.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, zip_longest
from math import comb
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .core import (LinearSystem, arithmetic_genus, format_system, intersect, slot_order,
                   vector_dim, virtual_dim)
from .verdict import EMPTY, REGULAR, SPECIAL, DimVerdict

__all__ = [
    "ClassificationRow",
    "Splitting",
    "is_minus_one_class",
    "is_catalog_curve",
    "check_regime",
    "find_splittings",
    "is_minus_one_special",
    "hh_prediction",
    "hh_dimension",
    "speciality_failure",
    "split_off",
    "generate_classification",
]


def is_minus_one_class(D: LinearSystem) -> bool:
    """Self-intersection -1 and arithmetic genus 0."""
    return intersect(D, D) == -1 and arithmetic_genus(D) == 0


# -- the catalog ------------------------------------------------------------


# (degree, m0, tail_mult, tail_points) of the simple classes that are not
# pencils L(e, e-1, 1^2e), by degree and then m0, both descending
_NON_PENCILS = ((12, 8, 3, 9), (6, 3, 2, 7), (2, 0, 1, 5), (1, 1, 1, 1))


def _simple_classes(t: int) -> list[tuple[int, int, int, int]]:
    """The simple classes on ``t`` tail slots, by degree and then m0, both
    descending: the order in which the split chain tries them."""
    classes = [(e, e - 1, 1, 2 * e) for e in range(1, t // 2 + 1)]
    for c in _NON_PENCILS:
        if c[3] <= t:
            insort(classes, c)
    return classes[::-1]


def is_catalog_curve(curve: LinearSystem) -> bool:
    """Whether ``curve`` in normal form is a simple class of the catalog (the
    lines of the compounds among them): the curves the split chain writes.
    The class is compared by its shape ``(degree, m0, tail multiplicity, tail
    points)``, zero tail entries ignored as normal form drops them."""
    tail = [m for m in curve.tail if m]
    t = len(tail)
    return bool(tail) and tail.count(tail[0]) == t and \
        (curve.degree, curve.m0, tail[0], t) in _simple_classes(t)


def _curve(degree: int, m0: int, mult: int, slots: Sequence[int], width: int
           ) -> tuple[int, tuple[int, ...]]:
    """``(degree, mults)`` of a curve with ``mult`` at each of ``slots`` (indices
    into a vector of ``width`` slots, 0 being ``p0``) and ``m0`` at ``p0``."""
    mults = [0] * width
    mults[0] = m0
    for s in slots:
        mults[s] = mult
    return degree, tuple(mults)


def _compound_lines(through_p0: bool, slots: Sequence[int], width: int
                    ) -> list[tuple[int, tuple[int, ...]]]:
    """The lines of a compound on ``slots``: ``L(k,k,1^k)`` is a line through
    ``p0`` and each slot, ``L(3,0,2^3)`` a line through each pair of slots."""
    if through_p0:
        return [_curve(1, 1, 1, (s,), width) for s in slots]
    return [_curve(1, 0, 1, pair, width) for pair in combinations(slots, 2)]


# -- splitting engine --------------------------------------------------------


class Splitting(NamedTuple):
    curve: LinearSystem
    intersection: int


def check_regime(L: LinearSystem):
    """Raise ValueError unless ``L`` is quasi-homogeneous of tail multiplicity <= 6."""
    try:
        m = L.tail_multiplicity()
    except ValueError:
        raise ValueError(f"{L} is not quasi-homogeneous: its tail multiplicities differ") from None
    if m > 6:
        raise ValueError(f"{L} has tail multiplicity {m}; "
                         f"only systems of tail multiplicity <= 6 are handled")


def split_off(d: int, mults: tuple[int, ...], n: int, curve_degree: int,
              curve_mults: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``(d, mults)`` minus ``n`` times the curve, the shorter vector zero-padded."""
    return d - n * curve_degree, tuple([
        x - n * y for x, y in zip_longest(mults, curve_mults, fillvalue=0)])


def speciality_failure(pieces: Sequence[tuple[tuple[int, tuple[int, ...]], int]],
                       residual: tuple[int, tuple[int, ...]]) -> str | None:
    """Why removing ``pieces`` down to ``residual`` does not make a system
    (-1)-special, or None when it does.

    ``pieces`` are ``(curve, n)`` pairs; each curve, like the residual, is raw
    ``(degree, mults)`` data.  (-1)-special means: some curve splits off at
    least twice, the residual has nonnegative virtual dimension, and the
    curves are pairwise disjoint.
    """
    if max((n for _, n in pieces), default=0) < 2:
        return "no curve splits off twice"
    if vector_dim(*residual) < 0:
        return "the residual has negative virtual dimension"
    for ((da, ma), _), ((db, mb), _) in combinations(pieces, 2):
        if da * db != sum(map(mul, ma, mb)):  # the pairing; zip stops where zeros would pad
            return f"split curves meet: {format_system(da, ma)} . {format_system(db, mb)} != 0"
    return None


def _next_split(d: int, m: tuple[int, ...]):
    """First applicable split: the compounds, then :func:`_simple_classes`.

    Each family is placed on the tail slots of largest multiplicity.  Returns
    ``("apply", constituents, n)`` for a usable split, ``("reject", curve, n)``
    when a negative simple class cannot be subtracted (which proves the system
    empty), or None at a fixpoint.
    """
    t = len(m) - 1
    if t < 1:
        return None
    order = slot_order(m, 1)  # the tail slots
    vals = [m[s] for s in order]
    width, m0, top = len(m), m[0], vals[0]
    # a compound needs equal values on its slots: the first vals.count(top)
    # slots.  Each line of L(k,k,1^k) meets the system in d - m0 - top, so the
    # first bundle that fits is the largest k with n * k <= min(d, m0).
    n = m0 + top - d
    if n > 0 and top >= n:
        k = min(vals.count(top), d // n, m0 // n)
        if k >= 2:
            return ("apply", _compound_lines(True, order[:k], width), n)
    n = 2 * top - d  # each line of L(3,0,2^3) meets the system in d - 2 top
    if n > 0 and d >= 3 * n and top >= 2 * n and t >= 3 and vals[2] == top:
        return ("apply", _compound_lines(False, order[:3], width), n)
    sums = list(accumulate(vals))  # the r largest tail values add up to sums[r - 1]
    for e, a, mu, r in _simple_classes(t):
        n = a * m0 + mu * sums[r - 1] - e * d
        if n > 0:
            curve = _curve(e, a, mu, order[:r], width)
            if d >= n * e and m0 >= n * a and vals[r - 1] >= n * mu:
                return ("apply", [curve], n)
            # a fixed irreducible curve that cannot be subtracted: the system
            # has no members at all
            return ("reject", curve, n)
    return None


def _split_chain(L: LinearSystem):
    """``(steps, residual, rejected)``: each ``(curve, n)`` split off ``L`` in
    turn, then the ``(d, mults)`` left or the ``(curve, n)`` that does not fit
    (the other is None).  Curves are aligned ``(d, mults)``."""
    base = L.normalize()
    d = base.degree
    m = base.mults
    steps = []
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= base.degree + 2, f"splitting of {base} failed to terminate"
        action = _next_split(d, m)
        if action is None:
            return tuple(steps), (d, m), None
        if action[0] == "reject":
            _, curve, n = action
            return tuple(steps), None, (curve, n)
        _, constituents, n = action
        for cd, cm in constituents:
            d, m = split_off(d, m, n, cd, cm)
            steps.append(((cd, cm), n))
        assert min(d, *m) >= 0


_MAX_SPLITTINGS = 100_000  # placements that find_splittings lists at most


def find_splittings(L: LinearSystem) -> tuple[Splitting, ...]:
    """Every catalog class meeting ``L`` negatively, at every placement, by
    degree of the curve, then by multiplicity vector (largest first).

    On ``t`` tail slots the classes are the compounds ``L(k,k,1^k)`` for
    k = t..2 and ``L(3,0,2^3)``, then :func:`_simple_classes`.  In the regime a
    class meets ``L`` in the same number wherever it is placed, so each class
    is tested once, and more than ``_MAX_SPLITTINGS`` placements are refused
    (ValueError) before any is built.
    """
    check_regime(L)
    base = L.normalize()
    t = len(base.tail)
    m = base.tail_multiplicity()
    classes = [(k, k, 1, k) for k in range(t, 1, -1)]
    if t >= 3:
        classes.append((3, 0, 2, 3))
    negative = [((e, a, mu, r), val) for e, a, mu, r in classes + _simple_classes(t)
                if (val := e * base.degree - a * base.m0 - mu * m * r) <= -1]
    sizes = accumulate(comb(t, r) for (*_, r), _ in negative)
    if any(size > _MAX_SPLITTINGS for size in sizes):
        raise ValueError(f"{base} meets more than {_MAX_SPLITTINGS} catalog "
                         f"placements negatively; refusing to list them")
    found = [Splitting(LinearSystem(*_curve(e, a, mu, slots, t + 1)), val)
             for (e, a, mu, r), val in negative
             for slots in combinations(range(1, t + 1), r)]
    found.sort(key=lambda s: (s.curve.degree, tuple(-x for x in s.curve.mults)))
    return tuple(found)


def is_minus_one_special(L: LinearSystem) -> tuple[bool, DimVerdict | None]:
    """Classifier: does a multiple (-1)-part leave a residual with v >= 0?

    The witness is the ``special_known`` verdict of :func:`hh_dimension`; its
    trace is a fixed-part removal that ``check_certificate`` replays.
    """
    verdict = hh_dimension(L)
    return (True, verdict) if verdict.status == SPECIAL else (False, None)


def hh_prediction(L: LinearSystem) -> tuple[str, int]:
    """``(status, ell)`` of :func:`hh_dimension`, without its trace: the split
    chain on raw ``(degree, mults)`` data, judged by :func:`speciality_failure`.

    Sound in the same regime; other systems raise the same ValueError.
    """
    check_regime(L)
    return _judged(*_split_chain(L))


def _judged(steps, residual, rejected) -> tuple[str, int]:
    """``(status, ell)`` of the outcome of :func:`_split_chain`."""
    if rejected is not None:
        return EMPTY, -1
    ell = max(-1, vector_dim(*residual))
    if speciality_failure(steps, residual) is None:
        return SPECIAL, ell
    return (EMPTY if ell == -1 else REGULAR), ell


def hh_dimension(L: LinearSystem) -> DimVerdict:
    """Dimension predicted by iterated removal of fixed (-1)-parts, with the
    trace that ``check_certificate`` replays.

    Sound for quasi-homogeneous systems of tail multiplicity at most 6 (the
    classified range); other systems raise ValueError.
    """
    check_regime(L)
    base = L.normalize()
    steps, residual, rejected = _split_chain(base)
    status, ell = _judged(steps, residual, rejected)
    trace = {"kind": "fixed_part_removal", "system": str(base),
             "steps": [{"curve": format_system(*curve), "n": n} for curve, n in steps],
             "residual": None if residual is None else format_system(*residual),
             "rejected": None if rejected is None else {"curve": format_system(*rejected[0]),
                                                        "n": rejected[1]},
             "special": status == SPECIAL, "ell": ell}
    return DimVerdict(status, ell, base, trace)


# -- classification table ----------------------------------------------------


def _linform(terms: list[tuple[int, str]], const: int) -> str:
    out = ""
    for coeff, var in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if out else "")
        mag = abs(coeff)
        out += f"{sign}{'' if mag == 1 else mag}{var}"
    if const != 0 or not out:
        sign = "-" if const < 0 else ("+" if out else "")
        out += f"{sign}{abs(const)}"
    return out


@dataclass(frozen=True)
class ClassificationRow:
    """One row of the classification table, exactly one of three shapes.

    * ``family``:  systems L(alpha*e + beta, alpha*e + beta - offset, 6^2e),
      v and ell linear in e, valid for 1 <= e (<= e_end when bounded);
    * ``general``: systems L(d, d - offset, 6^n) for every n >= 1 and d in
      the stated range;
    * ``single``:  one concrete system.
    """

    offset: int
    shape: str
    system: str
    v: str
    ell: str
    range: str
    boundary_case: str
    payload: tuple

    def instances(self, e_limit: int = 4, d_cap: int | None = None, n_limit: int | None = None
                  ) -> Iterator[tuple[LinearSystem, int, int, bool]]:
        """Concrete systems with their v, ell, and a boundary flag."""
        if self.shape == "family":
            alpha, beta, vs, vc, ls, lc, e_end = self.payload
            top = e_limit if e_end == 0 else min(e_limit, e_end)
            for e in range(1, top + 1):
                d = alpha * e + beta
                if d_cap is not None and d > d_cap:
                    continue
                sys = LinearSystem(d, (d - self.offset,) + (6,) * (2 * e))
                yield sys, vs * e + vc, ls * e + lc, False
        elif self.shape == "general":
            x, boundary = self.payload
            n_top = n_limit if n_limit is not None else 2 * e_limit
            for n in range(1, n_top + 1):
                lo = _general_lower(x, n)
                hi = d_cap if d_cap is not None else lo + e_limit
                for d in range(lo, hi + 1):
                    sys = LinearSystem(d, (d - x,) + (6,) * n)
                    flag = any(n % 2 == 0 and d == a * (n // 2) + b for a, b in boundary)
                    yield sys, _general_v(x, d, n), _general_ell(x, d, n), flag
        else:
            d, m0, n, v, ell = self.payload
            if d_cap is None or d <= d_cap:
                yield LinearSystem(d, (m0,) + (6,) * n), v, ell, False


def _general_v(x: int, d: int, n: int) -> int:
    return (x + 1) * d - x * (x - 1) // 2 - 21 * n


def _general_q(x: int) -> int:
    return 21 - ((6 - x) ** 2 - (6 - x)) // 2


def _general_ell(x: int, d: int, n: int) -> int:
    return (x + 1) * d - x * (x - 1) // 2 - _general_q(x) * n


def _general_lower(x: int, n: int) -> int:
    """Least degree with nonnegative residual dimension."""
    num = _general_q(x) * n + x * (x - 1) // 2
    return -((-num) // (x + 1))  # ceil


def _family_rows(probe: int) -> list[ClassificationRow]:
    rows = []
    for x in range(2, 11):
        alpha = 12 - x
        for mu in range(2, 7):
            beta = x - mu
            samples: list[tuple[int, int] | None] = []
            for e in range(1, probe + 1):
                d = alpha * e + beta
                if d < 0 or d - x < 0:
                    samples.append(None)
                    continue
                sys = LinearSystem(d, (d - x,) + (6,) * (2 * e))
                status, ell = hh_prediction(sys)
                if status != SPECIAL:
                    samples.append(None)
                    continue
                samples.append((virtual_dim(sys), ell))
            if samples[0] is None or samples[1] is None:
                if samples[0] is not None:
                    raise RuntimeError(f"family x={x} mu={mu} valid only at e=1")
                continue
            (v1, l1), (v2, l2) = samples[0], samples[1]
            vs, vc = v2 - v1, 2 * v1 - v2
            ls, lc = l2 - l1, 2 * l1 - l2
            e_end = 0 if ls >= 0 else lc // (-ls)
            for e, s in enumerate(samples, start=1):
                in_range = e_end == 0 or e <= e_end
                if in_range and s != (vs * e + vc, ls * e + lc):
                    raise RuntimeError(f"family x={x} mu={mu} is not linear in e")
                if not in_range and s is not None:
                    raise RuntimeError(f"family x={x} mu={mu} extends past e={e_end}")
            rows.append(ClassificationRow(
                offset=x,
                shape="family",
                system=(f"L({_linform([(alpha, 'e')], beta)},"
                        f"{_linform([(alpha, 'e')], beta - x)},"
                        f"6^{_linform([(2, 'e')], 0)})"),
                v=_linform([(vs, "e")], vc),
                ell=_linform([(ls, "e")], lc),
                range="e >= 1" if e_end == 0 else f"{e_end} >= e >= 1",
                boundary_case="",
                payload=(alpha, beta, vs, vc, ls, lc, e_end),
            ))
    return rows


def _coverage(rows: Sequence[ClassificationRow], d_cap: int, n_limit: int) -> set[LinearSystem]:
    """The systems of degree at most ``d_cap`` on at most ``n_limit`` tail points
    that the family and general ``rows`` cover, as their ``instances`` yield them."""
    return {sys for row in rows
            for sys, *_ in row.instances(e_limit=n_limit // 2, d_cap=d_cap, n_limit=n_limit)}


def _general_rows(families: list[ClassificationRow], probe: int) -> list[ClassificationRow]:
    rows = []
    for mu in range(6, 1, -1):
        x = 6 - mu
        q = _general_q(x)
        cx = x * (x - 1) // 2
        offset_families = [fam for fam in families if fam.offset == x]
        boundary = []
        for fam in offset_families:
            alpha, beta = fam.payload[0], fam.payload[1]
            # the family lies inside this row's range iff the row's ell
            # formula is nonnegative along it
            slope = (x + 1) * alpha - 2 * q
            const = (x + 1) * beta - cx
            if slope > 0 or (slope == 0 and const >= 0):
                boundary.append((alpha, beta))
        bound = _linform([(q, "n")], cx)
        if x:
            bound = (f"({bound})" if cx else bound) + f"/{x + 1}"
        conds = " or ".join(
            f"d = {_linform([(alpha // 2, 'n')] if alpha % 2 == 0 else [(alpha, 'n/2')], beta)}"
            for alpha, beta in boundary)
        row = ClassificationRow(
            offset=x,
            shape="general",
            system=f"L(d,{_linform([(1, 'd')], -x)},6^n)",
            v=_linform([(-21, "n"), (x + 1, "d")], -cx),
            ell=_linform([(-q, "n"), (x + 1, "d")], -cx),
            range=f"d >= {bound} >= {Fraction(q + cx, x + 1)}",
            boundary_case=conds + ", n even" if conds else "",
            payload=(x, tuple(boundary)),
        )
        # spot-check the row's first three degrees against the classifier
        for sys, _, ell, at_boundary in row.instances(e_limit=2, n_limit=probe + 1):
            status, got = hh_prediction(sys)
            if status != SPECIAL:
                raise RuntimeError(f"general x={x}: {sys} not special")
            if at_boundary and got <= ell:
                raise RuntimeError(f"general x={x}: no jump at boundary {sys}")
            if not at_boundary and got != ell:
                raise RuntimeError(f"general x={x}: ell mismatch at {sys}")
        # just below the range the system may only be special through one
        # of the x-offset parameter families
        covered = _coverage(offset_families, _general_lower(x, probe + 1), probe + 1)
        for n in range(1, probe + 2):
            lo = _general_lower(x, n)
            if lo - 1 - x >= 0:
                below = LinearSystem(lo - 1, (lo - 1 - x,) + (6,) * n)
                if hh_prediction(below)[0] == SPECIAL and below not in covered:
                    raise RuntimeError(f"general x={x}: range not sharp at {below}")
        rows.append(row)
    return rows


def _single_rows(families: list[ClassificationRow], generals: list[ClassificationRow]
                 ) -> list[ClassificationRow]:
    # degrees pinned by "residual meets the split curve in zero": the conic
    # split forces 2d = 30 - mu, the line triangle d = 12 - mu, L(6,3,2^7)
    # forces d = 18, and L(12,8,3^9) forces d = 24
    candidates: list[tuple[int, int]] = []
    for mu in range(2, 7):
        if (30 - mu) % 2 == 0 and 6 - mu >= 0:
            candidates.append(((30 - mu) // 2, 5))
        if 6 - 2 * mu >= 0:
            candidates.append((12 - mu, 3))
    candidates.append((18, 7))
    candidates.append((24, 9))
    covered = _coverage(families + generals, max(d for d, _ in candidates),
                        max(n for _, n in candidates))

    rows = []
    for d, n in sorted(set(candidates)):
        for m0 in range(0, d + 1):
            sys = LinearSystem(d, (m0,) + (6,) * n)
            if sys in covered:
                continue
            status, ell = hh_prediction(sys)
            if status != SPECIAL:
                continue
            v = virtual_dim(sys)
            rows.append(ClassificationRow(
                offset=d - m0,
                shape="single",
                system=str(sys),
                v=str(v),
                ell=str(ell),
                range="",
                boundary_case="",
                payload=(d, m0, n, v, ell),
            ))
    return rows


# generation time grows about as e_max^3 (about 1.2 s at 26); the acceptance suite
# checks the table up to e = 26
_E_MAX_LIMIT = 26


def generate_classification(e_max: int = 4) -> tuple[ClassificationRow, ...]:
    """The complete table of (-1)-special systems L(d, m0, 6^n).

    Rows are found by direct search over the catalog split cases and verified
    with the classifier; parameterized rows are fitted from instantiations
    (probing at least three parameter values regardless of ``e_max``) and
    their validity ranges derived from the residual dimension.  An ``e_max``
    outside ``1..26`` raises ValueError before any work.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    if e_max > _E_MAX_LIMIT:
        raise ValueError(f"e_max must be <= {_E_MAX_LIMIT}")
    probe = max(e_max, 3)
    families = _family_rows(probe)
    generals = _general_rows(families, probe)
    singles = _single_rows(families, generals)
    rows = families + generals + singles

    def rank(row: ClassificationRow):
        if row.shape == "family":
            return (row.offset, 0, row.payload[1], 0, 0)
        if row.shape == "general":
            return (row.offset, 1, 0, 0, 0)
        return (row.offset, 2, 0, row.payload[0], row.payload[1])

    return tuple(sorted(rows, key=rank))
