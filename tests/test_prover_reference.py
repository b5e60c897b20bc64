"""The prover's arithmetic against its earlier element-by-element forms.

``format_system``, ``normalize``, ``virtual_dim``, the ``LinearSystem``
constructor, ``standard_reduce``, ``replay_transcript`` and the split chain
behind ``hh_dimension`` were rewritten with C-level builtins, a scan that
reads the catalog order in closed form and from prefix sums, and moves on raw
``(degree, mults)`` data that format no intermediate system; the checker's
(-1)-curve test now takes its moves from ``next_move``.  The functions below
are those earlier forms, kept as references and built only from public names:
the property tests require equal outputs, equal moves and equal exceptions
(type and message) on the same inputs, forged transcripts included.

The prover's degeneration attempt ``_try`` once pruned by hand-written
conditions and now applies ``criterion_failure`` to the pieces' virtual
dimensions in closed form and to the classifier's predictions;
``reference_try`` is the earlier attempt, run on the prover's own context, and
must return the same node on every attempt of two boxes.  The prediction,
``hh_prediction``, must equal the ``(status, ell)`` of ``hh_dimension``.

A prover node once ran the classifier before it reduced the system, and now
reduces first and classifies only when the reduction's base case leaves the
question open; ``reference_solve_fresh`` is the earlier node, built from the
module's own names, and must give the same verdicts, node counts and budget
outcomes.  ``LinearSystem.base_points`` and the ``multiplicity_exceeds_degree``
test were rewritten with C-level builtins and are held to their earlier forms.
The constructor's reference converts with ``operator.index``, as the
constructor does, so a float or a string of digits is refused.

``standard_reduce`` now picks each move from the rank of ``p0`` among the three
heaviest points and re-inserts only the values the move changed; it is held to
``reference_standard_reduce`` on a system for each of the seven moves, on ties,
short tails and early stops, and on mixed tails of up to 200 points.

``replay_transcript`` now keeps ``p0`` and the descending tail in one list and
re-inserts only the values a move changes; it is held to
``reference_replay_transcript`` on forged moves placed anywhere in vectors of
up to 200 points, after a recorded reduction or from the start.
"""

import json
import operator
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_catalog
from fatpoints import degeneration
from fatpoints.core import (LinearSystem, expected_dim, format_system, parse_system,
                            virtual_dim)
from fatpoints.cremona import (Move, NegativeEntryError, NotFixedError, cremona_vector, next_move,
                               replay_transcript, split_line_vector, standard_reduce)
from fatpoints.degeneration import (_BASE_CASES, Budget, DegenerationSplit, _base_case, _Ctx,
                                    _is_minus_one_curve, _try)
from fatpoints.neg_curves import (_next_split, _simple_classes, _split_chain, hh_dimension,
                                  hh_prediction, is_minus_one_class)
from fatpoints.oracle import size_failure
from fatpoints.verdict import EMPTY, REGULAR, SPECIAL, UNKNOWN, DimVerdict


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as err:  # the comparison is the test
        return "raised", type(err), str(err)


# -- references: core -----------------------------------------------------------


def reference_construct(degree, mults):
    """``LinearSystem.__post_init__``: the stored fields, or its error.  Every entry
    is converted by ``operator.index``, so a float or a string is refused."""
    mults = tuple(operator.index(m) for m in mults)
    degree = operator.index(degree)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if any(m < 0 for m in mults):
        raise ValueError(f"multiplicities must be >= 0, got {mults}")
    return degree, mults


def reference_normalize(L):
    if not L.mults:
        return L
    tail = tuple(sorted((m for m in L.tail if m > 0), reverse=True))
    return LinearSystem(L.degree, (L.mults[0],) + tail)


def reference_base_points(L):
    return sum(1 for m in L.mults if m > 0)


def reference_virtual_dim(L):
    d = L.degree
    return d * (d + 3) // 2 - sum(m * (m + 1) // 2 for m in L.mults)


def reference_format_system(L):
    parts = []
    mults = L.mults
    if mults:
        parts.append(str(mults[0]))
    i = 1
    while i < len(mults):
        j = i
        while j < len(mults) and mults[j] == mults[i]:
            j += 1
        count = j - i
        parts.append(f"{mults[i]}^{count}" if count > 1 else f"{mults[i]}")
        i = j
    return f"L({L.degree}{''.join(',' + p for p in parts)})"


# -- references: cremona --------------------------------------------------------


def reference_slots_by_multiplicity(L):
    return sorted(range(len(L.mults)), key=lambda s: (-L.mults[s], s))


def reference_next_move(L):
    """The move that ``reference_standard_reduce`` makes next, read off the slot order."""
    order = reference_slots_by_multiplicity(L)
    if len(order) >= 2 and L.degree - L.mults[order[0]] - L.mults[order[1]] < 0:
        return "line", (order[0], order[1])
    if len(order) >= 3 and sum(L.mults[s] for s in order[:3]) > L.degree:
        return "cremona", (order[0], order[1], order[2])
    return None


def reference_standard_reduce(L):
    """``standard_reduce`` as it was: a ``LinearSystem`` per state, moves by comparisons."""
    moves = []
    cur = reference_normalize(L)
    initial_degree = L.degree
    while True:
        if any(m > cur.degree for m in cur.mults):
            break
        order = reference_slots_by_multiplicity(cur)
        if len(order) >= 2:
            a, b = order[0], order[1]
            if cur.degree - cur.mults[a] - cur.mults[b] < 0 and \
                    cur.mults[a] >= 1 and cur.mults[b] >= 1 and cur.degree >= 1:
                nxt = reference_normalize(
                    LinearSystem(*split_line_vector(cur.degree, cur.mults, a, b)))
                moves.append(Move("line", (a, b)))
                cur = nxt
                continue
        if len(order) >= 3:
            a, b, c = order[0], order[1], order[2]
            if cur.mults[a] + cur.mults[b] + cur.mults[c] > cur.degree:
                nxt = reference_normalize(
                    LinearSystem(*cremona_vector(cur.degree, cur.mults, a, b, c)))
                moves.append(Move("cremona", (a, b, c)))
                cur = nxt
                continue
        break
    assert len(moves) <= initial_degree + 1, "reduction failed to terminate"
    return cur, tuple(moves)


def reference_move(L, kind, slots):
    """One move of a transcript as it was: checks, arithmetic and messages of
    ``cremona_vector`` and ``split_line_vector``, element by element."""
    if kind == "cremona" and len(slots) == 3:
        if len(set(slots)) != 3:
            raise ValueError(f"slots must be distinct, got {tuple(slots)}")
    elif kind == "line" and len(slots) == 2:
        if slots[0] == slots[1]:
            raise ValueError("slots must be distinct")
    else:
        raise ValueError(f"unknown move kind {kind!r} on {len(slots)} slots")
    for s in slots:
        if not 0 <= s < len(L.mults):
            raise ValueError(f"slot {s} out of range for {len(L.mults)} slots")
    d, new = L.degree, list(L.mults)
    if kind == "cremona":
        w = d - sum(new[s] for s in slots)
        if d + w < 0:
            raise NegativeEntryError(None, d + w)
    else:
        if d - new[slots[0]] - new[slots[1]] >= 0:
            raise NotFixedError(f"line through slots {slots[0]},{slots[1]} of "
                                f"{reference_format_system(L)} is not fixed (d - mi - mj >= 0)")
        w = -1
        if d + w < 0:
            raise NegativeEntryError(None, d + w)
    for s in slots:
        new[s] += w
        if new[s] < 0:
            raise NegativeEntryError(s, new[s])
    return LinearSystem(d + w, tuple(new))


def reference_replay_transcript(moves, start):
    """``replay_transcript`` as it was: a ``LinearSystem`` per move."""
    cur = reference_normalize(start)
    for move in moves:
        cur = reference_normalize(reference_move(cur, move.kind, move.slots))
    return cur


def reference_is_minus_one_curve(curve):
    """The checker's (-1)-curve test as it was: its own top-three sort."""
    if not is_minus_one_class(curve):
        return False
    d, mults = curve.degree, curve.mults
    while d > 1:
        if len(mults) < 3:
            return False
        i, j, k = sorted(range(len(mults)), key=mults.__getitem__, reverse=True)[:3]
        if mults[i] + mults[j] + mults[k] <= d:
            return False
        try:
            d, mults = cremona_vector(d, mults, i, j, k)
        except NegativeEntryError:
            return False
    return d == 1


def minus_one_classes(max_degree, max_points):
    """Every ``(d, m)`` with ``m`` nonincreasing and positive, ``C.C = C.K = -1``."""
    out = []

    def grow(d, prefix, s, q, cap):
        # s and q: what sum(m) and sum(m^2) still lack; k: slots left
        k = max_points - len(prefix)
        if s == q == 0:
            out.append((d, tuple(prefix)))
        elif 0 < s <= k * cap and s <= q and s * s <= k * q:
            for m in range(min(cap, s), 0, -1):
                if m * m <= q:
                    grow(d, prefix + [m], s - m, q - m * m, m)

    for d in range(1, max_degree + 1):
        grow(d, [], 3 * d - 1, d * d + 1, d)
    return out


# -- references: the split chain -----------------------------------------------


def reference_aligned(entry, slots, width):
    """``entry`` on ``slots`` of a vector of ``width`` slots, as ``(degree, mults)``."""
    mults = [0] * width
    mults[0] = entry.m0
    for s in slots:
        mults[s] = entry.tail_mult
    return entry.degree, tuple(mults)


def reference_line(a, b, width):
    """The line through slots ``a`` and ``b``, as ``(degree, mults)``."""
    mults = [0] * width
    mults[a] += 1
    mults[b] += 1
    return 1, tuple(mults)


def reference_next_split(d, m, reverse):
    """``_next_split`` as it was: constituents built before the ``per >= 0`` test.
    ``reverse`` scans the catalog in reverse order."""
    t = len(m) - 1
    if t < 1:
        return None
    entries = reference_catalog(t)
    if reverse:
        entries = entries[::-1]
    order = sorted(range(1, len(m)), key=lambda s: (-m[s], s))
    width = len(m)
    for entry in entries:
        r = entry.tail_points
        if r > t:
            continue
        slots = order[:r]
        if entry.kind == "compound":
            vals = {m[s] for s in slots}
            if len(vals) != 1:
                continue
            val = vals.pop()
            if entry.m0 > 0:
                per = d - m[0] - val
                cons = [reference_line(0, s, width) for s in slots]
            else:
                per = d - 2 * val
                cons = [reference_line(a, b, width) for a, b in combinations(slots, 2)]
            if per >= 0:
                continue
            n = -per
            ok = (d - n * entry.degree >= 0 and m[0] - n * entry.m0 >= 0
                  and all(m[s] - n * entry.tail_mult >= 0 for s in slots))
            if not ok:
                continue
            return ("apply", cons, n)
        inter = entry.degree * d - entry.m0 * m[0] - entry.tail_mult * sum(m[s] for s in slots)
        if inter >= 0:
            continue
        n = -inter
        curve = reference_aligned(entry, slots, width)
        ok = (d - n * entry.degree >= 0 and m[0] - n * entry.m0 >= 0
              and all(m[s] - n * entry.tail_mult >= 0 for s in slots))
        if not ok:
            return ("reject", curve, n)
        return ("apply", [curve], n)
    return None


def reference_split_chain(L, reverse=False):
    """The split chain as it was, scanning the catalog in reverse if ``reverse``."""
    base = reference_normalize(L)
    d = base.degree
    m = list(base.mults)
    steps = []
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= base.degree + 2, f"splitting of {base} failed to terminate"
        action = reference_next_split(d, m, reverse)
        if action is None:
            return tuple(steps), (d, tuple(m)), None
        if action[0] == "reject":
            _, curve, n = action
            return tuple(steps), None, (curve, n)
        _, constituents, n = action
        for cd, cm in constituents:
            d -= n * cd
            m = [x - n * y for x, y in zip(m, cm)]
            steps.append(((cd, cm), n))
        assert d >= 0 and all(x >= 0 for x in m)


# -- references: the degeneration attempt ---------------------------------------


def reference_numeric_failure(rule, split, v):
    """The conditions of a degeneration rule that need no child, as they were."""
    if rule == "empty":
        if v > -1:
            return "emptiness rule needs v <= -1"
        if virtual_dim(split.parts["plane_kernel"]) > v:
            return "emptiness rule needs v(plane_kernel) <= v"
        return None
    if rule == "nonspecial":
        if v < -1:
            return "non-speciality rule needs v >= -1"
        if virtual_dim(split.parts["plane"]) < -1 or virtual_dim(split.parts["ruled"]) < -1:
            return "non-speciality rule needs restriction v >= -1"
        return None
    return f"unknown degeneration rule {rule!r}"


def reference_criterion_failure(rule, split, v, children):
    """The degeneration criterion as it was, on a map from each piece to its
    ``(status, ell)``; the emptiness rule does not state v(ruled_kernel) <= -1."""
    reason = reference_numeric_failure(rule, split, v)
    if reason is not None:
        return reason
    if children["plane"][0] not in (REGULAR, EMPTY) or children["ruled"][0] not in (REGULAR, EMPTY):
        return "restrictions must be certified non-special"
    (pk_status, pk_ell), (rk_status, rk_ell) = children["plane_kernel"], children["ruled_kernel"]
    if rule == "empty":
        if pk_status != EMPTY or rk_status != EMPTY:
            return "emptiness rule needs empty kernels"
        return None
    if UNKNOWN in (pk_status, rk_status):
        return "non-speciality rule needs certified kernels"
    if pk_ell + rk_ell > v - 1:
        return "kernels too large for the non-speciality rule"
    return None


def reference_try(split, rule, ctx):
    """The prover's degeneration attempt as it was, on the prover's own context:
    a hand-written prune (the conditions that need no child, a ruled kernel
    that cannot be empty, a (-1)-special piece the rule needs non-special),
    then every piece solved and the criterion applied to their proofs."""
    L = split.base
    v = virtual_dim(L)
    if reference_numeric_failure(rule, split, v) is not None:
        return None
    parts = split.parts
    if rule == "empty":
        if virtual_dim(parts["ruled_kernel"]) > -1:
            return None
        needed = parts.values()
    else:
        needed = (parts["plane"], parts["ruled"])
    if any(ctx.removal(s)[0] == SPECIAL for s in needed):
        return None
    children = {name: degeneration._solve(s, ctx) for name, s in parts.items()}
    proved = {name: (c.status, c.ell) for name, c in children.items()}
    if reference_criterion_failure(rule, split, v, proved) is not None:
        return None
    return {"kind": "degeneration", "system": str(L), "k": split.k, "b": split.b, "rule": rule,
            "ell": -1 if rule == "empty" else expected_dim(L),
            "children": {name: c.to_json() for name, c in children.items()}}


# -- references: the prover node --------------------------------------------------


def reference_solve_fresh(L, ctx):
    """The prover's node as it was: the classifier's prediction for every system
    that is no base case, before its reduction."""
    leaf = _base_case(L, _BASE_CASES[:2])
    if leaf is not None:
        return DimVerdict(degeneration._status(leaf["ell"]), leaf["ell"], L, leaf)
    if ctx.removal(L)[0] == SPECIAL:
        return hh_dimension(L)
    final, moves = degeneration.standard_reduce(L)
    leaf = _base_case(final, _BASE_CASES[1:])
    if leaf is None and moves and final.is_quasi_homogeneous():
        proof = degeneration._solve(final, ctx)
        if proof.status != UNKNOWN:
            leaf = proof.trace
    if leaf is not None:
        return degeneration._reduction_verdict(L, moves, leaf)
    found = degeneration._scan_degenerations(L, ctx)
    if found is not None:
        return found
    budget = ctx.budget
    if budget.use_oracle and size_failure(L) is None:
        leaf = degeneration._oracle_leaf(L, budget.prime, budget.seed, budget.trials)
        if leaf["ell"] == leaf["expected"]:
            return DimVerdict(degeneration._status(leaf["ell"]), leaf["ell"], L, leaf)
        return degeneration._unknown(L, "rank oracle exceeds the expected dimension",
                                     oracle=leaf)
    return degeneration._unknown(
        L, "out of methods" if ctx.nodes <= degeneration._MAX_NODES else "budget exhausted")


# -- strategies -----------------------------------------------------------------

# Any valid system: zeros inside the tail, tails out of order, m > d, no slots.
systems = st.builds(lambda d, mults: LinearSystem(d, tuple(mults)),
                    st.integers(0, 40), st.lists(st.integers(0, 45), max_size=12))

# The prover's regime: L(d, m0, m^n) with m <= 6, plus zero slots on request.
quasi_homogeneous = st.builds(
    lambda d, m0, m, n, zeros: LinearSystem(d, (m0,) + (m,) * n + (0,) * zeros),
    st.integers(0, 60), st.integers(0, 60), st.integers(0, 6), st.integers(0, 24),
    st.integers(0, 2))

# Long tails, with p0 near the degree so that runs of ``line (0, 1)`` splits
# cross several groups of the tail.
long_tails = st.builds(
    lambda m0, c, tail: LinearSystem(m0 + c, (m0,) + tuple(tail)),
    st.integers(0, 150), st.integers(0, 12), st.lists(st.integers(0, 14), max_size=120))

# Tails that mix every value from 1 to 14, up to 200 points, with p0 anywhere
# from 0 to above the degree: the reduction's rank of p0 takes every value.
mixed_tails = st.builds(
    lambda d, m0, tail: LinearSystem(d, (m0,) + tuple(tail)),
    st.integers(0, 60), st.integers(0, 70), st.lists(st.integers(1, 14), max_size=200))

# Tails of 60 to 200 points, mixed as above, and numbers that pick slots of them:
# long vectors for forged transcripts.
wide_tails = st.builds(
    lambda d, m0, tail: LinearSystem(d, (m0,) + tuple(tail)),
    st.integers(0, 60), st.integers(0, 70), st.lists(st.integers(1, 14), min_size=60,
                                                     max_size=200))
slot_number = st.integers(-1, 200)

raw_numbers = st.one_of(st.integers(-5, 50), st.floats(), st.booleans(),
                        st.sampled_from(["7", " 3 ", "x", "", None, 2 ** 70]))

EDGE_SYSTEMS = [LinearSystem(0), LinearSystem(0, (0,)), LinearSystem(7, ()),
                LinearSystem(5, (0, 0, 3, 0, 3)), LinearSystem(3, (9, 1, 4)),
                LinearSystem(10, (2, 6, 0, 6, 6)), LinearSystem(1, (0, 1)),
                LinearSystem(12, (12,) + (1,) * 12)]


def with_edges(*rest):
    """Run the test on every edge system too, with ``rest`` as its other arguments."""
    def decorate(test):
        for sys in EDGE_SYSTEMS:
            test = example(sys, *rest)(test)
        return test
    return decorate


def construct(degree, mults):
    L = LinearSystem(degree, mults)
    return L.degree, L.mults


# -- properties -----------------------------------------------------------------


class TestCoreMatchesReference:
    @settings(max_examples=500)
    @given(raw_numbers, st.one_of(st.lists(raw_numbers, max_size=8),
                                  st.sampled_from([5, None, "123", (1.5, -0.5)])))
    @example(-1, ())
    @example(3, (2, -1))
    @example(3.9, (2.7, 0.2))
    @example(-0.5, (-0.9,))
    @example(True, (False, True))
    @example(4, 5)
    @example(None, (1,))
    @example(10, "32")
    @example(12.7, (6.9, 6, 6))
    @example(np.int64(10), (np.int32(3), np.uint8(2)))
    def test_construction(self, degree, mults):
        got = outcome(construct, degree, mults)
        assert got == outcome(reference_construct, degree, mults)
        if got[0] == "value":
            assert all(type(x) is int for x in (got[1][0],) + got[1][1])

    @settings(max_examples=500)
    @given(st.one_of(systems, quasi_homogeneous))
    @with_edges()
    def test_format_normalize_virtual_dim(self, sys):
        assert format_system(sys.degree, sys.mults) == reference_format_system(sys)
        assert sys.normalize() == reference_normalize(sys)
        assert virtual_dim(sys) == reference_virtual_dim(sys)
        assert sys.base_points == reference_base_points(sys)
        exceeds = _base_case(sys, ("multiplicity_exceeds_degree",)) is not None
        assert exceeds == any(m > sys.degree for m in sys.mults)


class TestCremonaMatchesReference:
    @settings(max_examples=500)
    @given(st.one_of(systems, quasi_homogeneous, long_tails))
    @with_edges()
    # how a run of line (0, 1) splits ends: the top tail value reaches d - m0;
    # p0 falls below a partly lowered group (at L(2,2,2^2)); lowered values
    # reach 0 and are dropped; a run across several groups (32 of 34 moves)
    @example(parse_system("L(60,55,6^40)"))
    @example(parse_system("L(6,2,6^2)"))
    @example(parse_system("L(9,9,1^12)"))
    @example(parse_system("L(40,36,9,8^3,7^5)"))
    def test_standard_reduce(self, sys):
        assert next_move(sys.degree, sys.mults) == reference_next_move(sys)
        got = outcome(standard_reduce, sys)
        assert got == outcome(reference_standard_reduce, sys)
        if got[0] == "value":
            final, moves = got[1]
            assert replay_transcript(moves, sys) == final


# The first move of each system, one for each of the seven moves and its rank of
# p0; then m0 tied with the tail, p0 = 0, tails of one and two points, and
# reductions that stop early because a multiplicity exceeds the degree.
FIRST_MOVES = [
    ("L(10,5,4,4)", ("cremona", (0, 1, 2))),
    ("L(10,4,5,3)", ("cremona", (1, 0, 2))),
    ("L(10,3,4,4)", ("cremona", (1, 2, 0))),
    ("L(10,2,4^3)", ("cremona", (1, 2, 3))),
    ("L(10,6,6)", ("line", (0, 1))),
    ("L(10,5,6)", ("line", (1, 0))),
    ("L(10,4,6^2)", ("line", (1, 2))),
    ("L(10,2,6^3)", ("line", (1, 2))),
    ("L(12,6,6^3)", ("cremona", (0, 1, 2))),   # m0 tied: p0 first
    ("L(10,4,4^4)", ("cremona", (0, 1, 2))),
    ("L(7,3,3^2,2)", ("cremona", (0, 1, 2))),
    ("L(9,5,5,4)", ("line", (0, 1))),          # tied, then a line split
    ("L(12,0,6^4)", ("cremona", (1, 2, 3))),   # p0 = 0
    ("L(11,0,6^2)", ("line", (1, 2))),
    ("L(5,0,3)", None),
    ("L(5,3,3)", ("line", (0, 1))),            # a tail of one point
    ("L(5,4,2)", ("line", (0, 1))),
    ("L(5,2,4)", ("line", (1, 0))),
    ("L(5,2,2)", None),
    ("L(7,3,3^2)", ("cremona", (0, 1, 2))),    # a tail of two points
    ("L(7,2,3^2)", ("cremona", (1, 2, 0))),
    ("L(7,3,4,3)", ("cremona", (1, 0, 2))),
    ("L(13,5,6^5)", ("cremona", (1, 2, 3))),   # stops early at a multiplicity above d
    ("L(20,18,6^5)", ("line", (0, 1))),
    ("L(6,1,6^2)", ("line", (1, 2))),
    ("L(5,6,1)", None),                        # p0 above the degree: no move
    ("L(5,2,7^2)", None),
    ("L(0,0,1)", None),
]


class TestReductionMovesMatchReference:
    @pytest.mark.parametrize("name,first", FIRST_MOVES, ids=[name for name, _ in FIRST_MOVES])
    def test_explicit_systems(self, name, first):
        sys = parse_system(name)
        got = outcome(standard_reduce, sys)
        assert got == outcome(reference_standard_reduce, sys)
        final, moves = got[1]
        assert moves[:1] == ((Move(*first),) if first else ())
        assert replay_transcript(moves, sys) == final

    def test_every_move_and_rank_occurs(self):
        firsts = {Move(*first) for _, first in FIRST_MOVES if first}
        assert len(firsts) == 7

    @settings(max_examples=300, deadline=None)
    @given(mixed_tails)
    def test_mixed_tails(self, sys):
        got = outcome(standard_reduce, sys)
        assert got == outcome(reference_standard_reduce, sys)
        if got[0] == "value":
            final, moves = got[1]
            assert replay_transcript(moves, sys) == final


def forge(plan):
    """A transcript whose moves follow ``plan``: each entry is a kind and its slots."""
    return tuple(Move(kind, tuple(slots)) for kind, slots in plan)


L14 = LinearSystem(14, (0,) + (6,) * 6)
# (system, plan, the exception the replay raises); None: the transcript replays
FORGED = [
    (L14, [("cremona", (1, 2, 7))], ValueError),         # slot out of range
    (L14, [("line", (-1, 2))], ValueError),              # slot out of range
    (L14, [("cremona", (1, 2, 2))], ValueError),         # repeated slot
    (L14, [("line", (3, 3))], ValueError),               # repeated slot
    (L14, [("flip", (1, 2))], ValueError),               # unknown kind
    (L14, [("line", (1, 2, 3))], ValueError),            # a line on three slots
    (L14, [("line", (1, 2))], NotFixedError),            # 6 + 6 <= 14
    (LinearSystem(10, (2, 6, 6, 6)), [("cremona", (1, 2, 3))], NegativeEntryError),
    (LinearSystem(2, (3, 3, 3)), [("cremona", (0, 1, 2))], NegativeEntryError),  # degree
    (LinearSystem(0, (1, 1)), [("line", (0, 1))], NegativeEntryError),  # degree
    (LinearSystem(20, (18,) + (6,) * 5), [("line", (0, 1))] * 3, None),
]


slot = st.integers(-1, 12)
forged_moves = st.one_of(
    st.tuples(st.just("cremona"), st.tuples(slot, slot, slot)),
    st.tuples(st.just("line"), st.tuples(slot, slot)),
    st.tuples(st.sampled_from(["cremona", "line", "flip"]), st.lists(slot, max_size=4).map(tuple)))


class TestReplayMatchesReference:
    @pytest.mark.parametrize("sys,plan,raised", FORGED)
    def test_forged_transcripts(self, sys, plan, raised):
        moves = forge(plan)
        got = outcome(replay_transcript, moves, sys)
        assert got == outcome(reference_replay_transcript, moves, sys)
        assert got[:2] == (("value", reference_replay_transcript(moves, sys)) if raised is None
                           else ("raised", raised))

    @settings(max_examples=500)
    @given(st.one_of(systems, quasi_homogeneous), st.lists(forged_moves, max_size=6))
    def test_random_transcripts(self, sys, plan):
        moves = forge(plan)
        assert outcome(replay_transcript, moves, sys) == \
            outcome(reference_replay_transcript, moves, sys)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(long_tails, mixed_tails, wide_tails), st.booleans(),
           st.lists(st.one_of(st.tuples(st.just("cremona"), st.tuples(*[slot_number] * 3)),
                              st.tuples(st.just("line"), st.tuples(slot_number, slot_number))),
                    max_size=8))
    def test_forged_slots_across_long_vectors(self, sys, recorded, plan):
        """Moves on slots anywhere in the vector, from its start or after its
        recorded reduction.  The numbers of a move pick distinct slots of the
        vector that the moves before it reach (-1 stays out of range), so that
        values leave and re-enter the tail at any place."""
        moves = standard_reduce(sys)[1] if recorded else ()
        for kind, numbers in plan:
            reached = outcome(reference_replay_transcript, moves, sys)
            width = len(reached[1].mults) if reached[0] == "value" else 0
            free = list(range(width))  # each number picks one of the slots not yet taken
            moves += (Move(kind, tuple(free.pop(x % len(free)) if x >= 0 and free else x
                                       for x in numbers)),)
        assert outcome(replay_transcript, moves, sys) == \
            outcome(reference_replay_transcript, moves, sys)

    @settings(max_examples=300)
    @given(st.one_of(systems, quasi_homogeneous))
    @with_edges()
    def test_recorded_transcripts(self, sys):
        """The transcripts ``standard_reduce`` writes replay to its final system."""
        got = outcome(standard_reduce, sys)
        if got[0] == "value":
            final, moves = got[1]
            assert reference_replay_transcript(moves, sys) == final


class TestMinusOneCurveMatchesReference:
    def test_enumerated_classes(self):
        rng = random.Random(43)
        classes = minus_one_classes(15, 12)
        curves = 0
        for d, m in classes:
            for zeros in (0, 2):
                mults = list(m) + [0] * zeros
                rng.shuffle(mults)
                curve = LinearSystem(d, tuple(mults))
                got = _is_minus_one_curve(curve)
                assert got == reference_is_minus_one_curve(curve), curve
                curves += got
        # both answers occur, so the comparison is not vacuous
        assert len(classes) == 548 and 0 < curves < 2 * len(classes)


def quasi_homogeneous_sample(seed, count):
    """``count`` random systems ``L(d, m0, m^n)`` with ``m <= 6``."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        d = rng.randint(0, 28)
        n = rng.randint(0, 10)
        m = rng.randint(1, 6)
        m0 = rng.randint(0, d) if d else 0
        systems.append(LinearSystem(d, (m0,) + (m,) * n))
    return systems


class TestSplitChainMatchesReference:
    def test_scan_entries(self):
        for t in range(1, 61):
            simples = [entry[1:] for entry in reference_catalog(t) if entry.kind == "simple"]
            assert _simple_classes(t) == simples

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(systems, quasi_homogeneous))
    @with_edges()
    @example(LinearSystem(21, (0,) + (6,) * 10))
    def test_split_chain(self, sys):
        assert outcome(_split_chain, sys) == outcome(reference_split_chain, sys)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 40), st.lists(st.integers(0, 14), min_size=1, max_size=14))
    @example(10, [2, 6, 0, 6])
    @example(0, [0])
    # long tails: 2 x the bundle L(100,100,1^100), the pencil L(500,499,1^1000),
    # and the pencil L(1500,1499,1^3000), rejected: it meets the zero slot
    @example(249, [200] + [51] * 100)
    @example(501, [500, 2] + [1] * 999)
    @example(1500, [1499] + [1] * 2998 + [0, 2])
    def test_next_split_on_raw_vectors(self, d, m):
        assert outcome(_next_split, d, list(m)) == outcome(reference_next_split, d, list(m), False)

    def test_order_independence(self):
        """The split chain leaves the same residual when the catalog is scanned
        in reverse, though it splits other curves on the way."""
        reordered = 0
        for sys in quasi_homogeneous_sample(29, 500):
            steps, residual, _ = _split_chain(sys)
            reversed_steps, reversed_residual, _ = reference_split_chain(sys, reverse=True)
            reordered += reversed_steps != steps
            assert (residual is None) == (reversed_residual is None)
            if residual is not None:
                assert LinearSystem(*residual).normalize() == \
                    LinearSystem(*reversed_residual).normalize()
        assert reordered  # the reversed scan order takes effect


def traced_dimension(sys):
    """The ``(status, ell)`` of ``hh_dimension(sys)``: the verdict that carries the trace."""
    verdict = hh_dimension(sys)
    return verdict.status, verdict.ell


class TestPredictionMatchesTracedVerdict:
    @settings(max_examples=250, deadline=None)
    @given(st.one_of(quasi_homogeneous, systems))
    @with_edges()
    @example(LinearSystem(10, (2,) + (6,) * 3))  # special
    @example(LinearSystem(6, (6, 6, 6)))  # a rejected split
    @example(LinearSystem(20, (3,) + (7,) * 4))  # tail multiplicity 7
    def test_prediction(self, sys):
        """The prover's prediction is the classifier's verdict without its trace,
        and out of the regime both raise the same ValueError."""
        assert outcome(_Ctx(Budget()).removal, sys) == outcome(traced_dimension, sys)


def degeneration_attempts(tail_mults, max_degree, max_points):
    """Each ``L(d, m0, m^n)`` of the box with the ``(k, b, rule)`` attempts the
    scan may make on it: k in {5, 6, m-1, m}, every b < n, both rules."""
    for m in tail_mults:
        for d in range(max_degree + 1):
            for m0 in range(d + 1):
                for n in range(1, max_points + 1):
                    yield LinearSystem(d, (m0,) + (m,) * n), [
                        (k, b, rule) for k in dict.fromkeys((5, 6, m - 1, m)) if 1 <= k < d
                        for b in range(n) for rule in ("empty", "nonspecial")]


class TestDegenerationAttemptMatchesReference:
    @pytest.mark.parametrize("tail_mults,max_degree,max_points,count", [
        ((6,), 14, 8, 13752),
        ((1, 2, 3, 4, 5), 7, 3, 4020),
    ])
    def test_same_node_on_every_attempt(self, tail_mults, max_degree, max_points, count):
        """The predictions refute no attempt that the proofs would accept."""
        tried = proved = 0
        for system, plan in degeneration_attempts(tail_mults, max_degree, max_points):
            ctx = _Ctx(Budget())  # shared: a verdict depends on its system alone
            for k, b, rule in plan:
                node = _try(DegenerationSplit(system, k, b), rule, ctx)
                assert node == reference_try(DegenerationSplit(system, k, b), rule, ctx), \
                    (str(system), k, b, rule)
                tried += 1
                proved += node is not None
        assert tried == count and 0 < proved < tried


def solved(system, budget):
    """The ``dumps()`` of the prover's verdict on ``system`` and the number of
    systems its run solved."""
    ctx = _Ctx(budget)
    verdict = degeneration._solve(system.normalize(), ctx)
    return verdict.dumps(), ctx.nodes


def box(tail_mults, max_degree, max_points):
    """Every ``L(d, m0, m^n)`` with m in ``tail_mults``, m0 <= d <= max_degree and
    n <= max_points."""
    return [LinearSystem(d, (m0,) + (m,) * n) for m in tail_mults
            for d in range(max_degree + 1) for m0 in range(d + 1) for n in range(max_points + 1)]


# with two special systems whose reduction ends in a quasi-homogeneous system of
# lower degree and no base case: the classifier settles them before that recursion
NODE_BOXES = box((6,), 14, 12) + box((2, 3, 4, 5), 10, 12) + [
    LinearSystem(29, (22,) + (6,) * 10), LinearSystem(30, (23,) + (6,) * 10)]


def call_counts(monkeypatch, systems):
    """How often the prover calls ``hh_prediction`` and ``standard_reduce`` while
    proving ``systems``, in that order."""
    counts = {"hh_prediction": 0, "standard_reduce": 0}
    with monkeypatch.context() as patch:
        for name in counts:
            inner = getattr(degeneration, name)

            def counted(*args, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(*args)
            patch.setattr(degeneration, name, counted)
        for system in systems:
            degeneration.recursive_dim(system, Budget(use_oracle=False))
    return tuple(counts.values())


class TestNodeOrderMatchesReference:
    def test_same_verdict_and_nodes_on_two_boxes(self, monkeypatch):
        lean = Budget(use_oracle=False)
        reduced_first = [solved(system, lean) for system in NODE_BOXES]
        monkeypatch.setattr(degeneration, "_solve_fresh", reference_solve_fresh)
        classified_first = [solved(system, lean) for system in NODE_BOXES]
        for system, got, want in zip(NODE_BOXES, reduced_first, classified_first):
            assert got == want, str(system)
        statuses = {json.loads(text)["status"] for text, _ in reduced_first}
        assert statuses == {EMPTY, REGULAR, SPECIAL}

    @pytest.mark.parametrize("max_nodes", [3, 10])
    def test_same_verdict_when_the_node_budget_runs_out(self, monkeypatch, max_nodes):
        monkeypatch.setattr(degeneration, "_MAX_NODES", max_nodes)
        # with the oracle, nodes past the budget fall to it; without, they stay unknown
        runs = [(system, budget) for budget in (Budget(), Budget(use_oracle=False))
                for system in (LinearSystem(31, (23,) + (6,) * 12),
                               LinearSystem(26, (16,) + (6,) * 9),
                               LinearSystem(19, (1,) + (6,) * 11))]
        reduced_first = [solved(*run) for run in runs]
        monkeypatch.setattr(degeneration, "_solve_fresh", reference_solve_fresh)
        assert reduced_first == [solved(*run) for run in runs]
        assert any('"reason": "budget exhausted"' in text for text, _ in reduced_first)

    def test_a_conclusive_reduction_is_never_classified_special(self):
        """The premise of the order: a base case proving ell = -1 or expected
        after the reduction is the classifier's own value, never a speciality."""
        settled = 0
        for system in box((6,), 20, 12):
            final, _ = standard_reduce(system)
            leaf = _base_case(final, _BASE_CASES[1:])
            if leaf is None or leaf["ell"] not in (-1, expected_dim(system)):
                continue
            status, ell = hh_prediction(system)
            assert status != SPECIAL and ell == leaf["ell"], str(system)
            settled += 1
        assert settled == 2683

    @pytest.mark.parametrize("systems,counts,reference_counts", [
        (box((6,), 12, 12), (79, 918), (918, 839)),
        # its degeneration solves the kernel L(14,0,6^5), predicted special before it
        # is solved: the prover proves that kernel with hh_dimension and does not reduce it
        ([LinearSystem(20, (0,) + (6,) * 10)], (5, 4), (5, 4)),
    ], ids=["sweep-slice-d12", "special-kernel"])
    def test_fewer_predictions(self, monkeypatch, systems, counts, reference_counts):
        """The prover predicts far fewer systems than the classify-first node, at
        the cost of reducing the special systems it has not predicted yet."""
        assert call_counts(monkeypatch, systems) == counts
        monkeypatch.setattr(degeneration, "_solve_fresh", reference_solve_fresh)
        assert call_counts(monkeypatch, systems) == reference_counts
