"""Plane degeneration bookkeeping and the recursive dimension prover.

A ``(k, b)``-degeneration breaks the plane into two pieces, keeps ``n - b``
of the points on a plane carrying curves of degree ``d - k``, and moves ``b``
points onto a ruled piece (the blow-up of the plane in one point).  The limit
system restricts to four numerical systems::

    plane         L(d-k,   m0,    m^(n-b))
    ruled         L(d,     d-k,   m^b)
    plane_kernel  L(d-k-1, m0,    m^(n-b))
    ruled_kernel  L(d,     d-k+1, m^b)

The dimension of the limit system bounds that of the original system from
above (semicontinuity).  Two sufficient criteria follow, both decided by
``criterion_failure``: one proving emptiness (for systems with negative
virtual dimension) and one proving non-speciality; either proves the expected
dimension.  ``DegenerationSplit`` is the one statement of a degeneration: it
checks the system, ``k`` and ``b`` once and holds the table above, from which
it reads the virtual dimensions and ``degenerate`` builds the pieces when they
are first read.  The prover first applies the criterion to numbers alone:
those virtual dimensions, so that an attempt they refute builds no piece, then
the classifier's predictions for the pieces (``hh_prediction``, arithmetic on
raw data), so that an attempt they refute solves no child.
``recursive_dim`` chains these with reduction to standard form (ending in a
small base case or in the proof of the reduced system), the speciality
classifier, and a finite-field rank fallback.  A base case proving the empty
or the expected dimension settles a system before the classifier runs, since a
special dimension is above both; a fixed-part removal proves only speciality
or emptiness, and only a system predicted special gets the ``hh_dimension``
trace of its removal.  Every verdict carries a trace that
``check_certificate`` replays without search: it reads the same split, virtual
dimensions and criterion as the prover and rebuilds each leaf with the
function that wrote it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Mapping

from .core import LinearSystem, SystemParseError, expected_dim, intersect, parse_system
from .cremona import (STANDARD_MOVES, Move, cremona_vector, is_standard, next_move,
                      replay_transcript, standard_reduce)
from .neg_curves import (check_regime, hh_dimension, hh_prediction, is_catalog_curve,
                         is_minus_one_class, speciality_failure, split_off)
from .oracle import DEFAULT_PRIME, check_settings, dimension_char_p, size_failure
from .verdict import EMPTY, REGULAR, SPECIAL, UNKNOWN, DimVerdict, status_failure

__all__ = [
    "DegenerationSplit",
    "Budget",
    "CertificateError",
    "criterion_failure",
    "degenerate",
    "recursive_dim",
    "check_certificate",
]


class DegenerationSplit:
    """The (k, b)-degeneration of a normalized quasi-homogeneous ``base``, for
    ``1 <= k < d`` and ``0 <= b <= n`` (ValueError otherwise): ``shapes``, each
    piece's ``(degree, m0, tail points)`` by name in the order the prover solves
    them; ``v`` and ``dims``, the virtual dimensions of ``base`` and of the
    pieces; ``parts``, the pieces, built by :func:`degenerate` on first read."""

    def __init__(self, base: LinearSystem, k: int, b: int):
        d, m0, tail = base.degree, base.m0, base.tail
        n = len(tail)
        if n and (tail.count(tail[0]) != n or not tail[0]):  # normalized: no zero in the tail
            raise ValueError(f"degeneration needs a quasi-homogeneous system, got {base}")
        if not 1 <= k < d:
            raise ValueError(f"need 1 <= k < d, got k={k}, d={d}")
        if not 0 <= b <= n:
            raise ValueError(f"need 0 <= b <= n, got b={b}, n={n}")
        self.base, self.k, self.b = base, k, b
        self.shapes = {"plane": (d - k, m0, n - b), "ruled": (d, d - k, b),
                       "plane_kernel": (d - k - 1, m0, n - b), "ruled_kernel": (d, d - k + 1, b)}
        c = tail[0] * (tail[0] + 1) if n else 0  # twice one tail point's conditions

        def v(e: int, a: int, r: int) -> int:  # virtual_dim(L(e, a, m^r))
            return (e * (e + 3) - a * (a + 1) - r * c) // 2
        self.v = v(d, m0, n)
        self.dims = {name: v(*shape) for name, shape in self.shapes.items()}

    @cached_property
    def parts(self) -> dict[str, LinearSystem]:
        return degenerate(self.base, self.k, self.b)


def degenerate(L: LinearSystem, k: int, b: int) -> dict[str, LinearSystem]:
    """The pieces of the (k, b)-degeneration of ``L``, normalized first, by name in
    the order the prover solves them: the systems of :class:`DegenerationSplit`'s
    table, which raises ValueError for a degeneration that does not exist."""
    split = DegenerationSplit(L.normalize(), k, b)
    tail = split.base.tail[:1]  # (m,), or () on a base without tail points
    return {name: LinearSystem(e, (a,) + tail * r) for name, (e, a, r) in split.shapes.items()}


_NONSPECIAL = (REGULAR, EMPTY)
_dimension = attrgetter("status", "ell")  # a proof's (status, ell), as the criterion reads it


def criterion_failure(rule: str, dims: Mapping[str, int], v: int,
                      child: Callable[[str], tuple[str, int | None]]) -> str | None:
    """Why a (k, b)-degeneration does not prove ``rule`` for its base system,
    or None when it does.

    ``v`` and ``dims`` are :class:`DegenerationSplit`'s virtual dimensions of
    the base system and of each piece by name, and ``child(name)`` the
    ``(status, ell)`` of that piece, looked up in their order only while no
    condition has failed.  ``empty`` (proving ell = -1) needs v <= -1,
    v(plane_kernel) <= v, v(ruled_kernel) <= -1, then non-special
    restrictions and empty kernels; ``nonspecial`` (proving ell = expected)
    needs v >= -1 and restrictions with v >= -1, then non-special
    restrictions and ell(plane_kernel) + ell(ruled_kernel) <= v - 1.
    """
    if rule == "empty":
        if v > -1:
            return "emptiness rule needs v <= -1"
        if dims["plane_kernel"] > v:
            return "emptiness rule needs v(plane_kernel) <= v"
        if dims["ruled_kernel"] > -1:
            return "emptiness rule needs v(ruled_kernel) <= -1"
    elif rule == "nonspecial":
        if v < -1:
            return "non-speciality rule needs v >= -1"
        if dims["plane"] < -1 or dims["ruled"] < -1:
            return "non-speciality rule needs restriction v >= -1"
    else:
        return f"unknown degeneration rule {rule!r}"
    if child("plane")[0] not in _NONSPECIAL or child("ruled")[0] not in _NONSPECIAL:
        return "restrictions must be certified non-special"
    pk_status, pk_ell = child("plane_kernel")
    if rule == "empty":
        if pk_status != EMPTY or child("ruled_kernel")[0] != EMPTY:
            return "emptiness rule needs empty kernels"
        return None
    rk_status, rk_ell = child("ruled_kernel")
    if UNKNOWN in (pk_status, rk_status):
        return "non-speciality rule needs certified kernels"
    if pk_ell + rk_ell > v - 1:
        return "kernels too large for the non-speciality rule"
    return None


# -- certificate leaves: written by the prover, rebuilt by the checker ----------

_BASE_CASES = ("no_conditions", "multiplicity_exceeds_degree", "standard_small")


def _base_case(S: LinearSystem, kinds: tuple[str, ...]) -> dict | None:
    """The leaf proving the dimension of ``S`` by the first base case among
    ``kinds`` that ``S`` is, or None."""
    d = S.degree
    for kind in kinds:
        if kind == "no_conditions" and S.base_points == 0:
            return {"kind": kind, "system": str(S), "ell": d * (d + 3) // 2}
        if kind == "multiplicity_exceeds_degree" and max(S.mults, default=0) > d:
            return {"kind": kind, "system": str(S), "ell": -1}
        if kind == "standard_small" and S.base_points <= 9 and is_standard(S):
            return {"kind": kind, "system": str(S), "points": S.base_points,
                    "ell": expected_dim(S)}
    return None


def _oracle_leaf(S: LinearSystem, prime: int, seed: int, trials: int) -> dict:
    """The ``rank_oracle`` leaf for ``S``, carrying the oracle's value."""
    return {"kind": "rank_oracle", "system": str(S), "prime": prime, "seed": seed,
            "trials": trials, "ell": dimension_char_p(S, seed, prime, trials),
            "expected": expected_dim(S)}


# -- recursive prover ---------------------------------------------------------


@dataclass
class Budget:
    """Leaf settings for :func:`recursive_dim`: whether the rank oracle may
    conclude, and its prime, seed and trial count.  The search itself is
    bounded only by ``_MAX_NODES``."""

    use_oracle: bool = True
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 3


_MAX_NODES = 50_000  # distinct systems one run solves at most
_MAX_SCAN_B = 24  # b values tried per (system, k)


class _Ctx:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.memo: dict[LinearSystem, DimVerdict] = {}
        self.removals: dict[LinearSystem, tuple[str, int]] = {}
        self.nodes = 0

    def removal(self, L: LinearSystem) -> tuple[str, int]:
        """The classifier's prediction ``hh_prediction(L)``, computed once per run."""
        hit = self.removals.get(L)
        if hit is None:
            hit = self.removals[L] = hh_prediction(L)
        return hit


def recursive_dim(L: LinearSystem, budget: Budget | None = None) -> DimVerdict:
    """Sound decision procedure for the dimension of a tail-6 system.

    Order of attack: reduction to standard form, concluding at once from a
    base case (at most nine base points) that proves ell = -1 or ell =
    expected; the speciality classifier, for what that leaves open; the
    reduction's other conclusions: a base case above expected (Unknown) or,
    for a quasi-homogeneous reduced system of lower degree, its own proof; a
    scan of (k, b)-degenerations for k in {5, 6, m-1, m} (m the tail
    multiplicity) applying the emptiness / non-speciality criteria
    recursively, until a proof is found; the finite-field rank oracle under
    the size cap.  Anything else is Unknown; a verdict is never guessed.  A
    run solves each distinct system once and at most ``_MAX_NODES`` of them
    (beyond that, ``budget exhausted``); short of that bound a system's
    verdict and trace depend on the system alone, not on where the search
    first met it.  With the oracle on, a bad prime, seed or trial count raises
    ValueError before any system is solved.
    """
    check_regime(L)
    budget = budget or Budget()
    if budget.use_oracle:
        check_settings(budget.prime, budget.trials, budget.seed)
    return _solve(L.normalize(), _Ctx(budget))


# The recursion ends: ``(degree, number of tail points)`` strictly decreases
# along every chain.  A degeneration's ``plane`` and ``plane_kernel`` have a
# lower degree, and its ``ruled`` and ``ruled_kernel`` the same degree on
# ``b < n`` tail points; a reduction recurses into a final system of lower
# degree.
def _solve(L: LinearSystem, ctx: _Ctx) -> DimVerdict:
    """The memoized verdict for ``L``, which every caller passes in normal form:
    :func:`recursive_dim` normalizes, :func:`degenerate` builds normal pieces and
    ``standard_reduce`` returns a normal final system."""
    hit = ctx.memo.get(L)
    if hit is not None:
        return hit
    ctx.nodes += 1
    if ctx.nodes > _MAX_NODES:
        return _unknown(L, "budget exhausted")
    verdict = _solve_fresh(L, ctx)
    ctx.memo[L] = verdict
    return verdict


def _solve_fresh(L: LinearSystem, ctx: _Ctx) -> DimVerdict:
    leaf = _base_case(L, _BASE_CASES[:2])
    if leaf is not None:
        return DimVerdict(_status(leaf["ell"]), leaf["ell"], L, leaf)

    predicted = ctx.removals.get(L)  # every piece of an attempt is predicted before it is solved
    if predicted is not None and predicted[0] == SPECIAL:
        return hh_dimension(L)

    # A leaf proving ell = -1 or expected settles L before the classifier runs:
    # a special verdict has ell above expected, so the two never both apply.
    final, moves = standard_reduce(L)
    leaf = _base_case(final, _BASE_CASES[1:])
    if leaf is not None and leaf["ell"] in (-1, expected_dim(L)):
        return _reduction_verdict(L, moves, leaf)

    if ctx.removal(L)[0] == SPECIAL:
        return hh_dimension(L)  # the one node whose removal trace a certificate holds

    if leaf is None and moves and final.is_quasi_homogeneous():  # a final system of lower degree
        proof = _solve(final, ctx)
        if proof.status != UNKNOWN:
            leaf = proof.trace
    if leaf is not None:
        return _reduction_verdict(L, moves, leaf)

    found = _scan_degenerations(L, ctx)
    if found is not None:
        return found

    if ctx.budget.use_oracle and size_failure(L) is None:
        leaf = _oracle_leaf(L, ctx.budget.prime, ctx.budget.seed, ctx.budget.trials)
        if leaf["ell"] == leaf["expected"]:
            return DimVerdict(_status(leaf["ell"]), leaf["ell"], L, leaf)
        return _unknown(L, "rank oracle exceeds the expected dimension", oracle=leaf)
    return _unknown(L, "out of methods" if ctx.nodes <= _MAX_NODES else "budget exhausted")


def _status(ell: int) -> str:
    """The status of a non-special dimension."""
    return EMPTY if ell == -1 else REGULAR


def _unknown(L: LinearSystem, reason: str, **evidence) -> DimVerdict:
    """The ``unknown`` verdict for ``L``; ``evidence`` joins its trace."""
    return DimVerdict(UNKNOWN, None, L, {"kind": "unknown", "system": str(L),
                                         "reason": reason, **evidence})


def _reduction_verdict(L: LinearSystem, moves: tuple[Move, ...], leaf: dict) -> DimVerdict:
    """The verdict on ``L`` from its reduction ``moves`` to a final system and the
    proof ``leaf`` of that system: a base case or the trace of its verdict, which
    names it, so its string is written once."""
    ell = leaf["ell"]
    trace = {"kind": "cremona_reduction", "system": str(L),
             "moves": [STANDARD_MOVES[m] for m in moves],
             "final": leaf["system"], "leaf": leaf, "ell": ell}
    if ell == -1 or ell == expected_dim(L):
        return DimVerdict(_status(ell), ell, L, trace)
    # a special value here would contradict the classifier: a leaf above expected
    # reaches this line only after the classifier has found L non-special
    return _unknown(L, f"reduction reports dimension {ell} above expected", reduction=trace)


def _scan_degenerations(L: LinearSystem, ctx: _Ctx) -> DimVerdict | None:
    n = len(L.tail)
    d = L.degree
    m = L.tail_multiplicity()
    b0 = min(n - 1, (2 * d) // 7)  # b < n: the ruled pieces must lose a point
    candidates = (list(range(b0, -1, -1)) + list(range(b0 + 1, n)))[:_MAX_SCAN_B]
    for k in dict.fromkeys((5, 6, m - 1, m)):  # (5, 6) alone for tail multiplicity 6
        if not 1 <= k < d:
            continue
        for b in candidates:
            split = DegenerationSplit(L, k, b)
            for rule in ("empty", "nonspecial"):
                node = _try(split, rule, ctx)
                if node is not None:
                    return DimVerdict(_status(node["ell"]), node["ell"], L, node)
    return None


def _try(split: DegenerationSplit, rule: str, ctx: _Ctx) -> dict | None:
    """The node proving ``rule`` for the base of ``split``, or None.

    :func:`criterion_failure` decides twice.  First on numbers: the pieces'
    virtual dimensions, so that an attempt they refute builds no piece, then
    the classifier's predictions for the pieces, so that an attempt they
    refute solves no child.  Then on the proofs of all four.  A proof that
    differed from its prediction would refute the classifier; the checker
    reads no prediction.
    """
    L, dims, v = split.base, split.dims, split.v
    if criterion_failure(rule, dims, v, lambda name: ctx.removal(split.parts[name])):
        return None
    children = {name: _solve(s, ctx) for name, s in split.parts.items()}
    if criterion_failure(rule, dims, v, lambda name: _dimension(children[name])):
        return None
    return {"kind": "degeneration", "system": str(L), "k": split.k, "b": split.b,
            "rule": rule, "ell": max(-1, v),  # either rule proves the expected dimension
            "children": {name: c.to_json() for name, c in children.items()}}


# -- certificate replay --------------------------------------------------------


class CertificateError(ValueError):
    """A trace failed to replay."""


def check_certificate(cert: dict) -> None:
    """Re-verify a verdict tree using only arithmetic; raises on any mismatch.

    ``cert`` is the JSON form of a :class:`DimVerdict`.  No search happens:
    recorded moves, splits and (k, b) choices are replayed and every claimed
    inequality is recomputed.  Only the top-level ``system`` and the split curves
    are parsed; every other system string it reads must equal :func:`format_system`
    of the system the checker derives for it.  Of a reduction move it reads only
    ``move`` and ``slots``.  A rank oracle leaf is recomputed from its prime, seed
    and trial count.
    """
    _typed(cert, dict, "a certificate")
    try:
        _check_verdict(cert, _system(cert["system"]).normalize())
    except KeyError as err:
        raise CertificateError(f"missing field {err}") from None
    except RecursionError:
        raise CertificateError("certificate nested too deeply to replay") from None


def _check_verdict(cert: dict, system: LinearSystem) -> None:
    """:func:`check_certificate` on a certificate that must restate ``system`` canonically."""
    _restates(cert["system"], system)
    status = cert["status"]
    if status == UNKNOWN:
        raise CertificateError("unknown verdicts carry no certificate")
    ell = _typed(cert["ell"], int, "the ell of a verdict")
    reason = status_failure(status, ell, system)
    if reason is not None:
        raise CertificateError(reason)
    got = _check_node(cert["trace"], system)
    if got != ell:
        raise CertificateError(f"trace for {system} proves ell={got}, verdict says {ell}")


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", int: "an integer"}


def _typed(value, kind: type, what: str):
    """``value`` itself when it has the JSON type ``kind``; raises otherwise."""
    if not isinstance(value, kind) or value is True or value is False:  # true is no integer
        raise CertificateError(f"{what} is {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _moves(raw) -> tuple[Move, ...]:
    """The recorded reduction moves, each an object with a list of integer slots."""
    for data in _typed(raw, list, "the move list of a reduction"):
        slots = _typed(data, dict, "a reduction move")["slots"]
        for slot in _typed(slots, list, "the slot list of a move"):
            _typed(slot, int, "a move slot")
    return tuple(Move.from_json(data) for data in raw)


def _system(text) -> LinearSystem:
    """A system string that a certificate supplies, parsed; CertificateError if malformed."""
    try:
        return parse_system(text)
    except SystemParseError as err:
        raise CertificateError(f"malformed system: {err}") from None


def _restates(text, system: LinearSystem) -> None:
    """Raise unless the certificate string ``text`` is the canonical form of ``system``."""
    if text != str(system):
        raise CertificateError(f"malformed system: got {text!r}, expected {system}")


def _check_node(node: dict, system: LinearSystem) -> int:
    _typed(node, dict, "a trace node")
    _restates(node["system"], system)
    _typed(node["ell"], int, "the ell of a trace node")
    kind = node.get("kind")
    if kind in _BASE_CASES:
        leaf = _base_case(system, (kind,))
        if leaf is None:
            raise CertificateError(f"{system} is not a {kind} base case")
        return _rebuilt(node, leaf)
    if kind == "fixed_part_removal":
        return _check_removal(node, system)
    if kind == "cremona_reduction":
        moves = _moves(node["moves"])
        try:
            final = replay_transcript(moves, system)
        except ValueError as err:
            raise CertificateError(f"reduction transcript: {err}") from None
        _restates(node["final"], final)
        got = _check_node(node["leaf"], final)
        if got != node["ell"]:
            raise CertificateError("reduction ell mismatch")
        return got
    if kind == "degeneration":
        return _check_degeneration(node, system)
    if kind == "rank_oracle":
        trials = _typed(node["trials"], int, "the trials count of an oracle leaf")
        seed = _typed(node["seed"], int, "the seed of an oracle leaf")
        try:  # a field out of bounds, or a seed too long to write out for the point stream
            leaf = _oracle_leaf(system, node["prime"], seed, trials)
        except ValueError as err:
            raise CertificateError(f"rank oracle leaf: {err}") from None
        got = _rebuilt(node, leaf)
        if got != expected_dim(system):
            raise CertificateError("rank oracle certifies regular values only")
        return got
    raise CertificateError(f"unknown trace node kind {kind!r}")


def _rebuilt(node: dict, leaf: dict) -> int:
    """The ``ell`` of ``leaf``; raises unless the recorded ``node`` equals it key for
    key, in value and in type (JSON ``true`` and ``1.0`` are no ``1``)."""
    fields = [key for key in {**leaf, **node} if node.get(key) != leaf.get(key)
              or type(node.get(key)) is not type(leaf.get(key))]
    if fields:
        raise CertificateError(f"{leaf['kind']} leaf for {leaf['system']} differs from "
                               f"its recomputation in {', '.join(fields)}")
    return leaf["ell"]


def _is_minus_one_curve(curve: LinearSystem) -> bool:
    """True when ``C.C = C.K = -1`` and ``C`` reduces to a line through two points.

    The reduction applies the quadratic transformations of ``next_move``, each
    of which lowers the degree; a fixed line rules the class out, and without
    one no entry turns negative (they become ``d-mb-mc``, ``d-ma-mc``,
    ``d-ma-mb`` and ``2d-ma-mb-mc``).  Classes that reduce so are irreducible
    (-1)-curves on the blow-up at general points (Nagata 1960).
    """
    if not is_minus_one_class(curve):  # C.C = -1 and genus 0, i.e. C.K = -1
        return False
    d, mults = curve.degree, curve.mults
    while d > 1:
        move = next_move(d, mults)
        if move is None or move.kind == "line":
            return False
        d, mults = cremona_vector(d, mults, *move.slots)
    # degree 1 with C.C = C.K = -1 leaves exactly two multiplicities 1
    return d == 1


def _split(raw, what: str, d: int, m: tuple[int, ...]):
    """The recorded split ``raw`` of the class ``(d, m)``: its (-1)-curve, its
    multiplicity n, and the class left after subtracting n times the curve."""
    _typed(raw, dict, what)
    curve = _system(raw["curve"])
    n = _typed(raw["n"], int, "a split multiplicity")
    if n < 1 or intersect(LinearSystem(d, m), curve) != -n:
        raise CertificateError(f"{what} {curve} x{n} does not meet its system in -n")
    # the walk takes ~sqrt(degree) moves, so it only confirms a catalog class
    if len(curve.mults) > len(m) or not is_catalog_curve(curve) or not _is_minus_one_curve(curve):
        raise CertificateError(f"{curve} is not a (-1)-curve of the catalog")
    return (curve, n, *split_off(d, m, n, curve.degree, curve.mults))


def _check_removal(node: dict, system: LinearSystem) -> int:
    d, m = system.degree, system.mults
    pieces = []
    for step in _typed(node["steps"], list, "the step list of a removal"):
        curve, n, d, m = _split(step, "a removal step", d, m)
        if min(d, *m) < 0:
            raise CertificateError("split walks out of the effective cone")
        pieces.append(((curve.degree, curve.mults), n))
    rejected = node["rejected"]  # JSON null, or a split object
    if rejected is not None:
        _, _, rest_d, rest = _split(rejected, "a rejected split", d, m)
        if min(rest_d, *rest) >= 0:
            raise CertificateError("rejected split would actually fit")
        if node["ell"] != -1 or node["special"] is not False:
            raise CertificateError("rejected removal must conclude emptiness, not speciality")
        return -1
    residual = LinearSystem(d, m)  # as the prover writes it: not normalized
    _restates(node["residual"], residual)
    reason = speciality_failure(pieces, (d, m))
    if reason is not None:  # a removal proves speciality or emptiness, never expected values
        raise CertificateError(f"removal proves no speciality: {reason}")
    if node["special"] is not True:
        raise CertificateError(f"removal records special={node['special']!r}, "
                               f"but the removal is special")
    ell = expected_dim(residual)
    if node["ell"] != ell:
        raise CertificateError("removal ell mismatch")
    return ell


def _check_degeneration(node: dict, system: LinearSystem) -> int:
    k, b = _typed(node["k"], int, "k"), _typed(node["b"], int, "b")
    try:  # the split first: it checks the system, k and b
        split = DegenerationSplit(system, k, b)
    except ValueError as err:
        raise CertificateError(f"degeneration: {err}") from None
    if b >= len(system.tail):
        raise CertificateError("degeneration needs b < n")
    children = _typed(node["children"], dict, "the children map of a degeneration")

    def checked(name: str) -> tuple[str, int]:
        child = _typed(children[name], dict, "a certificate")
        _check_verdict(child, split.parts[name])
        return child["status"], child["ell"]
    rule = node["rule"]
    reason = criterion_failure(rule, split.dims, split.v, checked)
    if reason is not None:
        raise CertificateError(reason)
    ell = max(-1, split.v)  # either rule proves the expected dimension
    if node["ell"] != ell:
        raise CertificateError(f"the {rule} rule proves ell = {ell}")
    return ell
