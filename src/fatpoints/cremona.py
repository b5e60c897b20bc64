"""Quadratic plane transformations and fixed-line splitting on multiplicity data.

A quadratic transformation based on three of the base points acts on a system
``L(d, m0, ..., mn)`` by adding ``w = d - ma - mb - mc`` to the degree and to
each of the three chosen multiplicities.  It preserves the virtual dimension
and the dimension of the system whenever all four affected numbers stay
nonnegative.  A line joining two points with ``mi + mj > d`` is a fixed
component and can be split off, dropping the degree and the two
multiplicities by one.

``standard_reduce`` iterates both moves to a standard form and returns the
:class:`Move` of each step; ``replay_transcript`` re-applies such a list one
move at a time.  Both work on raw ``(degree, mults)`` data and format no
intermediate system.

A reduction works on normalized data: ``p0`` first, then the tail in
descending order.  Its three heaviest slots are therefore ``p0`` inserted into
the tail at rank ``r``, the number of the first three tail values above
``m0`` (ties put ``p0`` first), so it only ever takes seven moves: the
quadratic transformations on slots ``(0, 1, 2)``, ``(1, 0, 2)``, ``(1, 2, 0)``
and ``(1, 2, 3)`` (r = 0, 1, 2 and 3), and the line splits on the first two of
those, ``(0, 1)``, ``(1, 0)`` and ``(1, 2)``.  ``standard_reduce`` picks each
move by ``r`` and changes only the values it touches: no move sorts or sums
the vector.  ``replay_transcript`` accepts any move.  The package attribute
``fatpoints.cremona`` is this module, not its function ``cremona``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import neg
from typing import NamedTuple

from .core import LinearSystem, format_system, normal_mults, slot_order, vector_dim

__all__ = [
    "NegativeEntryError",
    "NotFixedError",
    "Move",
    "cremona_vector",
    "split_line_vector",
    "cremona",
    "next_move",
    "standard_reduce",
    "STANDARD_MOVES",
    "is_standard",
    "replay_transcript",
]


class NegativeEntryError(ValueError):
    """A move would make the degree or a multiplicity negative."""

    def __init__(self, slot: int | None, value: int):
        self.slot = slot
        self.value = value
        where = "degree" if slot is None else f"slot {slot}"
        super().__init__(f"transformation makes {where} negative ({value})")


class NotFixedError(ValueError):
    """Line split requested for a line that is not a fixed component."""


def cremona_vector(degree: int, mults: tuple[int, ...], i: int, j: int, k: int
                   ) -> tuple[int, tuple[int, ...]]:
    """Slot-level quadratic transformation on raw data; no reordering.

    Exact involution: applying the same (i, j, k) twice gives the input back.
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"slots must be distinct, got {(i, j, k)}")
    for s in (i, j, k):
        if not 0 <= s < len(mults):
            raise ValueError(f"slot {s} out of range for {len(mults)} slots")
    w = degree - mults[i] - mults[j] - mults[k]
    if degree + w < 0:
        raise NegativeEntryError(None, degree + w)
    new = list(mults)
    for s in (i, j, k):
        new[s] = mults[s] + w
        if new[s] < 0:
            raise NegativeEntryError(s, new[s])
    assert vector_dim(degree + w, new) == vector_dim(degree, mults)
    return degree + w, tuple(new)


def split_line_vector(degree: int, mults: tuple[int, ...], i: int, j: int
                      ) -> tuple[int, tuple[int, ...]]:
    """Slot-level removal of one copy of the fixed line through slots i and j."""
    if i == j:
        raise ValueError("slots must be distinct")
    for s in (i, j):
        if not 0 <= s < len(mults):
            raise ValueError(f"slot {s} out of range for {len(mults)} slots")
    mi, mj = mults[i], mults[j]
    if degree - mi - mj >= 0:
        raise NotFixedError(f"line through slots {i},{j} of {format_system(degree, mults)} "
                            "is not fixed (d - mi - mj >= 0)")
    if degree - 1 < 0:
        raise NegativeEntryError(None, degree - 1)
    new = list(mults)
    for s in (i, j):
        new[s] -= 1
        if new[s] < 0:
            raise NegativeEntryError(s, new[s])
    # v changes by exactly mi + mj - d - 1, which is >= 0 under the precondition
    delta = vector_dim(degree - 1, new) - vector_dim(degree, mults)
    assert delta == mi + mj - degree - 1 and delta >= 0
    return degree - 1, tuple(new)


def cremona(L: LinearSystem, i: int, j: int, k: int) -> LinearSystem:
    """Quadratic transformation based on the points in slots i, j, k."""
    return LinearSystem(*cremona_vector(L.degree, L.mults, i, j, k))


class Move(NamedTuple):
    """One step of a reduction, the pair of its kind and the slots it acts on."""

    kind: str  # "cremona" | "line"
    slots: tuple[int, ...]

    def to_json(self) -> dict:
        return {"move": self.kind, "slots": list(self.slots)}

    @classmethod
    def from_json(cls, data: dict) -> "Move":
        """The move of ``data``; any other key, such as a recorded system, is ignored."""
        return cls(data["move"], tuple(data["slots"]))


# The quadratic transformation and the line split a reduction makes at each rank
# r of p0, and the one JSON form of each of the seven, which every trace shares.
_MOVES_BY_RANK = [(Move("cremona", slots), Move("line", slots[:2]))
                  for slots in ((0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 2, 3))]
STANDARD_MOVES: dict[Move, dict] = {
    move: move.to_json() for moves in _MOVES_BY_RANK for move in moves}


def next_move(degree: int, mults: tuple[int, ...]) -> Move | None:
    """The next move of the reduction to standard form, or None when there is none.

    Slots are taken by multiplicity, descending, ties by slot index.  The
    move is ``Move("line", (a, b))`` when the two heaviest sum to more than
    the degree, otherwise ``Move("cremona", (a, b, c))`` when the three
    heaviest do.
    """
    top = slot_order(mults)[:3]
    if len(top) >= 2 and mults[top[0]] + mults[top[1]] > degree:
        return Move("line", tuple(top[:2]))
    if len(top) == 3 and mults[top[0]] + mults[top[1]] + mults[top[2]] > degree:
        return Move("cremona", tuple(top))
    return None


def is_standard(L: LinearSystem) -> bool:
    """No fixed line and the three largest multiplicities sum to at most d."""
    return next_move(L.degree, L.mults) is None


def _step(degree: int, mults: tuple[int, ...], move: Move) -> tuple[int, tuple[int, ...]]:
    """The degree and normalized multiplicities after ``move``."""
    if move.kind == "cremona" and len(move.slots) == 3:
        degree, mults = cremona_vector(degree, mults, *move.slots)
    elif move.kind == "line" and len(move.slots) == 2:
        degree, mults = split_line_vector(degree, mults, *move.slots)
    else:
        raise ValueError(f"unknown move kind {move.kind!r} on {len(move.slots)} slots")
    return degree, normal_mults(mults)


def standard_reduce(L: LinearSystem) -> tuple[LinearSystem, tuple[Move, ...]]:
    """Iterate line splits and quadratic transformations until standard.

    On ``d``, ``m0`` and the descending tail, each step makes the line split of
    ``_MOVES_BY_RANK[r]`` when the two heaviest values ``a >= b`` sum to more
    than ``d``, else its quadratic transformation when the three heaviest
    ``a >= b >= c`` do.  A move adds ``w`` to ``d`` and to those values (``w = -1``
    for a split), which leave the tail's head and fall back in by bisection,
    zeros dropped: O(1) Python work per move, though the list shifts its
    entries in memory.  No entry turns negative: a new value of a quadratic
    transformation is ``d`` minus the other two, at least ``d - a - b >= 0`` as
    no line is fixed, and the new degree at least ``d - c >= 0``; a split has
    ``b >= 1`` as ``a + b > d >= a``.  Each move asserts this, and one assertion
    on the whole vector checks the re-insertions against the sum of the splits'
    gains ``a + b - d - 1`` (a quadratic transformation changes nothing).  Stops
    early when some multiplicity exceeds the degree (the system is then empty
    and no further move is meaningful).  Terminates because every move lowers
    the degree.
    """
    start = L.normalize()
    d, (m0, *tail) = start.degree, start.mults or (0,)
    moves: list[Move] = []
    gain = 0  # the change of virtual dimension so far
    while tail and max(m0, tail[0]) <= d:
        top = tail[:3]
        r = bisect_left(top, -m0, key=neg)
        top.insert(r, m0)
        cremona_move, line_move = _MOVES_BY_RANK[r]
        if top[0] + top[1] > d:
            move, top, w = line_move, top[:2], -1
            gain += top[0] + top[1] - d - 1
        elif len(top) > 2 and top[0] + top[1] + top[2] > d:
            move, top, w = cremona_move, top[:3], d - sum(top[:3])
        else:
            break
        new = [value + w for value in top]  # descending, as top is
        assert min(d + w, new[-1]) >= 0, "reduction made an entry negative"
        d += w
        if r < len(new):  # p0 is among the changed values
            m0 = new.pop(r)
        del tail[:len(new)]
        for value in filter(None, new):
            insort(tail, value, key=neg)
        moves.append(move)
    assert len(moves) <= L.degree + 1, "reduction failed to terminate"
    final = LinearSystem(d, (m0, *tail)) if moves else start
    assert not moves or vector_dim(d, final.mults) == vector_dim(L.degree, L.mults) + gain
    return final, tuple(moves)


def replay_transcript(moves: tuple[Move, ...], start: LinearSystem) -> LinearSystem:
    """The system that ``moves`` reach from ``start``; raises ValueError on a move
    that does not apply."""
    start = start.normalize()
    d, m = start.degree, start.mults
    for move in moves:
        d, m = _step(d, m, move)
    return LinearSystem(d, m) if moves else start
