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
intermediate system.  The slot-level operations ``cremona_vector`` and
``split_line_vector`` and the replay check a move with the same function: its
slots distinct and in range, the line fixed, no entry negative.

A reduction works on normalized data: ``p0`` first, then the tail in
descending order.  Its three heaviest slots are therefore ``p0`` inserted into
the tail at rank ``r``, the number of the first three tail values above
``m0`` (ties put ``p0`` first), so it only ever takes seven moves: the
quadratic transformations on slots ``(0, 1, 2)``, ``(1, 0, 2)``, ``(1, 2, 0)``
and ``(1, 2, 3)`` (r = 0, 1, 2 and 3), and the line splits on the first two of
those, ``(0, 1)``, ``(1, 0)`` and ``(1, 2)``.  ``standard_reduce`` picks each
move by ``r``.  ``replay_transcript`` accepts any move, on any slots.  Both
change only the values a move touches and re-insert them by bisection: no move
copies, sorts or sums the vector (O(1) Python work, though the list shifts its
entries in memory), and each checks the vector once per run against the sum of
the splits' gains.  The package attribute ``fatpoints.cremona`` is this module,
not its function ``cremona``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import neg
from typing import NamedTuple, Sequence

from .core import LinearSystem, format_system, slot_order, vector_dim, virtual_dim

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


def _moved(degree: int, mults: Sequence[int], slots: tuple[int, ...]) -> tuple[int, list[int]]:
    """The degree and the values at ``slots`` after the line split (two slots) or
    the quadratic transformation (three) on them; ``mults`` is left as it is."""
    line = len(slots) == 2
    if slots[0] == slots[1] or not line and (slots[2] == slots[0] or slots[2] == slots[1]):
        raise ValueError("slots must be distinct" if line
                         else f"slots must be distinct, got {tuple(slots)}")
    for s in slots:
        if not 0 <= s < len(mults):
            raise ValueError(f"slot {s} out of range for {len(mults)} slots")
    if line:
        a, b = mults[slots[0]], mults[slots[1]]
        if degree - a - b >= 0:
            raise NotFixedError(f"line through slots {slots[0]},{slots[1]} of "
                                f"{format_system(degree, mults)} is not fixed (d - mi - mj >= 0)")
        w, new = -1, [a - 1, b - 1]
    else:
        a, b, c = mults[slots[0]], mults[slots[1]], mults[slots[2]]
        w = degree - a - b - c
        new = [a + w, b + w, c + w]
    if degree + w < 0:
        raise NegativeEntryError(None, degree + w)
    if min(new) < 0:
        raise NegativeEntryError(*next((s, m) for s, m in zip(slots, new) if m < 0))
    return degree + w, new


def cremona_vector(degree: int, mults: tuple[int, ...], i: int, j: int, k: int
                   ) -> tuple[int, tuple[int, ...]]:
    """Slot-level quadratic transformation on raw data; no reordering.

    Exact involution: applying the same (i, j, k) twice gives the input back.
    """
    new_degree, values = _moved(degree, mults, (i, j, k))
    new = list(mults)
    new[i], new[j], new[k] = values
    assert vector_dim(new_degree, new) == vector_dim(degree, mults)
    return new_degree, tuple(new)


def split_line_vector(degree: int, mults: tuple[int, ...], i: int, j: int
                      ) -> tuple[int, tuple[int, ...]]:
    """Slot-level removal of one copy of the fixed line through slots i and j."""
    new_degree, values = _moved(degree, mults, (i, j))
    new = list(mults)
    new[i], new[j] = values
    # v changes by exactly mi + mj - d - 1, which is >= 0 under the precondition
    delta = vector_dim(new_degree, new) - vector_dim(degree, mults)
    assert delta == mults[i] + mults[j] - degree - 1 and delta >= 0
    return new_degree, tuple(new)


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


def replay_transcript(moves: Sequence[Move], start: LinearSystem) -> LinearSystem:
    """The system that ``moves`` reach from ``start``; raises ValueError on a move
    that does not apply.  The state is ``p0`` then the descending tail, in one
    list; a move is checked and applied on the values it touches alone."""
    start = start.normalize()
    if not moves:
        return start
    d, m = start.degree, list(start.mults)
    gain = 0  # the change of virtual dimension so far
    for kind, slots in moves:
        if (kind, len(slots)) not in (("line", 2), ("cremona", 3)):
            raise ValueError(f"unknown move kind {kind!r} on {len(slots)} slots")
        new_d, new = _moved(d, m, slots)
        if kind == "line":
            gain += new[0] + new[1] - new_d  # mi + mj - d - 1
        for s in sorted(slots, reverse=True):
            if s:
                del m[s]
        for s, value in zip(slots, new):
            if not s:
                m[0] = value
            elif value:
                insort(m, value, 1, key=neg)
        d = new_d
    assert vector_dim(d, m) == virtual_dim(start) + gain, "replay lost a multiplicity"
    return LinearSystem(d, tuple(m))
