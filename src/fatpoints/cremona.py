"""Quadratic plane transformations and fixed-line splitting on multiplicity data.

A quadratic transformation based on three of the base points acts on a system
``L(d, m0, ..., mn)`` by adding ``w = d - ma - mb - mc`` to the degree and to
each of the three chosen multiplicities.  It preserves the virtual dimension
and the dimension of the system whenever all four affected numbers stay
nonnegative.  A line joining two points with ``mi + mj > d`` is a fixed
component and can be split off, dropping the degree and the two
multiplicities by one.

``standard_reduce`` iterates both moves to a standard form, each run of
``line (0, 1)`` splits in closed form, and returns each :class:`Move` that
``next_move`` chose; ``replay_transcript`` re-applies such a list one move at
a time.  Both work on raw ``(degree, mults)`` data and format no intermediate
system.

A reduction works on normalized data: ``p0`` first, then the tail in
descending order.  Its three heaviest slots are therefore ``p0`` inserted into
the tail at rank ``r``, the number of tail values above ``m0``, so it only
ever takes seven moves: the quadratic transformations on slots ``(0, 1, 2)``,
``(1, 0, 2)``, ``(1, 2, 0)`` and ``(1, 2, 3)`` (r = 0, 1, 2 and 3 or more), and
the line splits on the first two of those, ``(0, 1)``, ``(1, 0)`` and ``(1, 2)``.
``STANDARD_MOVES``, fixed at import, maps each to its one JSON form, which
every trace shares.  ``replay_transcript`` accepts any move.  The package
attribute ``fatpoints.cremona`` is this module, not its function ``cremona``.
"""

from __future__ import annotations

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


# The seven moves of a reduction, each to the one JSON form that every trace shares.
STANDARD_MOVES: dict[Move, dict] = {
    move: move.to_json()
    for move in (Move("cremona", (0, 1, 2)), Move("cremona", (1, 0, 2)),
                 Move("cremona", (1, 2, 0)), Move("cremona", (1, 2, 3)),
                 Move("line", (0, 1)), Move("line", (1, 0)), Move("line", (1, 2)))}


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


def _line_run(degree: int, mults: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """The normalized state after the whole run of ``line (0, 1)`` splits that
    starts at the normalized ``(degree, mults)``, and the run's length ``r``.

    A split applies while ``c < tail[0] <= m0 - r``, with ``c = degree - m0``
    fixed, and lowers the degree, ``m0`` and the largest tail value by one.
    So the run lowers the leading group of ``g`` equal values ``top`` by
    ``k = min(g, m0 - r - top + 1)`` splits at a time, leaving
    ``[top]*(g-k) + [top-1]*k`` in descending order.  No entry turns negative:
    every lowered value, ``m0 - r`` included, exceeds ``c >= 0`` before its
    split.  Each split raises the virtual dimension by ``top - c - 1``; one
    assertion checks the whole run.
    """
    m0, tail = mults[0], list(mults[1:])
    c = degree - m0
    r = g = gain = 0
    while c < tail[0] <= m0 - r:
        top = tail[0]
        while g < len(tail) and tail[g] == top:
            g += 1
        k = min(g, m0 - r - top + 1)
        tail[g - k:g] = [top - 1] * k
        r += k
        gain += k * (top - c - 1)
    new = (m0 - r,) + tuple(filter(None, tail))
    assert vector_dim(degree - r, new) == vector_dim(degree, mults) + gain
    return degree - r, new, r


def standard_reduce(L: LinearSystem) -> tuple[LinearSystem, tuple[Move, ...]]:
    """Iterate line splits and quadratic transformations until standard.

    Each step is :func:`next_move` on the normalized form, and the
    :class:`Move` it returns is recorded as it is, once per line split even
    when the line splits off several times.  ``_line_run`` applies a run of
    ``line (0, 1)`` splits whole.  Stops early when some multiplicity exceeds
    the degree (the system is then empty and no further move is meaningful).
    Terminates because every move strictly decreases the degree.
    """
    moves: list[Move] = []
    start = L.normalize()
    d, m = start.degree, start.mults
    while not m or max(m) <= d:
        move = next_move(d, m)
        if move is None:
            break
        if move == ("line", (0, 1)):
            d, m, r = _line_run(d, m)
        else:
            (d, m), r = _step(d, m, move), 1
        moves += [move] * r
    assert len(moves) <= L.degree + 1, "reduction failed to terminate"
    return (LinearSystem(d, m) if moves else start), tuple(moves)


def replay_transcript(moves: tuple[Move, ...], start: LinearSystem) -> LinearSystem:
    """The system that ``moves`` reach from ``start``; raises ValueError on a move
    that does not apply."""
    start = start.normalize()
    d, m = start.degree, start.mults
    for move in moves:
        d, m = _step(d, m, move)
    return LinearSystem(d, m) if moves else start
