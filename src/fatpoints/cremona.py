"""Quadratic plane transformations and fixed-line splitting on multiplicity data.

A quadratic transformation based on three of the base points acts on a system
``L(d, m0, ..., mn)`` by adding ``w = d - ma - mb - mc`` to the degree and to
each of the three chosen multiplicities.  It preserves the virtual dimension
and the dimension of the system whenever all four affected numbers stay
nonnegative.  A line joining two points with ``mi + mj > d`` is a fixed
component and can be split off, dropping the degree and the two
multiplicities by one.

``standard_reduce`` iterates both moves to a standard form and returns a
replayable transcript.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import LinearSystem, format_system, virtual_dim

__all__ = [
    "NegativeEntryError",
    "NotFixedError",
    "Move",
    "cremona_vector",
    "cremona",
    "split_fixed_line",
    "standard_reduce",
    "is_standard",
    "replay_transcript",
    "transcript_to_jsonl",
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
    return degree + w, tuple(new)


def cremona(L: LinearSystem, i: int, j: int, k: int) -> LinearSystem:
    """Quadratic transformation based on the points in slots i, j, k."""
    d, mults = cremona_vector(L.degree, L.mults, i, j, k)
    out = LinearSystem(d, mults)
    assert virtual_dim(out) == virtual_dim(L)
    return out


def split_fixed_line(L: LinearSystem, i: int, j: int) -> LinearSystem:
    """Remove one copy of the fixed line through the points in slots i and j."""
    if i == j:
        raise ValueError("slots must be distinct")
    for s in (i, j):
        if not 0 <= s < len(L.mults):
            raise ValueError(f"slot {s} out of range for {len(L.mults)} slots")
    mi, mj = L.mults[i], L.mults[j]
    if L.degree - mi - mj >= 0:
        raise NotFixedError(
            f"line through slots {i},{j} of {L} is not fixed (d - mi - mj >= 0)")
    if L.degree - 1 < 0:
        raise NegativeEntryError(None, L.degree - 1)
    new = list(L.mults)
    for s in (i, j):
        new[s] -= 1
        if new[s] < 0:
            raise NegativeEntryError(s, new[s])
    out = LinearSystem(L.degree - 1, tuple(new))
    # v changes by exactly mi + mj - d - 1, which is >= 0 under the precondition
    delta = virtual_dim(out) - virtual_dim(L)
    assert delta == mi + mj - L.degree - 1 and delta >= 0
    return out


@dataclass(frozen=True)
class Move:
    """One transcript step; ``before`` and ``after`` are canonical strings."""

    kind: str  # "cremona" | "line"
    slots: tuple[int, ...]
    before: str
    after: str

    def to_json(self) -> dict:
        return {"move": self.kind, "slots": list(self.slots),
                "before": self.before, "after": self.after}

    @classmethod
    def from_json(cls, data: dict) -> "Move":
        return cls(data["move"], tuple(data["slots"]), data["before"], data["after"])


def transcript_to_jsonl(moves: tuple[Move, ...]) -> str:
    return "\n".join(json.dumps(m.to_json(), separators=(",", ":")) for m in moves)


def _slots_by_multiplicity(L: LinearSystem) -> list[int]:
    """Slot indices ordered by multiplicity descending, ties by slot index."""
    # a reversed sort keeps equal keys in their original (ascending) order
    return sorted(range(len(L.mults)), key=L.mults.__getitem__, reverse=True)


def is_standard(L: LinearSystem) -> bool:
    """No fixed line and the three largest multiplicities sum to at most d."""
    order = _slots_by_multiplicity(L)
    if len(order) >= 2:
        if L.degree - L.mults[order[0]] - L.mults[order[1]] < 0:
            return False
    if len(order) >= 3:
        if L.mults[order[0]] + L.mults[order[1]] + L.mults[order[2]] > L.degree:
            return False
    return True


def standard_reduce(L: LinearSystem) -> tuple[LinearSystem, tuple[Move, ...]]:
    """Iterate line splits and quadratic transformations until standard.

    Each step works on the normalized form and is recorded as a
    :class:`Move`; one line split per step even when the line splits off
    several times.  Stops early when some multiplicity exceeds the degree
    (the system is then empty and no further move is meaningful).
    Terminates because every move strictly decreases the degree.
    """
    moves: list[Move] = []
    cur = L.normalize()
    text = format_system(cur)
    initial_degree = L.degree
    while True:
        mults = cur.mults
        if mults and max(mults) > cur.degree:
            break
        order = _slots_by_multiplicity(cur)
        if len(order) >= 2:
            a, b = order[0], order[1]
            if cur.degree - mults[a] - mults[b] < 0 and \
                    mults[a] >= 1 and mults[b] >= 1 and cur.degree >= 1:
                nxt = split_fixed_line(cur, a, b).normalize()
                after = format_system(nxt)
                moves.append(Move("line", (a, b), text, after))
                cur, text = nxt, after
                continue
        if len(order) >= 3:
            a, b, c = order[0], order[1], order[2]
            if mults[a] + mults[b] + mults[c] > cur.degree:
                nxt = cremona(cur, a, b, c).normalize()
                after = format_system(nxt)
                moves.append(Move("cremona", (a, b, c), text, after))
                cur, text = nxt, after
                continue
        break
    assert len(moves) <= initial_degree + 1, "reduction failed to terminate"
    return cur, tuple(moves)


def replay_transcript(moves: tuple[Move, ...], start: LinearSystem) -> LinearSystem:
    """Re-apply a transcript, checking every recorded step exactly."""
    cur = start.normalize()
    text = format_system(cur)
    for move in moves:
        if text != move.before:
            raise ValueError(f"transcript mismatch: at {text}, expected {move.before}")
        if move.kind == "cremona" and len(move.slots) == 3:
            nxt = cremona(cur, *move.slots).normalize()
        elif move.kind == "line" and len(move.slots) == 2:
            nxt = split_fixed_line(cur, *move.slots).normalize()
        else:
            raise ValueError(f"unknown move kind {move.kind!r} on {len(move.slots)} slots")
        text = format_system(nxt)
        if text != move.after:
            raise ValueError(f"transcript mismatch after move {move}: got {text}")
        cur = nxt
    return cur

