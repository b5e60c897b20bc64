"""Numerical linear systems of plane curves with assigned base multiplicities.

A system ``L(d, m0, m1, ..., mn)`` collects the plane curves of degree ``d``
passing through ``n + 1`` general points with multiplicity at least ``mi`` at
the i-th point.  The first slot is distinguished: the point ``p0`` may carry a
multiplicity different from the rest, and several algorithms in this package
treat it asymmetrically.  The same data also stands for the class
``dH - sum(mi * Ei)`` on the plane blown up at the base points; intersection
numbers, the canonical pairing and the arithmetic genus are computed from it.

Everything here is exact integer arithmetic on immutable values; all
functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import index, mul
from typing import Sequence

__all__ = [
    "LinearSystem",
    "SystemParseError",
    "virtual_dim",
    "vector_dim",
    "expected_dim",
    "intersect",
    "canonical_intersect",
    "arithmetic_genus",
    "slot_order",
    "normal_mults",
    "parse_system",
    "format_system",
]


class SystemParseError(ValueError):
    """Malformed system string; remembers the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}")

    def caret(self) -> str:
        """The input with a caret under the offending character."""
        return f"{self.text}\n{' ' * self.pos}^"


@dataclass(frozen=True)
class LinearSystem:
    """Degree plus multiplicity vector; ``mults[0]`` is the slot of ``p0``.

    The multiplicity order given at construction is preserved so that slot
    indices stay meaningful (quadratic transformations and line splits are
    slot operations).  Zero entries are legal and are only removed by an
    explicit :meth:`normalize` call.
    """

    degree: int
    mults: tuple[int, ...] = ()

    def __post_init__(self):
        mults = tuple(map(index, self.mults))  # index: no float, no string of digits
        degree = index(self.degree)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "mults", mults)
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if mults and min(mults) < 0:
            raise ValueError(f"multiplicities must be >= 0, got {mults}")

    # -- named slots ------------------------------------------------------

    @property
    def m0(self) -> int:
        """Multiplicity at the distinguished point (0 when no slot exists)."""
        return self.mults[0] if self.mults else 0

    @property
    def tail(self) -> tuple[int, ...]:
        return self.mults[1:]

    @property
    def base_points(self) -> int:
        """Number of points actually imposing conditions."""
        return len(self.mults) - self.mults.count(0)  # multiplicities are >= 0

    def is_quasi_homogeneous(self) -> bool:
        """True when all multiplicities away from ``p0`` agree (zeros ignored)."""
        values = {m for m in self.tail if m > 0}
        return len(values) <= 1

    def tail_multiplicity(self) -> int:
        """The common positive tail multiplicity of a quasi-homogeneous system."""
        values = {m for m in self.tail if m > 0}
        if not values:
            return 0
        if len(values) > 1:
            raise ValueError(f"{self} is not quasi-homogeneous")
        return values.pop()

    def normalize(self) -> "LinearSystem":
        """Canonical form (see :func:`normal_mults`); ``self`` when already canonical."""
        mults = normal_mults(self.mults)
        return self if mults == self.mults else LinearSystem(self.degree, mults)

    def __str__(self) -> str:
        return format_system(self.degree, self.mults)

    __repr__ = __str__


def normal_mults(mults: tuple[int, ...]) -> tuple[int, ...]:
    """Tail sorted descending, zero tail entries dropped.

    The ``p0`` slot is kept (even when zero) so that the distinguished point
    keeps its identity.
    """
    # entries are nonnegative ints, so filter(None, ...) drops exactly the zeros
    return mults[:1] + tuple(sorted(filter(None, mults[1:]), reverse=True))


def virtual_dim(L: LinearSystem) -> int:
    """d(d+3)/2 - sum(mi(mi+1)/2): the dimension if all conditions were independent."""
    return vector_dim(L.degree, L.mults)


def vector_dim(degree: int, mults: Sequence[int]) -> int:
    """:func:`virtual_dim` of the raw data ``(degree, mults)``."""
    # every term d(d+3) and m(m+1) is even, so one halving is exact
    return (degree * (degree + 3) - sum(map(mul, mults, mults)) - sum(mults)) // 2


def expected_dim(L: LinearSystem) -> int:
    """max(-1, virtual_dim): projective dimension if the system is non-special."""
    return max(-1, virtual_dim(L))


def intersect(a: LinearSystem, b: LinearSystem) -> int:
    """Intersection pairing d*d' - sum(mi*mi'), slots aligned, short side zero-padded."""
    s = sum(x * y for x, y in zip_longest(a.mults, b.mults, fillvalue=0))
    return a.degree * b.degree - s


def canonical_intersect(D: LinearSystem) -> int:
    """Pairing with the canonical class: -3d + sum(mi)."""
    return -3 * D.degree + sum(D.mults)


def arithmetic_genus(D: LinearSystem) -> int:
    """(D.D + D.K)/2 + 1 for an integral class."""
    total = intersect(D, D) + canonical_intersect(D)
    if total % 2 != 0:
        raise ValueError(f"odd D.D + D.K for {D}; corrupted input")
    return total // 2 + 1


def slot_order(mults, start: int = 0) -> list[int]:
    """The slots from ``start`` on by multiplicity descending, ties by slot index."""
    # a reversed sort keeps equal keys in their original (ascending) order
    return sorted(range(start, len(mults)), key=mults.__getitem__, reverse=True)


# -- text form ------------------------------------------------------------
#
# Grammar:  'L' '(' INT ( ',' INT ( '^' INT )? )* ')'
# with arbitrary whitespace between tokens.  "L(22,7,6^12)" is the system of
# degree 22 with m0 = 7 and twelve further points of multiplicity 6.


def format_system(degree: int, mults: Sequence[int]) -> str:
    """Text form of ``L(degree, *mults)`` with run-length groups, e.g. ``L(22,7,6^12)``.

    Equal neighbours in the tail form one group, in the order given; the
    multiplicity at the distinguished point is always printed on its own,
    never merged into a tail group.
    """
    text = f"L({degree}"
    if mults:
        text += f",{mults[0]}"
    run, count = None, 0
    for m in (*mults[1:], None):  # None closes the last run
        if m == run:
            count += 1
        else:
            if count:
                text += f",{run}^{count}" if count > 1 else f",{run}"
            run, count = m, 1
    return text + ")"


_MAX_REPEAT = 10_000
# Every number a command prints is at most quadratic in its inputs, over at most
# 1 + _MAX_REPEAT terms, so it stays below the 4300 digits that str() converts.
_MAX_DIGITS = 2000


def parse_system(text: str) -> LinearSystem:
    """Parse the canonical text form; raises :class:`SystemParseError` with position."""
    if not isinstance(text, str):
        raise SystemParseError(f"expected a system string, got {type(text).__name__}",
                               repr(text), 0)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise SystemParseError(f"expected '{ch}'", text, pos)
        pos += 1

    def integer() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and text[pos] in "0123456789":  # str.isdigit admits "²"
            pos += 1
        if pos == start:
            raise SystemParseError("expected integer", text, pos)
        if pos - start > _MAX_DIGITS:
            raise SystemParseError("integer too long", text, start)
        return int(text[start:pos])

    expect("L")
    expect("(")
    degree = integer()
    mults: list[int] = []
    while True:
        skip_ws()
        if pos < len(text) and text[pos] == ",":
            group = pos
            pos += 1
            value = integer()
            skip_ws()
            count = 1
            if pos < len(text) and text[pos] == "^":
                pos += 1
                count = integer()
                if count < 1 or count > _MAX_REPEAT:
                    raise SystemParseError("repeat count out of range", text, pos - 1)
            if len(mults) + count > 1 + _MAX_REPEAT:  # bound the list before building it
                raise SystemParseError(f"more than {1 + _MAX_REPEAT} multiplicities",
                                       text, group)
            mults.extend([value] * count)
        else:
            break
    expect(")")
    skip_ws()
    if pos != len(text):
        raise SystemParseError("trailing input", text, pos)
    return LinearSystem(degree, tuple(mults))
