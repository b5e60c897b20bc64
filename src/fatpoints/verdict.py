"""Outcome of a dimension computation, with a replayable trace.

A verdict is one of

* ``empty``         -- the system has no members (ell = -1),
* ``regular``       -- ell equals the expected dimension, which is at least 0,
* ``special_known`` -- the system is special and ell is the computed value,
* ``unknown``       -- no sound conclusion within budget (never a wrong guess).

``trace`` is a JSON-serializable tree describing how the value was obtained;
``fatpoints check-certificate`` replays such trees using only the arithmetic
of the other modules, with no search.

A trace is a read-only value: its nested parts are shared between verdicts
(the seven move dicts of ``cremona.STANDARD_MOVES``, and child subtrees within
one prover run), so editing one in place edits them all.  For an editable
copy, use ``json.loads(v.dumps())``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .core import LinearSystem, expected_dim

__all__ = ["DimVerdict", "EMPTY", "REGULAR", "SPECIAL", "UNKNOWN", "status_failure"]

EMPTY = "empty"
REGULAR = "regular"
SPECIAL = "special_known"
UNKNOWN = "unknown"


def status_failure(status, ell, system: LinearSystem) -> str | None:
    """Why ``ell`` is not a value that ``status`` allows for ``system``, or None."""
    if status not in (EMPTY, REGULAR, SPECIAL, UNKNOWN):
        return f"bad status {status!r}"
    if status == UNKNOWN:
        return None if ell is None else "unknown verdict carries no ell"
    if status == EMPTY and ell != -1:
        return "empty verdict must carry ell = -1"
    if status == REGULAR and not ell == expected_dim(system) >= 0:
        return f"regular verdict for {system} must carry ell = expected_dim >= 0"
    if status == SPECIAL and not (isinstance(ell, int) and ell > expected_dim(system)):
        return f"special verdict for {system} must carry ell above expected_dim"
    return None


@dataclass(frozen=True)
class DimVerdict:
    status: str
    ell: int | None
    system: LinearSystem
    trace: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        reason = status_failure(self.status, self.ell, self.system)
        if reason is not None:
            raise ValueError(reason)

    @property
    def conclusive(self) -> bool:
        return self.status != UNKNOWN

    def to_json(self) -> dict:
        return {
            "system": str(self.system),
            "status": self.status,
            "ell": self.ell,
            "trace": self.trace,
        }

    def dumps(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json(), indent=indent)
