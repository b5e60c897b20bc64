"""Spans around the public functions of each fatpoints layer, recorded from outside.

``Tracer.install`` replaces every binding of each target function in every
loaded ``fatpoints`` module (the defining module, the package namespace and
each ``from .x import f`` copy), so calls through any of them are seen.
Spans are aggregated per name as they close: call count, total time (nested
calls of the same name counted once) and self time (duration minus the time
covered by child spans, taken from an explicit span stack).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# Layer boundaries: (defining module, function).  Hot helpers such as
# format_system and virtual_dim are left out on purpose: the wrapper would
# cost more than they do.
TARGETS = (
    ("core", "parse_system"),
    ("cremona", "standard_reduce"),
    ("cremona", "replay_transcript"),
    ("neg_curves", "hh_dimension"),
    ("neg_curves", "is_minus_one_special"),
    ("neg_curves", "generate_classification"),
    ("degeneration", "recursive_dim"),
    ("degeneration", "degenerate"),
    ("degeneration", "check_certificate"),
    ("oracle", "build_matrix"),
    ("oracle", "rank_ff"),
    ("oracle", "dimension_char_p"),
    ("tables", "verify_table"),
    ("cli", "main"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    childless: int = 0  # calls that opened no child span (an oracle cache hit)


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0
    children: int = 0


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    # (rows, cols, rank, seconds) per rank_ff call, (rows, cols) per build_matrix call
    ranks: list[tuple[int, int, int, float]] = field(default_factory=list)
    builds: list[tuple[int, int]] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _active: dict[str, int] = field(default_factory=dict)

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "fatpoints" or name.startswith("fatpoints.")]
        for modname, fname in TARGETS:
            # importlib, not attribute access: the package attribute
            # ``fatpoints.cremona`` is the function of that name.
            original = getattr(importlib.import_module(f"fatpoints.{modname}"), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def reset(self) -> None:
        """Forget what was recorded so far."""
        self.stats, self.ranks, self.builds = {}, [], []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            frame = _Frame(name, clock())
            if stack:
                stack[-1].children += 1
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame.start
                stack.pop()
                active[name] -= 1
                st = self.stats.setdefault(name, SpanStats())
                st.calls += 1
                st.self_s += dur - frame.child_s
                if not active[name]:
                    st.total_s += dur
                if not frame.children:
                    st.childless += 1
                if stack:
                    stack[-1].child_s += dur
            if name == "oracle.rank_ff":
                self.ranks.append((args[0].rows, args[0].cols, result, dur))
            elif name == "oracle.build_matrix":
                self.builds.append((result.rows, result.cols))
            return result

        return wrapper

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def to_json(self) -> dict:
        return {"stats": {k: vars(v) for k, v in self.stats.items()},
                "ranks": self.ranks, "builds": self.builds}
