"""Quadratic transformations, line splitting, reductions and their replay."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import cremona as CREMONA
from fatpoints.core import LinearSystem, intersect, parse_system, virtual_dim
from fatpoints.cremona import (STANDARD_MOVES, Move, NegativeEntryError, NotFixedError,
                               cremona, cremona_vector, is_standard, next_move,
                               replay_transcript, split_line_vector, standard_reduce)


def L(text):
    return parse_system(text)


def _counted(monkeypatch, names):
    """A Counter of the calls the module makes to each of ``names`` from now on;
    a name the module does not import counts none, as the module cannot call it."""
    calls = Counter()
    for name in names:
        real = getattr(CREMONA, name, None)
        if real is None:
            continue

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(CREMONA, name, counting)
    return calls


class TestCremona:
    def test_p0_and_two_sixes(self):
        out = cremona(L("L(20,12,6^4)"), 0, 1, 2)
        assert out.normalize() == L("L(16,8,6^2,2^2)").normalize()

    def test_three_sixes(self):
        out = cremona(L("L(14,5,6^5)"), 1, 2, 3)
        assert out.normalize() == L("L(10,5,6^2,2^3)").normalize()

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            cremona(L("L(10,2,6^3)"), 1, 2, 3)

    def test_bad_slots(self):
        with pytest.raises(ValueError):
            cremona(L("L(5,1,1,1)"), 0, 0, 1)
        with pytest.raises(ValueError):
            cremona(L("L(5,1,1,1)"), 0, 1, 5)


class TestSplitFixedLine:
    def test_through_p0(self):
        sys = L("L(11,6,6,3^2)")
        assert LinearSystem(*split_line_vector(sys.degree, sys.mults, 0, 1)) == L("L(10,5,5,3^2)")

    def test_direct(self):
        sys = L("L(10,8,6,6)")
        assert LinearSystem(*split_line_vector(sys.degree, sys.mults, 0, 1)) == L("L(9,7,5,6)")

    def test_not_fixed(self):
        with pytest.raises(NotFixedError):
            split_line_vector(5, (2, 2), 0, 1)

    def test_v_change_identity(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(1, 25)
            mults = tuple(rng.randint(1, d + 3) for _ in range(rng.randint(2, 6)))
            sys = LinearSystem(d, mults)
            i, j = rng.sample(range(len(mults)), 2)
            if d - mults[i] - mults[j] >= 0:
                continue
            try:
                out = LinearSystem(*split_line_vector(d, mults, i, j))
            except NegativeEntryError:
                continue
            delta = virtual_dim(out) - virtual_dim(sys)
            assert delta == mults[i] + mults[j] - d - 1
            assert delta >= 0


def _random_valid_move(rng):
    """A system together with slots for which the transformation is legal."""
    while True:
        d = rng.randint(3, 30)
        k = rng.randint(3, 8)
        mults = tuple(rng.randint(0, d) for _ in range(k))
        slots = tuple(rng.sample(range(k), 3))
        w = d - sum(mults[s] for s in slots)
        if d + w >= 0 and all(mults[s] + w >= 0 for s in slots):
            return LinearSystem(d, mults), slots


class TestCremonaProperties:
    def test_virtual_dim_preserved_and_involution(self):
        rng = random.Random(5)
        for _ in range(1000):
            sys, slots = _random_valid_move(rng)
            d2, m2 = cremona_vector(sys.degree, sys.mults, *slots)
            assert virtual_dim(LinearSystem(d2, m2)) == virtual_dim(sys)
            d3, m3 = cremona_vector(d2, m2, *slots)
            assert (d3, m3) == (sys.degree, sys.mults)

    def test_intersection_pairing_preserved(self):
        rng = random.Random(6)
        for _ in range(500)          :
            a, slots = _random_valid_move(rng)
            # second class on the same slots, adjusted until the move is legal
            for _ in range(50):
                b = LinearSystem(rng.randint(3, 30),
                                 tuple(rng.randint(0, 8) for _ in range(len(a.mults))))
                w = b.degree - sum(b.mults[s] for s in slots)
                if b.degree + w >= 0 and all(b.mults[s] + w >= 0 for s in slots):
                    break
            else:
                continue
            ta = LinearSystem(*cremona_vector(a.degree, a.mults, *slots))
            tb = LinearSystem(*cremona_vector(b.degree, b.mults, *slots))
            assert intersect(ta, tb) == intersect(a, b)


class TestStandardReduce:
    def test_already_standard(self):
        final, moves = standard_reduce(L("L(7,0,2^5)"))
        assert moves == ()
        assert final == L("L(7,0,2^5)")
        assert is_standard(final)

    def test_full_collapse(self):
        sys = L("L(10,8,6^2)")
        final, moves = standard_reduce(sys)
        assert final.degree == 0 and all(m == 0 for m in final.mults)
        assert max(-1, virtual_dim(final)) == 0
        assert replay_transcript(moves, sys) == final
        assert all(m.kind == "line" for m in moves)

    def test_cone_of_lines(self):
        final, moves = standard_reduce(L("L(6,6,6)"))
        assert final.degree == 0 and all(m == 0 for m in final.mults)
        assert virtual_dim(final) == 0
        assert len(moves) == 6

    def test_stops_when_multiplicity_exceeds_degree(self):
        final, _ = standard_reduce(L("L(13,5,6^5)"))
        assert any(m > final.degree for m in final.mults)

    def test_move_json_round_trip(self):
        sys = L("L(14,0,6^6)")
        final, moves = standard_reduce(sys)
        parsed = tuple(Move.from_json(json.loads(json.dumps(m.to_json()))) for m in moves)
        assert parsed == moves
        assert replay_transcript(parsed, sys) == final
        assert all(isinstance(m, Move) for m in moves)
        assert moves[0].to_json() == {"move": "cremona", "slots": [1, 2, 3]}

    def test_recorded_systems_are_not_read(self):
        # certificates once recorded the systems around each move; they are ignored
        data = {"move": "cremona", "slots": [1, 2, 3], "before": "L(5,1)", "after": "L(99)"}
        assert Move.from_json(data) == Move("cremona", (1, 2, 3))

    def test_replay_detects_tampering(self):
        sys = L("L(10,8,6^2)")
        _, moves = standard_reduce(sys)
        assert moves[0] == Move("line", (0, 1))
        broken = (Move("cremona", (0, 1, 2)),) + moves[1:]  # w = 10 - 20 empties the degree
        with pytest.raises(NegativeEntryError):
            replay_transcript(broken, sys)

    @pytest.mark.parametrize("name,n_moves,exceeds", [
        ("L(20,18,6^5)", 19, True),   # stops at L(1,1,2^4,1): a multiplicity above the degree
        ("L(6,1,6^2)", 6, True),      # stops at L(0,0,1)
        ("L(16,4,6^6)", 3, False),    # stops at the standard L(8,2,4,2^5)
        ("L(21,0,6^10)", 0, False),   # already standard
    ])
    def test_formats_no_state(self, monkeypatch, name, n_moves, exceeds):
        calls = []
        real = CREMONA.format_system

        def counting(degree, mults):
            calls.append((degree, mults))
            return real(degree, mults)

        monkeypatch.setattr(CREMONA, "format_system", counting)
        final, moves = standard_reduce(L(name))
        assert len(moves) == n_moves and any(m > final.degree for m in final.mults) == exceeds
        assert replay_transcript(moves, L(name)) == final
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 45), st.lists(st.integers(0, 12), max_size=12))
    def test_only_the_seven_table_moves(self, degree, m0, tail):
        # zeros in the tail, p0 above, among and below the tail, tails of mixed values
        sys = LinearSystem(degree, (m0, *tail))
        final, moves = standard_reduce(sys)
        assert len(STANDARD_MOVES) == 7
        assert all(m in STANDARD_MOVES and type(m) is Move for m in moves)
        start = sys.normalize()
        first = next_move(start.degree, start.mults)  # the move recorded as it is
        assert first is None or type(first) is Move
        assert moves[:1] in ((), (first,))
        assert replay_transcript(moves, sys) == final

    def test_large_reductions(self):
        line01, line12 = Move("line", (0, 1)), Move("line", (1, 2))
        final, moves = standard_reduce(L("L(10000,9995,6^3000)"))
        assert final == L("L(4,0,5^200,4^2)")
        assert moves == (line01,) * 3000 + (Move("cremona", (0, 1, 2)),) * 1399 + (line12,)
        final, moves = standard_reduce(L("L(100000,99990,6^10000)"))
        assert final == L("L(90000,89990,4^10000)")
        assert moves == (Move("cremona", (0, 1, 2)),) * 5000

    def test_whole_vector_work_once_per_run(self, monkeypatch):
        # a sort or a sum over the vector on every move would make thousands of calls
        calls = _counted(monkeypatch, ("vector_dim", "normal_mults", "next_move"))
        _, moves = standard_reduce(L("L(10000,9995,6^3000)"))
        runs = 1 + sum(a != b for a, b in zip(moves, moves[1:]))
        assert (len(moves), runs) == (4400, 3)
        assert max(calls.values(), default=0) <= runs, calls

    @pytest.mark.parametrize("name,n_moves,final", [
        ("L(10000,9995,6^3000)", 4400, "L(4,0,5^200,4^2)"),
        ("L(100000,99990,6^10000)", 5000, "L(90000,89990,4^10000)"),
    ])
    def test_replay_of_a_long_transcript_works_once_per_run(self, monkeypatch, name, n_moves,
                                                            final):
        # the replay checks each move on the values it touches; a copy, a sort or a
        # sum over the vector on every move would make thousands of calls
        reached, moves = standard_reduce(L(name))
        assert reached == L(final) and len(moves) == n_moves
        calls = _counted(monkeypatch, ("vector_dim", "virtual_dim", "normal_mults",
                                       "format_system"))
        assert replay_transcript(moves, L(name)) == L(final)
        assert calls["vector_dim"] <= 1 and calls["virtual_dim"] <= 1, calls
        assert calls["normal_mults"] == calls["format_system"] == 0, calls

    def test_normalize_keeps_a_canonical_system(self):
        for name in ("L(20,18,6^5)", "L(1,1,2^4,1)", "L(5,0)", "L(3)"):
            sys = L(name)
            assert sys.normalize() == sys and sys.normalize() is sys
        loose = LinearSystem(9, (0, 1, 0, 6, 6))
        once = loose.normalize()
        assert once == LinearSystem(9, (0, 6, 6, 1)) and once.normalize() is once
