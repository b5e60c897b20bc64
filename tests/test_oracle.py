"""Rank oracle: matrix build, elimination, dimensions, regularity certificates."""

import hashlib
import json
import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import oracle
from fatpoints.core import LinearSystem, expected_dim, parse_system
from fatpoints.degeneration import check_certificate, recursive_dim
from fatpoints.neg_curves import hh_dimension
from fatpoints.oracle import (DEFAULT_PRIME, MAX_PRIME, PrimeFieldMatrix, build_matrix,
                              check_prime, condition_count,
                              dimension_char_p, monomial_count, monomial_exponents,
                              oracle_report, rank_ff, size_failure, trial_dimensions)
from fatpoints.tables import _proven_floor, classification_table

BIG_PRIME = 8388593  # the largest prime below 2^23

# sha256 of "<system> <trial_dimensions(system, 0)>" lines over the 272
# classification-table instances with d <= 22, recorded before the rank
# oracle moved its points to a projective frame.
TABLE_TRIALS_SHA256 = "2fa87c67d213f8719af164a13913dd2a1f0e216e1590690487af67a6b2126716"

# The systems of the 28 rank-oracle leaves in the certificates of the 81 hard
# cases (matrices up to 441 x 441, up to seven panels), and the sha256 of their
# "<system> <trial_dimensions(system, 0)>" lines, recorded before the rank
# became left-looking.
HARD_ORACLE_SYSTEMS = (
    "L(19,0,6^10)", "L(19,1,6^10)", "L(19,2,6^10)", "L(19,4,6^9)", "L(19,5,6^9)",
    "L(19,6,6^9)", "L(19,7,6^9)", "L(20,8,6^9)", "L(20,9,6^9)", "L(21,10,6^9)",
    "L(22,0,6^13)", "L(22,1,6^13)", "L(22,2,6^13)", "L(22,3,6^13)", "L(22,6,6^12)",
    "L(22,7,6^12)", "L(22,9,6^11)", "L(22,12,6^9)", "L(23,11,6^11)", "L(25,12,6^13)",
    "L(25,15,6^11)", "L(26,14,6^13)", "L(29,19,6^13)", "L(31,18,6^17)", "L(40,27,6^23)",
    "L(40,30,6^19)", "L(19,14,4^9)", "L(24,19,4^13)",
)
HARD_ORACLE_TRIALS_SHA256 = "115e6d51fecfe1d0a8ea72514a3a8ee52880cfa5da21ff2aa772128c2c6b31f7"

# sha256 of "<rows> <cols>\n" and the int64 bytes of every matrix that
# build_matrix returns for the table and hard-case trials above, in call order,
# recorded before the build became array operations.
TABLE_MATRICES_SHA256 = "642244b04d0797b6317c078418e6a04c1c6487c3982730ea562385cb4104248e"
HARD_ORACLE_MATRICES_SHA256 = "4d9f5c132fa06f3ff00cf939a22e4c0af83520102351df113b379ab5d00ec11d"


def L(text):
    return parse_system(text)


# -- references: the straightforward per-row build and row elimination ---------


def _falling(values, k, prime):
    out = np.ones_like(values)
    for t in range(k):
        out = out * np.maximum(values - t, 0) % prime
    return out


def reference_exponents(d):
    """The graded column order, x before y, as a list."""
    return [(a, t - a) for t in range(d + 1) for a in range(t, -1, -1)]


def reference_build_matrix(L, points, prime=DEFAULT_PRIME, corners=(0, 0, 0)):
    """One row per derivative (point, order, x-order high to low), built one at a time,
    on the columns that ``corners`` keeps in ``build_matrix``."""
    d = L.degree
    m0, m1, m2 = corners
    positive = [m for m in L.mults if m > 0]
    exps = np.array([(a, b) for a, b in reference_exponents(d)
                     if a + b >= m0 and a <= d - m1 and b <= d - m2], dtype=np.int64)
    ax, ay = exps.reshape(-1, 2).T
    data = np.zeros((condition_count(L), len(exps)), dtype=np.int64)
    row = 0
    for (x, y), m in zip(points, positive):
        px = np.ones(d + 1, dtype=np.int64)
        py = np.ones(d + 1, dtype=np.int64)
        for t in range(1, d + 1):
            px[t] = px[t - 1] * x % prime
            py[t] = py[t - 1] * y % prime
        for order in range(m):
            for r in range(order, -1, -1):
                s = order - r
                coeff = _falling(ax, r, prime) * _falling(ay, s, prime) % prime
                vals = coeff * px[np.maximum(ax - r, 0)] % prime * py[np.maximum(ay - s, 0)] % prime
                vals[(ax < r) | (ay < s)] = 0
                data[row] = vals
                row += 1
    return data


def reference_rank(data, p):
    """Rank over F_p by unblocked row elimination, pivoting on the first nonzero entry."""
    A = data.copy()
    rows, cols = A.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(A[rank:, col])[0]
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), p - 2, p) % p
        below = rank + 1 + np.nonzero(A[rank + 1:, col])[0]
        if below.size:
            A[below] = (A[below] - A[below, col][:, None] * A[rank][None, :]) % p
        rank += 1
    return rank


def _low_rank(rng, p, rows, cols, rank):
    """A rows x cols matrix over F_p of rank at most ``rank``."""
    left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, rank)
    right = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rank)],
                     dtype=np.int64).reshape(rank, cols)
    out = np.zeros((rows, cols), dtype=np.int64)
    for j in range(rank):
        out = (out + left[:, j:j + 1] * right[j:j + 1, :]) % p
    return out


def _hash_builds(monkeypatch):
    """A sha256 that each later ``oracle.build_matrix`` call updates with its
    matrix: the shape, then the bytes."""
    digest = hashlib.sha256()
    original = oracle.build_matrix

    def hashing(*args, **kwargs):
        M = original(*args, **kwargs)
        digest.update(f"{M.rows} {M.cols}\n".encode() + M.data.tobytes())
        return M

    monkeypatch.setattr(oracle, "build_matrix", hashing)
    return digest


def _count_builds(monkeypatch):
    calls = []
    original = oracle.build_matrix

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_matrix", counting)
    return calls


class TestBuildMatrix:
    def test_single_simple_point(self):
        M = build_matrix(L("L(1,1)"), [(5, 7)], DEFAULT_PRIME)
        assert M.data.tolist() == [[1, 5, 7]]

    def test_double_point_at_origin(self):
        M = build_matrix(L("L(2,2)"), [(0, 0)], DEFAULT_PRIME)
        assert M.data.shape == (3, 6)
        assert rank_ff(M) == 3

    def test_counts(self):
        sys = L("L(22,7,6^12)")
        assert monomial_count(sys) == 23 * 24 // 2
        assert condition_count(sys) == 7 * 8 // 2 + 12 * 21
        M = build_matrix(sys, [(i + 1, (i + 3) ** 2 % DEFAULT_PRIME) for i in range(13)])
        assert M.rows == condition_count(sys) and M.cols == monomial_count(sys)

    @pytest.mark.parametrize("name", [
        "L(1,1)", "L(5,0,6)", "L(8,3,2^4)", "L(10,2,6^3)", "L(13,2,6^5)",
        "L(17,9,6^6)", "L(21,21,6)", "L(22,7,6^12)", "L(26,13,6^14)", "L(40,27,6^23)",
    ])
    def test_identical_to_reference(self, name):
        sys = L(name)
        npoints = sum(1 for m in sys.mults if m > 0)
        points = oracle._sample_points(npoints, random.Random(name), DEFAULT_PRIME)
        got = build_matrix(sys, points).data
        want = reference_build_matrix(sys, points)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 8), st.integers(1, 6),
           st.sampled_from([DEFAULT_PRIME, BIG_PRIME]), st.integers(0, 2**32))
    def test_identical_to_reference_on_a_grid(self, d, m0, n, m, prime, seed):
        sys = LinearSystem(d, (min(m0, d),) + (m,) * n)
        npoints = sum(1 for x in sys.mults if x > 0)
        points = oracle._sample_points(npoints, random.Random(seed), prime)
        got = build_matrix(sys, points, prime).data
        assert got.tobytes() == reference_build_matrix(sys, points, prime).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 24), st.lists(st.integers(0, 7), max_size=9),
           st.tuples(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26)),
           st.sampled_from([DEFAULT_PRIME, BIG_PRIME]), st.integers(0, 2**32))
    @example(9, [6, 0, 2, 2, 6, 1], (3, 1, 2), DEFAULT_PRIME, 0)  # interleaved runs and a zero
    @example(0, [1, 0, 2], (0, 0, 0), DEFAULT_PRIME, 1)  # degree 0
    @example(1, [3], (1, 0, 0), DEFAULT_PRIME, 2)        # one point
    @example(2, [], (1, 1, 1), DEFAULT_PRIME, 3)         # no points
    @example(2, [0, 0], (0, 0, 0), BIG_PRIME, 4)         # only zero slots
    @example(4, [2, 1], (5, 0, 0), DEFAULT_PRIME, 5)     # no column left
    @example(20, [6] * 13 + [5, 6, 6], (4, 2, 2), DEFAULT_PRIME, 6)  # runs across blocks
    @example(22, [17, 1, 16, 16], (2, 0, 3), BIG_PRIME, 7)  # points of over 128 rows
    def test_corners_and_mixed_multiplicities_against_reference(self, d, mults, corners,
                                                                 prime, seed):
        sys = LinearSystem(d, tuple(mults))
        points = oracle._sample_points(len([m for m in mults if m]), random.Random(seed), prime)
        got = build_matrix(sys, points, prime, corners=corners).data
        want = reference_build_matrix(sys, points, prime, corners)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_monomial_exponents_in_graded_order(self):
        for d in (0, 1, 2, 7, 22, 100):
            got = monomial_exponents(d)
            assert got.dtype == np.int64
            assert got.tolist() == [list(e) for e in reference_exponents(d)]

    def test_memory_bounded(self):
        # rows are built in blocks of about 128, so temporaries stay small next to the matrix
        sys = L("L(62,0,6^94)")
        points = oracle._sample_points(94, random.Random(0), DEFAULT_PRIME)
        tracemalloc.start()
        try:
            M = build_matrix(sys, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.data.shape == (1974, 2016)
        assert peak <= 1.5 * M.data.nbytes

    def test_errors(self):
        with pytest.raises(ValueError):
            build_matrix(L("L(2,1,1)"), [(1, 1), (1, 1)], DEFAULT_PRIME)
        with pytest.raises(ValueError):
            build_matrix(L("L(40,1)"), [(1, 1)], 37)
        with pytest.raises(ValueError):
            build_matrix(L("L(2,1)"), [(1, 1), (2, 2)], DEFAULT_PRIME)

    @pytest.mark.parametrize("prime", [32004, 4294967311, MAX_PRIME + 9, 1, 0, -7, 1.5])
    def test_bad_prime_rejected(self, prime):
        with pytest.raises(ValueError):
            build_matrix(L("L(4,2,2)"), [(1, 2), (3, 4)], prime)

    def test_entries_bounded_by_the_square_of_the_column_cap(self):
        # 5050 + 91 + 10 = 5151 conditions on the 5151 monomials of degree 100
        assert size_failure(L("L(100,100,13,4)")) is None
        assert "5152 x 5151 matrix" in size_failure(L("L(100,100,13,4,1)"))
        assert "5253 monomials" in size_failure(L("L(101)"))


class TestRank:
    def test_zero_matrix(self):
        M = PrimeFieldMatrix(101, 4, 5, np.zeros((4, 5), dtype=np.int64))
        assert rank_ff(M) == 0

    def test_padded_identity(self):
        data = np.zeros((5, 7), dtype=np.int64)
        for i in range(3):
            data[i, i + 1] = 1 + i
        M = PrimeFieldMatrix(101, 5, 7, data)
        assert rank_ff(M) == 3

    @pytest.mark.parametrize("p", [101, DEFAULT_PRIME, BIG_PRIME])
    def test_float_reduction_matches_integer_mod(self, p):
        rng = random.Random(p)
        bound = 64 * (p - 1) ** 2
        values = [rng.randint(-bound, p - 1) for _ in range(2000)]
        values += [q * p + e for q in range(-(bound // p), bound // p, max(1, bound // p // 500))
                   for e in (-1, 0, 1)]
        got = oracle._reduce(np.array(values, dtype=np.float64), p)
        assert got.tolist() == [float(v % p) for v in values]

    @pytest.mark.parametrize("data", [
        np.array([[0.5, 0], [0, 0]]),           # ranked 0 when accepted
        np.array([[np.nan, 1], [1, 0]]),        # ranked 2 when accepted
        np.array([[True, False], [False, True]]),
        [[1, 0], [0, 1]],
    ], ids=["fraction", "nan", "bool", "nested_list"])
    def test_non_integer_matrix_rejected(self, data):
        with pytest.raises(ValueError):
            PrimeFieldMatrix(101, 2, 2, data)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(129, 200), st.integers(129, 200), st.integers(0, 8), st.just(0),
           st.integers(0, 2**32))
    @example(40, 100, 0, 0, 1)    # full row rank: the first panel runs out of rows
    @example(150, 140, 0, 64, 2)  # an all-zero first panel
    @example(1, 150, 0, 0, 3)     # 1 x n
    @example(150, 1, 0, 0, 4)     # n x 1
    def test_top_of_the_range_against_reference(self, rows, cols, drop, zero_cols, seed):
        # data = lower @ upper for unit triangular factors whose other entries
        # lie within 2^8 of p - 1 at the largest accepted prime.  Elimination
        # recovers these factors as its multipliers and pivot rows, so each
        # product sums up to 64 terms near (p - 1)^2; at least 129 rows and
        # columns fill the first panel and leave two more.  ``drop`` rows of
        # ``upper`` are zeroed to lower the rank.
        rng = np.random.default_rng(seed)
        inner = min(rows, cols)

        def top(shape):
            return BIG_PRIME - 1 - rng.integers(0, 1 << 8, shape)

        lower = np.tril(top((rows, inner)), -1) + np.eye(rows, inner, dtype=np.int64)
        upper = np.triu(top((inner, cols)), 1) + np.eye(inner, cols, dtype=np.int64)
        upper[rng.choice(inner, min(drop, inner), replace=False)] = 0
        data = lower @ upper % BIG_PRIME
        data[:, :zero_cols] = 0
        M = PrimeFieldMatrix(BIG_PRIME, rows, cols, data)
        assert rank_ff(M) == reference_rank(data, BIG_PRIME)

    def test_hard_case_oracle_trials_unchanged(self, monkeypatch):
        matrices = _hash_builds(monkeypatch)
        digest = hashlib.sha256()
        for name in HARD_ORACLE_SYSTEMS:
            digest.update(f"{name} {trial_dimensions(L(name), 0)}\n".encode())
        assert digest.hexdigest() == HARD_ORACLE_TRIALS_SHA256
        assert matrices.hexdigest() == HARD_ORACLE_MATRICES_SHA256

    def test_memory_bounded_and_input_untouched(self):
        # the trailing products go by chunks of rows, and the caller's array
        # is read, never eliminated in place
        rng = np.random.default_rng(11)
        data = rng.integers(0, DEFAULT_PRIME, (1500, 1500))
        before = data.copy()
        M = PrimeFieldMatrix(DEFAULT_PRIME, 1500, 1500, data)
        tracemalloc.start()
        try:
            rank = rank_ff(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == 1500
        assert peak <= 3 * data.nbytes
        assert np.array_equal(data, before)

    def test_prime_beyond_int64_products_rejected(self):
        # int64 elimination overflowed here and reported rank 2 for a rank-1 matrix
        p, a, b, c = 4294967311, 4294967000, 4294960000, 3
        data = np.array([[a, b], [c * a % p, c * b % p]], dtype=np.int64)
        with pytest.raises(ValueError):
            PrimeFieldMatrix(p, 2, 2, data)

    def test_check_prime(self):
        for good in (2, 101, DEFAULT_PRIME, BIG_PRIME):
            check_prime(good)
        for bad in (32004, 9, 1, MAX_PRIME + 9, True, "32003", 32003.0):
            with pytest.raises(ValueError):
                check_prime(bad)

    def test_check_prime_accepts_exactly_the_primes(self):
        def accepts(n):
            try:
                check_prime(n)
            except ValueError:
                return False
            return True

        def is_prime(n):  # the definition, by trial division
            return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))

        sieve = np.ones(1 << 16, dtype=bool)
        sieve[:2] = False
        for k in range(2, 1 << 8):
            if sieve[k]:
                sieve[k * k::k] = False
        assert [n for n in range(-3, 1 << 16) if accepts(n)] == sieve.nonzero()[0].tolist()
        # squares and a product of the primes next to sqrt(2^23)
        near = list(range(MAX_PRIME - 40, MAX_PRIME + 3)) + [2879 ** 2, 2887 ** 2, 2887 * 2897]
        assert BIG_PRIME in near and 47 * 178481 in near
        for n in near:
            assert accepts(n) == (n < MAX_PRIME and is_prime(n)), n

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([101, DEFAULT_PRIME, BIG_PRIME]), st.integers(1, 150),
           st.integers(1, 150), st.integers(0, 150), st.integers(0, 2**32))
    def test_rank_deficient_against_reference(self, p, rows, cols, rank, seed):
        data = _low_rank(random.Random(seed), p, rows, cols, min(rank, rows, cols))
        assert rank_ff(PrimeFieldMatrix(p, rows, cols, data)) == reference_rank(data, p)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200), st.integers(0, 140),
           st.sets(st.integers(0, 128), max_size=40),
           st.sampled_from([101, DEFAULT_PRIME, BIG_PRIME]), st.integers(0, 2**32))
    def test_panel_edges_against_reference(self, cols, rows, rank, zero_cols, p, seed):
        data = _low_rank(random.Random(seed), p, rows, cols, min(rank, rows, cols))
        data[:, [c for c in zero_cols if c < cols]] = 0
        assert rank_ff(PrimeFieldMatrix(p, rows, cols, data)) == reference_rank(data, p)

    def test_tall_and_full_rank(self):
        rng = random.Random(5)
        for rows, cols in [(300, 65), (129, 128), (64, 64), (65, 1), (1, 129)]:
            data = _low_rank(rng, DEFAULT_PRIME, rows, cols, min(rows, cols))
            M = PrimeFieldMatrix(DEFAULT_PRIME, rows, cols, data)
            assert rank_ff(M) == reference_rank(data, DEFAULT_PRIME) == min(rows, cols)

    def test_interpolation_matrices_against_reference(self):
        for name in ["L(10,2,6^3)", "L(22,7,6^12)", "L(21,21,6)", "L(26,13,6^14)"]:
            sys = L(name)
            npoints = sum(1 for m in sys.mults if m > 0)
            points = oracle._sample_points(npoints, random.Random(name), DEFAULT_PRIME)
            M = build_matrix(sys, points)
            assert rank_ff(M) == reference_rank(M.data, DEFAULT_PRIME)

    def test_high_order_derivative_coefficients(self):
        # orders beyond 20 exercise the modular falling factorials
        sys = L("L(21,21,6)")
        assert dimension_char_p(sys) == 15


class TestDimension:
    def test_known_values(self):
        assert dimension_char_p(L("L(14,0,6^6)")) == -1
        assert dimension_char_p(L("L(20,8,6^9)")) == 5
        assert dimension_char_p(L("L(2,1^2)")) == 3

    def test_monotone_in_trials(self):
        sys = L("L(9,0,6^3)")
        prev = None
        for t in range(1, 5):
            cur = min(trial_dimensions(sys, seed=3, trials=t))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_trials_lower_bounded_by_splitting_value(self):
        for name in ["L(10,2,6^3)", "L(13,2,6^5)", "L(14,5,6^5)", "L(7,3,2^4)"]:
            sys = L(name)
            ell = hh_dimension(sys).ell
            assert all(t >= ell for t in trial_dimensions(sys))

    @pytest.mark.parametrize("seed", [1.5, True, "7", None])
    @pytest.mark.parametrize("entry", [oracle_report, dimension_char_p, trial_dimensions])
    def test_seed_refused_before_any_matrix(self, monkeypatch, entry, seed):
        # a certificate records the seed as an int; the point stream reads its text
        builds = _count_builds(monkeypatch)
        with pytest.raises(ValueError, match="seed must be an integer"):
            entry(L("L(12,3,6^4)"), seed, trials=1)
        assert builds == []


class TestEarlyStop:
    def test_regular_system_builds_one_matrix(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        assert dimension_char_p(L("L(19,5,6^9)")) == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("name, ell", [("L(10,2,6^3)", 2), ("L(14,5,6^5)", 0)])
    def test_special_system_runs_every_trial(self, monkeypatch, name, ell):
        calls = _count_builds(monkeypatch)
        assert dimension_char_p(L(name)) == ell
        assert len(calls) == 3

    def test_trial_dimensions_runs_every_trial(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        assert len(trial_dimensions(L("L(19,5,6^9)"), trials=4)) == 4
        assert len(calls) == 4

    def test_equals_minimum_over_all_trials(self):
        rng = random.Random(17)
        for _ in range(40):
            d = rng.randint(1, 14)
            sys = LinearSystem(d, (rng.randint(0, d),) + (rng.randint(1, 6),) * rng.randint(0, 5))
            seed, trials = rng.randint(0, 99), rng.randint(1, 4)
            assert (dimension_char_p(sys, seed, trials=trials)
                    == min(trial_dimensions(sys, seed, trials=trials)))
        # special table instances, stopped at their checker-verified floors
        special = [sys for row in classification_table(4) for sys, *_ in row.instances(d_cap=14)]
        for sys in rng.sample(special, 30):
            floor = _proven_floor(sys)
            seed, trials = rng.randint(0, 99), rng.randint(1, 4)
            assert floor > expected_dim(sys)
            assert (dimension_char_p(sys, seed, trials=trials, floor=floor)
                    == min(trial_dimensions(sys, seed, trials=trials)))

    @pytest.mark.parametrize("name", ["L(19,5,6^9)", "L(10,2,6^3)", "L(14,5,6^5)"])
    def test_floor_at_or_below_expected_changes_nothing(self, monkeypatch, name):
        sys = L(name)
        calls = _count_builds(monkeypatch)
        want = dimension_char_p(sys)
        unfloored = len(calls)
        for floor in (expected_dim(sys), expected_dim(sys) - 1, -5):
            calls.clear()
            assert dimension_char_p(sys, floor=floor) == want
            assert len(calls) == unfloored

    def test_checker_replay_recomputes_after_prover(self, monkeypatch):
        verdict = recursive_dim(L("L(19,5,6^9)"))
        assert verdict.trace["kind"] == "rank_oracle"
        calls = _count_builds(monkeypatch)
        check_certificate(json.loads(verdict.dumps()))
        assert len(calls) == 1

    def test_one_prime_check_per_request(self, monkeypatch):
        # check_request, then each trial's build_matrix and its matrix, once made 1 + 2 * 3
        checked = []
        real = oracle.check_prime
        monkeypatch.setattr(oracle, "check_prime", lambda p: checked.append(p) or real(p))
        builds = _count_builds(monkeypatch)
        sys = L("L(10,2,6^3)")  # special: no trial reaches the expected dimension
        assert dimension_char_p(sys, trials=3) == 2
        assert len(builds) == 3 and checked == [DEFAULT_PRIME]
        # a matrix built directly, and build_matrix called directly, still test their prime
        checked.clear()
        build_matrix(L("L(4,2,2)"), [(1, 2), (3, 4)], DEFAULT_PRIME)
        PrimeFieldMatrix(101, 1, 1, np.zeros((1, 1), dtype=np.int64))
        assert checked == [DEFAULT_PRIME, 101]
        with pytest.raises(ValueError, match="9 is not prime"):
            PrimeFieldMatrix(9, 1, 1, np.zeros((1, 1), dtype=np.int64))

    def test_bad_prime_rejected_before_sampling(self):
        with pytest.raises(ValueError):
            dimension_char_p(L("L(4,2,2)"), prime=32004)
        with pytest.raises(ValueError):
            trial_dimensions(L("L(1,1^10)"), prime=3)  # 10 points, 4 slots


class TestHeaviestPointAtOrigin:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10),
           st.lists(st.integers(0, 13), max_size=6),
           st.integers(0, 2**32), st.integers(1, 3))
    @example(6, [0, 2, 3, 0, 1], 0, 3)   # mixed multiplicities and zero slots
    @example(7, [3, 1, 3, 3], 5, 3)      # a tie for the largest multiplicity
    @example(3, [6, 2], 1, 2)            # m > d + 1
    @example(0, [2, 1], 2, 2)            # degree 0
    @example(5, [4], 3, 3)               # a single point
    @example(4, [], 4, 2)                # no points
    @example(4, [0, 0], 4, 2)            # only zero slots
    @example(8, [3, 3, 3, 2, 1], 1, 3)   # a tie among the three heaviest
    @example(8, [2, 4, 3, 4, 3], 6, 3)   # ties for the second and third place
    @example(4, [7, 6, 1, 2], 2, 2)      # m > d + 1 at [1:0:0]
    @example(5, [7, 7, 8, 1], 3, 2)      # m > d + 1 at all three vertices
    @example(22, [18, 6, 6, 6, 6], 0, 2)  # corners that overlap, L(22,18,6^4)
    @example(6, [3, 4], 2, 3)            # exactly two points
    @example(7, [2, 5, 3], 4, 3)         # exactly three points
    def test_trials_match_reference(self, d, mults, seed, trials):
        sys = LinearSystem(d, tuple(mults))
        npoints = sum(1 for m in mults if m > 0)
        want = []
        for t in range(trials):
            points = oracle._sample_points(npoints, random.Random(f"fatpoints:{seed}:{t}"),
                                           DEFAULT_PRIME)
            data = reference_build_matrix(sys, points)
            want.append(monomial_count(sys) - 1 - reference_rank(data, DEFAULT_PRIME))
        assert trial_dimensions(sys, seed, trials=trials) == tuple(want)

    @pytest.mark.parametrize("name, others, shape", [
        ("L(40,27,6^23)", (6,) * 21, (441, 441)),
        ("L(22,18,6^4)", (6,) * 2, (42, 65)),
        ("L(9,2,4,1,4)", (1,), (1, 32)),  # the first 4 goes to the origin on a tie
        ("L(3,7,1)", (), (0, 0)),         # m > d + 1 leaves no column
    ])
    def test_only_the_other_points_are_eliminated(self, monkeypatch, name, others, shape):
        builds = _count_builds(monkeypatch)
        shapes = []
        original = oracle.rank_ff
        monkeypatch.setattr(oracle, "rank_ff",
                            lambda M: shapes.append((M.rows, M.cols)) or original(M))
        trial_dimensions(L(name), trials=1)
        assert [b.mults for b in builds] == [others] and shapes == [shape]


class TestProjectiveFrame:
    def _check(self, monkeypatch, d, mults, points, others):
        """The trial on hand-picked points equals the reference; ``others`` were eliminated."""
        builds = _count_builds(monkeypatch)
        sys = LinearSystem(d, tuple(mults))
        want = monomial_count(sys) - 1 - reference_rank(reference_build_matrix(sys, points),
                                                        DEFAULT_PRIME)
        assert oracle._trial_dimension(d, mults, points, DEFAULT_PRIME) == want
        assert [b.mults for b in builds] == [others]

    def test_frame_in_general_position(self, monkeypatch):
        self._check(monkeypatch, 9, [4, 3, 2, 2, 1],
                    [(7, 1), (1, 2), (3, 5), (2, 9), (11, 4)], (2, 1))

    def test_collinear_heaviest_points_fall_back(self, monkeypatch):
        # (1,1), (2,2), (3,3) lie on the diagonal
        self._check(monkeypatch, 9, [4, 3, 3, 2, 2],
                    [(1, 1), (2, 2), (3, 3), (5, 1), (1, 7)], (3, 3, 2, 2))

    def test_collinear_three_points_fall_back(self, monkeypatch):
        self._check(monkeypatch, 5, [2, 3, 2], [(4, 2), (1, 1), (7, 3)], (2, 2))

    def test_point_on_the_line_at_infinity_falls_back(self, monkeypatch):
        # (1,2), (3,5), (5,8) lie on one line; the first two go to infinity
        self._check(monkeypatch, 9, [4, 3, 3, 2, 1],
                    [(7, 1), (1, 2), (3, 5), (5, 8), (2, 9)], (3, 3, 2, 1))

    def test_collinearity_is_taken_mod_p(self, monkeypatch):
        # (0, p + 1) is (0, 1) mod p, on the line through (1, 2) and (2, 3)
        self._check(monkeypatch, 8, [3, 2, 2, 1],
                    [(5, 9), (1, 2), (2, 3), (0, DEFAULT_PRIME + 1)], (2, 2, 1))

    def test_table_trials_unchanged(self, monkeypatch):
        matrices = _hash_builds(monkeypatch)
        digest = hashlib.sha256()
        count = 0
        for row in classification_table(4):
            for sys, *_ in row.instances(e_limit=4, d_cap=22):
                digest.update(f"{sys} {trial_dimensions(sys, 0)}\n".encode())
                count += 1
        assert count == 272
        assert digest.hexdigest() == TABLE_TRIALS_SHA256
        assert matrices.hexdigest() == TABLE_MATRICES_SHA256


def certifies_regular(sys):
    """Whether some oracle trial reaches the expected dimension."""
    return dimension_char_p(sys) == expected_dim(sys)


class TestCertifyRegular:
    def test_examples(self):
        assert certifies_regular(L("L(19,5,6^9)"))
        assert not certifies_regular(L("L(10,2,6^3)"))
        assert certifies_regular(L("L(9,0)"))

    def test_report_shape(self):
        rep = oracle_report(L("L(10,2,6^3)"), seed=42)
        assert set(rep) == {"system", "prime", "seed", "trials", "rank", "ell",
                            "certified_regular"}
        assert rep["ell"] == 2 and rep["certified_regular"] is False
        assert rep["rank"] == monomial_count(L("L(10,2,6^3)")) - 1 - rep["ell"]

    def test_reproducible(self):
        a = oracle_report(L("L(12,4,6^4)"), seed=9)
        b = oracle_report(L("L(12,4,6^4)"), seed=9)
        assert a == b

    def test_certified_systems_are_never_special(self):
        import random

        from fatpoints.core import LinearSystem
        from fatpoints.neg_curves import is_minus_one_special

        rng = random.Random(43)
        certified = 0
        while certified < 40:
            d = rng.randint(1, 16)
            n = rng.randint(0, 6)
            sys = LinearSystem(d, (rng.randint(0, d),) + (6,) * n)
            if certifies_regular(sys):
                assert not is_minus_one_special(sys)[0]
                certified += 1
