"""Ground-truth dimensions via interpolation-matrix rank over a prime field.

The conditions "multiplicity at least m at p" are the vanishing of all partial
derivatives of order below m.  Rows of the matrix are these conditions at
pseudo-random points of the affine plane over F_p, columns are the monomials
of degree at most d; the projective dimension of the system is
``cols - 1 - rank``.  Random point positions can only raise the dimension
(semicontinuity), so the minimum over independent trials is reported, and a
trial that reaches the expected dimension certifies regularity in
characteristic zero as well.

Trials run in order and stop at the first one that brings the running minimum
down to ``expected_dim(L)``.  This is sound: ``rank <= rows`` and
``rank <= cols`` give every trial ``cols - 1 - rank >= max(virtual_dim, -1)``,
which is ``expected_dim``, so no later trial can lower the minimum.
``trial_dimensions`` still runs every trial.

Each trial translates its sampled points so that the point of largest
multiplicity ``m`` (the first on ties) sits at the origin.  A translation is
an automorphism of the polynomials of degree at most ``d`` and preserves
multiplicities, so the rank is unchanged.  The derivatives of order below
``m`` are ``r! s!`` times the Hasse derivatives, and ``r!, s!`` are units
since ``p > d``, so the conditions "multiplicity at least m" are the same over
F_p as in characteristic zero.  At the origin the condition of order
``(r, s)`` is ``r! s!`` times the unit vector of the monomial ``x^r y^s``; the
point's conditions therefore span exactly the ``t(t+1)/2`` monomials of
degree below ``t = min(m, d+1)``, and

    rank = t(t+1)/2 + rank(other points' rows, columns of degree >= t only).

Only that second matrix is built and eliminated.  The heaviest point is the
one to move because it owns the most conditions: in ``L(d, m0, 6^n)`` with
``d - m0`` small it holds most of the columns, and ``L(40,27,6^23)`` drops
from 861 x 861 to 483 x 483.  The points are drawn exactly as before, so
every trial, every dimension and every certificate is unchanged.

The rank is computed by blocked right-looking elimination after FFLAS-FFPACK
(Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).  Each panel of 64 columns is
eliminated exactly in int64, keeping its multipliers; the remaining rows are
then updated with one float64 matrix product per chunk of rows.  Every entry
of that product is a sum of at most 64 products of residues, below
``64 (p-1)^2 < 2^52`` for ``p < 2^23``, so the update is exact in float64.
Hence only primes ``p < 2^23`` are accepted, at every entry point:
the trial functions, ``build_matrix`` and ``PrimeFieldMatrix``.

Matrices are reproducible from ``(system, seed, prime)``: the point stream is
seeded deterministically and the column order is fixed graded-lex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import LinearSystem, expected_dim

__all__ = [
    "DEFAULT_PRIME",
    "MAX_PRIME",
    "PrimeFieldMatrix",
    "check_prime",
    "build_matrix",
    "rank_ff",
    "dimension_char_p",
    "certify_regular",
    "trial_dimensions",
    "oracle_report",
]

# Large enough that every falling-factorial coefficient of a derivative of
# order < 7 is a unit, small enough that products of two residues fit well
# inside int64.
DEFAULT_PRIME = 32003

# Exclusive upper bound on the characteristic: 64 (p-1)^2 < 2^53 keeps the
# float64 trailing update of ``rank_ff`` exact.
MAX_PRIME = 1 << 23

_PANEL = 64   # columns eliminated per panel; the inner dimension of the update
_CHUNK = 128  # rows per trailing-update product, to bound temporaries


def check_prime(prime) -> None:
    """Raise ValueError unless ``prime`` is a prime int below ``MAX_PRIME``."""
    if isinstance(prime, bool) or not isinstance(prime, int):
        raise ValueError(f"prime must be an integer, got {prime!r}")
    if not 2 <= prime < MAX_PRIME:
        raise ValueError(f"prime {prime} is outside the accepted range 2 <= p < 2^23")
    if any(prime % q == 0 for q in range(2, isqrt(prime) + 1)):
        raise ValueError(f"{prime} is not prime")


@dataclass(frozen=True)
class PrimeFieldMatrix:
    prime: int
    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        check_prime(self.prime)
        if self.data.shape != (self.rows, self.cols):
            raise ValueError("shape mismatch")
        if self.data.size and (self.data.min() < 0 or self.data.max() >= self.prime):
            raise ValueError("entries not reduced mod p")


def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b) with a + b <= degree, graded, x before y."""
    exps = [(a, t - a) for t in range(degree + 1) for a in range(t, -1, -1)]
    return np.array(exps, dtype=np.int64).reshape(-1, 2)


def condition_count(L: LinearSystem) -> int:
    return sum(m * (m + 1) // 2 for m in L.mults)


def monomial_count(L: LinearSystem) -> int:
    return (L.degree + 1) * (L.degree + 2) // 2


def _falling_table(values: np.ndarray, k: int, prime: int) -> np.ndarray:
    """Row r holds values * (values-1) * ... * (values-r+1) mod prime, for r < k.

    Reduced at every step so that orders beyond ~20 cannot overflow int64.
    A value below r passes through the factor 0, so row r is exactly 0 there;
    factors are at most the degree, hence never divisible by the prime.
    """
    out = np.ones((k, len(values)), dtype=np.int64)
    for r in range(1, k):
        out[r] = out[r - 1] * np.maximum(values - (r - 1), 0) % prime
    return out


def _shifted_index(exps: np.ndarray, k: int) -> np.ndarray:
    """Row r holds max(exps - r, 0), for r < k: the exponent left after r derivatives."""
    return np.maximum(exps[None, :] - np.arange(k)[:, None], 0)


def _check_field(L: LinearSystem, prime: int) -> None:
    """Raise ValueError unless the conditions of ``L`` are taken over a usable F_p."""
    check_prime(prime)
    if prime <= L.degree:
        raise ValueError(f"prime {prime} must exceed the degree {L.degree}")
    if max(L.mults, default=0) > 1 and prime <= 720:
        raise ValueError("prime too small for derivative coefficients of order < 7")


def build_matrix(L: LinearSystem, points, prime: int = DEFAULT_PRIME, *,
                 min_degree: int = 0) -> PrimeFieldMatrix:
    """Condition rows (derivatives of order < mi at the i-th point) times monomials.

    ``points`` holds one affine pair per positive multiplicity of ``L``, in
    slot order.  Requires ``prime > degree`` and pairwise distinct points.
    Rows run over the points, then the derivative order, then the order of
    the x-derivative from high to low.  Only the columns of the monomials of
    degree at least ``min_degree`` are built, in their usual order.
    """
    _check_field(L, prime)
    d = L.degree
    positive = [m for m in L.mults if m > 0]
    points = [(int(x) % prime, int(y) % prime) for x, y in points]
    if len(points) != len(positive):
        raise ValueError(
            f"need {len(positive)} points (one per positive multiplicity), got {len(points)}")
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")

    exps = monomial_exponents(d)[min_degree * (min_degree + 1) // 2:]
    ax, ay = exps[:, 0], exps[:, 1]
    cols = len(exps)
    rows = condition_count(L)
    data = np.empty((rows, cols), dtype=np.int64)
    mmax = max(positive, default=0)
    fx, fy = _falling_table(ax, mmax, prime), _falling_table(ay, mmax, prime)
    ix, iy = _shifted_index(ax, mmax), _shifted_index(ay, mmax)

    row = 0
    for (x, y), m in zip(points, positive):
        # power tables for this point
        px = np.ones(d + 1, dtype=np.int64)
        py = np.ones(d + 1, dtype=np.int64)
        for t in range(1, d + 1):
            px[t] = px[t - 1] * x % prime
            py[t] = py[t - 1] * y % prime
        # gx[r] is d^r/dx^r of x^a at x, gy[s] likewise in y
        gx = fx[:m] * px[ix[:m]] % prime
        gy = fy[:m] * py[iy[:m]] % prime
        for order in range(m):
            r = np.arange(order, -1, -1)
            data[row:row + order + 1] = gx[r] * gy[order - r] % prime
            row += order + 1
    assert row == rows
    return PrimeFieldMatrix(prime, rows, cols, data)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """``x mod p`` in place, for a float64 array of integers below 2^52 in magnitude.

    ``x * (1/p)`` is within ``|x| 2^-52 / p < 1/p`` of ``x/p``, so its floor is
    the true quotient except at multiples of p, where it can be one too
    small and leave p behind; the fix-up maps that to 0.
    """
    x -= np.floor(x * (1.0 / p)) * p
    x[x >= p] -= p
    return x


def _eliminate_panel(P: np.ndarray, p: int):
    """Row-echelon form of the int64 panel ``P`` in place, LU style.

    Returns ``(perm, pivots, inv)``.  Row i of ``P`` now holds input row
    ``perm[i]``, and the first ``len(pivots)`` rows are the pivot rows.  With
    ``F[i, j] = P[i, pivots[j]]``, the j-th normalised pivot row is
    ``U[j] = inv[j] * (row[j] - F[j, :j] @ U[:j])``, and every other row i is
    eliminated as ``row[i] - F[i] @ U``.
    """
    m, w = P.shape
    perm = np.arange(m)
    pivots, inv = [], []
    k = 0
    for c in range(w):
        nz = P[k:, c].nonzero()[0]
        if not nz.size:
            continue
        r = k + int(nz[0])
        if r != k:
            P[[k, r]] = P[[r, k]]
            perm[[k, r]] = perm[[r, k]]
        pivots.append(c)
        inv.append(pow(int(P[k, c]), p - 2, p))
        P[k, c + 1:] = P[k, c + 1:] * inv[-1] % p
        below = k + nz[1:]  # the zero row swapped out of k is not among them
        if below.size:
            # column c keeps the multipliers
            P[below, c + 1:] = (P[below, c + 1:] - P[below, c, None] * P[k, c + 1:]) % p
        k += 1
        if k == m:
            break
    return perm, pivots, inv


def rank_ff(M: PrimeFieldMatrix) -> int:
    """Rank over F_p by blocked right-looking elimination (see the module docstring)."""
    p = M.prime
    A = M.data  # rows without a pivot so far, columns not yet eliminated
    rank = 0
    while A.shape[0] and A.shape[1]:
        w = min(_PANEL, A.shape[1])
        P = A[:, :w].astype(np.int64)
        perm, pivots, inv = _eliminate_panel(P, p)
        k = len(pivots)
        rank += k
        if k == 0:
            A = A[:, w:]
            continue
        if k == A.shape[0] or w == A.shape[1]:
            break
        F = P[:, pivots]
        # trailing part of the normalised pivot rows, by forward substitution:
        # U[j] = inv[j] * (T[j] - F[j, :j] @ U[:j]), with inv[j] folded in
        invs = np.array(inv, dtype=np.int64)[:, None]
        G = (F[:k] * invs % p).astype(np.float64)  # only G[j, :j] is read
        U = (A[perm[:k], w:] * invs % p).astype(np.float64)
        for j in range(1, k):
            U[j] -= G[j, :j] @ U[:j]
            _reduce(U[j], p)
        # Schur complement of the other rows: one exact float64 product per chunk
        rest = perm[k:]
        F21 = F[k:].astype(np.float64)
        S = np.empty((len(rest), A.shape[1] - w))
        for s in range(0, len(rest), _CHUNK):
            x = A[rest[s:s + _CHUNK], w:].astype(np.float64, copy=False)
            x -= F21[s:s + _CHUNK] @ U
            S[s:s + _CHUNK] = _reduce(x, p)
        A = S
    return rank


def _sample_points(npoints: int, rng: random.Random, prime: int) -> list[tuple[int, int]]:
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < npoints:
        pt = (rng.randint(1, prime - 1), rng.randint(1, prime - 1))
        if pt in seen:
            continue  # collision: resample
        seen.add(pt)
        out.append(pt)
    return out


def _trials(L: LinearSystem, seed: int, prime: int, trials: int):
    """Yield the dimension ``cols - 1 - rank`` of each independently seeded trial.

    The heaviest point is moved to the origin and its conditions are counted
    without elimination (see the module docstring).
    """
    _check_field(L, prime)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rest = [m for m in L.mults if m > 0]
    npoints = len(rest)
    if npoints > (prime - 1) ** 2:
        raise ValueError(f"{npoints} distinct points do not fit in F_{prime}^2 minus the axes")
    heavy = max(range(npoints), key=rest.__getitem__, default=None)  # first on ties
    t = 0 if heavy is None else min(rest.pop(heavy), L.degree + 1)
    others = LinearSystem(L.degree, tuple(rest))
    cols = monomial_count(L)
    for trial in range(trials):
        rng = random.Random(f"fatpoints:{seed}:{trial}")
        points = _sample_points(npoints, rng, prime)
        if heavy is not None:
            x0, y0 = points.pop(heavy)
            points = [(x - x0, y - y0) for x, y in points]
        # module globals on purpose: tracers swap these attributes
        M = build_matrix(others, points, prime, min_degree=t)
        yield cols - 1 - t * (t + 1) // 2 - rank_ff(M)


def trial_dimensions(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                     trials: int = 3) -> tuple[int, ...]:
    """Per-trial dimensions ``cols - 1 - rank`` at independently seeded points."""
    return tuple(_trials(L, seed, prime, trials))


def dimension_char_p(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                     trials: int = 3) -> int:
    """Minimum projective dimension over the trials (special positions only raise it).

    Stops at the first trial that reaches ``expected_dim(L)``, the least value
    any trial can take; the result equals ``min(trial_dimensions(...))``.
    """
    e = expected_dim(L)
    best = None
    for dim in _trials(L, seed, prime, trials):
        best = dim if best is None else min(best, dim)
        if best == e:
            break
    return best


def certify_regular(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                    trials: int = 3) -> bool:
    """True when some trial reaches the expected dimension.

    Maximal rank at special points in characteristic p implies maximal rank at
    general points in characteristic zero, so a True answer is a proof of
    non-speciality; False is inconclusive.
    """
    return dimension_char_p(L, seed, prime, trials) == expected_dim(L)


def oracle_report(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                  trials: int = 3) -> dict:
    ell = dimension_char_p(L, seed, prime, trials)
    cols = monomial_count(L)
    return {
        "system": str(L),
        "prime": prime,
        "seed": seed,
        "trials": trials,
        "rank": cols - 1 - ell,
        "ell": ell,
        "certified_regular": ell == expected_dim(L),
    }
