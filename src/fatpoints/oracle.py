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
``dimension_char_p`` also takes a ``floor``, a proven lower bound on the
dimension in characteristic zero at general points (the table check passes the
``ell`` of a fixed-part removal that ``check_certificate`` accepts), and then
stops at ``max(expected_dim(L), floor)``.  Every trial is at least ``floor``:
the entries are integer polynomials in the point coordinates, so a minor
nonzero mod p at some points is nonzero over Q, and no trial has a larger rank
than general points in characteristic zero.  The result is still
``min(trial_dimensions(L, seed, prime, trials))``; without ``floor`` (the
prover, the checker's replay of an oracle leaf, ``fatpoints oracle``) the
trials are exactly those above.  ``trial_dimensions`` still runs every trial.

Each trial moves its sampled points by a projective map before building the
matrix.  The three points of largest multiplicity (first on ties, in slot
order) go to a frame: the heaviest, of multiplicity ``m0``, to the origin
``[0:0:1]``, the next two, ``m1`` and ``m2``, to the points at infinity
``[1:0:0]`` and ``[0:1:0]``; the other points are dehomogenised in the chart
``z = 1``.  A projective map acts invertibly on the forms of degree ``d``
(the polynomials of degree at most ``d`` in the chart) and preserves
multiplicities, so the rank of every trial is unchanged; the points are drawn
exactly as before, so every trial, every dimension and every certificate is
too.

The derivatives of order below ``m`` are ``r! s!`` times the Hasse
derivatives, and ``r!, s!`` are units since ``p > d``, so the conditions
"multiplicity at least m" are the same over F_p as in characteristic zero:
the Hasse derivatives of order below ``m`` vanish.  At the origin of an affine
chart the Hasse derivative of order ``(r, s)`` is the coefficient of the
local term of bidegree ``(r, s)``, so each point of the frame imposes unit
vectors.  At the origin of ``z = 1`` the local polynomial is ``f`` itself and
the conditions span the monomials ``x^a y^b`` with ``a + b < m0``.  At
``[1:0:0]``, the origin of the chart ``x = 1``, the local polynomial is
``sum c_ab y^b z^(d-a-b)``, whose term of ``c_ab`` has degree ``d - a``; the
conditions span the monomials with ``a > d - m1``.  Likewise at ``[0:1:0]``
they are those with ``b > d - m2``.
With ``S`` the union of these three corners of the monomial triangle,

    rank = |S| + rank(other points' rows, columns outside S only).

Only that second matrix is built and eliminated, and the dimension of the
trial is ``its columns - 1 - its rank``.  The heaviest points are the ones
to move because they own the most conditions: in ``L(d, m0, 6^n)`` with
``d - m0`` small the origin holds most of the columns, and ``L(40,27,6^23)``
drops from 861 x 861 to 441 x 441.

The map exists when the three heaviest points are not collinear, and it sends
every other point into the chart when none lies on the line through the two
points sent to infinity.  Otherwise the trial falls back to translating the
heaviest point to the origin: the same computation with both corners at
infinity empty.  For random points over F_p that happens with probability
about ``n^2 / p``.  With two points there is nothing to check, and with one
only the origin is used.

The matrix is built by array operations.  The powers ``x^j``, ``y^j`` of
all points, like the falling factorials ``a (a-1) ... (a-r+1)``, are running
products along one axis, taken by doubling in ``ceil(log2(d+1))`` steps.
The points of a run of equal multiplicity ``m`` share their ``m(m+1)/2``
derivative rows, which come from one gather and one product per block of
about ``_CHUNK`` = 128 rows, written straight into the matrix; the blocks
keep the temporaries small next to it.

The rank is computed by blocked left-looking elimination after FFLAS-FFPACK
(Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008), over panels of 64 columns of
the current Schur complement ``A``.  A panel keeps the multipliers ``F`` of
its pivots and their normalised pivot rows ``U`` over the full remaining
width.  Column ``c`` is brought up to date only when it is reached, as
``A[:, c] - F @ U[:, c]`` reduced mod p; its first nonzero entry in a row
without a pivot is the next pivot, whose row of ``U`` is
``inv * (A[r, c:] - F[r] @ U[:, c:])``.  So no pivot updates the whole
panel, and ``U`` needs no forward substitution.  After the panel, the rows
without a pivot become ``A[:, w:] - F @ U[:, w:]``, one float64 matrix
product per chunk of rows.  Every product in the panel and after it has
inner dimension at most 64 over residues, so each entry is below
``64 (p-1)^2 + p < 2^52`` for ``p < 2^23`` and the float64 arithmetic is exact.
Hence only primes ``p < 2^23`` are accepted, at every entry point:
the trial functions, ``build_matrix`` and ``PrimeFieldMatrix``.  A request
tests its prime once: the checked value is passed on as a ``_CheckedPrime``,
which the later checks of its matrices take without testing it again.

Matrices are reproducible from ``(system, seed, prime)``: the point stream is
seeded deterministically and the column order is fixed graded-lex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from math import isqrt

import numpy as np

from .core import LinearSystem, expected_dim, slot_order

__all__ = [
    "DEFAULT_PRIME",
    "MAX_PRIME",
    "PrimeFieldMatrix",
    "check_prime",
    "check_settings",
    "check_request",
    "size_failure",
    "build_matrix",
    "rank_ff",
    "dimension_char_p",
    "ORACLE_COLS_CAP",
    "ORACLE_MAX_TRIALS",
    "trial_dimensions",
    "oracle_report",
]

# Large enough that every falling-factorial coefficient of a derivative of
# order < 7 is a unit, small enough that products of two residues fit well
# inside int64.
DEFAULT_PRIME = 32003

# Exclusive upper bound on the characteristic: 64 (p-1)^2 + p < 2^52 keeps
# every float64 product of ``rank_ff`` exact.
MAX_PRIME = 1 << 23

# Largest column count, (d+1)(d+2)/2, that the prover hands to the oracle and
# that a certificate's oracle leaf may name: degree 100.  Its square bounds the
# entries of the matrix (``size_failure``).
ORACLE_COLS_CAP = 5151

# Most trials that one query, or the replay of an oracle leaf, may run.
ORACLE_MAX_TRIALS = 16

_PANEL = 64   # columns eliminated per panel; the inner dimension of every product
_CHUNK = 128  # rows per trailing-update product and per block built, to bound temporaries


def check_prime(prime) -> None:
    """Raise ValueError unless ``prime`` is a prime int below ``MAX_PRIME``."""
    if isinstance(prime, bool) or not isinstance(prime, int):
        raise ValueError(f"prime must be an integer, got {prime!r}")
    if not 2 <= prime < MAX_PRIME:
        raise ValueError(f"prime {prime} is outside the accepted range 2 <= p < 2^23")
    odd_divisors = range(3, isqrt(prime) + 1, 2)  # after 2, only odd ones can divide
    if prime % 2 == 0 and prime != 2 or not all(map(prime.__mod__, odd_divisors)):
        raise ValueError(f"{prime} is not prime")


class _CheckedPrime(int):
    """A prime that :func:`check_prime` accepted, so that no later check of the
    same request tests it again.  Numpy takes it more slowly than an ``int``,
    so matrices store and compute with the plain value."""


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """A ``rows x cols`` matrix over F_prime: a 2-D integer array of residues."""

    prime: int
    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self):
        if type(self.prime) is not _CheckedPrime:
            check_prime(self.prime)
        object.__setattr__(self, "prime", int(self.prime))  # for rank_ff's numpy arithmetic
        if not (isinstance(self.data, np.ndarray) and self.data.ndim == 2
                and self.data.dtype.kind in "iu"):
            raise ValueError("data must be a 2-D numpy array of integers")
        if self.data.shape != (self.rows, self.cols):
            raise ValueError("shape mismatch")
        if self.data.size and (self.data.min() < 0 or self.data.max() >= self.prime):
            raise ValueError("entries not reduced mod p")


def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b) with a + b <= degree, graded, x before y.

    Column ``k`` of total degree ``t`` is the ``k - t(t+1)/2``-th of its
    degree, so ``a = t(t+3)/2 - k``.
    """
    t = np.repeat(np.arange(degree + 1), np.arange(1, degree + 2))
    a = t * (t + 3) // 2 - np.arange(len(t))
    return np.stack([a, t - a], axis=1)


def condition_count(L: LinearSystem) -> int:
    return sum(m * (m + 1) // 2 for m in L.mults)


def monomial_count(L: LinearSystem) -> int:
    return (L.degree + 1) * (L.degree + 2) // 2


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int, out: np.ndarray | None = None):
    """``a * b mod prime`` for residues ``a`` and ``b``, into ``out`` if given.

    Products stay below ``2^46``.  The remainder is taken as ``x - (x // p) p``,
    which numpy computes several times faster than ``x % p`` for a scalar ``p``.
    """
    out = np.multiply(a, b, out=out)
    out -= out // prime * prime
    return out


def _prefix_products(factors: np.ndarray, prime: int) -> None:
    """Running products mod ``prime`` along the last axis, in place: entry ``j``
    becomes the product of the residues ``0..j``.

    By doubling: after the step of width ``h`` each entry holds the product of
    the up to ``2h`` factors that end at it, so ``ceil(log2 n)`` steps suffice.
    """
    h = 1
    while h < factors.shape[-1]:
        factors[..., h:] = _mulmod(factors[..., h:], factors[..., :-h], prime)
        h *= 2


def size_failure(L: LinearSystem) -> str | None:
    """Why the oracle refuses ``L`` for its size, or None.  The matrix before the
    frame removes any condition has at most ``ORACLE_COLS_CAP`` columns and at most
    ``ORACLE_COLS_CAP ** 2`` entries, those of the largest square matrix the cap admits."""
    rows, cols = condition_count(L), monomial_count(L)
    if cols > ORACLE_COLS_CAP:
        return f"{L} has {cols} monomials, over the oracle's cap of {ORACLE_COLS_CAP}"
    if rows * cols > ORACLE_COLS_CAP ** 2:
        return f"{L} has a {rows} x {cols} matrix, over the oracle's cap of " \
               f"{ORACLE_COLS_CAP ** 2} entries"
    return None


def check_settings(prime, trials: int, seed: int = 0) -> _CheckedPrime:
    """The oracle's checks that read no system: raise ValueError unless ``prime``
    passes :func:`check_prime`, ``trials`` and ``seed`` are ints as a certificate
    records them (no bool, no float) and ``1 <= trials <= ORACLE_MAX_TRIALS``.
    Returns the checked prime."""
    if type(prime) is not _CheckedPrime:
        check_prime(prime)
        prime = _CheckedPrime(prime)
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if not 1 <= trials <= ORACLE_MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{ORACLE_MAX_TRIALS}, got {trials}")
    return prime


def check_request(L: LinearSystem, prime, trials: int, seed: int = 0) -> _CheckedPrime:
    """Raise ValueError unless the oracle takes ``L`` over F_prime for ``trials``
    trials from ``seed``: a usable field, bounded trials and an int seed
    (:func:`check_settings`), a prime above the degree, a bounded matrix
    (:func:`size_failure`), and room for the points.  Returns the checked prime."""
    prime = check_settings(prime, trials, seed)
    if prime <= L.degree:
        raise ValueError(f"prime {prime} must exceed the degree {L.degree}")
    if max(L.mults, default=0) > 1 and prime <= 720:
        raise ValueError("prime too small for derivative coefficients of order < 7")
    reason = size_failure(L)
    if reason is not None:
        raise ValueError(reason)
    npoints = sum(m > 0 for m in L.mults)
    if npoints > (prime - 1) ** 2:
        raise ValueError(f"{npoints} distinct points do not fit in F_{prime}^2 minus the axes")
    return prime


def build_matrix(L: LinearSystem, points, prime: int = DEFAULT_PRIME, *,
                 corners: tuple[int, int, int] = (0, 0, 0)) -> PrimeFieldMatrix:
    """Condition rows (derivatives of order < mi at the i-th point) times monomials.

    ``points`` holds one affine pair per positive multiplicity of ``L``, in
    slot order.  Requires pairwise distinct points and an input that
    :func:`check_request` accepts.
    Rows run over the points, then the derivative order, then the order of
    the x-derivative from high to low; the row of the derivative ``(r, s)``
    at ``(x, y)`` holds ``a!/(a-r)! x^(a-r) b!/(b-s)! y^(b-s)`` in the column
    of ``x^a y^b``.  With ``corners = (m0, m1, m2)``, the
    multiplicities at ``[0:0:1]``, ``[1:0:0]`` and ``[0:1:0]``, only the
    columns of the monomials ``x^a y^b`` with ``a + b >= m0``, ``a <= d - m1``
    and ``b <= d - m2`` are built, in their usual order.
    """
    checked = check_request(L, prime, 1)
    prime = int(checked)  # numpy computes more slowly with an int subclass
    positive = [m for m in L.mults if m > 0]
    points = [(int(x) % prime, int(y) % prime) for x, y in points]
    if len(points) != len(positive):
        raise ValueError(
            f"need {len(positive)} points (one per positive multiplicity), got {len(points)}")
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")

    d, (m0, m1, m2) = L.degree, corners
    ax, ay = monomial_exponents(d).T
    keep = (ax + ay >= m0) & (ax <= d - m1) & (ay <= d - m2)
    ax, ay = ax[keep], ay[keep]
    data = np.empty((condition_count(L), len(ax)), dtype=np.int64)
    if not positive:
        return PrimeFieldMatrix(checked, *data.shape, data)

    # powers[0, i, j] = x_i^j and powers[1, i, j] = y_i^j
    powers = np.empty((2, len(points), d + 1), dtype=np.int64)
    powers[:] = np.array(points, dtype=np.int64).T[:, :, None]
    powers[:, :, 0] = 1
    _prefix_products(powers, prime)
    # falling[v, r] = v (v-1) ... (v-r+1) mod prime, which is 0 for r > v;
    # its factors are at most the degree, hence units mod prime
    mmax = max(positive)
    falling = np.maximum(np.arange(1, d + 2)[:, None] - np.arange(mmax), 0)
    falling[:, 0] = 1
    _prefix_products(falling, prime)
    # fx[r], ix[r]: the coefficient and the exponent of x that r x-derivatives leave
    shift = np.arange(mmax)[:, None]
    fx, ix = falling.T.take(ax, axis=1), np.maximum(ax - shift, 0)
    fy, iy = falling.T.take(ay, axis=1), np.maximum(ay - shift, 0)

    row = point = 0
    for m, run in groupby(positive):
        count = sum(1 for _ in run)
        r, s = monomial_exponents(m - 1).T  # the derivatives at one point, in row order
        size = count * len(r)
        # whole points per block when one fits in _CHUNK rows, else _CHUNK rows
        step = _CHUNK - _CHUNK % len(r) or _CHUNK
        for start in range(0, size, step):
            # the block's rows are derivative k at point i of the run
            i, k = np.divmod(np.arange(start, min(start + step, size)), len(r))
            span = slice(point + i[0], point + i[-1] + 1)
            i -= i[0]
            # gx[j, r] is d^r/dx^r of each monomial at the block's point j, gy likewise
            gx = _mulmod(fx[:m], powers[0, span].take(ix[:m], axis=1), prime)
            gy = _mulmod(fy[:m], powers[1, span].take(iy[:m], axis=1), prime)
            out = data[row + start:row + start + len(k)]
            _mulmod(gx[i, r[k]], gy[i, s[k]], prime, out=out)
        row += size
        point += count
    return PrimeFieldMatrix(checked, *data.shape, data)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """``x mod p`` in place, for a float64 array of integers below 2^52 in magnitude.

    ``x * (1/p)`` is within ``|x| 2^-52 / p < 1/p`` of ``x/p``, so its floor is
    the true quotient except at multiples of p, where it can be one too
    small and leave p behind; the fix-up maps that to 0.
    """
    x -= np.floor(x * (1.0 / p)) * p
    x[x >= p] -= p
    return x


def rank_ff(M: PrimeFieldMatrix) -> int:
    """Rank over F_p by blocked left-looking elimination (see the module docstring)."""
    p = M.prime
    A = M.data  # rows without a pivot so far, columns not yet eliminated
    rank = 0
    while A.shape[0] and A.shape[1]:
        m, n = A.shape
        w = min(_PANEL, n)
        P = A[:, :w].T.astype(np.float64)  # the panel's columns, each contiguous
        F = np.zeros((w, m))  # F[j]: multipliers of the j-th pivot
        U = np.zeros((w, n))  # U[j]: the j-th normalised pivot row
        free = np.ones(m, dtype=np.int64)  # 1 on the rows without a pivot
        k = 0
        for c in range(w):
            col = (P[c] - U[:k, c] @ F[:k]).astype(np.int64) % p
            col *= free
            nz = col.nonzero()[0]
            if not nz.size:
                continue
            r = nz[0]
            F[k] = col
            row = (A[r, c:] - F[:k, r] @ U[:k, c:]).astype(np.int64) % p
            U[k, c:] = row * pow(int(col[r]), p - 2, p) % p
            free[r] = 0
            k += 1
            if k == m:
                break
        rank += k
        if k == 0:
            A = A[:, w:]
            continue
        if k == m or w == n:
            break
        # Schur complement of the other rows: one exact float64 product per chunk
        rest = free.nonzero()[0]
        S = np.empty((len(rest), n - w))
        for s in range(0, len(rest), _CHUNK):
            rows = rest[s:s + _CHUNK]
            np.subtract(A[rows, w:], F[:k, rows].T @ U[:k, w:], out=S[s:s + _CHUNK])
            _reduce(S[s:s + _CHUNK], p)
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


def _frame_images(frame, points, prime: int) -> list[tuple[int, int]] | None:
    """Affine images of ``points`` under the map sending ``frame`` to the standard frame.

    The map sends ``frame[0]``, ``frame[1]``, ``frame[2]`` to ``[0:0:1]``,
    ``[1:0:0]``, ``[0:1:0]``.  In homogeneous coordinates ``P = (x, y, 1)``
    the image of ``P`` is ``[det(P, Q2, Q0) : det(Q1, P, Q0) : det(Q1, Q2, P)]``
    for ``frame = (Q0, Q1, Q2)``.  None when the frame points are collinear
    or some point lies on the line through ``Q1`` and ``Q2``.
    """
    (x0, y0), (x1, y1), (x2, y2) = frame
    # each determinant is linear in P: the dot product with a cross product
    lu = (y2 - y0, x0 - x2, x2 * y0 - x0 * y2)   # Q2 x Q0
    lv = (y0 - y1, x1 - x0, x0 * y1 - x1 * y0)   # Q0 x Q1
    lw = (y1 - y2, x2 - x1, x1 * y2 - x2 * y1)   # Q1 x Q2
    if (x0 * lw[0] + y0 * lw[1] + lw[2]) % prime == 0:
        return None  # collinear frame
    out = []
    for x, y in points:
        w = (x * lw[0] + y * lw[1] + lw[2]) % prime
        if w == 0:
            return None  # on the line sent to infinity
        inv = pow(w, prime - 2, prime)
        out.append(((x * lu[0] + y * lu[1] + lu[2]) * inv % prime,
                    (x * lv[0] + y * lv[1] + lv[2]) * inv % prime))
    return out


def _trial_dimension(degree: int, mults: list[int], points: list[tuple[int, int]],
                     prime: int) -> int:
    """``cols - 1 - rank`` for multiplicity ``mults[i] > 0`` at ``points[i]``.

    The three heaviest points go to the projective frame, or the heaviest
    alone to the origin when the frame is unusable; their conditions are
    counted without elimination (see the module docstring).
    """
    order = slot_order(mults)
    heavy, others = order[:3], sorted(order[3:])
    images = []
    if len(heavy) == 3:
        images = _frame_images([points[i] for i in heavy],
                               [points[i] for i in others], prime)
    if images is None:  # fall back to translating the heaviest point
        heavy, others = order[:1], sorted(order[1:])
        x0, y0 = points[heavy[0]]
        images = [(points[i][0] - x0, points[i][1] - y0) for i in others]
    corners = tuple(mults[i] for i in heavy) + (0,) * (3 - len(heavy))
    # module globals on purpose: tracers swap these attributes
    M = build_matrix(LinearSystem(degree, tuple(mults[i] for i in others)), images,
                     prime, corners=corners)
    return M.cols - 1 - rank_ff(M)


def _trials(L: LinearSystem, seed: int, prime: int, trials: int):
    """Yield the dimension ``cols - 1 - rank`` of each independently seeded trial."""
    prime = check_request(L, prime, trials, seed)
    mults = [m for m in L.mults if m > 0]
    for trial in range(trials):
        rng = random.Random(f"fatpoints:{seed}:{trial}")
        yield _trial_dimension(L.degree, mults, _sample_points(len(mults), rng, prime), prime)


def trial_dimensions(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                     trials: int = 3) -> tuple[int, ...]:
    """Per-trial dimensions ``cols - 1 - rank`` at independently seeded points."""
    return tuple(_trials(L, seed, prime, trials))


def dimension_char_p(L: LinearSystem, seed: int = 0, prime: int = DEFAULT_PRIME,
                     trials: int = 3, *, floor: int | None = None) -> int:
    """Minimum projective dimension over the trials (special positions only raise it).

    Stops once a trial reaches ``expected_dim(L)``, or the proven lower bound ``floor``
    if higher; no trial goes below either, so the result is ``min(trial_dimensions(...))``.
    """
    least = expected_dim(L) if floor is None else max(expected_dim(L), floor)
    best = None
    for dim in _trials(L, seed, prime, trials):
        best = dim if best is None else min(best, dim)
        if best == least:
            break
    return best


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
