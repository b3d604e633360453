"""Permutation sampling and random-keys encoding.

Uniform sampling argsorts the low-discrepancy points of :func:`sobol_points`
to permutations; :func:`sample_mallows` draws from the Kendall-tau Mallows
model around a center order by insertion-vector (Lehmer code) sampling.
Random-keys vectors decode to permutations by stable argsort, so any
continuous optimizer can act on the keys directly.

The Sobol generator is self-contained: direction numbers are built from the
first 64 dimensions of the published Joe-Kuo table (primitive polynomials
and initial values) frozen below.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_BITS = 32
_SCALE = float(2**_BITS)

# Joe-Kuo "new-joe-kuo-6" table, dimensions 1..64: polynomial encodings
# (full bit patterns, degree = bit_length - 1) and initial m values.
_POLY = [
    1, 3, 7, 11, 13, 19, 25, 37,
    41, 47, 55, 59, 61, 67, 91, 97,
    103, 109, 115, 131, 137, 143, 145, 157,
    167, 171, 185, 191, 193, 203, 211, 213,
    229, 239, 241, 247, 253, 285, 299, 301,
    333, 351, 355, 357, 361, 369, 391, 397,
    425, 451, 463, 487, 501, 529, 539, 545,
    557, 563, 601, 607, 617, 623, 631, 637,
]
_MINIT = [
    [], [1], [1, 3], [1, 3, 1], [1, 1, 1], [1, 1, 3, 3], [1, 3, 5, 13],
    [1, 1, 5, 5, 17], [1, 1, 5, 5, 5], [1, 1, 7, 11, 19], [1, 1, 5, 1, 1],
    [1, 1, 1, 3, 11], [1, 3, 5, 5, 31], [1, 3, 3, 9, 7, 49],
    [1, 1, 1, 15, 21, 21], [1, 3, 1, 13, 27, 49], [1, 1, 1, 15, 7, 5],
    [1, 3, 1, 15, 13, 25], [1, 1, 5, 5, 19, 61], [1, 3, 7, 11, 23, 15, 103],
    [1, 3, 7, 13, 13, 15, 69], [1, 1, 3, 13, 7, 35, 63],
    [1, 3, 5, 9, 1, 25, 53], [1, 3, 1, 13, 9, 35, 107],
    [1, 3, 1, 5, 27, 61, 31], [1, 1, 5, 11, 19, 41, 61],
    [1, 3, 5, 3, 3, 13, 69], [1, 1, 7, 13, 1, 19, 1],
    [1, 3, 7, 5, 13, 19, 59], [1, 1, 3, 9, 25, 29, 41],
    [1, 3, 5, 13, 23, 1, 55], [1, 3, 7, 3, 13, 59, 17],
    [1, 3, 1, 3, 5, 53, 69], [1, 1, 5, 5, 23, 33, 13],
    [1, 1, 7, 7, 1, 61, 123], [1, 1, 7, 9, 13, 61, 49],
    [1, 3, 3, 5, 3, 55, 33], [1, 3, 1, 15, 31, 13, 49, 245],
    [1, 3, 5, 15, 31, 59, 63, 97], [1, 3, 1, 11, 11, 11, 77, 249],
    [1, 3, 1, 11, 27, 43, 71, 9], [1, 1, 7, 15, 21, 11, 81, 45],
    [1, 3, 7, 3, 25, 31, 65, 79], [1, 3, 1, 1, 19, 11, 3, 205],
    [1, 1, 5, 9, 19, 21, 29, 157], [1, 3, 7, 11, 1, 33, 89, 185],
    [1, 3, 3, 3, 15, 9, 79, 71], [1, 3, 7, 11, 15, 39, 119, 27],
    [1, 1, 3, 1, 11, 31, 97, 225], [1, 1, 1, 3, 23, 43, 57, 177],
    [1, 3, 7, 7, 17, 17, 37, 71], [1, 3, 1, 5, 27, 63, 123, 213],
    [1, 1, 3, 5, 11, 43, 53, 133], [1, 3, 5, 5, 29, 17, 47, 173, 479],
    [1, 3, 3, 11, 3, 1, 109, 9, 69], [1, 1, 1, 5, 17, 39, 23, 5, 343],
    [1, 3, 1, 5, 25, 15, 31, 103, 499], [1, 1, 1, 11, 11, 17, 63, 105, 183],
    [1, 1, 5, 11, 9, 29, 97, 231, 363], [1, 1, 5, 15, 19, 45, 41, 7, 383],
    [1, 3, 7, 7, 31, 19, 83, 137, 221], [1, 1, 1, 3, 23, 15, 111, 223, 83],
    [1, 1, 5, 13, 31, 15, 55, 25, 161], [1, 1, 3, 13, 25, 47, 39, 87, 257],
]
MAX_SOBOL_DIM = len(_POLY)


@functools.cache
def _direction_numbers(dim: int) -> np.ndarray:
    """32-bit direction integers, shape (dim, 32), built once per ``dim`` and
    shared read-only."""
    v = np.zeros((dim, _BITS), dtype=np.uint64)
    for d in range(dim):
        if d == 0:
            for j in range(_BITS):
                v[0, j] = 1 << (_BITS - 1 - j)
            continue
        poly = _POLY[d]
        s = poly.bit_length() - 1
        a = (poly >> 1) & ((1 << (s - 1)) - 1) if s > 1 else 0
        m = _MINIT[d]
        for j in range(min(s, _BITS)):
            v[d, j] = m[j] << (_BITS - 1 - j)
        for j in range(s, _BITS):
            val = int(v[d, j - s]) ^ (int(v[d, j - s]) >> s)
            for t in range(1, s):
                if (a >> (s - 1 - t)) & 1:
                    val ^= int(v[d, j - t])
            v[d, j] = val
    v.flags.writeable = False
    return v


def sobol_points(dim: int, count: int, seed: int | None = None) -> np.ndarray:
    """The first ``count`` Sobol points in [0, 1)^dim, in Gray-code order,
    shape (count, dim).

    The all-zeros index-0 point is skipped: a constant vector argsorts to
    the same permutation in every chain and wastes a sample.  A non-None
    ``seed`` applies a per-dimension digital shift scramble.
    """
    if not (1 <= dim <= MAX_SOBOL_DIM):
        raise ValueError(f"dim must be in [1, {MAX_SOBOL_DIM}], got {dim}")
    if count < 1:
        raise ValueError("count must be positive")
    v = _direction_numbers(dim)
    if seed is None:
        shift = np.zeros(dim, dtype=np.uint64)
    else:
        rng = np.random.default_rng(seed)
        shift = rng.integers(0, 2**_BITS, size=dim, dtype=np.uint64)
    state = np.zeros(dim, dtype=np.uint64)
    out = np.empty((count, dim))
    for row in range(count):
        # Gray-code step: flip the direction of the lowest zero bit of row
        c = 0
        idx = row
        while idx & 1:
            idx >>= 1
            c += 1
        state ^= v[:, c]
        out[row] = (state ^ shift) / _SCALE
    return out


# ---------------------------------------------------------------------------
# Mallows model
# ---------------------------------------------------------------------------

def _decode_lehmer(codes: np.ndarray) -> np.ndarray:
    """Insertion decode: row-wise pick the code[j]-th smallest remaining
    item.  codes (B, n) -> permutations (B, n)."""
    B, n = codes.shape
    alive = np.ones((B, n), dtype=bool)
    out = np.empty((B, n), dtype=np.int64)
    rows = np.arange(B)
    for j in range(n):
        ranks = np.cumsum(alive, axis=1)
        pick = np.argmax(ranks == (codes[:, j] + 1)[:, None], axis=1)
        out[:, j] = pick
        alive[rows, pick] = False
    return out


def sample_mallows(center, theta: float, count: int, seed: int | None = None) -> np.ndarray:
    """Sample ``count`` permutations from the Kendall-tau Mallows model
    P(sigma) ~ exp(-theta * d(sigma, center)), shape (count, n).

    Insertion-vector method: the Lehmer-code entries are independent
    truncated-geometric variables whose sum is the Kendall distance to the
    center, so the exact target distribution is produced in O(n^2) per
    sample.
    """
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    if sorted(center) != list(range(len(center))):
        raise ValueError("center must be a permutation of [0, n)")
    n = len(center)
    rng = np.random.default_rng(seed)
    if n == 1:
        return np.zeros((count, 1), dtype=np.int64)
    codes = np.zeros((count, n), dtype=np.int64)
    q = math.exp(-theta)
    for j in range(n - 1):
        support = n - j
        if theta == 0.0:
            codes[:, j] = rng.integers(0, support, count)
        else:
            weights = q ** np.arange(support)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            codes[:, j] = np.searchsorted(cdf, rng.random(count), side="right")
    raw = _decode_lehmer(codes)
    center = np.asarray(center, dtype=np.int64)
    return raw[:, center]


# ---------------------------------------------------------------------------
# Random keys
# ---------------------------------------------------------------------------

def decode(keys) -> np.ndarray:
    """Permutation encoded by a key vector: stable argsort (ties keep index
    order)."""
    return np.asarray(keys).argsort(kind="stable")


def encode(perm, rng: np.random.Generator) -> np.ndarray:
    """Key vector whose decode is ``perm``: draw keys from ``rng``, sort
    them, and place the j-th smallest at position perm[j]."""
    perm = np.asarray(perm, dtype=np.int64)
    keys = np.sort(rng.random(perm.size))
    out = np.empty(perm.size)
    out[perm] = keys
    return out
