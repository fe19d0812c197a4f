"""Coherence kernel.

The hot loop of the whole package is the column-coherence sum

    s(i) = sum_{k != i} |x_i' x_k|^p,   p in {1, 2},

which would need an n-by-n Gram matrix if done naively.  The self term
k = i is left out here.  The path follows from the shape of the m-by-n x:

* covariance form, for p = 2 with m < n: x_i' (X X') x_i minus ||x_i||^4,
  clamped at zero; it is the one path that subtracts.  m^2 n flops for
  C = X X' (BLAS computes one triangle) and 2 m^2 n for C X, so O(m^2 n)
  time.  C X is taken ``COV_BLOCK`` columns at a time through one reused
  m-by-``COV_BLOCK`` buffer, each block reduced to its x_i' C x_i before
  the next, so the extra memory is O(m^2 + m COV_BLOCK + n), with no
  m-by-n product.
* half-Gram walk (``walk_power_sums``), for p = 1 and for p = 2 with
  m >= n: slabs of columns lo:hi, each multiplied only against itself and
  the columns after it with its diagonal zeroed, so every symmetric entry
  is computed once and no self term is added.  Every slab holds at most
  ``BLOCK`` * n Gram entries (``_slabs``): the first is ``BLOCK`` columns
  tall and later ones grow as the columns after them get fewer, so one
  buffer of min(``BLOCK``, n) * n floats serves every slab (10 MB at
  n = 10000, which takes 41 slabs of 128 to 821 columns).  The walk
  computes at most n^2 / 2 + ``BLOCK`` n (1 + ln(n / ``BLOCK``) / 2)
  entries, 2 m flops each: m n (n + 350) flops at n = 10000.  Each slab's
  row and column sums are two BLAS matrix-vector products with a ones
  vector, written into one length-n vector that every slab reuses.
"""

import numpy as np

from .errors import _as_2d, _power

__all__ = ["BLOCK", "COV_BLOCK", "block_power_sums", "walk_power_sums"]

BLOCK = 128
COV_BLOCK = 1024


def block_power_sums(x, p):
    """Per-column sums sum_{k != i} |x_i' x_k|^p; ``p`` must be 1 or 2."""
    x = np.ascontiguousarray(_as_2d(x))
    m, n = x.shape
    if p == 2 and m < n:
        c = x @ x.T
        sums = np.empty(n)
        buf = np.empty(m * min(COV_BLOCK, n))
        for lo in range(0, n, COV_BLOCK):
            hi = min(lo + COV_BLOCK, n)
            # C times one block of columns, written into the front of the
            # one buffer, then each column's x_i' (C x_i) straight into sums
            cx = buf[: m * (hi - lo)].reshape(m, hi - lo)
            np.matmul(c, x[:, lo:hi], out=cx)
            np.einsum("ij,ij->j", x[:, lo:hi], cx, out=sums[lo:hi])
        sums -= np.einsum("ij,ij->j", x, x) ** 2
        return np.maximum(sums, 0.0, out=sums)
    return walk_power_sums(x, p)


def _slabs(n):
    """The walk's slabs lo:hi over n columns: as many columns as keep
    (hi - lo) * (n - lo), the slab's Gram entries, within ``BLOCK`` * n."""
    lo = 0
    while lo < n:
        hi = min(lo + BLOCK * n // (n - lo), n)
        yield lo, hi
        lo = hi


def walk_power_sums(x, p):
    """``block_power_sums`` by the half-Gram walk; a lone column sums to 0."""
    _power(p)
    x = np.ascontiguousarray(_as_2d(x))
    n = x.shape[1]
    out = np.zeros(n)
    buf = np.empty(min(BLOCK, n) * n)
    ones = np.ones(n)
    part = np.empty(n)
    for lo, hi in _slabs(n):
        # rows lo:hi of the Gram from column lo on, written into the front
        # of the one buffer; the transposed view and the column slice both
        # go to BLAS without a copy
        g = buf[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        np.matmul(x[:, lo:hi].T, x[:, lo:], out=g)
        # the own block's diagonal, zeroed in place through a strided view
        # (np.fill_diagonal's .flat write raised noisy-l1's peak RSS 15 MiB)
        g.reshape(-1)[:: n - lo + 1] = 0.0
        if p == 1:
            np.abs(g, out=g)
        else:
            np.square(g, out=g)
        # row sums, then column sums, as matrix-vector products with ones:
        # BLAS spreads them over its threads and writes them into ``part``,
        # so no slab allocates
        out[lo:hi] += np.matmul(g, ones[: n - lo], out=part[: hi - lo])
        # the entries right of the diagonal block also belong to the
        # later columns' sums
        out[hi:] += np.matmul(ones[: hi - lo], g[:, hi - lo :], out=part[: n - hi])
    return out
