"""Coherence kernel.

The hot loop of the whole package is the column-coherence sum

    s(i) = sum_{k != i} |x_i' x_k|^p,   p in {1, 2},

which would need an n-by-n Gram matrix if done naively.  The self term
k = i is left out here.  The kernel takes raw columns d_k and one weight
per column w_k, and sums over the weighted columns x_k = w_k d_k without
forming them: every Gram entry d_i' d_k is made raw, and the weights
enter afterwards, as w_i^p w_k^p |d_i' d_k|^p.  With w_k = 1 / ||d_k||
that is the profile of the columns at unit length; without weights it is
the profile of the raw columns.  The path follows from the shape of the
m-by-n d:

* covariance form, for p = 2 with m < n: w_i^2 d_i' C d_i minus the self
  term (w_i^2 ||d_i||^2)^2, clamped at zero; it is the one path that
  subtracts.  C = sum_k x_k x_k' is built ``COV_BLOCK`` weighted columns
  at a time, each block x_k = w_k d_k written into one reused
  m-by-``COV_BLOCK`` buffer (BLAS computes one triangle of each block's
  product), and C d is taken ``COV_BLOCK`` columns at a time through the
  same buffer, each block reduced to its d_i' C d_i before the next.
  m^2 n + 2 m^2 n flops, so O(m^2 n) time, and the extra memory is
  O(m^2 + m COV_BLOCK + n), with no m-by-n product or weighted copy.
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
  row and column sums are two BLAS matrix-vector products with the
  vector w^p, written into one length-n vector that every slab reuses;
  each finished sum is then scaled by its own column's w^p.

Neither path copies a C- or F-ordered d; any other layout, which BLAS
cannot read in place, is copied once into C order.
"""

import numpy as np

from .errors import _as_2d, _power

__all__ = ["BLOCK", "COV_BLOCK", "block_power_sums", "walk_power_sums"]

BLOCK = 128
COV_BLOCK = 1024


def _in_place(x):
    """``x`` as a 2-d float64 array BLAS reads without a copy."""
    x = _as_2d(x)
    if x.flags.c_contiguous or x.flags.f_contiguous:
        return x
    return np.ascontiguousarray(x)


def _weights(w, n):
    return np.ones(n) if w is None else np.asarray(w, dtype=np.float64)


def block_power_sums(x, p, w=None):
    """Per-column sums w_i^p sum_{k != i} w_k^p |x_i' x_k|^p; ``p`` must be
    1 or 2, and ``w``, one weight per column, defaults to all ones."""
    x = _in_place(x)
    m, n = x.shape
    if not (p == 2 and m < n):
        return walk_power_sums(x, p, w)
    w = _weights(w, n)
    blocks = [(lo, min(lo + COV_BLOCK, n)) for lo in range(0, n, COV_BLOCK)]
    buf = np.empty(m * min(COV_BLOCK, n))
    c = np.empty((m, m))
    part = np.empty((m, m)) if len(blocks) > 1 else None
    # the self terms (w_i^2 ||x_i||^2)^2 wait in sums until the second pass
    sums = np.empty(n)
    for lo, hi in blocks:
        # one block of weighted columns, written into the front of the one
        # buffer (einsum, where np.multiply's broadcast would allocate
        # 128 KiB of buffers); C gets its product, and its squared norms
        # the self terms
        xw = buf[: m * (hi - lo)].reshape(m, hi - lo)
        np.einsum("ij,j->ij", x[:, lo:hi], w[lo:hi], out=xw)
        np.einsum("ij,ij->j", xw, xw, out=sums[lo:hi])
        np.matmul(xw, xw.T, out=c if lo == 0 else part)
        if lo:
            c += part
    np.square(sums, out=sums)
    for lo, hi in blocks:
        # C times one block of raw columns, then each column's d_i' (C d_i)
        cx = buf[: m * (hi - lo)].reshape(m, hi - lo)
        np.matmul(c, x[:, lo:hi], out=cx)
        quad = np.einsum("ij,ij->j", x[:, lo:hi], cx)
        quad *= w[lo:hi]
        quad *= w[lo:hi]
        np.subtract(quad, sums[lo:hi], out=sums[lo:hi])
    return np.maximum(sums, 0.0, out=sums)


def _slabs(n):
    """The walk's slabs lo:hi over n columns: as many columns as keep
    (hi - lo) * (n - lo), the slab's Gram entries, within ``BLOCK`` * n."""
    lo = 0
    while lo < n:
        hi = min(lo + BLOCK * n // (n - lo), n)
        yield lo, hi
        lo = hi


def walk_power_sums(x, p, w=None):
    """``block_power_sums`` by the half-Gram walk; a lone column sums to 0."""
    _power(p)
    x = _in_place(x)
    n = x.shape[1]
    wp = _weights(w, n)
    if p == 2:
        wp = np.square(wp)
    out = np.zeros(n)
    buf = np.empty(min(BLOCK, n) * n)
    part = np.empty(n)
    for lo, hi in _slabs(n):
        # rows lo:hi of the Gram from column lo on, written into the front
        # of the one buffer; the transposed view and the column slice both
        # go to BLAS without a copy, in either memory order
        g = buf[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        np.matmul(x[:, lo:hi].T, x[:, lo:], out=g)
        # the own block's diagonal, zeroed in place through a strided view
        # (np.fill_diagonal's .flat write raised noisy-l1's peak RSS 15 MiB)
        g.reshape(-1)[:: n - lo + 1] = 0.0
        if p == 1:
            np.abs(g, out=g)
        else:
            np.square(g, out=g)
        # row sums, then column sums, as matrix-vector products with w^p:
        # BLAS spreads them over its threads and writes them into ``part``,
        # so no slab allocates
        out[lo:hi] += np.matmul(g, wp[lo:], out=part[: hi - lo])
        # the entries right of the diagonal block also belong to the
        # later columns' sums
        out[hi:] += np.matmul(wp[lo:hi], g[:, hi - lo :], out=part[: n - hi])
    out *= wp
    return out
