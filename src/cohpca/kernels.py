"""Coherence kernel.

The hot loop of the whole package is the column-coherence sum

    s(i) = sum_k |x_i' x_k|^p,   p in {1, 2},

which would need an n-by-n Gram matrix if done naively.  The kernel
picks one of two paths from the shape of the m-by-n input, with nothing
for the caller to choose:

* covariance form, for p = 2 with m < n: s(i) = x_i' (X X') x_i.  One
  m-by-m product (m^2 n flops; BLAS computes one triangle) and one
  m-by-n product (2 m^2 n flops), so O(m^2 n) time and O(m^2 + m n)
  extra memory.
* half-Gram walk, for p = 1 and for p = 2 with m >= n: the Gram is
  walked in slabs of ``BLOCK`` columns, each slab multiplied only
  against itself and the columns after it, so every symmetric entry is
  computed once: about m n (n + BLOCK) flops and O(m n^2) time.  Its
  extra memory is one ``BLOCK``-by-n buffer, which every slab reuses.

Both ``linalg.coherence`` and ``linalg.coherence_gram`` run on this
kernel.
"""

import numpy as np

from .errors import DataError

__all__ = ["BLOCK", "block_power_sums"]

BLOCK = 256


def block_power_sums(x, p):
    """Per-column sums sum_k |x_i' x_k|^p including the k = i self term.

    ``x`` is m-by-n with float64 columns; ``p`` must be 1 or 2.  Callers
    subtract the self term themselves.
    """
    if p not in (1, 2):
        raise DataError(f"power p must be 1 or 2, got {p}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    m, n = x.shape
    if p == 2 and m < n:
        cov = x @ x.T
        return np.einsum("ij,ij->j", x, cov @ x)
    out = np.zeros(n)
    buf = np.empty(min(BLOCK, n) * n)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        # rows lo:hi of the Gram from column lo on, written into the front
        # of the one buffer; the transposed view and the column slice both
        # go to BLAS without a copy
        g = buf[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        np.matmul(x[:, lo:hi].T, x[:, lo:], out=g)
        if p == 1:
            np.abs(g, out=g)
        else:
            np.square(g, out=g)
        out[lo:hi] += g.sum(axis=1)
        # the entries right of the diagonal block also belong to the
        # later columns' sums
        out[hi:] += g[:, hi - lo :].sum(axis=0)
    return out
