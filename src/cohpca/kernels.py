"""Blocked coherence kernel.

The hot loop of the whole package is the column-coherence sum

    s(i) = sum_k |x_i' x_k|^p,   p in {1, 2},

which is O(m n^2) and would need an n-by-n Gram matrix if done naively.
The kernel walks the Gram in column blocks (peak extra memory
O(n * block)): one BLAS product per slab, reduced on the fly.
"""

import numpy as np

from .errors import DataError

__all__ = ["DEFAULT_BLOCK", "block_power_sums"]

DEFAULT_BLOCK = 256


def _power_sums_slab(xbt, x, p):
    g = xbt @ x
    if p == 1:
        return np.abs(g).sum(axis=1)
    return np.einsum("ij,ij->i", g, g)


def block_power_sums(x, p, block=DEFAULT_BLOCK):
    """Per-column sums sum_k |x_i' x_k|^p including the k = i self term.

    ``x`` is m-by-n with float64 columns; ``p`` must be 1 or 2; ``block``
    is the Gram slab width.  Callers subtract the self term themselves.
    """
    if p not in (1, 2):
        raise DataError(f"power p must be 1 or 2, got {p}")
    if block < 1:
        raise DataError(f"block size must be >= 1, got {block}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    n = x.shape[1]
    block = min(int(block), n)
    out = np.empty(n)
    for lo in range(0, n, block):
        # the slice of a C-contiguous array stays contiguous, no copy
        out[lo : lo + block] = _power_sums_slab(xt[lo : lo + block], x, p)
    return out
