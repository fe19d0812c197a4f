"""Blocked coherence kernel.

The hot loop of the whole package is the column-coherence sum

    s(i) = sum_k |x_i' x_k|^p,   p in {1, 2},

which is O(m n^2) and would need an n-by-n Gram matrix if done naively.
The kernel walks the Gram in slabs of ``BLOCK`` rows (peak extra memory
O(n * BLOCK)): one BLAS product per slab, reduced on the fly.  Both
``linalg.coherence`` and ``linalg.coherence_gram`` run on it.
"""

import numpy as np

from .errors import DataError

__all__ = ["BLOCK", "block_power_sums"]

BLOCK = 256


def _power_sums_slab(xbt, x, p):
    g = xbt @ x
    if p == 1:
        return np.abs(g).sum(axis=1)
    return np.einsum("ij,ij->i", g, g)


def block_power_sums(x, p):
    """Per-column sums sum_k |x_i' x_k|^p including the k = i self term.

    ``x`` is m-by-n with float64 columns; ``p`` must be 1 or 2.  Callers
    subtract the self term themselves.
    """
    if p not in (1, 2):
        raise DataError(f"power p must be 1 or 2, got {p}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    n = x.shape[1]
    out = np.empty(n)
    for lo in range(0, n, BLOCK):
        # the slice of a C-contiguous array stays contiguous, no copy
        out[lo : lo + BLOCK] = _power_sums_slab(xt[lo : lo + BLOCK], x, p)
    return out
