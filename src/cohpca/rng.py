"""Seeded random streams.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed by an explicit 64-bit seed.  Independent
sub-streams (one per trial, per cell, per round) are derived by folding
integer path components into the seed material, so results never depend
on execution order and any single trial can be replayed in isolation.
"""

import numpy as np

from .errors import _integer

__all__ = ["stream"]


def stream(seed, *path):
    """Return a Generator for ``seed`` refined by integer path components.

    ``stream(seed)`` is the root stream; ``stream(seed, k)`` is the k-th
    child, ``stream(seed, k, j)`` the j-th grandchild, and so on.  The
    seed may itself be a tuple of integers (a previously derived path),
    nested to any depth, which is flattened in front of the new
    components: ``stream(((5, 9), 2))`` is ``stream(5, 9, 2)``.
    Distinct paths give statistically independent streams.  A negative or non-integral
    component is a ``DataError``.
    """
    entropy = tuple(_integer(p, "seed component", 0) for p in _flat(seed) + path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _flat(seed):
    if isinstance(seed, tuple):
        return tuple(c for s in seed for c in _flat(s))
    return (seed,)
