"""Numeric core: column normalization, coherence profiles, subspace bases.

Conventions used throughout the package:

* data matrices are float64 arrays of shape (m, n), one observation per
  column;
* a subspace basis is an orthonormal (m, r) array;
* the coherence profile of a matrix with unit columns is
  p(i) = sum_{k != i} |x_i' x_k|^p for p in {1, 2}; note the sum of
  p-th powers is used directly, no root is taken.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DataError, NumericalError, _integer
from .rng import stream

__all__ = [
    "CoherenceProfile",
    "Normalized",
    "TopSubspace",
    "normalize_columns",
    "coherence",
    "coherence_gram",
    "orthonormal_basis",
    "top_r_singular_subspace",
    "random_projection",
    "recovery_error",
]

ZERO_COLUMN_TOL = 1e-14
UNIT_COLUMN_TOL = 1e-8
RANK_REL_TOL = 1e-10
SIGMA_GAP_TOL = 1e-12


@dataclass(frozen=True)
class CoherenceProfile:
    """Per-column coherence values together with the power that made them."""

    values: np.ndarray
    p: int

    def __post_init__(self):
        if self.p not in (1, 2):
            raise DataError(f"power p must be 1 or 2, got {self.p}")


class Normalized(NamedTuple):
    x: np.ndarray
    kept: np.ndarray


class TopSubspace(NamedTuple):
    basis: np.ndarray
    unique: bool


def _as_2d(d, name="matrix"):
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise DataError(f"{name} must be 2-d and non-empty, got shape {d.shape}")
    return d


def _as_matrix(d, name="matrix"):
    d = _as_2d(d, name)
    if not np.all(np.isfinite(d)):
        raise DataError(f"{name} contains NaN or Inf entries")
    return d


def normalize_columns(d):
    """Scale every column to the unit sphere.

    Returns ``Normalized(x, kept)`` where ``kept`` maps columns of ``x``
    back to columns of ``d``.  A column that is zero, or whose norm is
    below 1e-14 times the largest column norm, is dropped and absent
    from ``kept``; if every column is zero that is an error.  Any finite
    matrix can be normalized: the columns are first multiplied by the
    power of two that brings the largest magnitude into [0.5, 1), which
    is exact, so no sum of squares overflows or, in a column that is
    kept, underflows.  Besides ``d``, one matrix of its size is live at a
    time: the squares while the norms are summed, then the output.
    """
    d = _as_2d(d)
    top = max(d.max(), -d.min())
    # max and min propagate NaN, and an Inf makes top infinite
    if not np.isfinite(top):
        raise DataError("matrix contains NaN or Inf entries")
    if top == 0.0:
        raise DataError("all columns are zero")
    e = int(np.frexp(top)[1])
    sq = np.ldexp(d, -e)
    np.square(sq, out=sq)
    norms = np.add.reduce(sq, axis=0)
    del sq  # freed before the output is made
    np.sqrt(norms, out=norms)
    kept = np.flatnonzero(norms > ZERO_COLUMN_TOL * norms.max())
    if kept.size < d.shape[1]:
        norms = norms[kept]
        # np.take keeps x C-ordered, where d[:, kept] would be F-ordered
        x = np.take(d, kept, axis=1)
        np.ldexp(x, -e, out=x)
    else:
        x = np.ldexp(d, -e)
    x /= norms
    return Normalized(x, kept)


def coherence(x, p=2):
    """Coherence profile of a matrix with unit columns.

    ``x`` must already have unit columns (within 1e-8); use
    ``normalize_columns`` first.  The Gram matrix is never materialized:
    ``kernels.block_power_sums`` uses the m-by-m covariance for p=2 with
    m < n and walks half the Gram in slabs of ``kernels.BLOCK`` columns
    otherwise.  The diagonal self term, 1 for a unit column, is excluded
    by subtraction, and tiny negative results of that subtraction are
    clamped to zero.  A lone column's sum is empty, so its value is
    exactly 0.
    """
    x = _as_2d(x)
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    off = np.abs(norms - 1.0)
    # a NaN or Inf entry makes its column's norm fail this test too
    if not np.all(off <= UNIT_COLUMN_TOL):
        _as_matrix(x)  # a NaN or Inf entry is named first
        bad = int(np.argmax(off))
        raise DataError(
            f"column {bad} has norm {norms[bad]:.12f}; coherence requires unit columns"
        )
    if x.shape[1] == 1:  # an empty sum; its self term minus 1 would leave rounding
        return CoherenceProfile(np.zeros(1), p)
    sums = kernels.block_power_sums(x, p)
    return CoherenceProfile(np.maximum(sums - 1.0, 0.0), p)


def coherence_gram(d, p=2):
    """Coherence profile of raw, unnormalized columns.

    The form the recovery-condition validators need.  It runs on the same
    kernel as ``coherence``, subtracting the self term ||d_i||^(2p) in
    place of 1, with the same clamp at zero.  The kernel sees ``d`` times
    the power of two 2^-e that brings its largest magnitude into
    [0.5, 1), and the sums are scaled back by 2^(2pe), both exactly, so a
    value in the normal float64 range does not depend on the scale of
    ``d``.  A value above that range is a ``NumericalError`` naming
    overflow; a positive value below it, which would lose bits or become
    zero, is one naming underflow.
    """
    d = _as_matrix(d)
    e = int(np.frexp(max(d.max(), -d.min()))[1])
    x = np.ldexp(d, -e)
    sums = kernels.block_power_sums(x, p)
    sums -= np.einsum("ij,ij->j", x, x) ** p
    np.maximum(sums, 0.0, out=sums)
    with np.errstate(over="ignore"):
        values = np.ldexp(sums, 2 * p * e)
    if np.any(np.isinf(values)):
        raise NumericalError(f"power sums at p={p} overflow float64; rescale the columns")
    if np.any((values < np.finfo(np.float64).tiny) & (sums > 0.0)):
        raise NumericalError(f"power sums at p={p} underflow float64; rescale the columns")
    return CoherenceProfile(values, p)


def orthonormal_basis(y):
    """Orthonormal basis for the column span of ``y`` at numerical rank.

    Singular directions with sigma_i <= 1e-10 * sigma_1 are discarded;
    only an all-zero matrix has no basis.
    """
    y = _as_matrix(y)
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    if s[0] == 0.0:
        raise NumericalError("matrix is zero, no basis exists")
    rank = int(np.sum(s > RANK_REL_TOL * s[0]))
    return u[:, :rank]


def top_r_singular_subspace(y, r):
    """Span of the top r left singular vectors of ``y``.

    Returns ``TopSubspace(basis, unique)``; ``unique`` is False when
    sigma_r - sigma_{r+1} is at most 1e-12 * sigma_1, meaning the subspace
    is not determined by ``y`` alone; scaling ``y`` does not change it.
    """
    y = _as_matrix(y)
    if not 1 <= _integer(r, "r") <= min(y.shape):
        raise DataError(f"r={r} out of range for shape {y.shape}")
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    unique = r == len(s) or bool(s[r - 1] - s[r] > SIGMA_GAP_TOL * s[0])
    return TopSubspace(u[:, :r], unique)


def random_projection(x, d, seed, phi=None):
    """Project columns of ``x`` into d dimensions by a Gaussian sketch.

    The sketch matrix has i.i.d. N(0, 1/d) entries drawn from the Philox
    stream for ``seed``; pass ``phi`` to substitute a specific sketch
    (tests use the identity).
    """
    x = _as_matrix(x)
    m = x.shape[0]
    if not 1 <= d <= m:
        raise DataError(f"projection dimension d={d} must satisfy 1 <= d <= m={m}")
    if phi is None:
        phi = stream(seed).standard_normal((d, m)) / np.sqrt(d)
    else:
        phi = _as_matrix(phi, "phi")
        if phi.shape != (d, m):
            raise DataError(f"phi must have shape {(d, m)}, got {phi.shape}")
    return phi @ x


def _require_orthonormal(u, name):
    u = _as_matrix(u, name)
    gram = u.T @ u
    if not np.allclose(gram, np.eye(u.shape[1]), atol=1e-8):
        raise DataError(f"{name} does not have orthonormal columns")
    return u


def recovery_error(u_true, u_hat):
    """Relative residual of the true basis under the recovered projector.

    ||U - P U||_F / ||U||_F with P the orthogonal projector onto the
    recovered subspace.  Zero iff span(u_true) is contained in
    span(u_hat); both inputs must be orthonormal.
    """
    u_true = _require_orthonormal(u_true, "u_true")
    u_hat = _require_orthonormal(u_hat, "u_hat")
    if u_true.shape[0] != u_hat.shape[0]:
        raise DataError("bases live in different ambient dimensions")
    resid = u_true - u_hat @ (u_hat.T @ u_true)
    return float(np.linalg.norm(resid) / np.linalg.norm(u_true))
