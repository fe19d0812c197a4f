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
    "top_r_singular_subspace",
    "random_projection",
    "recovery_error",
]

UNIT_COLUMN_TOL = 1e-8
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
    back to columns of ``d``.  Only an all-zero column is dropped, with
    no threshold; if every column is zero that is an error.  Each column
    is first multiplied by the power of two that brings its own largest
    magnitude into [0.5, 1), which is exact, so no sum of squares
    overflows or underflows, and a power-of-two column scale leaves
    ``x`` bit for bit as it is.  Besides ``d``, one matrix of its size
    is live: a C-ordered buffer that holds the magnitudes and then the
    output, unless a column is dropped and the output is made anew.
    """
    d = _as_2d(d)
    # made before any length-n array: one made first can cost 15 MiB of RSS
    x = np.abs(d, order="C")
    norms = x.max(axis=0)
    # max propagates NaN, and an Inf makes its column's top infinite
    if not np.isfinite(norms).all():
        raise DataError("matrix contains NaN or Inf entries")
    # the mantissas overwrite norms, where a zero column stays 0
    e = np.frexp(norms, out=(norms, None))[1]
    np.negative(e, out=e)
    if norms.all():
        np.ldexp(d, e, out=x)
        del e  # freed before kept is made
        kept = np.arange(d.shape[1])
    else:
        del x  # freed before the output is made
        kept = np.flatnonzero(norms)
        if kept.size == 0:
            raise DataError("all columns are zero")
        norms, e = None, e[kept]  # freed too; einsum makes the kept norms
        # np.take keeps x C-ordered, where d[:, kept] would be F-ordered
        x = np.take(d, kept, axis=1)
        np.ldexp(x, e, out=x)
        del e
    # summed row by row, in the same order, whatever the layout of d
    norms = np.einsum("ij,ij->j", x, x, out=norms)
    np.sqrt(norms, out=norms)
    x /= norms
    return Normalized(x, kept)


def coherence(x, p=2):
    """Coherence profile of a matrix with unit columns.

    ``x`` must already have unit columns (within 1e-8); use
    ``normalize_columns`` first.  The kernel, ``kernels.block_power_sums``,
    leaves out the self term, so a lone column scores exactly 0.
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
    return CoherenceProfile(kernels.block_power_sums(x, p), p)


def coherence_gram(d, p=2):
    """Coherence profile of raw, unnormalized columns.

    The form the recovery-condition validators need.  It always runs the
    half-Gram walk, ``kernels.walk_power_sums``, which never adds the self
    term ||d_i||^(2p); the covariance form subtracts it, which leaves only
    rounding of the cross terms of a column whose norm dwarfs the others.
    The walk sees ``d`` times the power of two 2^-e that brings its
    largest magnitude into [0.5, 1), and the sums are scaled back by
    2^(2pe), both exactly, so a value in the normal float64 range does
    not depend on the scale of ``d``.  A value above that range is a
    ``NumericalError`` naming overflow; a positive value below it, which
    would lose bits or become zero, is one naming underflow.
    """
    d = _as_matrix(d)
    e = int(np.frexp(max(d.max(), -d.min()))[1])
    x = np.ldexp(d, -e)
    sums = kernels.walk_power_sums(x, p)
    with np.errstate(over="ignore"):
        values = np.ldexp(sums, 2 * p * e)
    if np.any(np.isinf(values)):
        raise NumericalError(f"power sums at p={p} overflow float64; rescale the columns")
    if np.any((values < np.finfo(np.float64).tiny) & (sums > 0.0)):
        raise NumericalError(f"power sums at p={p} underflow float64; rescale the columns")
    return CoherenceProfile(values, p)


def top_r_singular_subspace(y, r):
    """Span of the top r left singular vectors of ``y``.

    Returns ``TopSubspace(basis, unique)``; ``unique`` is False when
    sigma_r - sigma_{r+1} is at most 1e-12 * sigma_1, meaning the subspace
    is not determined by ``y`` alone; scaling ``y`` does not change it.
    Past the last singular value sigma_{r+1} counts as 0, so a ``y`` of
    rank below r is never unique.
    """
    y = _as_matrix(y)
    if not 1 <= _integer(r, "r") <= min(y.shape):
        raise DataError(f"r={r} out of range for shape {y.shape}")
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    unique = bool(s[r - 1] - (s[r] if r < len(s) else 0.0) > SIGMA_GAP_TOL * s[0])
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
    if not np.allclose(gram, np.eye(u.shape[1]), rtol=0, atol=1e-8):
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
