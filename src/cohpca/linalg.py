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
from .errors import DataError, NumericalError, _as_2d, _as_matrix, _integer, _power
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

SIGMA_GAP_TOL = 1e-12
# the kernel runs on raw columns whose largest magnitudes lie within
# 2^(+-BAND / p); ``_unit_scale`` derives it
BAND = 480


@dataclass(frozen=True)
class CoherenceProfile:
    """Per-column coherence values together with the power that made them."""

    values: np.ndarray
    p: int

    def __post_init__(self):
        _power(self.p)


class Normalized(NamedTuple):
    x: np.ndarray
    kept: np.ndarray


class TopSubspace(NamedTuple):
    basis: np.ndarray
    unique: bool


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


def _tops(d):
    """Each column's largest magnitude; a NaN or Inf is named by its column."""
    top = d.max(axis=0)
    low = d.min(axis=0)
    np.negative(low, out=low)
    # maximum propagates a NaN, and an Inf makes its column's top infinite
    np.maximum(top, low, out=top)
    bad = np.flatnonzero(~np.isfinite(top))
    if bad.size:
        raise DataError(f"matrix contains NaN or Inf entries in column {bad[0]}")
    return top


def _tiles(d):
    """``(lo, hi, part, t)`` over ``d`` a tile at a time: ``part`` is the view
    of min(``BLOCK``, m) rows of columns lo:hi, at most ``COV_BLOCK`` of
    them, and ``t`` a buffer of its shape that every tile reuses, so no
    m-by-n array is made."""
    m, n = d.shape
    rows, cols = min(kernels.BLOCK, m), min(kernels.COV_BLOCK, n)
    tile = np.empty(rows * cols)
    for lo in range(0, n, cols):
        hi = min(lo + cols, n)
        for top in range(0, m, rows):
            part = d[top : top + rows, lo:hi]
            yield lo, hi, part, tile[: part.size].reshape(part.shape)


def _unit_scale(d, p):
    """``(x, w)``: column k of ``d`` at unit length is ``x[:, k] * w[k]``.

    ``w[k]`` is 1 / ||d_k||, found as ``normalize_columns`` finds it: the
    column times the power of two 2^-e_k that brings its largest magnitude
    into [0.5, 1), which is exact, has a norm that neither overflows nor
    underflows.  The squares are summed a tile at a time (``_tiles``), in
    the same order whatever the memory order of ``d``.

    ``x`` is ``d`` itself, with w[k] = 2^-e_k / ||d_k 2^-e_k||, when ``d``
    is C- or F-ordered, which BLAS reads in place, and every e_k lies in
    the band |e_k| <= ``BAND`` // p; otherwise it is the exact, compact
    copy ``np.ldexp(d, -e)``, with w[k] = 1 / ||d_k 2^-e_k||.  The
    kernel's arithmetic on the two differs only by exact powers of two
    wherever it stays in the normal float64 range, and there both give
    the same bits.  With every largest magnitude M_k in
    [2^(-B-1), 2^B), B = ``BAND`` // p, the band bounds what can leave it:

    * the largest raw value the p=1 walk makes is a Gram entry, at most
      m 2^(2B) = m 2^960; the p=2 walk squares it, at most m^2 2^(4B) =
      m^2 2^960; both stay below 2^1023 for any m < 2^31, so nothing
      overflows.  The covariance form's C is built from weighted columns,
      of unit length, and its d_i' C d_i is at most n m 2^(2B);
    * only a product or square too small for the normal range can differ:
      it loses at most 2^-1075, which is at most 2^(2p(B+1) - 1075),
      2^-113 at p=1 and 2^-111 at p=2, at unit length, far below the
      2^-53 rounding of a unit-scale sum.  Where none is that small in
      either route, the bits are the same.

    p=2's walk squares the raw Gram entries, so its band is half of p=1's.
    A zero, NaN or Inf column is a ``DataError`` that names it.
    """
    d = _as_2d(d)
    top = _tops(d)
    zero = np.flatnonzero(top == 0.0)
    if zero.size:
        raise DataError(f"column {zero[0]} is zero; a coherence profile needs nonzero columns")
    # shift[k] = -e_k, where 2^e_k brings column k's top into [0.5, 1)
    shift = np.frexp(top, out=(top, None))[1]
    del top
    np.negative(shift, out=shift)
    w = np.zeros(d.shape[1])
    for lo, hi, part, t in _tiles(d):
        np.ldexp(part, shift[lo:hi], out=t)
        w[lo:hi] += np.einsum("ij,ij->j", t, t)
    np.sqrt(w, out=w)
    np.divide(1.0, w, out=w)
    in_place = d.flags.c_contiguous or d.flags.f_contiguous
    if in_place and np.abs(shift).max() <= BAND // p:
        return d, np.ldexp(w, shift, out=w)
    return np.ldexp(d, shift), w


def coherence(d, p=2):
    """Coherence profile of the columns of ``d`` at unit length.

    ``d`` is any finite matrix with no zero column: the kernel,
    ``kernels.block_power_sums``, sums the raw columns' products weighted by
    1 / ||d_k|| (``_unit_scale``), so no normalized copy is made, and a
    power-of-two scale of a column leaves the profile bit for bit as it
    is.  The self term is left out, so a lone column scores exactly 0.
    """
    _power(p)
    x, w = _unit_scale(d, p)
    return CoherenceProfile(kernels.block_power_sums(x, p, w), p)


def coherence_gram(d, p=2):
    """Coherence profile of raw, unnormalized columns.

    The form the recovery-condition validators need.  It always runs the
    half-Gram walk, ``kernels.walk_power_sums``, which never adds the self
    term ||d_i||^(2p); the covariance form subtracts it, which leaves only
    rounding of the cross terms of a column whose norm dwarfs the others.
    Let 2^e be the power of two that brings the largest magnitude of ``d``
    into [0.5, 1).  The walk sees ``d`` times 2^-e, and the sums are
    scaled back by 2^(2pe), both exactly, so a value in the normal float64
    range does not depend on the scale of ``d``.  A value above that
    range is a ``NumericalError`` naming overflow; a positive value below
    it, which would lose bits or become zero, is one naming underflow.

    The walk reads ``d`` itself, with no copy, when that gives the same
    bits, that is when neither walk leaves the normal range.  Let
    2^(l-1) <= a < 2^l for the least nonzero magnitude a of ``d``,
    E = max(e, 0) and q = l - 53 - E.  In either walk every entry is below
    2^E and a multiple of 2^q, so every product, Gram entry and sum is a
    multiple of 2^(2q), and at p=2 every square and sum of squares one of
    2^(4q): a rounded multiple stays one, so each is zero or at least
    that.  Every sum is below 2^(bits(n) + p (bits(m) + 2E)), bits(n) the
    bit length of n.  So with 2pq >= -1022 and bits(n) + p (bits(m) + 2E)
    <= 1023 every value of both walks is zero or normal, and a value of
    the walk on ``d`` is that of the walk on the copy times 2^(ke)
    exactly, k its degree in the entries.
    """
    d = _as_matrix(d)
    _power(p)
    m, n = d.shape
    e = int(np.frexp(max(d.max(), -d.min()))[1])
    least = np.inf  # stays inf for an all-zero d, whose l is then 0
    for _, _, part, t in _tiles(d):
        np.abs(part, out=t)
        least = min(least, t.min(initial=np.inf, where=t > 0.0))
    q = int(np.frexp(least)[1]) - 53 - max(e, 0)
    if 2 * p * q >= -1022 and n.bit_length() + p * (m.bit_length() + 2 * max(e, 0)) <= 1023:
        e = 0
    sums = kernels.walk_power_sums(np.ldexp(d, -e) if e else d, p)
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
    r = _integer(r, "rank r", 1, ("min(m, n)", min(y.shape)))
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    unique = bool(s[r - 1] - (s[r] if r < len(s) else 0.0) > SIGMA_GAP_TOL * s[0])
    return TopSubspace(u[:, :r], unique)


def random_projection(x, d, seed, phi=None):
    """Project columns of ``x`` into d dimensions by a Gaussian sketch.

    The sketch matrix has i.i.d. N(0, 1/d) entries drawn from the Philox
    stream for ``seed``; pass ``phi`` to substitute a specific sketch
    (tests use the identity).
    """
    return _sketch(_as_matrix(x), d, seed, phi)


def _sketch(x, d, seed, phi=None):
    """``random_projection`` of an ``x`` already known to be finite, as
    ``_unit_scale`` leaves it: no pass over ``x`` checks it again."""
    m = x.shape[0]
    d = _integer(d, "projection dimension d", 1, ("m", m))
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
