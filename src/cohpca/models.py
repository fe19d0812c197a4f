"""Synthetic data models for inlier/outlier subspace recovery.

Every generator draws from an explicit seed (int, or tuple of ints for
derived sub-streams) and returns the data together with ground truth,
so experiments are replayable column for column.  Inliers live on the
unit sphere inside a random r-dimensional subspace; outliers and noise
live on the ambient unit sphere.  Five models are provided:

* unstructured        -- inliers uniform in the subspace, outliers
                         uniform on the ambient sphere;
* structured outliers -- outliers concentrated around a common random
                         direction, mixing parameter mu (small mu means
                         strongly clustered outliers);
* noisy inliers       -- inliers perturbed by random directions with
                         N(0, sigma^2) amplitudes, then rescaled to unit
                         expected norm;
* clustered inliers   -- inliers concentrated around a common direction
                         inside the subspace, mixing parameter nu;
* union of subspaces  -- several subspaces, one point cloud each, with
                         cluster labels.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import stream

__all__ = [
    "INLIER",
    "OUTLIER",
    "LabeledDataset",
    "UnionDataset",
    "unit_sphere",
    "random_subspace",
    "gen_unstructured",
    "gen_structured_outliers",
    "gen_noisy",
    "gen_clustered_inliers",
    "gen_union",
    "sigma_for_tau",
]

INLIER = 0
OUTLIER = 1


@dataclass(frozen=True)
class LabeledDataset:
    """Data matrix with per-column inlier/outlier labels and ground truth.

    ``clean`` holds the noise-free counterpart of every column when
    noise was injected.  ``aux`` carries model internals (anchor
    directions and such) that the statistical tests want to inspect.
    """

    d: np.ndarray
    labels: np.ndarray
    basis: np.ndarray
    clean: np.ndarray | None = None
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UnionDataset:
    """Union-of-subspaces sample: cluster label per column, one basis each."""

    d: np.ndarray
    labels: np.ndarray
    bases: tuple


def _rng_of(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, tuple):
        return stream(*seed)
    return stream(seed)


def unit_sphere(rng, m, count):
    """``count`` independent uniform samples on the unit sphere in R^m."""
    g = rng.standard_normal((m, count))
    return g / np.linalg.norm(g, axis=0)


def random_subspace(rng, m, r):
    """Orthonormal basis of a uniformly random r-dimensional subspace."""
    if not 1 <= r <= m:
        raise DataError(f"subspace dimension r={r} must satisfy 1 <= r <= m={m}")
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q


def _check_sizes(m, r, n1, n2):
    if m < 1:
        raise DataError(f"ambient dimension m={m} must be >= 1")
    if not 1 <= r <= m:
        raise DataError(f"rank r={r} must satisfy 1 <= r <= m={m}")
    if n1 < 1:
        raise DataError(f"inlier count n1={n1} must be >= 1")
    if n2 < 0:
        raise DataError(f"outlier count n2={n2} must be >= 0")


def _shuffled(rng, d, labels, *others):
    perm = rng.permutation(d.shape[1])
    shuffled_others = tuple(o[:, perm] if o is not None else None for o in others)
    return (d[:, perm], labels[perm]) + shuffled_others


def _dataset(rng, u, a, b, shuffle, clean=None, aux=None):
    """Inliers ``a`` then outliers ``b``, labeled, shuffled when asked."""
    d = np.hstack([a, b])
    labels = np.concatenate([np.full(a.shape[1], INLIER), np.full(b.shape[1], OUTLIER)])
    if shuffle:
        d, labels, clean = _shuffled(rng, d, labels, clean)
    return LabeledDataset(d, labels, u, clean=clean, aux={} if aux is None else aux)


def _clustered(rng, u, n1, nu):
    """Inliers (t + nu * a_i) / sqrt(1 + nu^2) around one direction t of span(u)."""
    if nu <= 0:
        raise DataError(f"mixing parameter nu={nu} must be > 0")
    t = u @ unit_sphere(rng, u.shape[1], 1)
    dirs = u @ unit_sphere(rng, u.shape[1], n1)
    return (t + nu * dirs) / np.sqrt(1.0 + nu**2), t[:, 0]


def gen_unstructured(m, r, n1, n2, seed=0, shuffle=False):
    """Inliers uniform on the subspace sphere, outliers uniform ambient."""
    _check_sizes(m, r, n1, n2)
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    a = u @ unit_sphere(rng, r, n1)
    b = unit_sphere(rng, m, n2)
    return _dataset(rng, u, a, b, shuffle)


def gen_structured_outliers(m, r, n1, n2, mu, seed=0, inlier_nu=None, shuffle=False):
    """Outliers clustered around one random direction q.

    Each outlier is (q + mu * b_i) / sqrt(1 + mu^2) with q and the b_i
    uniform on the sphere; small mu makes the outliers nearly parallel,
    large mu recovers the unstructured model.  Inliers are uniform in
    the subspace unless ``inlier_nu`` is given, in which case they are
    clustered with that mixing parameter (see gen_clustered_inliers).
    """
    _check_sizes(m, r, n1, n2)
    if mu <= 0:
        raise DataError(f"mixing parameter mu={mu} must be > 0")
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    aux = {}
    if inlier_nu is None:
        a = u @ unit_sphere(rng, r, n1)
    else:
        a, aux["inlier_center"] = _clustered(rng, u, n1, inlier_nu)
    if n2:
        q = unit_sphere(rng, m, 1)
        dirs = unit_sphere(rng, m, n2)
        b = (q + mu * dirs) / np.sqrt(1.0 + mu**2)
        aux["outlier_center"] = q[:, 0]
        aux["outlier_dirs"] = dirs
    else:
        b = np.empty((m, 0))
    return _dataset(rng, u, a, b, shuffle, aux=aux)


def gen_noisy(m, r, n1, n2, sigma, seed=0, shuffle=False):
    """Unstructured model with noisy inliers.

    Each inlier a_i is replaced by (a_i + alpha_i e_i) / sqrt(1 +
    sigma^2) with e_i uniform on the ambient sphere and alpha_i ~
    N(0, sigma^2), so the expected squared norm stays 1.  sigma = 0
    reproduces the clean inliers exactly.  ``clean`` holds the noiseless
    counterpart of every column (outliers are their own counterpart), so
    it stays aligned with ``d`` under shuffling.
    """
    _check_sizes(m, r, n1, n2)
    if sigma < 0:
        raise DataError(f"noise level sigma={sigma} must be >= 0")
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    a = u @ unit_sphere(rng, r, n1)
    e = unit_sphere(rng, m, n1)
    alpha = rng.normal(0.0, sigma, n1) if sigma > 0 else np.zeros(n1)
    a_noisy = (a + alpha * e) / np.sqrt(1.0 + sigma**2)
    b = unit_sphere(rng, m, n2)
    return _dataset(rng, u, a_noisy, b, shuffle, clean=np.hstack([a, b]))


def gen_clustered_inliers(m, r, n1, n2, nu, seed=0, shuffle=False):
    """Inliers clustered around one random direction inside the subspace.

    Each inlier is (t + nu * a_i) / sqrt(1 + nu^2) with t and the a_i
    uniform on the sphere of the subspace; small nu concentrates the
    inliers, large nu recovers the unstructured model.  Outliers are
    uniform on the ambient sphere.
    """
    _check_sizes(m, r, n1, n2)
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    a, center = _clustered(rng, u, n1, nu)
    b = unit_sphere(rng, m, n2)
    return _dataset(rng, u, a, b, shuffle, aux={"inlier_center": center})


def gen_union(m, dims, sizes, seed=0, shuffle=False):
    """One point cloud per subspace, labeled by cluster.

    ``dims`` and ``sizes`` list the rank and point count of each
    cluster.  Subspaces are drawn independently; their dimensions must
    not exceed m in total, so that the clusters are genuinely distinct.
    """
    dims = tuple(int(v) for v in dims)
    sizes = tuple(int(v) for v in sizes)
    if len(dims) != len(sizes) or not dims:
        raise DataError("dims and sizes must be non-empty and of equal length")
    if any(v < 1 for v in dims) or any(v < 1 for v in sizes):
        raise DataError("every cluster needs rank >= 1 and at least one point")
    if sum(dims) > m:
        raise DataError(f"total subspace dimension {sum(dims)} exceeds m={m}")
    rng = _rng_of(seed)
    bases, blocks, labels = [], [], []
    for cluster, (r, count) in enumerate(zip(dims, sizes)):
        u = random_subspace(rng, m, r)
        bases.append(u)
        blocks.append(u @ unit_sphere(rng, r, count))
        labels.append(np.full(count, cluster))
    d = np.hstack(blocks)
    labels = np.concatenate(labels)
    if shuffle:
        d, labels = _shuffled(rng, d, labels)
    return UnionDataset(d, labels, tuple(bases))


def sigma_for_tau(tau):
    """Noise level sigma matching a target noise-to-signal norm ratio.

    The noise component of a column has norm |alpha| with alpha ~
    N(0, sigma^2), so its expected norm is sigma * sqrt(2/pi) while the
    signal component has norm 1.  Inverting gives sigma = tau *
    sqrt(pi/2).
    """
    if tau < 0:
        raise DataError(f"norm ratio tau={tau} must be >= 0")
    return float(tau) * np.sqrt(np.pi / 2.0)
