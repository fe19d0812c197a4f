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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _integer, _real
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
    """Data matrix with per-column inlier/outlier labels and the true basis."""

    d: np.ndarray
    labels: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class UnionDataset:
    """Union-of-subspaces sample: cluster label per column, one basis each."""

    d: np.ndarray
    labels: np.ndarray
    bases: tuple


def _rng_of(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed)


def unit_sphere(rng, m, count):
    """``count`` independent uniform samples on the unit sphere in R^m."""
    m = _integer(m, "ambient dimension m", 1)
    g = rng.standard_normal((m, _integer(count, "sample count", 0)))
    # in place: a second m-by-count array per call left the heap holding
    # a matrix-sized hole or not, depending on the data, so peak memory
    # of repeated gen calls varied from one seed to the next
    g /= np.linalg.norm(g, axis=0)
    return g


def random_subspace(rng, m, r):
    """Orthonormal basis of a uniformly random r-dimensional subspace."""
    m = _integer(m, "ambient dimension m", 1)
    r = _integer(r, "subspace dimension r", 1, ("m", m))
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q


def _check_sizes(m, r, n1, n2):
    m = _integer(m, "ambient dimension m", 1)
    _integer(n1, "inlier count n1", 1)
    _integer(n2, "outlier count n2", 0)
    _integer(r, "rank r", 1, ("m", m))


def _dataset(rng, blocks, shuffle):
    """``(d, labels)``: the ``blocks`` side by side, block i's columns labeled
    i (INLIER, OUTLIER; or the cluster), shuffled when asked.

    ``blocks`` is emptied once stacked, so the blocks are released even
    while the caller holds the list, and each permuted copy replaces its
    unshuffled array before the next one is made: no more than two
    dataset-sized arrays are held at a time.
    """
    labels = np.concatenate([np.full(b.shape[1], i) for i, b in enumerate(blocks)])
    d = np.hstack(blocks)
    blocks.clear()
    if shuffle:
        perm = rng.permutation(d.shape[1])
        d, labels = d[:, perm], labels[perm]
    return d, labels


def _squarable(x, label):
    """Raise a DataError on ``label`` unless 1 + x^2 is finite, which needs x finite."""
    x = float(x)
    if not math.isfinite(1.0 + x * x):
        raise DataError(f"{label} must be finite, and 1 + its square must not overflow")


def _clustered(rng, u, n1, nu, name="nu"):
    """Inliers (t + nu * a_i) / sqrt(1 + nu^2) around one direction t of span(u)."""
    _real(nu, f"mixing parameter {name}", above=0)
    _squarable(nu, f"mixing parameter {name}={nu}")
    t = u @ unit_sphere(rng, u.shape[1], 1)
    return (t + nu * (u @ unit_sphere(rng, u.shape[1], n1))) / np.sqrt(1.0 + nu**2)


def gen_unstructured(m, r, n1, n2, seed=0, shuffle=False):
    """Inliers uniform on the subspace sphere, outliers uniform ambient."""
    _check_sizes(m, r, n1, n2)
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    d, labels = _dataset(rng, [u @ unit_sphere(rng, r, n1), unit_sphere(rng, m, n2)], shuffle)
    return LabeledDataset(d, labels, u)


def gen_structured_outliers(m, r, n1, n2, mu, seed=0, inlier_nu=None, shuffle=False):
    """Outliers clustered around one random direction q.

    Each outlier is (q + mu * b_i) / sqrt(1 + mu^2) with q and the b_i
    uniform on the sphere; small mu makes the outliers nearly parallel,
    large mu recovers the unstructured model.  Inliers are uniform in
    the subspace unless ``inlier_nu`` is given, in which case they are
    clustered with that mixing parameter (see gen_clustered_inliers).
    """
    _check_sizes(m, r, n1, n2)
    _real(mu, "mixing parameter mu", above=0)
    _squarable(mu, f"mixing parameter mu={mu}")
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    if inlier_nu is None:
        a = u @ unit_sphere(rng, r, n1)
    else:
        a = _clustered(rng, u, n1, inlier_nu, "inlier_nu")
    if n2:  # no q is drawn without outliers
        q = unit_sphere(rng, m, 1)
        b = (q + mu * unit_sphere(rng, m, n2)) / np.sqrt(1.0 + mu**2)
    else:
        b = np.empty((m, 0))
    d, labels = _dataset(rng, [a, b], shuffle)
    return LabeledDataset(d, labels, u)


def gen_noisy(m, r, n1, n2, sigma, seed=0, shuffle=False):
    """Unstructured model with noisy inliers.

    Each inlier a_i is replaced by (a_i + alpha_i e_i) / sqrt(1 +
    sigma^2) with e_i uniform on the ambient sphere and alpha_i ~
    N(0, sigma^2), so the expected squared norm stays 1.  sigma = 0
    reproduces the clean inliers exactly.
    """
    _check_sizes(m, r, n1, n2)
    _real(sigma, "noise level sigma", 0)
    _squarable(sigma, f"noise level sigma={sigma}")
    rng = _rng_of(seed)
    u = random_subspace(rng, m, r)
    a = u @ unit_sphere(rng, r, n1)
    e = unit_sphere(rng, m, n1)
    alpha = rng.normal(0.0, sigma, n1) if sigma > 0 else np.zeros(n1)
    noisy = (a + alpha * e) / np.sqrt(1.0 + sigma**2)
    del a, e
    d, labels = _dataset(rng, [noisy, unit_sphere(rng, m, n2)], shuffle)
    return LabeledDataset(d, labels, u)


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
    d, labels = _dataset(rng, [_clustered(rng, u, n1, nu), unit_sphere(rng, m, n2)], shuffle)
    return LabeledDataset(d, labels, u)


def gen_union(m, dims, sizes, seed=0, shuffle=False):
    """One point cloud per subspace, labeled by cluster.

    ``dims`` and ``sizes`` list the rank and point count of each
    cluster.  Subspaces are drawn independently; their dimensions must
    not exceed m in total, so that the clusters are genuinely distinct.
    """
    m = _integer(m, "ambient dimension m", 1)
    dims = tuple(_integer(v, "cluster rank", 1) for v in dims)
    sizes = tuple(_integer(v, "cluster size", 1) for v in sizes)
    if len(dims) != len(sizes) or not dims:
        raise DataError("dims and sizes must be non-empty and of equal length")
    _integer(sum(dims), "total rank sum(dims)", high=("m", m))
    rng = _rng_of(seed)
    bases, blocks = [], []
    for r, count in zip(dims, sizes):
        bases.append(random_subspace(rng, m, r))
        blocks.append(bases[-1] @ unit_sphere(rng, r, count))
    d, labels = _dataset(rng, blocks, shuffle)
    return UnionDataset(d, labels, tuple(bases))


# model: (generator's name in this module, the parameters it needs besides
# m, r, n1, n2; union's take the place of r, n1, n2).  Callers look the
# generator up by name when they call it, so a replaced attribute is used.
_MODELS = {
    "unstructured": ("gen_unstructured", ()),
    "structured": ("gen_structured_outliers", ("mu",)),
    "noisy": ("gen_noisy", ("sigma",)),
    "clustered": ("gen_clustered_inliers", ("nu",)),
    "union": ("gen_union", ("dims", "sizes")),
}


def sigma_for_tau(tau):
    """Noise level sigma matching a target noise-to-signal norm ratio.

    The noise component of a column has norm |alpha| with alpha ~
    N(0, sigma^2), so its expected norm is sigma * sqrt(2/pi) while the
    signal component has norm 1.  Inverting gives sigma = tau *
    sqrt(pi/2).
    """
    _real(tau, "norm ratio tau", 0)
    with np.errstate(over="ignore"):
        sigma = float(tau) * np.sqrt(np.pi / 2.0)
    _squarable(sigma, f"norm ratio tau={tau}")
    return sigma
