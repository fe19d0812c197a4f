"""Outlier-robust subspace recovery by coherence ranking.

The pipeline is: score every column by its summed coherence with all
other columns, each taken at unit length, then keep a small set of
high-coherence columns and take the span of those columns, normalized,
as the recovered subspace.  Outliers score low because they correlate
with nothing; inliers score high because they correlate with each other.

Each strategy holds its own defaults and has one method,
``select(x, profile, cfg) -> (picked, basis, unique)``: the picked columns
of ``x``, whose columns are nonzero and of any scale, the orthonormal
span of those columns at unit length, and whether the picks alone
determined it.  Every ``select`` first checks that the profile has
one value per column and that r <= m; ``CopConfig`` checks that r is an
integer >= 1 and p is 1 or 2.  The four strategies:

* GreedyRank     -- walk columns by decreasing coherence, keep one only
                    if it adds a new direction, stop at r;
* TopFraction    -- keep the top (1-q) fraction;
* FixedCount     -- keep a fixed number of columns;
* Adaptive       -- work in a random low-dimensional sketch, repeatedly
                    take the highest-coherence column that survives a
                    residual-norm threshold and deflate it away; with
                    ``passes=h`` it does so h times and pools the picks
                    (the noisy-data variant).

Every strategy ends in the same finish: the top-r left singular
subspace of its picks, normalized by ``normalize_columns``, flagged not
unique when sigma_r - sigma_{r+1} (sigma_{r+1} = 0 past the last one) is
at most 1e-12 * sigma_1, so picks that span fewer than r dimensions come
back with ``unique=False``.
``cop`` is the one entry point: it drops the all-zero columns, profiles
the rest and hands both to the strategy, and no stage copies the data;
its ``seconds`` are the stage times ``cohpca bench`` reports.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericalError, _as_2d, _integer, _power, _real
from .linalg import (
    CoherenceProfile,
    _require_orthonormal,
    _sketch,
    _tops,
    _unit_scale,
    coherence,
    normalize_columns,
    top_r_singular_subspace,
)

__all__ = [
    "GreedyRank",
    "TopFraction",
    "FixedCount",
    "Adaptive",
    "CopConfig",
    "CopResult",
    "cop",
    "cop_multipass",
    "spca",
    "residual_outliers",
]


def _check_selection(x, profile, cfg):
    # what every select relies on: one profile value per column, r <= m
    if np.shape(profile.values) != x.shape[1:]:
        raise DataError(f"profile length {np.shape(profile.values)} does not match {x.shape[1]} columns")
    _integer(cfg.r, "target rank r", 1, ("m", x.shape[0]))


@dataclass(frozen=True)
class GreedyRank:
    rank_tol: float = 1e-10

    def select(self, x, profile, cfg):
        _check_selection(x, profile, cfg)
        picked = greedy_rank_sampling(x, profile, cfg.r, self.rank_tol)
        return _finish(x, picked, cfg.r)


@dataclass(frozen=True)
class TopFraction:
    q: float = 0.5

    def select(self, x, profile, cfg):
        _check_selection(x, profile, cfg)
        q = _real(self.q, "fraction q", above=0, below=1)
        keep = int(np.ceil((1.0 - q) * x.shape[1]))
        return _finish(x, _top_k(profile, keep), cfg.r)


@dataclass(frozen=True)
class FixedCount:
    count: int = 20

    def select(self, x, profile, cfg):
        _check_selection(x, profile, cfg)
        count = _integer(self.count, "column count", cfg.r)
        return _finish(x, _top_k(profile, count), cfg.r)


@dataclass(frozen=True)
class Adaptive:
    """Sketch-and-deflate selection.

    ``k`` controls the sketch dimension k*r.  ``upsilon`` is the
    residual-norm floor below which a column is considered used up;
    None picks 0.2 times the median sketched column norm, a sensible
    default for noisy data (keep the explicit 0.0 for clean data).

    ``passes=h > 1`` is the multi-round variant for noisy data: round i
    sketches with seed ``(cfg.seed, i)``, its picks leave the candidate
    pool, and the union of all h*r picks is truncated to its top-r
    singular subspace.  It needs h*r usable columns.
    """

    k: int = 2
    upsilon: float | None = 0.0
    passes: int = 1

    def select(self, x, profile, cfg):
        _check_selection(x, profile, cfg)
        h = _integer(self.passes, "pass count h", 1)
        if x.shape[1] < h * cfg.r:
            raise NumericalError(
                f"{x.shape[1]} usable columns cannot supply h*r = {h * cfg.r} picks"
            )
        # the weights every round's sketch is scaled by, found once
        y, w = _unit_scale(x, 1)
        if h == 1:
            picked = adaptive_sampling(y, profile, cfg.r, self.k, self.upsilon, cfg.seed, w=w)
            return _finish(x, picked, cfg.r)
        pool = np.arange(x.shape[1])
        picked = []
        for i in range(h):
            local = adaptive_sampling(
                y, profile, cfg.r, self.k, self.upsilon, (cfg.seed, i), pool=pool, w=w
            )
            picked.extend(pool[local])
            pool = np.delete(pool, local)
        return _finish(x, np.array(picked), cfg.r)


@dataclass(frozen=True)
class CopConfig:
    """Everything cop() needs besides the data.

    ``seed`` feeds the sketch of the Adaptive strategy; the other
    strategies are deterministic.
    """

    r: int
    p: int = 2
    strategy: object = GreedyRank()
    seed: int = 0

    def __post_init__(self):
        _integer(self.r, "target rank r", 1)
        _power(self.p)


@dataclass(frozen=True)
class CopResult:
    """basis: recovered orthonormal basis, exactly r columns.
    sampled: indices (into the input matrix) of the columns whose span
    was used.  profile: coherence values of the surviving columns.
    dropped: indices of the all-zero columns, the only ones discarded.
    unique: False when sigma_r of the sampled columns is tied with
    sigma_{r+1}, or when they span fewer than r dimensions, so the
    subspace was not determined by the sampled columns alone.
    seconds: the seconds cop's stages took, {"normalize": s, "coherence":
    s, "select": s} in that order, which ``cohpca bench`` reports; ``==``
    ignores them, as they are read off the clock.  "normalize" times the
    scan for all-zero columns and their removal; the column weights are
    found inside ``coherence`` and timed with it."""

    basis: np.ndarray
    sampled: np.ndarray
    profile: CoherenceProfile
    dropped: np.ndarray
    unique: bool = True
    seconds: dict = field(default=None, compare=False)


# greedy_rank_sampling and adaptive_sampling are looked up by name, so a wrapper
# set on the module sees every call; the strategies hold their defaults and checks.


def greedy_rank_sampling(x, profile, r, rank_tol):
    """Indices of the first r columns, by decreasing coherence, that are
    pairwise linearly independent.

    Each candidate is normalized by ``normalize_columns`` on its own, and
    kept only if its residual after projection onto the span of the
    already-kept columns exceeds ``rank_tol`` times its norm.  Ties in
    coherence break toward the lower index.  Raises when the candidates
    are exhausted before r picks.
    """
    _real(rank_tol, "rank tolerance rank_tol", 0)
    values = np.asarray(profile.values, dtype=np.float64)
    order = np.argsort(-values, kind="stable")
    picked = []
    q = np.empty((x.shape[0], r))
    for idx in order:
        col = normalize_columns(x[:, idx : idx + 1]).x[:, 0]
        resid = col - q[:, : len(picked)] @ (q[:, : len(picked)].T @ col)
        norm = np.linalg.norm(resid)
        if norm > rank_tol * np.linalg.norm(col):
            q[:, len(picked)] = resid / norm
            picked.append(int(idx))
            if len(picked) == r:
                return np.array(picked)
    raise NumericalError(
        f"only {len(picked)} linearly independent columns found, need r={r}"
    )


def _top_k(profile, k):
    # the k largest values (all of them when k > n), ties to the lower
    # index: the first k of a stable argsort of -values, but only the
    # columns at or above the k-th largest value are sorted
    neg = -np.asarray(profile.values)
    if 0 < k < neg.size:
        cut = np.partition(neg, k - 1)[k - 1]
        # a NaN sorts last, so a NaN cut means fewer than k numbers
        if cut == cut:
            cand = np.flatnonzero(neg <= cut)
            return cand[np.argsort(neg[cand], kind="stable")[:k]]
    return np.argsort(neg, kind="stable")[:k]


def adaptive_sampling(x, profile, r, k, upsilon, seed, phi=None, pool=None, *, w):
    """Sketch-and-deflate selection of r independent columns.

    The data is sketched to k*r <= m dimensions (Gaussian, seeded; pass
    ``phi`` to pin the sketch, e.g. the identity in tests), and each
    sketched column is multiplied by its weight 1 / ||x_k||, so the
    sketch is that of the columns at unit length.  ``x`` and ``w`` are
    the pair ``linalg._unit_scale(x, 1)`` returns, which ``Adaptive``
    makes once for all its rounds.  (The sketch is linear in the
    columns, so the band of the p=1 walk, which multiplies them in
    pairs, covers it.)  Then r times: columns whose current sketched
    norm is at most ``upsilon`` are retired, the highest-coherence live
    column is picked (ties to the lower index), and its direction is
    deflated out of the sketch.
    ``upsilon=None`` uses 0.2 times the median initial sketched norm.
    Raises when every column is retired before r picks.

    ``pool``, an index array into the columns of ``x`` and ``profile``,
    restricts the candidates to those columns: all of ``x`` is sketched,
    then only the pool's columns are kept, so ``x`` is never copied.  The
    returned indices, and the median behind ``upsilon=None``, are then
    over the pool.
    """
    _integer(k, "sketch factor k", 1)
    _integer(k * r, "sketch dimension k*r", high=("m", x.shape[0]))
    values = np.array(profile.values, dtype=np.float64, copy=True)
    sketch = _sketch(x, k * r, seed, phi=phi)
    sketch *= w
    if pool is not None:
        # np.take keeps the sketch C-ordered, the layout whose norms and
        # products give the same bits as sketching the pool's columns alone
        sketch = np.take(sketch, pool, axis=1)
        values = values[pool]
    norms = np.linalg.norm(sketch, axis=0)
    if upsilon is None:
        upsilon = 0.2 * float(np.median(norms))
    _real(upsilon, "threshold upsilon", 0)
    picked = []
    for _ in range(r):
        values[norms <= upsilon] = 0.0
        if not np.any(values > 0.0):
            raise NumericalError(
                f"candidate pool exhausted after {len(picked)} of {r} picks"
            )
        j = int(np.argmax(values))
        values[j] = 0.0
        picked.append(j)
        f = sketch[:, j].copy()
        norm = np.linalg.norm(f)
        if norm <= 0.0:
            raise NumericalError(f"picked column {j} vanished in the sketch")
        f /= norm
        sketch -= np.outer(f, f @ sketch)
        norms = np.linalg.norm(sketch, axis=0)
    return np.array(picked)


def _finish(x, picked, r):
    # normalization is per column, so the picks get the bits they would
    # have as columns of normalize_columns(x)
    y = normalize_columns(x[:, picked]).x
    if min(y.shape) < r:
        raise NumericalError(f"sampled set of {y.shape[1]} columns cannot span r={r}")
    top = top_r_singular_subspace(y, r)
    return picked, top.basis, top.unique


def cop(d, cfg):
    """Recover an r-dimensional subspace from outlier-ridden columns.

    Drops only all-zero columns, computes the coherence profile of the
    rest at unit length, selects columns per ``cfg.strategy``, and returns
    the span of the selection, normalized.  Indices in the result refer
    to columns of ``d`` as given.  Fewer than r usable columns raise
    ``NumericalError`` before the kernel runs.

    No normalized copy of ``d`` is made: the kernel weights the raw
    columns, and the strategy normalizes only the columns it reads.  A
    matrix with an all-zero column costs one copy of its other columns.
    """
    if not hasattr(cfg.strategy, "select"):
        raise DataError(f"unknown sampling strategy {cfg.strategy!r}")
    t0 = time.perf_counter()
    d = _as_2d(d)
    kept = np.flatnonzero(_tops(d))
    if kept.size == 0:
        raise DataError("all columns are zero")
    dropped = np.delete(np.arange(d.shape[1]), kept)
    if dropped.size:
        d = np.take(d, kept, axis=1)
    if kept.size < cfg.r:
        raise NumericalError(f"only {kept.size} usable columns for target rank r={cfg.r}")
    t1 = time.perf_counter()
    prof = coherence(d, cfg.p)
    t2 = time.perf_counter()
    picked, basis, unique = cfg.strategy.select(d, prof, cfg)
    seconds = {"normalize": t1 - t0, "coherence": t2 - t1, "select": time.perf_counter() - t2}
    return CopResult(basis, kept[picked], prof, dropped, unique, seconds)


def cop_multipass(d, cfg, h):
    """``cop`` with ``cfg.strategy``, which must be Adaptive, set to ``passes=h``.

    Kept only as an alias under this name, because the benchmark harness
    calls it with the keyword ``h`` and times it as its ``pursuit.cop``
    layer; new code passes ``Adaptive(passes=h)`` to ``cop``.
    """
    if not isinstance(cfg.strategy, Adaptive):
        raise DataError("cop_multipass requires an Adaptive strategy")
    return cop(d, replace(cfg, strategy=replace(cfg.strategy, passes=h)))


def spca(d, r):
    """Plain spherical PCA baseline: normalize columns, truncated SVD.

    Same normalization path as cop(), no outlier handling at all.
    """
    x, _ = normalize_columns(d)
    r = _integer(r, "target rank r", 1, ("m", x.shape[0]))
    if x.shape[1] < r:
        raise NumericalError(f"cannot extract r={r} directions from shape {x.shape}")
    return top_r_singular_subspace(x, r).basis


def residual_outliers(d, basis, threshold=0.2):
    """Flag columns far from a subspace: relative residual > threshold.

    Returns an int array with 0 for inliers and 1 for outliers (the
    labeling convention of the data models).  The columns are measured
    through ``normalize_columns``, so the residual of a unit column is
    the relative one, and an all-zero column, the only kind that rule
    drops, counts as an outlier.  ``basis`` must be orthonormal with one
    row per row of ``d``.
    """
    _real(threshold, "threshold", 0)
    x, kept = normalize_columns(d)
    basis = _require_orthonormal(basis, "basis")
    if basis.shape[0] != x.shape[0]:
        raise DataError(
            f"basis rows {basis.shape[0]} do not match data rows {x.shape[0]}"
        )
    out = np.ones(np.shape(d)[1], dtype=np.int64)
    out[kept] = np.linalg.norm(x - basis @ (basis.T @ x), axis=0) > threshold
    return out
