"""Cleaning up a rough subspace clustering with robust per-cluster bases.

Given data whose columns come from a union of low-dimensional subspaces
and an initial (possibly quite wrong) cluster assignment, each round
fits a robust basis to every cluster -- treating that cluster's
misassigned members as outliers -- and then reassigns every column to
the subspace it projects onto most.  A modest number of rounds usually
drives the misclassification rate near zero.

Cluster labels are integers 0..L-1 throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, _integer
from .linalg import _as_2d, _require_orthonormal, normalize_columns
from .pursuit import CopConfig, TopFraction, cop

__all__ = [
    "assign_to_subspaces",
    "clustering_error",
    "CorrectionResult",
    "correct_clustering",
]


def assign_to_subspaces(d, bases, fallback=None):
    """Assign every column to the basis it projects onto most strongly.

    Scores are ||U_k' x||_2 on the columns scaled to unit norm by
    ``normalize_columns``; ties go to the lowest cluster id.  A column
    that rule drops as numerically zero keeps its label from
    ``fallback`` (one label per column); without ``fallback`` it is an
    error that names it.  Every basis must be orthonormal, with one row
    per row of ``d``.
    """
    x, kept = normalize_columns(d)
    m, n = x.shape[0], np.shape(d)[1]
    if not bases:
        raise DataError("need at least one basis")
    bases = [_require_orthonormal(u, f"basis {k}") for k, u in enumerate(bases)]
    for k, u in enumerate(bases):
        if u.shape[0] != m:
            raise DataError(f"basis {k} has shape {u.shape}, need {m} rows like the data")
    if fallback is not None and np.shape(fallback) != (n,):
        raise DataError(
            f"fallback has shape {np.shape(fallback)}, need one label per column ({n})"
        )
    labels = np.empty(n, dtype=np.intp)
    if kept.size < n:
        if fallback is None:
            dead = np.setdiff1d(np.arange(n), kept)[0]
            raise DataError(f"column {dead} has zero norm, no fallback")
        labels[:] = fallback
    labels[kept] = np.argmax([np.linalg.norm(u.T @ x, axis=0) for u in bases], axis=0)
    return labels


def clustering_error(pred, truth):
    """Smallest misclassified fraction over all relabelings of ``pred``.

    Labels must be 0..L-1 with L taken from ``truth``.  The best
    relabeling is found exactly, for any L, as a maximum-weight matching
    on the L x L table of (pred, truth) label co-occurrence counts.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError(f"label vectors differ in length: {pred.shape} vs {truth.shape}")
    if truth.size == 0:
        raise DataError("label vectors are empty")
    n_clusters = int(truth.max()) + 1
    if min(pred.min(), truth.min()) < 0 or pred.max() >= n_clusters:
        raise DataError(f"labels fall outside 0..{n_clusters - 1}, the truth's label range")
    from scipy.optimize import linear_sum_assignment  # scipy loads on first use only

    counts = np.zeros((n_clusters, n_clusters), dtype=np.int64)
    np.add.at(counts, (pred, truth), 1)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return (len(truth) - int(counts[rows, cols].sum())) / len(truth)


@dataclass(frozen=True)
class CorrectionResult:
    """labels: final assignment.  bases: final per-cluster bases.
    trajectory: clustering error per iteration (index 0 = the initial
    assignment) when ground truth was supplied, else None.
    converged_at: iteration after which the assignment stopped
    changing, or None if it was still moving when the budget ran out."""

    labels: np.ndarray
    bases: tuple
    trajectory: list | None
    converged_at: int | None


def correct_clustering(d, labels, r, iterations, cfg=None, truth=None):
    """Iteratively refit robust per-cluster bases and reassign columns.

    ``labels`` is the initial assignment with values 0..L-1; every
    cluster must keep at least r columns at the start of each round or
    the run aborts with an error naming the round.  ``cfg`` defaults to
    coherence ranking with the top half of each cluster retained, which
    tolerates heavily polluted initial clusters.  Stops early at a fixed
    point.
    """
    d = _as_2d(d)
    labels = np.asarray(labels, dtype=np.int64).copy()
    if labels.shape != (d.shape[1],):
        raise DataError(f"need one label per column, got {labels.shape}")
    _integer(iterations, "iterations", 1)
    n_clusters = int(labels.max()) + 1
    if labels.min() < 0:
        raise DataError("labels must be non-negative")
    if cfg is None:
        cfg = CopConfig(r=r, strategy=TopFraction(0.5))
    elif cfg.r != r:
        raise DataError(f"r={r} does not match cfg.r={cfg.r}")
    trajectory = [clustering_error(labels, truth)] if truth is not None else None
    bases = None
    converged_at = None
    for it in range(1, iterations + 1):
        counts = np.bincount(labels, minlength=n_clusters)
        weak = np.flatnonzero(counts < r)
        if weak.size:
            raise NumericalError(
                f"cluster {int(weak[0])} has {int(counts[weak[0]])} columns"
                f" (< r={r}) at iteration {it}"
            )
        bases = tuple(cop(d[:, labels == k], cfg).basis for k in range(n_clusters))
        new_labels = assign_to_subspaces(d, bases, fallback=labels)
        if truth is not None:
            trajectory.append(clustering_error(new_labels, truth))
        if np.array_equal(new_labels, labels):
            converged_at = it
            break
        labels = new_labels
    return CorrectionResult(labels, bases, trajectory, converged_at)
