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

from .errors import DataError, NumericalError, _as_2d, _integer, _labels
from .linalg import _require_orthonormal, normalize_columns
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
    ``normalize_columns``; ties go to the lowest cluster id.  An
    all-zero column, the only kind that rule drops, keeps its label from
    ``fallback`` (one label per column, each in 0..L-1 for L bases);
    without ``fallback`` it is an error that names it.  Every basis must
    be orthonormal, with one row per row of ``d``.
    """
    x, kept = normalize_columns(d)
    m, n = x.shape[0], np.shape(d)[1]
    if not bases:
        raise DataError("need at least one basis")
    bases = [_require_orthonormal(u, f"basis {k}") for k, u in enumerate(bases)]
    for k, u in enumerate(bases):
        if u.shape[0] != m:
            raise DataError(f"basis {k} has shape {u.shape}, need {m} rows like the data")
    labels = np.empty(n, dtype=np.intp)
    if fallback is not None:
        fallback = _labels(fallback, "fallback")
        if fallback.shape != (n,):
            raise DataError(f"fallback has shape {fallback.shape}, need {n} labels")
        _check_range(fallback, len(bases), "fallback label")
        labels[:] = fallback
    elif kept.size < n:
        dead = np.setdiff1d(np.arange(n), kept)[0]
        raise DataError(f"column {dead} has zero norm, no fallback")
    labels[kept] = np.argmax([np.linalg.norm(u.T @ x, axis=0) for u in bases], axis=0)
    return labels


def _check_range(labels, count, what):
    # labels from _labels must lie in 0..count-1
    wrong = labels[(labels < 0) | (labels >= count)]
    if wrong.size:
        raise DataError(f"{what} {wrong[0]} is not in 0..{count - 1}")


def clustering_error(pred, truth):
    """Smallest misclassified fraction over all relabelings of ``pred``.

    Labels must be 0..L-1 with L taken from ``truth``.  The best
    relabeling is found exactly, for any L, as a maximum-weight matching
    on the table of (pred, truth) label co-occurrence counts, over the
    labels present; absent labels would only add zero rows and columns.
    """
    pred = _labels(pred, "pred")
    truth = _labels(truth, "truth")
    if pred.shape != truth.shape:
        raise DataError(f"label vectors differ in length: {pred.shape} vs {truth.shape}")
    if truth.size == 0:
        raise DataError("label vectors are empty")
    n_clusters = int(truth.max()) + 1
    _check_range(truth, n_clusters, "truth label")
    _check_range(pred, n_clusters, "pred label")
    from scipy.optimize import linear_sum_assignment  # scipy loads on first use only

    pred_ids, pred = np.unique(pred, return_inverse=True)
    truth_ids, truth = np.unique(truth, return_inverse=True)
    counts = np.zeros((pred_ids.size, truth_ids.size), dtype=np.int64)
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
    labels = _labels(labels, "initial labels")
    if labels.shape != (d.shape[1],):
        raise DataError(f"need one label per column, got {labels.shape}")
    _integer(iterations, "iterations", 1)
    _check_range(labels, d.shape[1], "initial label")
    n_clusters = int(labels.max()) + 1
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
