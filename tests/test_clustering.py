"""Subspace assignment, clustering metrics and label correction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohpca.clustering import (
    assign_to_subspaces,
    clustering_error,
    correct_clustering,
)
from cohpca.errors import DataError, NumericalError
from cohpca.models import gen_union, gen_unstructured
from cohpca.pursuit import CopConfig, TopFraction, cop, residual_outliers
from cohpca.rng import stream

from oracles import brute_assign, brute_clustering_error


def random_bases(m, dims, seed):
    rng = np.random.default_rng(seed)
    return [np.linalg.qr(rng.standard_normal((m, r)))[0] for r in dims]


# ---- pin the assignment oracle on a hand case ----


def test_assign_oracle_hand_case():
    e = np.eye(3)
    bases = [e[:, :1], e[:, 1:2]]  # span(e1) and span(e2)
    d = np.column_stack([e[:, 0], e[:, 1], (2 * e[:, 0] + e[:, 1])])
    assert brute_assign(d, bases).tolist() == [0, 1, 0]


def test_assign_matches_oracle_on_random_cases():
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        bases = random_bases(8, (2, 3, 2), seed)
        d = rng.standard_normal((8, 15))
        got = assign_to_subspaces(d, bases)
        np.testing.assert_array_equal(got, brute_assign(d, bases))


def test_assign_ties_go_to_the_lowest_cluster():
    e = np.eye(3)
    bases = [e[:, :1], e[:, :1]]  # identical subspaces: every score ties
    d = np.column_stack([e[:, 0], e[:, 0] * 2.0])
    assert assign_to_subspaces(d, bases).tolist() == [0, 0]


def test_assign_zero_columns_keep_their_fallback_label():
    e = np.eye(3)
    bases = [e[:, :1], e[:, 1:2]]
    d = np.column_stack([e[:, 0], np.zeros(3)])
    got = assign_to_subspaces(d, bases, fallback=np.array([1, 1]))
    assert got.tolist() == [0, 1]
    with pytest.raises(DataError, match="column 1 .*fallback"):
        assign_to_subspaces(d, bases)
    with pytest.raises(DataError):
        assign_to_subspaces(d, [])


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300])
def test_assign_zero_columns_are_relative_to_the_largest(scale):
    e = np.eye(3)
    d = np.column_stack([e[:, 0], e[:, 1], 1e-15 * e[:, 0]]) * scale
    got = assign_to_subspaces(d, [e[:, :1], e[:, 1:2]], fallback=np.array([1, 0, 1]))
    assert got.tolist() == [0, 1, 1]


def test_assign_rejects_a_fallback_or_basis_of_the_wrong_shape():
    e = np.eye(3)
    bases = [e[:, :1], e[:, 1:2]]
    d = np.column_stack([e[:, 0], np.zeros(3)])
    with pytest.raises(DataError, match="fallback"):
        assign_to_subspaces(d, bases, fallback=np.array([1]))
    with pytest.raises(DataError, match="basis 1 .*3 rows"):
        assign_to_subspaces(d, [e[:, :1], np.eye(4)[:, :1]])
    with pytest.raises(DataError, match="basis 0"):
        assign_to_subspaces(d, [e[:, 0]])


def test_assign_rejects_a_basis_that_is_not_orthonormal():
    # the column e1 + 1.5 e2 projects onto e2 most; a scaled or NaN
    # first basis used to flip its label to 0 without an error
    e = np.eye(3)
    d = (e[:, 0] + 1.5 * e[:, 1])[:, None]
    assert assign_to_subspaces(d, [e[:, :1], e[:, 1:2]]).tolist() == [1]
    for bad in (2.0 * e[:, :1], np.full((3, 1), np.nan)):
        with pytest.raises(DataError, match="basis 0"):
            assign_to_subspaces(d, [bad, e[:, 1:2]])


# ---- clustering error ----


def test_clustering_error_hand_cases():
    truth = np.array([0, 0, 0, 1, 1])
    assert clustering_error(truth, truth) == 0.0
    assert clustering_error(1 - truth, truth) == 0.0  # swap is free
    pred = np.array([0, 0, 1, 1, 1])
    assert clustering_error(pred, truth) == pytest.approx(0.2)


def test_clustering_error_matches_oracle():
    rng = stream(77)
    for _ in range(20):
        L = int(rng.integers(2, 7))
        truth = rng.integers(0, L, 30)
        truth[: L] = np.arange(L)  # every cluster present
        pred = rng.integers(0, L, 30)
        got = clustering_error(pred, truth)
        assert got == pytest.approx(brute_clustering_error(pred, truth, L))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clustering_error_is_relabeling_invariant(seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 3, 24)
    truth[:3] = [0, 1, 2]
    pred = rng.integers(0, 3, 24)
    table = rng.permutation(3)
    assert clustering_error(table[pred], truth) == clustering_error(pred, truth)


def test_clustering_error_validation():
    with pytest.raises(DataError):
        clustering_error(np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(DataError):
        clustering_error(np.array([0, 5]), np.array([0, 1]))
    with pytest.raises(DataError):
        clustering_error(np.array([0, 1]), np.array([-1, 1]))
    # no cap on the cluster count: a relabeled truth is free at any L
    rng = stream(78)
    for L in (9, 20):
        truth = np.repeat(np.arange(L), 3)
        assert clustering_error(rng.permutation(L)[truth], truth) == 0.0
    # L=12, 4 columns each, relabeled k -> 11-k; one column of each of
    # clusters 0-4 moves to label 0, which cluster 11 keeps: 5 mismatches
    truth = np.repeat(np.arange(12), 4)
    pred = 11 - truth
    pred[[0, 4, 8, 12, 16]] = 0
    assert clustering_error(pred, truth) == pytest.approx(5 / 48)


def test_clustering_error_rejects_empty_label_vectors():
    empty = np.array([], dtype=np.int64)
    with pytest.raises(DataError, match="empty"):
        clustering_error(empty, empty)


# ---- average classification error ----


def test_ace_of_recovered_labels_is_small():
    ds = gen_unstructured(100, 5, 100, 300, seed=13)
    basis = cop(ds.d, CopConfig(r=5)).basis
    pred = residual_outliers(ds.d, basis)
    # the mean of the two per-class error rates (0 = inlier, 1 = outlier)
    per_class = [np.mean(pred[ds.labels == c] != c) for c in (0, 1)]
    assert np.mean(per_class) <= 0.05


# ---- correction loop ----


def corrupted_union(seed, m=30, dims=(3, 3), sizes=(90, 90), frac=0.15):
    ds = gen_union(m, dims, sizes, seed=seed)
    rng = stream(seed, 1)
    n = ds.d.shape[1]
    flip = rng.choice(n, int(round(frac * n)), replace=False)
    labels = ds.labels.copy()
    labels[flip] = 1 - labels[flip]
    return ds, labels


def test_correction_fixes_corrupted_labels():
    ds, labels = corrupted_union(21)
    res = correct_clustering(ds.d, labels, r=3, iterations=4, truth=ds.labels)
    assert res.trajectory[0] == pytest.approx(0.15)
    assert res.trajectory[-1] <= 0.02
    assert len(res.bases) == 2


def test_correction_reaches_a_fixed_point():
    ds, labels = corrupted_union(22)
    res = correct_clustering(ds.d, labels, r=3, iterations=8, truth=ds.labels)
    assert res.converged_at is not None
    # the final labels reproduce themselves under one more reassignment
    again = correct_clustering(ds.d, res.labels, r=3, iterations=1)
    np.testing.assert_array_equal(again.labels, res.labels)
    assert again.converged_at == 1


def test_correction_without_truth_has_no_trajectory():
    ds, labels = corrupted_union(23)
    res = correct_clustering(ds.d, labels, r=3, iterations=2)
    assert res.trajectory is None


def test_correction_names_the_starved_cluster_and_round():
    ds = gen_union(20, (3, 3), (50, 50), seed=24)
    labels = np.zeros(100, dtype=int)
    labels[:2] = 1  # cluster 1 starts with 2 < r columns
    with pytest.raises(NumericalError, match=r"cluster 1 has 2 columns.*iteration 1"):
        correct_clustering(ds.d, labels, r=3, iterations=3)


def test_correction_validation():
    ds = gen_union(20, (2, 2), (30, 30), seed=25)
    with pytest.raises(DataError):
        correct_clustering(ds.d, ds.labels[:10], r=2, iterations=2)
    with pytest.raises(DataError):
        correct_clustering(ds.d, ds.labels, r=2, iterations=0)
    with pytest.raises(DataError, match="iterations=2.0 must be an integer"):
        correct_clustering(ds.d, ds.labels, r=2, iterations=2.0)
    with pytest.raises(DataError):
        correct_clustering(ds.d, ds.labels - 1, r=2, iterations=2)
    # cop would fit rank cfg.r while the starvation check uses r
    cfg = CopConfig(r=1, strategy=TopFraction(0.5))
    with pytest.raises(DataError, match=r"r=2 does not match cfg.r=1"):
        correct_clustering(ds.d, ds.labels, r=2, iterations=2, cfg=cfg)


def test_correction_accepts_custom_config():
    ds, labels = corrupted_union(26)
    cfg = CopConfig(r=3, strategy=TopFraction(0.4))
    res = correct_clustering(ds.d, labels, r=3, iterations=3, cfg=cfg, truth=ds.labels)
    assert res.trajectory[-1] <= res.trajectory[0]


# ---- column scale, sign and order ----


OUTLIERS = gen_unstructured(20, 2, 10, 30, seed=1)
UNION = gen_union(20, (2, 2), (20, 20), seed=2)
START = np.where(np.arange(40) % 7 == 0, 1 - UNION.labels, UNION.labels)
BASIS = cop(OUTLIERS.d, CopConfig(r=2)).basis
BASES = correct_clustering(UNION.d, START, r=2, iterations=4).bases


def labels_of_all_three(outliers, union, start):
    """Labels of residual_outliers, assign_to_subspaces and correct_clustering."""
    return (
        residual_outliers(outliers, BASIS),
        assign_to_subspaces(union, BASES),
        correct_clustering(union, start, r=2, iterations=4).labels,
    )


AT_SCALE_ONE = labels_of_all_three(OUTLIERS.d, UNION.d, START)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_labels_hold_at_the_ends_of_the_float_range(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = labels_of_all_three(OUTLIERS.d * scale, UNION.d * scale, START)
    for g, want in zip(got, AT_SCALE_ONE):
        np.testing.assert_array_equal(g, want)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(-1000, 1000),
    shifts=st.lists(st.integers(-4, 4), min_size=40, max_size=40),
    flips=st.lists(st.booleans(), min_size=40, max_size=40),
    order=st.permutations(range(40)),
)
def test_labels_ignore_column_scale_sign_and_order(k, shifts, flips, order):
    # column j is scaled by +-2**(k + shifts[j]): exact in float64, so the
    # normalized columns keep their bits; the permutation is mapped back
    factor = np.ldexp(np.where(flips, -1.0, 1.0), k + np.array(shifts))
    order = np.array(order)
    got = labels_of_all_three(
        (OUTLIERS.d * factor)[:, order], (UNION.d * factor)[:, order], START[order]
    )
    for g, want in zip(got, AT_SCALE_ONE):
        np.testing.assert_array_equal(g, want[order])


def _eye_with(value):
    d = np.eye(4)
    d[2, 1] = value
    return d


@pytest.mark.parametrize(
    "d, cause",
    [
        pytest.param(_eye_with(np.nan), "NaN or Inf", id="nan"),
        pytest.param(_eye_with(np.inf), "NaN or Inf", id="inf"),
        pytest.param(np.ones(4), r"2-d.*shape \(4,\)", id="1-d"),
        pytest.param(np.zeros((4, 4)), "all columns are zero", id="all-zero"),
        pytest.param(np.zeros((4, 0)), r"non-empty.*shape \(4, 0\)", id="no-columns"),
    ],
)
@pytest.mark.parametrize(
    "label",
    [
        pytest.param(lambda d: residual_outliers(d, np.eye(4)[:, :1]), id="residual"),
        pytest.param(lambda d: assign_to_subspaces(d, [np.eye(4)[:, :1]]), id="assign"),
        pytest.param(
            lambda d: correct_clustering(d, np.zeros(np.shape(d)[-1], int), 1, 1),
            id="correct",
        ),
    ],
)
def test_labelers_name_the_input_they_reject(label, d, cause):
    with pytest.raises(DataError, match=cause):
        label(d)
