"""Subspace assignment, clustering metrics and label correction."""

import re
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
from cohpca.io import write_labels
from cohpca.models import gen_union, gen_unstructured
from cohpca.pursuit import CopConfig, TopFraction, cop, residual_outliers, spca
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
    # they are not: the column at 1e-15 times the others is labelled by its
    # direction, and only the all-zero column keeps its fallback label
    e = np.eye(3)
    d = np.column_stack([e[:, 0], e[:, 1], 1e-15 * e[:, 0], np.zeros(3)]) * scale
    fallback = np.array([1, 0, 1, 1])
    got = assign_to_subspaces(d, [e[:, :1], e[:, 1:2]], fallback=fallback)
    assert got.tolist() == [0, 1, 0, 1]


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


@pytest.mark.parametrize(
    "label, message",
    [
        (1.7, "fallback: labels must be integers, got 1.7"),
        (7, r"fallback label 7 is not in 0\.\.1"),
        (-3, r"fallback label -3 is not in 0\.\.1"),
    ],
)
def test_assign_rejects_a_fallback_label_outside_the_clusters(label, message):
    # labels are 0..L-1 for L bases: 1.7 is not truncated to 1, and 7 or
    # -3 are not returned as labels
    e = np.eye(3)
    d = np.column_stack([e[:, 0], np.zeros(3), e[:, 1]])
    with pytest.raises(DataError, match=message):
        assign_to_subspaces(d, [e[:, :1], e[:, 1:2]], fallback=[0, label, 0])


# ---- one label rule for every entry point ----


def _correct(labels):
    e = np.eye(3)
    return correct_clustering(np.column_stack([e[:, 0], e[:, 0], e[:, 1]]), labels, 1, 1)


LABEL_ENTRY_POINTS = [
    pytest.param(lambda labels, tmp_path: write_labels(tmp_path / "l.txt", labels), id="write"),
    pytest.param(
        lambda labels, tmp_path: assign_to_subspaces(
            np.eye(3), [np.eye(3)[:, :1], np.eye(3)[:, 1:]], fallback=labels
        ),
        id="fallback",
    ),
    pytest.param(lambda labels, tmp_path: _correct(labels), id="correct"),
    pytest.param(lambda labels, tmp_path: clustering_error(labels, [0, 1, 0]), id="pred"),
    pytest.param(lambda labels, tmp_path: clustering_error([0, 1, 0], labels), id="truth"),
]


@pytest.mark.parametrize(
    "labels, message",
    [
        pytest.param([0, 0.7, 0], "labels must be integers, got 0.7", id="0.7"),
        pytest.param([0, np.nan, 0], "label list contains NaN or Inf", id="nan"),
        pytest.param([0, "0", 0], "labels must be integers, got dtype <U", id="str"),
        pytest.param([[0, 1, 0]], r"labels must be 1-d, got shape \(1, 3\)", id="2-d"),
        pytest.param(
            [0, 2**63, 0], re.escape("labels must fit in int64, got 9.223372036854776e+18"),
            id="2**63",
        ),
    ],
)
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_every_label_entry_point_names_the_label_it_rejects(entry, labels, message, tmp_path):
    # 0.7 used to become 0 and "0" to parse in correct_clustering, and
    # clustering_error raised raw numpy errors or scored a 2-d pred
    with pytest.raises(DataError, match=message):
        entry(labels, tmp_path)


def test_label_entry_points_accept_integer_valued_floats(tmp_path):
    labels = [0.0, 1.0, 0.0]
    write_labels(tmp_path / "l.txt", labels)
    e = np.eye(3)
    assert assign_to_subspaces(e, [e[:, :1], e[:, 1:]], fallback=labels).tolist() == [0, 1, 1]
    assert _correct(labels).labels.tolist() == _correct([0, 1, 0]).labels.tolist()
    assert clustering_error(labels, [0, 1, 0]) == 0.0
    assert clustering_error([0, 1, 0], labels) == 0.0


def test_correction_rejects_a_label_past_the_column_count():
    # a label of 10**12 used to size a count table of 10**12 entries
    with pytest.raises(DataError, match=r"initial label 1000000000000 is not in 0\.\.2"):
        _correct([0, 10**12, 0])


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


def test_clustering_error_counts_only_the_labels_present():
    # a table over 0..10**9 would need 8e18 bytes
    assert clustering_error([0, 1], [0, 10**9]) == 0.0
    assert clustering_error([0, 0, 1], [0, 10**9, 10**9]) == pytest.approx(1 / 3)
    assert clustering_error([0.0, 1.0], [0, 1]) == 0.0


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
    shifts=st.lists(st.integers(-1000, 1000), min_size=40, max_size=40),
    flips=st.lists(st.booleans(), min_size=40, max_size=40),
    order=st.permutations(range(40)),
)
def test_labels_ignore_column_scale_sign_and_order(shifts, flips, order):
    # column j is scaled by +-2**shifts[j]: exact in float64, so the
    # normalized columns keep their bits; the permutation is mapped back
    factor = np.ldexp(np.where(flips, -1.0, 1.0), np.array(shifts))
    order = np.array(order)
    got = labels_of_all_three(
        (OUTLIERS.d * factor)[:, order], (UNION.d * factor)[:, order], START[order]
    )
    for g, want in zip(got, AT_SCALE_ONE):
        np.testing.assert_array_equal(g, want[order])


# spca answers with a basis, the other two with labels
OTHER_LABELERS = {
    "spca": (OUTLIERS.d, lambda d: spca(d, 2)),
    "residual_outliers": (OUTLIERS.d, lambda d: residual_outliers(d, BASIS)),
    "assign_to_subspaces": (UNION.d, lambda d: assign_to_subspaces(d, BASES)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", OTHER_LABELERS)
def test_spca_and_the_labelers_ignore_column_scale_over_the_float64_range(name, seed):
    # column j times +-2**k[j], k in [-1000, 1000], then permuted: exact in
    # float64, so mapping the columns back restores d bit for bit
    d, run = OTHER_LABELERS[name]
    rng = np.random.default_rng(seed)
    n = d.shape[1]
    factor = np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-1000, 1001, n))
    order = rng.permutation(n)
    moved = (d * factor)[:, order]
    back = np.empty_like(moved)
    back[:, order] = moved
    assert np.array_equal(back / factor, d)
    want, got = run(d), run(moved)
    if name == "spca":
        np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(got, want[order])


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
