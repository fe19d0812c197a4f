"""Synthetic data generators: structure, determinism, moments."""

import math

import numpy as np
import pytest

from cohpca.errors import DataError
from cohpca.linalg import coherence_gram
from cohpca.models import (
    INLIER,
    OUTLIER,
    gen_clustered_inliers,
    gen_noisy,
    gen_structured_outliers,
    gen_union,
    gen_unstructured,
    random_subspace,
    sigma_for_tau,
    unit_sphere,
)
from cohpca.rng import stream

from oracles import mean_abs_dot


def in_span(cols, basis, tol=1e-10):
    resid = cols - basis @ (basis.T @ cols)
    return float(np.abs(resid).max()) <= tol


# ---- pin the moment oracle on a hand case ----


def test_mean_abs_dot_oracle_hand_cases():
    # in R^3 the inner product is uniform on [-1, 1], so E|c| = 1/2
    assert abs(mean_abs_dot(3) - 0.5) < 1e-12
    # for large m the Gaussian limit sqrt(2/(pi m)) takes over
    assert abs(mean_abs_dot(400) / math.sqrt(2 / (math.pi * 400)) - 1.0) < 0.01


# ---- shared generator properties ----

ALL_GENERATORS = [
    lambda seed, shuffle=False, n2=30: gen_unstructured(40, 4, 20, n2, seed, shuffle=shuffle),
    lambda seed, shuffle=False, n2=30: gen_structured_outliers(
        40, 4, 20, n2, 0.5, seed, shuffle=shuffle
    ),
    lambda seed, shuffle=False, n2=30: gen_structured_outliers(
        40, 4, 20, n2, 0.5, seed, inlier_nu=0.3, shuffle=shuffle
    ),
    lambda seed, shuffle=False, n2=30: gen_noisy(40, 4, 20, n2, 0.4, seed, shuffle=shuffle),
    lambda seed, shuffle=False, n2=30: gen_clustered_inliers(
        40, 4, 20, n2, 0.3, seed, shuffle=shuffle
    ),
]


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_generators_are_deterministic(gen):
    a, b = gen(7), gen(7)
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.d, gen(8).d)


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_generator_shapes_and_labels(gen):
    ds = gen(0)
    assert ds.d.shape == (40, 50)
    assert ds.labels.tolist() == [INLIER] * 20 + [OUTLIER] * 30
    assert ds.basis.shape == (40, 4)
    np.testing.assert_allclose(ds.basis.T @ ds.basis, np.eye(4), atol=1e-12)


def test_unstructured_columns_are_exactly_unit():
    norms = np.linalg.norm(gen_unstructured(40, 4, 20, 30, 1).d, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("gen", ALL_GENERATORS[1:])
def test_mixture_columns_have_unit_mean_square(gen):
    # the mixture models divide by sqrt(1 + weight^2), which fixes the
    # expected squared norm at 1 but not each individual column
    sq = np.concatenate(
        [np.linalg.norm(gen((11, t)).d, axis=0) ** 2 for t in range(40)]
    )
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 4 * se
    assert 0.2 < sq.min() and sq.max() < 5.0


@pytest.mark.parametrize(
    "gen", [g for i, g in enumerate(ALL_GENERATORS) if i != 3]
)
def test_inliers_live_in_the_subspace(gen):
    ds = gen(2)
    assert in_span(ds.d[:, ds.labels == INLIER], ds.basis)
    outliers = ds.d[:, ds.labels == OUTLIER]
    resid = outliers - ds.basis @ (ds.basis.T @ outliers)
    assert np.linalg.norm(resid, axis=0).min() > 1e-3


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_shuffle_permutes_consistently(gen):
    plain, mixed = gen(3), gen(3, shuffle=True)
    assert sorted(mixed.labels.tolist()) == sorted(plain.labels.tolist())
    # the multiset of (column, label) pairs is preserved
    key_plain = np.lexsort(plain.d)
    key_mixed = np.lexsort(mixed.d)
    np.testing.assert_allclose(
        plain.d[:, key_plain], mixed.d[:, key_mixed], atol=1e-15
    )
    np.testing.assert_array_equal(plain.labels[key_plain], mixed.labels[key_mixed])


def test_size_validation():
    with pytest.raises(DataError):
        gen_unstructured(10, 11, 5, 5)
    with pytest.raises(DataError):
        gen_unstructured(10, 2, 0, 5)
    with pytest.raises(DataError):
        gen_unstructured(10, 2, 5, -1)
    with pytest.raises(DataError):
        gen_structured_outliers(10, 2, 5, 5, mu=0.0)
    with pytest.raises(DataError):
        gen_noisy(10, 2, 5, 5, sigma=-0.1)
    with pytest.raises(DataError):
        gen_clustered_inliers(10, 2, 5, 5, nu=-1.0)


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_no_outliers_is_allowed(gen, shuffle):
    ds = gen(0, shuffle=shuffle, n2=0)
    assert ds.d.shape == (40, 20)
    assert np.all(ds.labels == INLIER)
    assert ds.clean is None or ds.clean.shape == ds.d.shape


# ---- model-specific structure ----


def test_structured_outliers_share_one_center():
    ds = gen_structured_outliers(30, 3, 10, 25, mu=0.4, seed=5)
    q = ds.aux["outlier_center"]
    dirs = ds.aux["outlier_dirs"]
    b = ds.d[:, ds.labels == OUTLIER]
    # invert the mixture: b * sqrt(1 + mu^2) - q == mu * dirs
    lhs = b * math.sqrt(1 + 0.4**2) - q[:, None]
    np.testing.assert_allclose(lhs, 0.4 * dirs, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=0), 1.0, atol=1e-12)


def test_structured_outliers_concentrate_for_small_mu():
    tight = gen_structured_outliers(50, 3, 10, 40, mu=0.1, seed=6)
    loose = gen_structured_outliers(50, 3, 10, 40, mu=5.0, seed=6)

    def spread(ds):
        b = ds.d[:, ds.labels == OUTLIER]
        return 1.0 - np.abs(b.T @ b[:, :1]).mean()

    assert spread(tight) < 0.05 < spread(loose)


def test_clustered_inliers_concentrate_inside_the_subspace():
    ds = gen_clustered_inliers(40, 4, 30, 10, nu=0.2, seed=7)
    a = ds.d[:, ds.labels == INLIER]
    assert in_span(a, ds.basis)
    center = ds.aux["inlier_center"]
    cosines = np.abs(a.T @ center) / np.linalg.norm(a, axis=0)
    assert cosines.min() > 0.95  # all near the shared direction


def test_noisy_sigma_zero_reproduces_clean_data():
    ds = gen_noisy(30, 3, 12, 8, sigma=0.0, seed=8)
    np.testing.assert_array_equal(ds.d, ds.clean)
    np.testing.assert_allclose(np.linalg.norm(ds.d, axis=0), 1.0, atol=1e-12)


def test_noisy_inliers_leave_the_subspace_but_keep_expected_norm():
    ds = gen_noisy(50, 3, 2000, 1, sigma=0.5, seed=9)
    a = ds.d[:, ds.labels == INLIER]
    assert not in_span(a, ds.basis, tol=1e-6)
    assert in_span(ds.clean[:, ds.labels == INLIER], ds.basis)
    np.testing.assert_array_equal(
        ds.clean[:, ds.labels == OUTLIER], ds.d[:, ds.labels == OUTLIER]
    )
    # E||column||^2 = 1 by the 1/sqrt(1 + sigma^2) scaling
    sq = np.linalg.norm(a, axis=0) ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 3 * se


def test_union_blocks_live_in_their_own_subspaces():
    ds = gen_union(20, (3, 4), (15, 25), seed=10)
    assert ds.d.shape == (20, 40)
    assert ds.labels.tolist() == [0] * 15 + [1] * 25
    assert in_span(ds.d[:, ds.labels == 0], ds.bases[0])
    assert in_span(ds.d[:, ds.labels == 1], ds.bases[1])
    assert not in_span(ds.d[:, ds.labels == 1], ds.bases[0], tol=1e-3)


def test_union_validation():
    with pytest.raises(DataError):
        gen_union(5, (3, 3), (10, 10))  # 6 > 5
    with pytest.raises(DataError):
        gen_union(10, (), ())
    with pytest.raises(DataError):
        gen_union(10, (2, 2), (5,))
    with pytest.raises(DataError):
        gen_union(10, (0, 2), (5, 5))


# ---- Monte Carlo moments against the oracle ----


def test_sphere_dot_moments_match_oracle():
    m = 50
    rng = stream(123)
    u = unit_sphere(rng, m, 20_000)
    v = unit_sphere(rng, m, 20_000)
    dots = np.einsum("ij,ij->j", u, v)
    # second moment is exactly 1/m
    se2 = (dots**2).std(ddof=1) / math.sqrt(len(dots))
    assert abs((dots**2).mean() - 1.0 / m) <= 3 * se2
    # first absolute moment matches the closed form
    se1 = np.abs(dots).std(ddof=1) / math.sqrt(len(dots))
    assert abs(np.abs(dots).mean() - mean_abs_dot(m)) <= 3 * se1


def test_inlier_coherence_expectation():
    # mean squared-coherence of an inlier is exactly (n1-1)/r + n2/m
    m, r, n1, n2 = 100, 10, 50, 100
    means = []
    for trial in range(200):
        ds = gen_unstructured(m, r, n1, n2, seed=(42, trial))
        prof = coherence_gram(ds.d, 2).values
        means.append(prof[ds.labels == INLIER].mean())
    means = np.asarray(means)
    want = (n1 - 1) / r + n2 / m
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - want) <= 3 * se


def test_sigma_for_tau_frozen_and_monte_carlo():
    assert sigma_for_tau(0.0) == 0.0
    assert abs(sigma_for_tau(1.0) - math.sqrt(math.pi / 2)) < 1e-15
    with pytest.raises(DataError):
        sigma_for_tau(-0.5)
    # the noise amplitude |alpha| should average to tau
    tau = 0.7
    draws = np.abs(stream(77).normal(0.0, sigma_for_tau(tau), 1_000_000))
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - tau) <= 3 * se


def test_seed_forms_agree():
    rng = stream(5, 9)
    a = gen_unstructured(10, 2, 5, 5, seed=(5, 9))
    b = gen_unstructured(10, 2, 5, 5, seed=rng)
    np.testing.assert_array_equal(a.d, b.d)


def test_random_subspace_is_orthonormal():
    u = random_subspace(stream(3), 10, 4)
    np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
    with pytest.raises(DataError):
        random_subspace(stream(3), 3, 4)
