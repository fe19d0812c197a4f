"""Numeric core: normalization, coherence, bases, recovery error."""

import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohpca import kernels
from cohpca.errors import DataError, NumericalError
from cohpca.experiments import saliency
from cohpca.io import read_matrix, write_matrix, write_pgm
from cohpca.linalg import (
    CoherenceProfile,
    coherence,
    coherence_gram,
    normalize_columns,
    random_projection,
    recovery_error,
    top_r_singular_subspace,
)
from cohpca.models import gen_noisy, gen_unstructured, sigma_for_tau
from cohpca.pursuit import Adaptive, CopConfig, CopResult, cop, residual_outliers, spca

from oracles import naive_coherence, orthonormal_basis, subspace_distance


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def random_basis(m, r, seed):
    q, _ = np.linalg.qr(random_matrix(m, r, seed))
    return q


# ---- normalization ----


def test_normalize_divides_by_column_norms():
    d = np.array([[3.0, 0.0], [4.0, 2.0]])
    x, kept = normalize_columns(d)
    np.testing.assert_allclose(x, [[0.6, 0.0], [0.8, 1.0]])
    assert kept.tolist() == [0, 1]


def test_normalize_lenient_drops_and_maps_indices():
    d = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    x, kept = normalize_columns(d)
    assert kept.tolist() == [0, 2]
    np.testing.assert_allclose(x, [[1.0, 1.0], [0.0, 0.0]])


def test_normalize_drops_columns_relative_to_the_largest():
    # no column is dropped for being small next to the largest: the norms
    # 5 * 2**-714 and 1e-213 against 1e-200 are kept, the zero column is not
    d = np.array([[1e-200, 3 * 2.0**-714, 1e-213, 0.0], [0.0, 4 * 2.0**-714, 0.0, 0.0]])
    x, kept = normalize_columns(d)
    assert kept.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(x, [[1.0, 0.6, 1.0], [0.0, 0.8, 0.0]])


def scaled_normalize(d):
    """Normalization through a copy with each column scaled by a power of two."""
    top = np.abs(d).max(axis=0)
    # frexp(0) has exponent 0, so a zero column stays zero
    x = np.ldexp(d, -np.frexp(top)[1])
    norms = np.linalg.norm(x, axis=0)
    kept = np.flatnonzero(top)
    x = x[:, kept]
    x /= norms[kept]
    return x, kept


def with_top(g, top):
    """``g`` scaled so its largest magnitude is exactly ``top``."""
    g = g * (top / np.abs(g).max())
    i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
    g[i] = np.copysign(top, g[i])
    return g


def spread_columns(rng, m, n, top, low):
    """Columns led by an entry near ``top``, the others log-uniform down to ``low``."""
    g = 10.0 ** rng.uniform(np.log10(low), np.log10(top), (m, n))
    g *= rng.choice([-1.0, 1.0], (m, n))
    g[0] = top * rng.uniform(0.5, 1.0, n)
    return g


TOPS = {
    "2^399": 2.0**399, "2^400": 2.0**400, "2^401": 2.0**401,
    "2^-399": 2.0**-399, "2^-400": 2.0**-400, "2^-401": 2.0**-401,
    "1e-300": 1e-300, "1": 1.0, "1e300": 1e300,
}


@pytest.mark.parametrize("tiny", [False, True], ids=["dense", "down-to-1e-300"])
@pytest.mark.parametrize("name", list(TOPS))
def test_normalize_matches_the_scaled_route_bit_for_bit(name, tiny):
    top = TOPS[name]
    rng = np.random.default_rng([list(TOPS).index(name), tiny])
    m = 12
    if tiny:
        # kept columns holding entries down to 1e-300, or into the
        # subnormal range when the top itself is that small
        body = spread_columns(rng, m, 40, top / 2, min(1e-300, top * 2.0**-60))
    else:
        body = rng.standard_normal((m, 40)) * (top / 8)
    lead = rng.standard_normal((m, 1)) * top
    small = rng.standard_normal((m, 1)) * (top * 1e-17)
    zero = np.zeros((m, 1))
    d = with_top(np.hstack([body[:, :20], lead, body[:, 20:], small, zero]), top)
    want_x, want_kept = scaled_normalize(d)
    x, kept = normalize_columns(d)
    # only the zero column goes; the one at 1e-17 times the top stays
    assert want_kept.tolist() == list(range(42))
    np.testing.assert_array_equal(kept, want_kept)
    assert x.tobytes() == want_x.tobytes()


@pytest.mark.parametrize(
    "d",
    [
        # a subnormal entry in a unit column: halving it to scale rounds
        np.array([[1.0, 0.5], [1.5e-323, 0.25]]),
        # entries whose scaled copies are subnormal under a column top of
        # 2**399, so the scaled route rounds them twice
        np.array([[2.0**399, 1.0], [1e-195, 3e-190], [1.0, 2.0]]),
        np.array([[2.0**399] * 3, [3.7e-200, 1.3e-196, 7.1e-188]]),
        # squares that are subnormal unscaled but normal scaled
        np.array([[2.0**-300, 1.0], [3e-155, 2.0], [1e-160, 5e-160]]),
        # a zero entry
        np.array([[3.0, 0.0], [4.0, 2.0]]),
    ],
)
def test_normalize_keeps_the_scaled_bits_where_the_entries_are_tiny(d):
    want_x, want_kept = scaled_normalize(d)
    x, kept = normalize_columns(d)
    np.testing.assert_array_equal(kept, want_kept)
    assert x.tobytes() == want_x.tobytes()


def test_normalize_rejects_all_zero_and_non_finite():
    with pytest.raises(DataError, match="all columns"):
        normalize_columns(np.zeros((3, 2)))
    with pytest.raises(DataError, match="NaN or Inf"):
        normalize_columns(np.array([[1.0, np.nan]]))
    with pytest.raises(DataError):
        normalize_columns(np.empty((0, 0)))


# ---- the one rule for matrix and image arguments ----


def _read_back(d, tmp_path):
    np.save(tmp_path / "in.npy", d)
    return read_matrix(tmp_path / "in.npy")


def _with(value):
    d = np.eye(3)
    d[1, 2] = value
    return d


# each public entry point that takes a matrix or an image, the name its
# errors give that argument, and whether it requires finite values
ENTRY_POINTS = [
    ("write_matrix", lambda d, tmp: write_matrix(tmp / "w.txt", d), "matrix", True),
    ("read_matrix", _read_back, r"in\.npy: matrix", True),
    ("write_pgm", lambda d, tmp: write_pgm(tmp / "w.pgm", d), "image", True),
    ("saliency", lambda d, tmp: saliency(d, patch=1), "image", True),
    ("coherence", lambda d, tmp: coherence(d), "matrix", True),
    ("coherence_gram", lambda d, tmp: coherence_gram(d), "matrix", True),
    ("top_r_singular_subspace", lambda d, tmp: top_r_singular_subspace(d, 1), "matrix", True),
    ("block_power_sums", lambda d, tmp: kernels.block_power_sums(d, 2), "matrix", False),
    ("walk_power_sums", lambda d, tmp: kernels.walk_power_sums(d, 1), "matrix", False),
    ("cop", lambda d, tmp: cop(d, CopConfig(r=1)), "matrix", True),
    ("spca", lambda d, tmp: spca(d, 1), "matrix", True),
]
BAD_MATRICES = [
    ("1-d", np.ones(4), r"must be 2-d and non-empty, got shape \(4,\)", False),
    ("empty", np.zeros((0, 3)), r"must be 2-d and non-empty, got shape \(0, 3\)", False),
    ("nan", _with(np.nan), "contains NaN or Inf entries", True),
    ("inf", _with(np.inf), "contains NaN or Inf entries", True),
]


@pytest.mark.parametrize(
    "call, d, cause",
    [
        pytest.param(call, d, f"{name} {cause}", id=f"{entry}-{case}")
        for entry, call, name, finite in ENTRY_POINTS
        for case, d, cause, needs_finite in BAD_MATRICES
        if finite or not needs_finite
    ],
)
def test_entry_points_name_the_matrix_they_reject(tmp_path, call, d, cause):
    with pytest.raises(DataError, match=cause):
        call(d, tmp_path)


# ---- coherence, two implementations vs the oracle ----


def test_coherence_requires_unit_columns():
    with pytest.raises(DataError, match="unit columns"):
        coherence(np.array([[2.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("p", [1, 2])
def test_coherence_matches_oracle(p):
    x, _ = normalize_columns(random_matrix(8, 21, seed=0))
    want = naive_coherence(x, p)
    np.testing.assert_allclose(coherence(x, p).values, want, atol=1e-10)
    np.testing.assert_allclose(coherence_gram(x, p).values, want, atol=1e-10)


def test_coherence_hand_case():
    s = 1.0 / math.sqrt(2.0)
    x = np.array([[1.0, 0.0, s], [0.0, 1.0, s], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(coherence(x, 1).values, [s, s, 2 * s], atol=1e-12)
    np.testing.assert_allclose(coherence(x, 2).values, [0.5, 0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_a_lone_column_scores_exactly_0(p):
    # subtracting the self term after summing it left rounding above 0 in
    # 147 of these 1000 unit columns and in 153 of the raw ones
    for seed in range(1000):
        d = random_matrix(16, 1, seed)
        x, _ = normalize_columns(d)
        assert coherence(x, p).values.tolist() == [0.0], seed
        assert coherence_gram(d, p).values.tolist() == [0.0], seed
    with pytest.raises(DataError, match="unit columns"):
        coherence(np.full((4, 1), 2.0), p)


def test_coherence_gram_accepts_unnormalized_columns():
    d = random_matrix(6, 9, seed=1) * 3.0
    np.testing.assert_allclose(
        coherence_gram(d, 1).values, naive_coherence(d, 1), atol=1e-9
    )


@pytest.mark.parametrize("p, scale", [(1, 1e200), (2, 1e150), (2, 1e200)])
def test_coherence_gram_names_power_sums_beyond_float64(p, scale):
    # the sums are raw-column sums, so these overflow; they used to come
    # back NaN behind a RuntimeWarning
    d = gen_unstructured(20, 2, 10, 30, seed=1).d * scale
    with pytest.raises(NumericalError, match=f"p={p} overflow"):
        coherence_gram(d, p)


@pytest.mark.parametrize("p, scale", [(2, 1e-80), (1, 1e-160), (2, 2.0**-260)])
def test_coherence_gram_names_power_sums_below_the_normal_range(p, scale):
    # these used to come back without an error, off by up to 1.1e-3,
    # 1.5e-3 and 1.3e-10 relative; smaller scales gave zeros
    d = gen_unstructured(20, 2, 10, 30, seed=1).d * scale
    with pytest.raises(NumericalError, match=f"p={p} underflow"):
        coherence_gram(d, p)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("k", [-200, -100, 100, 200])
def test_coherence_gram_scales_exactly_by_powers_of_two(p, k):
    d = gen_unstructured(20, 2, 10, 30, seed=1).d
    want = np.ldexp(coherence_gram(d, p).values, 2 * p * k)
    np.testing.assert_array_equal(coherence_gram(np.ldexp(d, k), p).values, want)


def test_coherence_gram_never_forms_the_gram_matrix():
    n = 5000
    d = random_matrix(20, n, seed=3)
    tracemalloc.start()
    try:
        coherence_gram(d, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, f"peak {peak / 1e6:.0f} MB"


def traced_peak(fn, *args, **kwargs):
    """Bytes ``fn`` allocates at its peak, its inputs not counted."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [5000, 600])
def test_slab_walk_holds_one_slab(n):
    x = random_matrix(20, n, seed=4)
    slab = 8 * min(kernels.BLOCK, n) * n
    peak = traced_peak(kernels.block_power_sums, x, 1)
    assert peak <= 1.1 * slab, f"peak {peak} B, one slab is {slab} B"


def assert_one_matrix_plus_its_norms(d, dropped):
    n = d.shape[1]
    x, kept = normalize_columns(d)
    assert kept.size == n - dropped
    peak = traced_peak(normalize_columns, d)
    # the outputs, the norms of every column and a few bytes per column
    bound = x.nbytes + kept.nbytes + 8 * n + 2 * n
    assert peak <= bound, f"peak {peak} B, bound {bound} B"


@pytest.mark.parametrize(
    "top", [1.0, 2.0**399, 2.0**-401, 1e-3, 2.0**500, 1e-300, 1e300]
)
@pytest.mark.parametrize("drop", [False, True])
def test_normalize_holds_one_matrix_plus_its_norms(top, drop):
    d = with_top(random_matrix(20, 5000, seed=5), top)
    if drop:
        d[:, 7] = 0.0
    assert_one_matrix_plus_its_norms(d, drop)


def test_normalize_holds_one_matrix_where_an_entry_is_zero():
    d = random_matrix(20, 5000, seed=5)
    d[3, 11] = 0.0
    assert_one_matrix_plus_its_norms(d, 0)


def test_normalize_keeps_the_columns_left_after_a_drop_c_ordered():
    d = random_matrix(20, 5000, seed=7)
    d[:, 7] = 0.0
    x, kept = normalize_columns(d)
    assert kept.size == 4999 and x.flags.c_contiguous
    # the kernel takes x as it is: p=2 makes one product of x's size,
    # p=1 one slab, and a copy of x would come on top of either
    assert traced_peak(kernels.block_power_sums, x, 2) <= 1.2 * x.nbytes
    slab = 8 * kernels.BLOCK * x.shape[1]
    assert traced_peak(kernels.block_power_sums, x, 1) <= slab + x.nbytes / 2


@pytest.mark.parametrize("m, n", [(20, 5000), (300, 600)])
def test_multipass_holds_one_normalized_copy_plus_one_slab(m, n):
    d = gen_noisy(m, 2, n // 5, n - n // 5, sigma_for_tau(0.5), seed=6).d
    cfg = CopConfig(r=2, p=1, strategy=Adaptive(k=2, upsilon=None, passes=3), seed=6)
    peak = traced_peak(cop, d, cfg)
    # the normalized copy and one slab; each round sketches that copy
    # itself, so no round copies the columns still in play
    bound = 1.1 * 8 * (m * n + min(kernels.BLOCK, n) * n)
    assert peak <= bound, f"peak {peak} B, bound {bound:.0f} B"


@pytest.mark.parametrize("p", [1, 2])
def test_cop_gives_f_ordered_data_the_same_bytes_in_no_more_memory(p):
    # the normalized copy is C-ordered whatever the layout of d: its norms
    # are summed in the same order, and the kernel takes it without a copy
    d = gen_unstructured(40, 3, 600, 2400, seed=8).d
    f = np.asfortranarray(d)
    cfg = CopConfig(r=3, p=p)
    want, got = cop(d, cfg), cop(f, cfg)
    for field in dataclasses.fields(CopResult):
        # pickle holds an array's bytes, dtype, shape and order
        a, b = (pickle.dumps(getattr(res, field.name)) for res in (got, want))
        assert a == b, field.name
    # the first traced call can carry a few hundred bytes of one-off
    # allocations, so each layout keeps the lower of two peaks
    peak_f, peak_c = (min(traced_peak(cop, a, cfg) for _ in range(2)) for a in (f, d))
    assert peak_f <= peak_c, f"F-ordered peak {peak_f} B, C-ordered {peak_c} B"


def test_coherence_values_are_non_negative_and_profile_checks_p():
    x, _ = normalize_columns(random_matrix(5, 5, seed=2))
    assert np.all(coherence(x, 2).values >= 0.0)
    with pytest.raises(DataError):
        CoherenceProfile(np.zeros(3), 3)
    with pytest.raises(DataError):
        coherence_gram(x, 0)


# ---- bases ----


def test_orthonormal_basis_detects_numerical_rank():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    y = np.column_stack([e1, e1, e2])
    basis = orthonormal_basis(y)
    assert basis.shape == (3, 2)
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    # the span is preserved: every input column projects onto it fully
    np.testing.assert_allclose(basis @ (basis.T @ y), y, atol=1e-12)


def test_orthonormal_basis_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero"):
        orthonormal_basis(np.zeros((4, 2)))


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e20, 1e300])
def test_orthonormal_basis_is_scale_free(scale):
    y = random_matrix(6, 3, seed=12)
    base = orthonormal_basis(y)
    basis = orthonormal_basis(y * scale)
    assert basis.shape == (6, 3)
    np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, base @ base.T, atol=1e-12)


def test_top_r_singular_subspace_frozen_case():
    y = np.diag([3.0, 2.0, 1.0])
    top = top_r_singular_subspace(y, 2)
    assert top.unique
    np.testing.assert_allclose(np.abs(top.basis), np.eye(3)[:, :2], atol=1e-12)


def test_top_r_singular_subspace_flags_ties():
    assert not top_r_singular_subspace(np.eye(3), 2).unique
    assert top_r_singular_subspace(np.eye(3), 3).unique  # sigma_4 counts as 0
    # rank below r: sigma_2 = 0 is tied with the sigma_3 = 0 past the end
    e1 = np.eye(3)[:, 0]
    assert top_r_singular_subspace(np.column_stack([e1, e1]), 2).unique is False
    with pytest.raises(DataError):
        top_r_singular_subspace(np.eye(3), 4)
    with pytest.raises(DataError):
        top_r_singular_subspace(np.eye(3), 0)


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-20, 1.0, 1e20, 2.0**1000])
def test_top_r_singular_subspace_tie_test_is_scale_free(scale):
    # sigma_1 - sigma_2 = 1e-13 * sigma_1 is a tie at every scale
    y = np.diag([1.0, 1.0 + 1e-13, 0.5]) * scale
    assert not top_r_singular_subspace(y, 1).unique
    assert top_r_singular_subspace(y, 2).unique


@pytest.mark.parametrize("k", [-1000, 0, 1000])
def test_top_r_singular_subspace_recovers_a_span_at_any_whole_matrix_scale(k):
    # exact in float64: the scaled entries stay normal, and the singular
    # values scale by 2**k; column scale is no invariance of an SVD
    truth = random_basis(30, 4, seed=13)
    y = np.ldexp(truth @ random_matrix(4, 50, seed=14), k)
    top = top_r_singular_subspace(y, 4)
    assert top.unique
    assert subspace_distance(truth, top.basis) < 1e-12


# ---- projection and deflation ----


def test_random_projection_identity_hook_and_shapes():
    x = random_matrix(5, 7, seed=3)
    np.testing.assert_array_equal(random_projection(x, 5, 0, phi=np.eye(5)), x)
    with pytest.raises(DataError):
        random_projection(x, 6, 0)
    with pytest.raises(DataError):
        random_projection(x, 3, 0, phi=np.eye(4))
    a = random_projection(x, 3, seed=11)
    b = random_projection(x, 3, seed=11)
    np.testing.assert_array_equal(a, b)
    c = random_projection(x, 3, seed=12)
    assert not np.array_equal(a, c)


def test_random_projection_roughly_preserves_norms():
    # Gaussian sketches with variance 1/d keep expected squared norms
    x = np.eye(200)[:, :1]
    rng_norms = [
        np.linalg.norm(random_projection(x, 50, seed=s)) ** 2 for s in range(200)
    ]
    assert abs(np.mean(rng_norms) - 1.0) < 0.1


# ---- recovery error, oracle pinned first ----


def test_distance_oracle_hand_cases():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    assert subspace_distance(e1, e1) < 1e-12
    assert abs(subspace_distance(e1, e2) - 1.0) < 1e-12
    # distance from span(e1) to the 45 degree line is sin(45) = sqrt(1/2)
    assert abs(subspace_distance(e1, diag) - math.sqrt(0.5)) < 1e-12


def test_recovery_error_matches_oracle_and_algebraic_identity():
    for seed in range(5):
        u = random_basis(12, 3, seed=2 * seed)
        v = random_basis(12, 4, seed=2 * seed + 1)
        got = recovery_error(u, v)
        assert abs(got - subspace_distance(u, v)) < 1e-10
        # algebraic route: ||U - VV'U||_F^2 = r - ||V'U||_F^2
        r = u.shape[1]
        alg = math.sqrt(max(0.0, r - np.linalg.norm(v.T @ u) ** 2) / r)
        assert abs(got - alg) < 1e-10


def test_recovery_error_bounds_and_validation():
    u = random_basis(10, 3, seed=20)
    assert recovery_error(u, u) < 1e-12
    w = random_basis(10, 3, seed=21)
    assert 0.0 <= recovery_error(u, w) <= 1.0
    with pytest.raises(DataError, match="orthonormal"):
        recovery_error(u * 2.0, u)
    with pytest.raises(DataError):
        recovery_error(u, random_basis(9, 3, seed=22))


@pytest.mark.parametrize("scale, orthonormal", [(1 + 5e-6, False), (1 + 1e-10, True)])
def test_a_column_norm_off_by_more_than_1e_8_is_not_orthonormal(scale, orthonormal):
    # the Gram's diagonal is held to the same 1e-8 as its other entries,
    # with no relative slack on top
    q = random_basis(10, 3, seed=23)
    b = q.copy()
    b[:, 1] *= scale
    d = random_matrix(10, 6, seed=24)
    if orthonormal:
        assert recovery_error(q, b) < 1e-9
        residual_outliers(d, b)
        return
    with pytest.raises(DataError, match="orthonormal"):
        recovery_error(q, b)
    with pytest.raises(DataError, match="orthonormal"):
        residual_outliers(d, b)


def test_rotated_basis_recovers_exactly():
    u = random_basis(15, 4, seed=30)
    rot, _ = np.linalg.qr(random_matrix(4, 4, seed=31))
    assert recovery_error(u, u @ rot) < 1e-12


# ---- invariances of the profile through normalization ----


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1, 2]))
def test_profile_invariant_to_scale_sign_and_order(seed, p):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((7, 15))
    scales = rng.uniform(0.1, 10.0, 15) * rng.choice([-1.0, 1.0], 15)
    perm = rng.permutation(15)
    base = coherence(normalize_columns(d).x, p).values
    transformed = coherence(normalize_columns((d * scales)[:, perm]).x, p).values
    np.testing.assert_allclose(transformed, base[perm], atol=1e-9)
