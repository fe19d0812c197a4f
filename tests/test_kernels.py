"""Coherence kernel against the hand-verified double-loop and full-Gram oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohpca import kernels
from cohpca.errors import DataError
from cohpca.linalg import coherence, coherence_gram

from oracles import gram_coherence, naive_coherence


def unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    return x / np.linalg.norm(x, axis=0)


# ---- pin the oracle itself on hand-computable cases ----


def test_oracle_orthogonal_columns_have_zero_coherence():
    x = np.eye(3)[:, :2]
    assert naive_coherence(x, 1).tolist() == [0.0, 0.0]
    assert naive_coherence(x, 2).tolist() == [0.0, 0.0]


def test_oracle_duplicate_and_mixture_columns():
    s = 1.0 / math.sqrt(2.0)
    # columns: e1, e2, (e1 + e2)/sqrt(2); overlaps are s, s and 1 by hand
    x = np.array([[1.0, 0.0, s], [0.0, 1.0, s], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(naive_coherence(x, 1), [s, s, 2 * s], atol=1e-15)
    np.testing.assert_allclose(naive_coherence(x, 2), [0.5, 0.5, 1.0], atol=1e-15)


def test_oracle_identical_columns():
    x = np.tile(np.array([[0.6], [0.8]]), (1, 3))
    np.testing.assert_allclose(naive_coherence(x, 1), [2.0, 2.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(naive_coherence(x, 2), [2.0, 2.0, 2.0], atol=1e-15)


# ---- implementation vs oracle ----


@pytest.mark.parametrize("p", [1, 2])
def test_block_power_sums_match_oracle(p):
    x = unit_columns(7, 23, seed=1)
    got = kernels.block_power_sums(x, p)
    want = naive_coherence(x, p)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def assert_matches_the_gram_oracle(x, p, seed):
    n = x.shape[1]
    np.testing.assert_allclose(
        coherence(x, p).values, gram_coherence(x, p), rtol=0, atol=1e-12 * n
    )
    # raw columns with norms from 1e-6 to 1e6, the whole matrix times 2^k;
    # the rounding of any Gram route is bounded relative to
    # ||d_i||^p * sum_{k != i} ||d_k||^p, not to the value itself, which is
    # tiny for a column nearly orthogonal to the rest.  The column's own
    # term is left out of the bound: a self term that is added and then
    # subtracted would leave its rounding behind
    rng = np.random.default_rng(seed)
    d = x * 10.0 ** rng.uniform(-6.0, 6.0, n) * 2.0 ** int(rng.integers(-200, 201))
    scale = np.linalg.norm(d, axis=0) ** p
    err = np.abs(coherence_gram(d, p).values - gram_coherence(d, p))
    assert np.all(err <= 1e-12 * scale * (scale.sum() - scale))


def slab_count(n):
    return len(list(kernels._slabs(n)))


# the widths up to 6 BLOCK by the number of slabs the walk takes them in,
# 3 standing for three or more; the last slab is ragged, cut short by n,
# in all but two of them (n = 128 and 335)
WIDTHS = {
    k: [n for n in range(1, 6 * kernels.BLOCK + 1) if min(slab_count(n), 3) == k]
    for k in (1, 2, 3)
}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5000))
def test_the_slabs_tile_the_columns_and_each_fits_the_buffer(n):
    slabs = list(kernels._slabs(n))
    assert slabs[0][0] == 0 and slabs[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(slabs, slabs[1:]))
    for lo, hi in slabs:
        assert lo < hi and (hi - lo) * (n - lo) <= min(kernels.BLOCK, n) * n
    # the first slab is BLOCK columns tall, as tall as the buffer allows
    assert slabs[0][1] == min(kernels.BLOCK, n)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(2, 12),
    n=st.sampled_from([1, 2, 3]).flatmap(lambda k: st.sampled_from(WIDTHS[k])),
    p=st.sampled_from([1, 2]),
    seed=st.integers(0, 10_000),
)
def test_every_slab_walk_matches_the_gram_oracle(m, n, p, seed):
    assert_matches_the_gram_oracle(unit_columns(m, n, seed), p, seed)


# m as a function of n and a shift in {-1, 0, 1}: for p=2 the kernel takes
# the covariance form when m < n and walks the Gram otherwise, so "m~n"
# straddles the switch and the other shapes sit well inside one path
SHAPES = {
    "n>>m": lambda n, shift: 3 + shift,
    "m~n": lambda n, shift: max(1, n + shift),
    "m>>n": lambda n, shift: 2 * n + 8 + shift,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("slabs", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
@settings(max_examples=6, deadline=None)
@given(data=st.data(), shift=st.integers(-1, 1), seed=st.integers(0, 10_000))
def test_every_dispatch_path_matches_the_gram_oracle(p, slabs, shape, data, shift, seed):
    n = data.draw(st.sampled_from(WIDTHS[slabs]), label="n")
    assert_matches_the_gram_oracle(unit_columns(SHAPES[shape](n, shift), n, seed), p, seed)


@pytest.mark.parametrize("p", [1, 2])
def test_the_walk_is_exactly_sign_invariant(p):
    # four slabs, the last one ragged: a flipped column flips each of its
    # Gram entries exactly, and |.| or ^2 removes the sign before any sum
    n = 600
    assert slab_count(n) == 4
    x = unit_columns(30, n, seed=7)
    signs = np.where(np.random.default_rng(8).random(n) < 0.5, -1.0, 1.0)
    np.testing.assert_array_equal(
        kernels.walk_power_sums(x * signs, p), kernels.walk_power_sums(x, p)
    )


# ---- the covariance form's column blocks (p=2, m < n) ----


@pytest.mark.parametrize("tail", [1, kernels.COV_BLOCK])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_every_covariance_block_matches_the_naive_oracle(blocks, tail):
    # one, two or three blocks, the last one a single column or full; with
    # no whole block before it, a one-column tail is a lone column, which
    # the walk takes (m >= n)
    n = blocks * kernels.COV_BLOCK + tail
    x = unit_columns(5, n, seed=blocks * 10 + tail)
    # the first and last column of every block
    starts = range(0, n, kernels.COV_BLOCK)
    edges = sorted({c for lo in starts for c in (lo, min(lo + kernels.COV_BLOCK, n) - 1)})
    got = kernels.block_power_sums(x, 2)[edges]
    np.testing.assert_allclose(got, naive_coherence(x, 2, edges), rtol=0, atol=1e-12 * n)


def test_the_covariance_form_is_exactly_sign_invariant():
    # three blocks, the last one ragged: X X' does not see the signs, and
    # a flipped column flips its block's product column exactly
    n = 2 * kernels.COV_BLOCK + 37
    x = unit_columns(30, n, seed=9)
    signs = np.where(np.random.default_rng(10).random(n) < 0.5, -1.0, 1.0)
    np.testing.assert_array_equal(
        kernels.block_power_sums(x * signs, 2), kernels.block_power_sums(x, 2)
    )


@pytest.mark.parametrize("m, n", [(1, 2), (20, 500), (100, kernels.COV_BLOCK)])
def test_one_covariance_block_keeps_the_bits_of_the_whole_product(m, n):
    # within one block the product is the one (X X') X of the whole matrix
    x = unit_columns(m, n, seed=n)
    want = np.einsum("ij,ij->j", x, (x @ x.T) @ x) - np.einsum("ij,ij->j", x, x) ** 2
    np.testing.assert_array_equal(kernels.block_power_sums(x, 2), np.maximum(want, 0.0))


def test_the_covariance_form_holds_one_block():
    m, n = 20, 5000
    x = unit_columns(m, n, seed=11)
    tracemalloc.start()
    try:
        kernels.block_power_sums(x, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # X X', one m-by-COV_BLOCK block of the product and three length-n
    # vectors: the sums, the squared norms and their squares
    bound = 1.1 * 8 * (m * m + m * kernels.COV_BLOCK + 3 * n)
    assert peak <= bound, f"peak {peak} B, bound {bound:.0f} B"


@pytest.mark.parametrize("p", [1, 2])
def test_coherence_gram_keeps_the_cross_terms_of_a_dominant_column(p):
    # column 3's self term is 1e24 times the others' at p=2; subtracting it
    # after summing left a relative error of 4e-5 on that column
    d = np.random.default_rng(0).standard_normal((20, 50))
    d[:, 3] *= 1e6
    want = gram_coherence(d, p)
    np.testing.assert_allclose(coherence_gram(d, p).values, want, rtol=1e-14, atol=0)


def test_non_contiguous_and_float32_inputs_are_handled():
    x = unit_columns(9, 40, seed=2)
    strided = np.asfortranarray(x)[:, ::2]
    renorm = strided / np.linalg.norm(strided, axis=0)
    got = kernels.block_power_sums(renorm, 2)
    want = kernels.block_power_sums(np.ascontiguousarray(renorm), 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    x32 = unit_columns(6, 8, seed=3).astype(np.float32)
    out = kernels.block_power_sums(x32, 1)
    assert out.dtype == np.float64


def test_invalid_power_is_rejected():
    x = unit_columns(4, 4, seed=5)
    with pytest.raises(DataError):
        kernels.block_power_sums(x, 3)
