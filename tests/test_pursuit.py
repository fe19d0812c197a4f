"""Sampling strategies and the full recovery pipeline."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohpca import kernels, pursuit
from cohpca.errors import DataError, NumericalError
from cohpca.linalg import (
    CoherenceProfile,
    coherence,
    normalize_columns,
    recovery_error,
    top_r_singular_subspace,
)
from cohpca.models import gen_noisy, gen_unstructured, sigma_for_tau
from cohpca.pursuit import (
    Adaptive,
    CopConfig,
    CopResult,
    FixedCount,
    GreedyRank,
    TopFraction,
    cop,
    cop_multipass,
    residual_outliers,
    spca,
)

from oracles import orthonormal_basis


def profile(values):
    return CoherenceProfile(np.asarray(values, dtype=np.float64), 2)


def picks(strategy, x, values, r):
    """The columns ``strategy.select`` picks for a rank-r config."""
    return strategy.select(x, profile(values), CopConfig(r=r))[0].tolist()


def top_fraction(values, q):
    return picks(TopFraction(q), np.eye(len(values)), values, r=1)


E = np.eye(4)


# ---- greedy rank sampling ----


def test_greedy_skips_linearly_dependent_duplicates():
    x = np.column_stack([E[:, 0], E[:, 0], E[:, 1], E[:, 2]])
    assert picks(GreedyRank(), x, [4.0, 3.0, 2.0, 1.0], r=2) == [0, 2]


def test_greedy_breaks_ties_toward_lower_index():
    x = np.column_stack([E[:, 0], E[:, 1], E[:, 2]])
    assert picks(GreedyRank(), x, [1.0, 1.0, 1.0], r=2) == [0, 1]


def test_greedy_follows_coherence_order():
    x = np.column_stack([E[:, 0], E[:, 1], E[:, 2]])
    assert picks(GreedyRank(), x, [1.0, 5.0, 3.0], r=2) == [1, 2]


def test_greedy_raises_when_candidates_run_out():
    x = np.column_stack([E[:, 0], E[:, 0]])
    with pytest.raises(NumericalError, match="need r=2"):
        picks(GreedyRank(), x, [2.0, 1.0], r=2)


def test_greedy_rank_tol_controls_near_duplicates():
    near = E[:, 0] + 1e-12 * E[:, 1]
    near /= np.linalg.norm(near)
    x = np.column_stack([E[:, 0], near, E[:, 1]])
    prof = profile([3.0, 2.0, 1.0])
    # the module walk: at 1e-14 the basis of the two picks has rank 1,
    # so select itself would stop at the span check
    assert pursuit.greedy_rank_sampling(x, prof, 2, 1e-10).tolist() == [0, 2]
    assert pursuit.greedy_rank_sampling(x, prof, 2, 1e-14).tolist() == [0, 1]


def test_greedy_validates_input():
    x = np.column_stack([E[:, 0], E[:, 1]])
    with pytest.raises(DataError):
        picks(GreedyRank(), x, [1.0], r=1)
    with pytest.raises(DataError):
        picks(GreedyRank(), x, [1.0, 2.0], r=5)


def test_greedy_rejects_a_nan_or_negative_rank_tol():
    x = np.column_stack([E[:, 0], E[:, 1]])
    for tol in (np.nan, -1e-10):
        with pytest.raises(DataError, match="rank_tol"):
            picks(GreedyRank(rank_tol=tol), x, [2.0, 1.0], r=1)


# ---- top fraction / fixed count ----


def test_top_fraction_keeps_the_ceiling():
    values = [5.0, 4.0, 3.0, 2.0, 1.0]
    assert top_fraction(values, 0.5) == [0, 1, 2]
    assert top_fraction(values, 0.2) == [0, 1, 2, 3]
    assert top_fraction(values, 0.9) == [0]


def test_top_fraction_orders_by_value_with_stable_ties():
    values = [1.0, 3.0, 3.0, 2.0]
    assert top_fraction(values, 0.25) == [1, 2, 3]
    with pytest.raises(DataError):
        top_fraction(values, 0.0)
    with pytest.raises(DataError):
        top_fraction(values, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.nan]), max_size=40
    ),
)
def test_top_k_is_the_prefix_of_the_stable_descending_sort(values):
    v = np.array(values, dtype=np.float64)
    order = np.argsort(-v, kind="stable")
    for k in range(len(v) + 2):
        got = pursuit._top_k(profile(v), k)
        assert got.dtype == order.dtype
        np.testing.assert_array_equal(got, order[:k])


def test_fixed_count_via_cop_caps_at_n():
    ds = gen_unstructured(20, 2, 10, 0, seed=0)
    res = cop(ds.d, CopConfig(r=2, strategy=FixedCount(count=50)))
    assert len(res.sampled) == 10
    with pytest.raises(DataError):
        cop(ds.d, CopConfig(r=2, strategy=FixedCount(count=0)))


def test_fixed_count_below_r_is_a_parameter_error():
    ds = gen_unstructured(20, 2, 10, 0, seed=0)
    with pytest.raises(DataError, match="column count 1 must be >= r=2"):
        cop(ds.d, CopConfig(r=2, strategy=FixedCount(count=1)))


# ---- what every strategy checks ----


STRATEGIES = [GreedyRank(), TopFraction(), FixedCount(count=5), Adaptive()]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
def test_every_strategy_rejects_a_wrong_profile_length_and_r_above_m(strategy):
    ds = gen_unstructured(20, 2, 10, 30, seed=0)
    x, _ = normalize_columns(ds.d)
    values = coherence(x, 2).values
    for wrong in (values[:10], np.concatenate([values, values])):
        with pytest.raises(DataError, match=f"profile length \\({len(wrong)},\\) does not match 40"):
            strategy.select(x, profile(wrong), CopConfig(r=2))
    # 20 usable columns in 4 rows: only the rank is wrong
    small = gen_unstructured(4, 2, 10, 10, seed=1)
    with pytest.raises(DataError, match="r=5 must not exceed m=4"):
        cop(small.d, CopConfig(r=5, strategy=strategy))


@pytest.mark.parametrize(
    "call",
    [
        lambda d: CopConfig(r=2.5),
        lambda d: CopConfig(r=2.0),
        lambda d: cop(d, CopConfig(r=2, strategy=FixedCount(5.5))),
        lambda d: cop(d, CopConfig(r=2, strategy=Adaptive(k=1.5))),
        lambda d: cop(d, CopConfig(r=2, strategy=Adaptive(passes=2.0))),
        lambda d: spca(d, 2.5),
    ],
    ids=["r=2.5", "r=2.0", "count=5.5", "k=1.5", "h=2.0", "spca-r=2.5"],
)
def test_non_integer_sizes_are_data_errors(call):
    d = gen_unstructured(20, 2, 10, 30, seed=0).d
    with pytest.raises(DataError, match="must be an integer"):
        call(d)


def test_numpy_integer_sizes_and_seeds_give_the_int_result():
    d = gen_unstructured(20, 2, 10, 30, seed=0).d
    i = np.int64
    pairs = [
        (cop(d, CopConfig(r=i(2), strategy=FixedCount(i(5)))),
         cop(d, CopConfig(r=2, strategy=FixedCount(5)))),
        (cop(d, CopConfig(r=2, strategy=Adaptive(k=i(2), passes=i(2)), seed=i(4))),
         cop(d, CopConfig(r=2, strategy=Adaptive(k=2, passes=2), seed=4))),
    ]
    for got, want in pairs:
        np.testing.assert_array_equal(got.basis, want.basis)
        np.testing.assert_array_equal(got.sampled, want.sampled)


@pytest.mark.parametrize("seed", [1.5, 1.0, -1, (1, -1), (1, 0.5)], ids=str)
def test_adaptive_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 used to give the seed=1 result, -1 a raw numpy ValueError
    d = gen_unstructured(20, 2, 10, 30, seed=0).d
    with pytest.raises(DataError, match="seed component"):
        cop(d, CopConfig(r=2, strategy=Adaptive(), seed=seed))


# ---- adaptive sampling ----


def test_adaptive_retires_deflated_duplicates():
    x = np.column_stack([E[:, 0], E[:, 0], E[:, 1]])
    # k=2, upsilon=1e-8, seed 0, with the identity in place of the sketch
    got = pursuit.adaptive_sampling(x, profile([3.0, 2.0, 1.0]), 2, 2, 1e-8, 0, phi=np.eye(4))
    assert got.tolist() == [0, 2]


def test_adaptive_spans_the_subspace_like_greedy():
    ds = gen_unstructured(50, 4, 30, 100, seed=1)
    x, _ = normalize_columns(ds.d)
    prof = coherence(x, 2)
    a = Adaptive(upsilon=0.0).select(x, prof, CopConfig(r=4, seed=7))[0]
    g = GreedyRank().select(x, prof, CopConfig(r=4))[0]
    basis_a = np.linalg.qr(x[:, a])[0]
    basis_g = np.linalg.qr(x[:, g])[0]
    assert recovery_error(ds.basis, basis_a) < 1e-9
    assert recovery_error(ds.basis, basis_g) < 1e-9


def test_adaptive_exhausts_when_threshold_eats_everything():
    x = np.column_stack([E[:, 0], E[:, 1]])
    with pytest.raises(NumericalError, match="exhausted after 0 of 1"):
        pursuit.adaptive_sampling(x, profile([2.0, 1.0]), 1, 2, 100.0, 0, phi=np.eye(4)[:2])


def test_adaptive_auto_threshold_and_validation():
    ds = gen_unstructured(30, 3, 20, 40, seed=2)
    x, _ = normalize_columns(ds.d)
    prof = coherence(x, 2)
    cfg = CopConfig(r=3, seed=0)
    assert len(Adaptive(upsilon=None).select(x, prof, cfg)[0]) == 3
    with pytest.raises(DataError):
        Adaptive(k=0).select(x, prof, cfg)
    with pytest.raises(DataError):
        Adaptive(upsilon=-1.0).select(x, prof, cfg)


def test_adaptive_rejects_a_nan_upsilon():
    x = np.column_stack([E[:, 0], E[:, 1]])
    with pytest.raises(DataError, match="upsilon"):
        pursuit.adaptive_sampling(x, profile([2.0, 1.0]), 2, 2, np.nan, 0, phi=np.eye(4))


def test_adaptive_sketch_larger_than_m_is_rejected():
    ds = gen_unstructured(5, 2, 10, 10, seed=13)
    for passes in (1, 2):
        cfg = CopConfig(r=2, strategy=Adaptive(k=3, passes=passes))
        with pytest.raises(DataError, match=r"k\*r = 3\*2 = 6 must not exceed m=5"):
            cop(ds.d, cfg)


def test_adaptive_is_deterministic_per_seed():
    ds = gen_unstructured(40, 3, 25, 80, seed=3)
    x, _ = normalize_columns(ds.d)
    prof = coherence(x, 2)
    a = Adaptive().select(x, prof, CopConfig(r=3, seed=5))[0]
    b = Adaptive().select(x, prof, CopConfig(r=3, seed=5))[0]
    np.testing.assert_array_equal(a, b)


# ---- the full pipeline ----


def test_cop_recovers_with_every_strategy():
    ds = gen_unstructured(80, 4, 40, 400, seed=4)
    for strategy in (
        GreedyRank(),
        FixedCount(count=20),
        Adaptive(k=2),
        TopFraction(q=0.95),
    ):
        res = cop(ds.d, CopConfig(r=4, strategy=strategy))
        assert res.basis.shape == (80, 4)
        err = recovery_error(ds.basis, res.basis)
        assert err < 1e-9, (strategy, err)


def test_cop_maps_indices_past_dropped_columns():
    ds = gen_unstructured(30, 3, 15, 30, seed=5)
    d = np.insert(ds.d, [2, 7], 0.0, axis=1)  # zero columns at 2 and 8
    res = cop(d, CopConfig(r=3))
    assert res.dropped.tolist() == [2, 8]
    assert not set(res.sampled) & {2, 8}
    clean = cop(ds.d, CopConfig(r=3))
    assert recovery_error(clean.basis, res.basis) < 1e-12
    # sampled indices address the original matrix, zero columns included
    back = [j - (j > 2) - (j > 8) for j in res.sampled]
    assert back == clean.sampled.tolist()


def assert_cop_is_scale_invariant(scale):
    ds = gen_unstructured(20, 2, 10, 30, seed=0)
    base = cop(ds.d, CopConfig(r=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = cop(ds.d * scale, CopConfig(r=2))
    assert moved.sampled.tolist() == base.sampled.tolist()
    np.testing.assert_allclose(moved.profile.values, base.profile.values,
                               rtol=1e-9, atol=1e-12)
    assert moved.dropped.size == 0


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_cop_is_scale_invariant_where_the_sum_of_squares_overflows(scale):
    assert_cop_is_scale_invariant(scale)


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200, 1e-300])
def test_cop_is_scale_invariant_where_the_sum_of_squares_underflows(scale):
    assert_cop_is_scale_invariant(scale)


def test_cop_rejects_unusable_setups():
    ds = gen_unstructured(10, 2, 5, 0, seed=6)
    with pytest.raises(DataError):
        cop(ds.d, CopConfig(r=0))
    with pytest.raises(NumericalError, match="usable columns"):
        cop(ds.d, CopConfig(r=6))
    with pytest.raises(DataError, match="strategy"):
        cop(ds.d, CopConfig(r=2, strategy="greedy"))


def test_cop_rejects_a_non_strategy_before_the_kernel(monkeypatch):
    def kernel_must_not_run(*args, **kwargs):
        raise AssertionError("coherence ran before the strategy was checked")

    monkeypatch.setattr(pursuit, "coherence", kernel_must_not_run)
    ds = gen_unstructured(10, 2, 5, 0, seed=6)
    with pytest.raises(DataError, match="strategy"):
        cop(ds.d, CopConfig(r=2, strategy="greedy"))


def test_cop_flags_non_unique_svd_truncation():
    # two orthogonal columns with equal weight: sigma_1 = sigma_2, so a
    # rank-1 truncation is not determined by the data
    d = np.column_stack([E[:, 0], E[:, 1]])
    res = cop(d, CopConfig(r=1, strategy=TopFraction(q=0.4)))
    assert not res.unique
    assert cop(d, CopConfig(r=1)).unique  # greedy picks one column


# five near-copies of e1, 1e-14 apart, rank highest; two picks of them
# span one dimension to 1e-14, so no strategy may call a rank-2 span unique
NEAR_COPIES = np.column_stack(
    [E[:, 0] + k * 1e-14 * E[:, 3] for k in range(5)] + [E[:, 1], E[:, 2]]
)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "strategy",
    [GreedyRank(rank_tol=0.0), TopFraction(q=0.75), FixedCount(count=2), Adaptive(),
     Adaptive(passes=2)],
    ids=repr,
)
def test_every_strategy_flags_picks_that_span_fewer_than_r(strategy, p):
    # FixedCount and TopFraction used to call two such picks unique, and
    # GreedyRank and one-pass Adaptive raised on them
    res = cop(NEAR_COPIES, CopConfig(r=2, p=p, strategy=strategy))
    assert set(res.sampled.tolist()) <= set(range(5))
    assert res.unique is False
    assert res.basis.shape == (4, 2)
    np.testing.assert_allclose(res.basis.T @ res.basis, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_basis_is_the_orthonormal_basis_of_its_picks(seed):
    # on full-rank picks the SVD finish is the picks' orthonormal basis, bit for bit
    ds = gen_unstructured(30, 4, 20, 60, seed=seed)
    x, _ = normalize_columns(ds.d)
    picked, basis, unique = GreedyRank().select(x, coherence(x, 2), CopConfig(r=4))
    assert unique is True
    assert basis.tobytes() == orthonormal_basis(x[:, picked]).tobytes()


def test_cop_profile_matches_direct_computation():
    ds = gen_unstructured(25, 3, 12, 30, seed=7)
    res = cop(ds.d, CopConfig(r=3, p=1))
    x, _ = normalize_columns(ds.d)
    np.testing.assert_allclose(res.profile.values, coherence(x, 1).values, atol=1e-12)
    assert res.profile.p == 1


STRATEGIES = [GreedyRank(), TopFraction(), FixedCount(), Adaptive(), Adaptive(passes=3)]


@pytest.mark.parametrize("flip", [False, True], ids=["scale", "scale-and-sign"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
def test_cop_ignores_column_scale_over_the_float64_range(strategy, p, flip):
    # each column times +-2**k, k in [-1000, 1000]: exact for this data, so
    # every normalized column keeps its bits, or only flips its sign
    d = np.insert(gen_unstructured(40, 3, 30, 200, seed=1).d, 17, 0.0, axis=1)
    rng = np.random.default_rng(2)
    k = rng.integers(-1000, 1001, d.shape[1])
    signs = rng.choice([-1.0, 1.0], d.shape[1]) if flip else np.ones(d.shape[1])
    moved = np.ldexp(d * signs, k)
    assert np.array_equal(np.ldexp(moved, -k) * signs, d)
    cfg = CopConfig(r=3, p=p, strategy=strategy, seed=3)
    want, got = cop(d, cfg), cop(moved, cfg)
    assert want.dropped.tolist() == [17]
    np.testing.assert_array_equal(got.dropped, want.dropped)
    np.testing.assert_array_equal(got.sampled, want.sampled)
    assert got.profile.values.tobytes() == want.profile.values.tobytes()
    if not flip:
        assert got.basis.tobytes() == want.basis.tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_cop_basis_invariant_to_scale_sign_and_order(seed):
    rng = np.random.default_rng(seed)
    ds = gen_unstructured(30, 3, 15, 45, seed=seed)
    scales = rng.uniform(0.5, 2.0, 60) * rng.choice([-1.0, 1.0], 60)
    perm = rng.permutation(60)
    base = cop(ds.d, CopConfig(r=3))
    moved = cop((ds.d * scales)[:, perm], CopConfig(r=3))
    assert recovery_error(base.basis, moved.basis) < 1e-9
    # column j of the transformed matrix is column perm[j] of the original
    assert sorted(perm[moved.sampled].tolist()) == sorted(base.sampled.tolist())


# ---- multipass ----


def multipass(h, upsilon=0.0):
    return Adaptive(k=2, upsilon=upsilon, passes=h)


def test_multipass_requires_adaptive_and_enough_columns():
    ds = gen_unstructured(20, 2, 8, 0, seed=8)
    with pytest.raises(DataError, match="requires an Adaptive strategy"):
        cop_multipass(ds.d, CopConfig(r=2), h=2)
    with pytest.raises(NumericalError, match="8 usable columns cannot supply h\\*r = 10 picks"):
        cop(ds.d, CopConfig(r=2, strategy=multipass(5)))
    for h in (0, -3):
        with pytest.raises(DataError, match=f"pass count h={h} must be >= 1"):
            cop(ds.d, CopConfig(r=2, strategy=multipass(h)))


def test_cop_multipass_is_cop_with_adaptive_passes():
    ds = gen_noisy(40, 3, 60, 240, sigma_for_tau(0.5), seed=12)
    for h in (1, 2, 3):
        cfg = CopConfig(r=3, p=1, strategy=Adaptive(k=2, upsilon=None), seed=h)
        got = cop_multipass(ds.d, cfg, h=h)
        want = cop(ds.d, CopConfig(r=3, p=1, strategy=multipass(h, upsilon=None), seed=h))
        for field in dataclasses.fields(CopResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "profile":
                assert a.p == b.p
                a, b = a.values, b.values
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_multipass_single_round_recovers_clean_data():
    ds = gen_unstructured(50, 4, 30, 90, seed=9)
    cfg = CopConfig(r=4, strategy=Adaptive(k=2, passes=1), seed=3)
    res = cop(ds.d, cfg)
    assert recovery_error(ds.basis, res.basis) < 1e-9
    x, kept = normalize_columns(ds.d)
    picked = pursuit.adaptive_sampling(x, coherence(x, 2), 4, 2, 0.0, 3)
    np.testing.assert_array_equal(res.sampled, kept[picked])
    assert res.unique


def test_multipass_rounds_pick_disjoint_columns():
    ds = gen_unstructured(40, 3, 30, 60, seed=10)
    res = cop(ds.d, CopConfig(r=3, strategy=multipass(4), seed=1))
    assert len(res.sampled) == 12
    assert len(set(res.sampled.tolist())) == 12


def test_multipass_beats_single_pass_on_noisy_data():
    wins, med1, med3 = 0, [], []
    for s in range(20):
        ds = gen_noisy(100, 5, 60, 200, sigma_for_tau(0.5), seed=(900, s))
        cfgs = [CopConfig(r=5, strategy=multipass(h, upsilon=None), seed=s) for h in (1, 3)]
        e1, e3 = (recovery_error(ds.basis, cop(ds.d, cfg).basis) for cfg in cfgs)
        wins += e3 < e1
        med1.append(e1)
        med3.append(e3)
    assert wins >= 16
    assert np.median(med3) < 0.5 * np.median(med1)


def multipass_with_round_copies(d, cfg, h):
    """``Adaptive(passes=h)`` with a copy of the remaining columns for
    each round after the first: the reference for its bits."""
    x, kept = normalize_columns(d)
    prof = coherence(x, cfg.p)
    pool = np.arange(x.shape[1])
    picked = []
    for round_idx in range(h):
        sub = x if round_idx == 0 else x[:, pool]
        sub_prof = prof if round_idx == 0 else CoherenceProfile(prof.values[pool], prof.p)
        local = pursuit.adaptive_sampling(
            sub, sub_prof, cfg.r, cfg.strategy.k, cfg.strategy.upsilon, (cfg.seed, round_idx)
        )
        picked.extend(pool[local])
        pool = np.delete(pool, local)
    picked = np.array(picked)
    return kept[picked], top_r_singular_subspace(x[:, picked], cfg.r).basis


@pytest.mark.parametrize(
    "m, n, h, p, upsilon",
    [(40, 300, 3, p, u) for p in (1, 2) for u in (None, 0.0)]
    # m > BLOCK, where a round copy of x would set the peak
    + [(kernels.BLOCK + 44, 800, 3, 2, None)],
)
def test_multipass_matches_the_round_copies_bit_for_bit(m, n, h, p, upsilon):
    d = gen_noisy(m, 3, n // 4, n - n // 4, sigma_for_tau(0.5), seed=(17, m, h)).d
    cfg = CopConfig(r=3, p=p, strategy=multipass(h, upsilon=upsilon), seed=h)
    sampled, basis = multipass_with_round_copies(d, cfg, h)
    res = cop(d, cfg)
    np.testing.assert_array_equal(res.sampled, sampled)
    assert res.basis.tobytes() == basis.tobytes()


# ---- baselines and outlier flagging ----


def test_spca_fails_where_cop_succeeds():
    ds = gen_unstructured(60, 3, 30, 300, seed=11)
    assert recovery_error(ds.basis, cop(ds.d, CopConfig(r=3)).basis) < 1e-8
    assert recovery_error(ds.basis, spca(ds.d, 3)) > 0.05
    with pytest.raises(NumericalError):
        spca(ds.d[:, :2], 3)


def test_residual_outliers_frozen_case():
    basis = E[:, :2]
    mixed = (E[:, 0] + E[:, 2]) / np.sqrt(2.0)
    d = np.column_stack([E[:, 0], E[:, 1], mixed, np.zeros(4)])
    assert residual_outliers(d, basis).tolist() == [0, 0, 1, 1]
    # relative residual of the mixed column is sqrt(1/2) = 0.707...
    assert residual_outliers(d, basis, threshold=0.8).tolist() == [0, 0, 0, 1]
    with pytest.raises(DataError):
        residual_outliers(d, basis, threshold=-0.1)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300])
def test_residual_outliers_zero_columns_are_relative_to_the_largest(scale):
    # they are not: the column at 1e-15 times the others is measured by its
    # direction, and only the all-zero column counts as an outlier
    mixed = (E[:, 0] + E[:, 2]) / np.sqrt(2.0)
    d = np.column_stack([E[:, 0], mixed, 1e-15 * E[:, 1], np.zeros(4)]) * scale
    assert residual_outliers(d, E[:, :2]).tolist() == [0, 1, 0, 1]


def test_residual_outliers_validates_the_basis():
    d = np.column_stack([E[:, 0], E[:, 1]])
    with pytest.raises(DataError, match="basis rows 3 do not match data rows 4"):
        residual_outliers(d, np.eye(3)[:, :2])
    with pytest.raises(DataError, match="orthonormal"):
        residual_outliers(d, 2.0 * E[:, :2])


def test_residual_outliers_recovers_model_labels():
    ds = gen_unstructured(50, 4, 25, 75, seed=12)
    res = cop(ds.d, CopConfig(r=4))
    np.testing.assert_array_equal(residual_outliers(ds.d, res.basis), ds.labels)
