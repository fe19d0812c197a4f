"""Recovery conditions, tail probabilities and their empirical behavior.

The closed-form inequalities are pinned by values computed once,
independently, from the written-out formulas; the tail probability has
two independent oracles (elementary closed forms at m = 3 and m = 5,
and the regularized incomplete beta function for general m).
"""

import math

import numpy as np
import pytest
from scipy.special import betainc

from cohpca.errors import DataError
from cohpca.guarantees import (
    KINDS,
    ConditionParams,
    check_condition,
    expected_coherence,
    t_delta,
    tail_f,
    validate_condition_empirically,
)
from cohpca.linalg import coherence_gram
from cohpca.models import gen_unstructured

from oracles import mean_abs_dot, tail_m3, tail_m5


def params(m, r, n1, n2, **kw):
    return ConditionParams(m=m, r=r, n1=n1, n2=n2, **kw)


# ---- frozen arithmetic for the mean conditions ----


def test_l2_mean_frozen_values():
    # lhs = n1/r (1 - 2 r^2 / m), rhs = n2/m + 1/r, by hand:
    # 10 * (1 - 50/400) = 8.75 and 500/400 + 1/5 = 1.45
    rep = check_condition("unstructured-l2-mean", params(400, 5, 50, 500))
    assert rep.lhs == pytest.approx(8.75, abs=1e-12)
    assert rep.rhs == pytest.approx(1.45, abs=1e-12)
    assert rep.holds


def test_l2_mean_failing_point():
    # 1 * (1 - 200/100) = -1 against 100/100 + 1/10 = 1.1
    rep = check_condition("unstructured-l2-mean", params(100, 10, 10, 100))
    assert rep.lhs == pytest.approx(-1.0, abs=1e-12)
    assert not rep.holds


def test_exact_equality_does_not_hold():
    # r=1, m=4, n1=3, n2=2: lhs = 3 * (1 - 2/4) = 1.5 = 2/4 + 1 = rhs,
    # both sides exact in binary; a strict inequality must say False
    rep = check_condition("unstructured-l2-mean", params(4, 1, 3, 2))
    assert rep.lhs == rep.rhs == 1.5
    assert not rep.holds


def test_l1_mean_frozen_values():
    rep = check_condition("unstructured-l1-mean", params(400, 5, 50, 500))
    assert rep.lhs == pytest.approx(6.660901274028763, abs=1e-9)
    assert rep.rhs == pytest.approx(31.606824823230554, abs=1e-9)
    assert not rep.holds  # 500 outliers defeat the l1 mean bound
    rep = check_condition("unstructured-l1-mean", params(400, 5, 200, 20))
    assert rep.lhs == pytest.approx(26.643605096115053, abs=1e-9)
    assert rep.rhs == pytest.approx(1.6068248232305542, abs=1e-9)
    assert rep.holds


def test_structured_mean_frozen_values():
    rep = check_condition(
        "structured-l1-mean", params(2000, 5, 400, 20, mu=0.2)
    )
    assert rep.lhs == pytest.approx(142.37310446899113, abs=1e-9)
    assert rep.rhs == pytest.approx(85.9078223985872, abs=1e-9)
    assert rep.holds
    rep = check_condition("structured-l1-mean", params(200, 5, 400, 20, mu=0.2))
    assert rep.rhs == pytest.approx(188.49986221367354, abs=1e-9)
    assert not rep.holds


def test_clustered_mean_frozen_values():
    rep = check_condition("clustered-l1-mean", params(2000, 4, 100, 50, nu=0.1))
    assert rep.lhs == pytest.approx(89.5, abs=1e-12)
    assert rep.rhs == pytest.approx(12.362048633414592, abs=1e-9)
    assert rep.holds


def test_noisy_mean_frozen_values():
    rep = check_condition("noisy-l1-mean", params(400, 5, 50, 20, sigma=0.3))
    assert rep.lhs == pytest.approx(5.908469857981839, abs=1e-9)
    assert rep.rhs == pytest.approx(4.9073954323344235, abs=1e-9)
    assert rep.intermediates["xi"] == pytest.approx(3.5065399582128145, abs=1e-9)
    assert rep.holds


def test_whp_kinds_report_intermediates():
    rep = check_condition(
        "unstructured-l1-whp", params(5000, 5, 2000, 1, delta=0.5)
    )
    # with n2/delta = 2 the log term loses to the 8 pi floor
    assert rep.intermediates["beta"] == pytest.approx(8 * math.pi, abs=1e-12)
    rep = check_condition(
        "unstructured-l2-whp", params(5000, 5, 2000, 100, delta=0.05)
    )
    for key in ("zeta", "kappa", "eta1", "eta2"):
        assert key in rep.intermediates
    rep = check_condition(
        "structured-l1-whp", params(5000, 5, 2000, 100, delta=0.05, mu=0.2)
    )
    assert "t_delta" in rep.intermediates
    rep = check_condition(
        "noisy-l1-whp", params(5000, 5, 2000, 100, delta=0.05, sigma=0.2)
    )
    for key in ("c", "omega", "varsigma"):
        assert key in rep.intermediates
    assert rep.intermediates["omega"] == pytest.approx(
        rep.intermediates["c"] * 0.2, abs=1e-12
    )


_WHP_FROZEN = {
    "unstructured-l1-whp": (16.861551225374498, 22.41287699037392, {
        "beta": 60.80721967633666, "kappa": 1.0002000400080016}),
    "unstructured-l2-whp": (129.12565100350258, 45.029980884048705, {
        "zeta": 60.80721967633666, "kappa": 1.0002000400080016,
        "eta1": 143.66193553528433, "eta2": 22.41499044202435}),
    "structured-l1-whp": (531.7778060178317, 695.288111032584, {
        "beta": 60.80721967633666, "kappa": 1.0002000400080016,
        "t_delta": 3.8411353762057843}),
    "noisy-l1-whp": (6.732573370831815, 903.1361945693976, {
        "beta": 60.80721967633666, "beta_in": 84.77307786476858,
        "c": 4.761496461511849, "omega": 0.9522992923023699,
        "varsigma": 880.288311718003}),
}


@pytest.mark.parametrize("kind", sorted(_WHP_FROZEN))
def test_whp_frozen_values(kind):
    # recorded from the written-out formulas; 8 log(n2/delta) beats 8 pi here
    lhs, rhs, inter = _WHP_FROZEN[kind]
    rep = check_condition(
        kind, params(5000, 5, 2000, 100, delta=0.05, mu=0.2, sigma=0.2)
    )
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)
    assert rep.intermediates == pytest.approx(inter, rel=1e-12)
    assert rep.holds == (lhs > rhs)


def test_whp_holds_at_generous_sizes_and_fails_at_tiny_ones():
    assert check_condition(
        "unstructured-l2-whp", params(3000, 2, 1000, 100)
    ).holds
    assert not check_condition(
        "unstructured-l2-whp", params(50, 5, 10, 500)
    ).holds
    assert check_condition(
        "unstructured-l1-whp", params(10000, 4, 5000, 50)
    ).holds


def test_holding_region_is_upward_closed_in_n1():
    # once the condition turns on along increasing n1 it stays on
    for kind, extra in [
        ("unstructured-l2-mean", {}),
        ("unstructured-l1-mean", {}),
        ("unstructured-l1-whp", {}),
        ("unstructured-l2-whp", {}),
        ("structured-l1-mean", {"mu": 0.2}),
        ("noisy-l1-mean", {"sigma": 0.2}),
    ]:
        verdicts = [
            check_condition(kind, params(10000, 4, n1, 50, **extra)).holds
            for n1 in (2, 10, 50, 200, 1000, 4000)
        ]
        assert verdicts == sorted(verdicts), (kind, verdicts)
        assert verdicts[-1], kind


@pytest.mark.parametrize(
    "kind, p",
    [
        ("no-such-kind", params(100, 5, 10, 10)),
        ("unstructured-l2-mean", params(100, 101, 10, 10)),
        ("unstructured-l2-whp", params(100, 5, 10, 10, delta=0.0)),
        ("unstructured-l2-whp", params(100, 5, 10, 0)),
        ("structured-l1-mean", params(100, 5, 10, 10)),  # mu missing
        ("structured-l1-mean", params(100, 5, 10, 10, mu=1.5)),
        ("noisy-l1-whp", params(100, 5, 10, 10, sigma=0.0)),
        ("clustered-l1-mean", params(100, 5, 10, 10, nu=1.0)),
        ("unstructured-l1-whp", params(100, 1, 10, 10)),  # r >= 2
        ("unstructured-l2-mean", params(1, 1, 10, 10)),
        ("unstructured-l2-mean", params(10.5, 5, 5.5, 10)),
        ("noisy-l1-mean", params(100, 5, 10, 10, sigma=math.inf)),
        ("noisy-l1-whp", params(100, 5, 10, 10, sigma=math.inf)),
        ("noisy-l1-mean", params(100, 5, 10, 10, sigma=1e200)),
        ("noisy-l1-whp", params(100, 5, 10, 10, sigma=1e200)),
    ],
    ids=[
        "unknown-kind", "r-above-m", "delta-0", "whp-n2-0", "mu-missing", "mu-1.5",
        "whp-sigma-0", "nu-1", "l1-whp-r-1", "m-1", "m-10.5", "mean-sigma-inf",
        "whp-sigma-inf", "mean-sigma-1e200", "whp-sigma-1e200",
    ],
)
def test_parameter_validation(kind, p):
    # the validator makes the checker's checks first, so both reject alike
    with pytest.raises(DataError) as checked:
        check_condition(kind, p)
    with pytest.raises(DataError) as validated:
        validate_condition_empirically(kind, p, trials=1)
    assert str(validated.value) == str(checked.value)


def test_mean_kinds_allow_zero_outliers():
    rep = check_condition("unstructured-l2-mean", params(400, 5, 50, 0))
    assert rep.holds


def test_record_lines_are_flat_key_value_pairs():
    rep = check_condition(
        "noisy-l1-whp", params(5000, 5, 2000, 100, delta=0.05, sigma=0.2)
    )
    lines = rep.record_lines()
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["kind"] == "noisy-l1-whp"
    assert as_dict["holds"] in ("true", "false")
    assert float(as_dict["lhs"]) == rep.lhs
    assert float(as_dict["sigma"]) == 0.2
    for key in rep.intermediates:
        assert key in as_dict


# ---- expected coherence ----


def test_expected_coherence_frozen_values():
    vals = {
        ("inlier", 2): (5.9, "exact"),
        ("outlier", 2): (5.99, "upper"),
        ("inlier", 1): (20.342194965927437, "lower"),
        ("outlier", 1): (25.711388300841897, "upper"),
    }
    for (role, p), (value, bound) in vals.items():
        got = expected_coherence(role, p, 100, 10, 50, 100)
        assert got.value == pytest.approx(value, abs=1e-9), (role, p)
        assert got.bound == bound


def test_expected_coherence_validation():
    with pytest.raises(DataError):
        expected_coherence("both", 2, 100, 10, 50, 100)
    with pytest.raises(DataError):
        expected_coherence("inlier", 3, 100, 10, 50, 100)
    with pytest.raises(DataError):
        expected_coherence("outlier", 2, 100, 10, 50, 0)
    with pytest.raises(DataError, match="must be an integer"):
        expected_coherence("inlier", 2, 100.5, 10, 50, 100)


def test_expected_coherence_bounds_hold_empirically():
    m, r, n1, n2 = 100, 10, 50, 100
    stats = {("inlier", 1): [], ("inlier", 2): [], ("outlier", 1): [], ("outlier", 2): []}
    for trial in range(120):
        ds = gen_unstructured(m, r, n1, n2, seed=(1234, trial))
        for p in (1, 2):
            prof = coherence_gram(ds.d, p).values
            stats[("inlier", p)].append(prof[ds.labels == 0].mean())
            stats[("outlier", p)].append(prof[ds.labels == 1].mean())
    for (role, p), samples in stats.items():
        samples = np.asarray(samples)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        bound = expected_coherence(role, p, m, r, n1, n2)
        if bound.bound == "exact":
            assert abs(samples.mean() - bound.value) <= 3 * se
        elif bound.bound == "upper":
            assert samples.mean() <= bound.value + 3 * se
        else:
            assert samples.mean() >= bound.value - 3 * se


# ---- tail probability, oracles pinned first ----


def test_tail_oracles_hand_cases():
    assert tail_m3(0.0) == 1.0
    assert tail_m3(3.0) == 0.0
    # at t = 0.75 the cut is |c| > 1/2, so the uniform tail is 1/2
    assert abs(tail_m3(0.75) - 0.5) < 1e-15
    assert tail_m5(0.0) == 1.0
    assert tail_m5(5.0) == 0.0
    # at t = 1.25 the cut is a = 1/2: 1 - 3/4 + 1/16 = 0.3125
    assert abs(tail_m5(1.25) - 0.3125) < 1e-15


@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 2.9])
def test_tail_f_matches_elementary_forms(t):
    assert tail_f(t, 3) == pytest.approx(tail_m3(t), abs=1e-10)
    assert tail_f(t, 5) == pytest.approx(tail_m5(t), abs=1e-10)


@pytest.mark.parametrize("m", [3, 5, 10, 100, 1000])
def test_tail_f_matches_incomplete_beta(m):
    # (u'v)^2 follows Beta(1/2, (m-1)/2)
    for t in (0.01, 0.5, 1.0, 2.0, 3.84, 9.0):
        if t >= m:
            continue
        want = 1.0 - betainc(0.5, (m - 1) / 2.0, t / m)
        assert tail_f(t, m) == pytest.approx(want, abs=1e-9), (m, t)


def test_tail_f_normalization_is_exact():
    for m in (3, 4, 7, 100, 10_001):
        assert tail_f(0.0, m) == 1.0  # bitwise, by construction


def test_tail_f_monotone_and_edge_cases():
    grid = np.linspace(0.0, 99.9, 40)
    vals = [tail_f(t, 100) for t in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert tail_f(100.0, 100) == 0.0
    assert tail_f(250.0, 100) == 0.0
    with pytest.raises(DataError):
        tail_f(1.0, 2)
    with pytest.raises(DataError):
        tail_f(-0.5, 10)
    with pytest.raises(DataError, match="must be an integer"):
        tail_f(1.0, 10.7)  # was truncated to m=10


def test_tail_f_is_stable_at_huge_m():
    # the chi-square(1) limit: P(chi2 > 1) = 0.31731, P(chi2 > 3.8415) = 0.05
    assert tail_f(1.0, 10**7) == pytest.approx(0.3173105, abs=2e-3)
    assert tail_f(3.841459, 10**6) == pytest.approx(0.05, abs=1e-3)
    assert 0.0 < tail_f(9.0, 10**8) < 0.01


def test_t_delta_brackets_its_tail_and_is_monotone():
    for m, delta in [(10, 0.3), (100, 0.05), (1000, 0.01)]:
        td = t_delta(delta, m)
        assert tail_f(td, m) <= delta
        assert tail_f(max(0.0, td - 1e-6), m) >= delta  # just left of the cut
    assert t_delta(0.01, 100) > t_delta(0.1, 100)
    with pytest.raises(DataError):
        t_delta(0.0, 100)
    with pytest.raises(DataError):
        t_delta(1.0, 100)
    with pytest.raises(DataError, match="must be an integer"):
        t_delta(0.05, 10.7)


def test_t_delta_approaches_the_chi_square_quantile():
    assert t_delta(0.05, 100) == pytest.approx(3.8415, abs=0.05)
    assert t_delta(0.05, 10**6) == pytest.approx(3.841459, abs=0.01)


def test_t_delta_against_oracle_at_m3():
    # tail_m3(t) = delta solves to t = 3 (1 - delta)^2
    for delta in (0.1, 0.5, 0.9):
        assert t_delta(delta, 3) == pytest.approx(3 * (1 - delta) ** 2, abs=1e-6)


# ---- empirical validation ----


def test_validate_separating_setting_hits_every_trial():
    hit = validate_condition_empirically(
        "unstructured-l2-mean", params(400, 5, 50, 500), trials=8, seed=0
    )
    assert hit == 1.0


def test_validate_hopeless_setting_misses():
    # 500 ambient outliers in R^50 bury the worst inlier
    hit = validate_condition_empirically(
        "unstructured-l2-whp", params(50, 5, 10, 500), trials=5, seed=0
    )
    assert hit == 0.0


def test_validate_no_outliers_is_vacuously_separated():
    hit = validate_condition_empirically(
        "unstructured-l2-mean", params(100, 5, 20, 0), trials=3, seed=0
    )
    assert hit == 1.0


def test_validate_structured_and_clustered_models_run():
    assert (
        validate_condition_empirically(
            "structured-l1-mean", params(200, 5, 100, 10, mu=0.5), trials=3
        )
        >= 0.0
    )
    assert (
        validate_condition_empirically(
            "clustered-l1-mean", params(200, 5, 100, 10, nu=0.5), trials=3
        )
        >= 0.0
    )


def test_validate_rejects_bad_input():
    with pytest.raises(DataError):
        validate_condition_empirically("no-such-kind", params(100, 5, 10, 10))
    with pytest.raises(DataError):
        validate_condition_empirically(
            "unstructured-l2-mean", params(100, 5, 10, 10), trials=0
        )
    with pytest.raises(DataError, match="must be an integer"):
        validate_condition_empirically(
            "unstructured-l2-mean", params(100, 5, 10, 10), trials=2.5
        )


@pytest.mark.parametrize("kind, name", [
    ("structured-l1-mean", "mu"), ("noisy-l1-whp", "sigma"), ("clustered-l1-mean", "nu"),
])
def test_validate_names_a_missing_model_parameter(kind, name):
    with pytest.raises(DataError, match=f"need {name}$"):
        validate_condition_empirically(kind, params(60, 3, 30, 8), trials=1)


def test_all_kinds_are_checkable():
    good = params(
        5000, 5, 2000, 50, delta=0.05, mu=0.2, sigma=0.2, nu=0.2
    )
    for kind in KINDS:
        rep = check_condition(kind, good)
        assert isinstance(rep.holds, bool)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
