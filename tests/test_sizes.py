"""One rule for every size argument: a rank, dimension or count is an
integer within its bounds, or a DataError that names it.

A bounded size reads ``rank r=11 must satisfy 1 <= r <= m=10``; a size
with a lower bound alone reads ``... must be >= 1``.  A numpy integer is
the int it holds.

The real parameters have the sibling rule: a real number (a Python or
numpy int or float) within bounds that may be strict, as in ``fraction
q=1.5 must satisfy 0 < q < 1``.  NaN is outside every bound.
"""

import math
import re

import numpy as np
import pytest

from cohpca.errors import DataError
from cohpca.experiments import run_cluster_correction, run_noise_sweep, run_phase_transition, saliency
from cohpca.guarantees import ConditionParams, check_condition, t_delta, tail_f
from cohpca.linalg import random_projection, top_r_singular_subspace
from cohpca.models import (
    gen_clustered_inliers,
    gen_noisy,
    gen_structured_outliers,
    gen_union,
    gen_unstructured,
    random_subspace,
    sigma_for_tau,
    unit_sphere,
)
from cohpca.pursuit import (
    Adaptive,
    CopConfig,
    FixedCount,
    GreedyRank,
    TopFraction,
    cop,
    residual_outliers,
    spca,
)
from cohpca.rng import stream

DS = gen_unstructured(10, 2, 20, 20, seed=0)
D = DS.d  # 10 x 40
IMAGE = np.arange(64.0).reshape(8, 8)

GENERATORS = {
    "unstructured": lambda *sizes: gen_unstructured(*sizes, seed=1).d,
    "structured": lambda *sizes: gen_structured_outliers(*sizes, mu=0.5, seed=1).d,
    "noisy": lambda *sizes: gen_noisy(*sizes, sigma=0.1, seed=1).d,
    "clustered": lambda *sizes: gen_clustered_inliers(*sizes, nu=0.5, seed=1).d,
}


def generator_cases(model, gen):
    # m, r, n1, n2 = 10, 2, 5, 5, one of them replaced by v
    return {
        f"{model}-m": (lambda v: gen(v, 2, 5, 5), 10, "ambient dimension m", [
            (0, "ambient dimension m=0 must be >= 1"),
            (1, "rank r=2 must satisfy 1 <= r <= m=1"),
        ]),
        f"{model}-r": (lambda v: gen(10, v, 5, 5), 2, "rank r", [
            (0, "rank r=0 must satisfy 1 <= r <= m=10"),
            (11, "rank r=11 must satisfy 1 <= r <= m=10"),
        ]),
        f"{model}-n1": (lambda v: gen(10, 2, v, 5), 5, "inlier count n1", [
            (0, "inlier count n1=0 must be >= 1"),
        ]),
        f"{model}-n2": (lambda v: gen(10, 2, 5, v), 5, "outlier count n2", [
            (-1, "outlier count n2=-1 must be >= 0"),
        ]),
    }


# id: (call of the size v, a valid v, the name the errors give, and each
# invalid v with its message); sizes without an upper bound get none
SIZES = {
    **{k: v for model, gen in GENERATORS.items() for k, v in generator_cases(model, gen).items()},
    "gen_union-m": (lambda v: gen_union(v, (2, 3), (5, 5)).d, 10, "ambient dimension m", [
        (0, "ambient dimension m=0 must be >= 1"),
        (4, "total rank sum(dims)=5 must satisfy sum(dims) <= m=4"),
    ]),
    "gen_union-dims": (lambda v: gen_union(10, (v, 3), (5, 5)).d, 2, "cluster rank", [
        (0, "cluster rank=0 must be >= 1"),
        (8, "total rank sum(dims)=11 must satisfy sum(dims) <= m=10"),
    ]),
    "gen_union-sizes": (lambda v: gen_union(10, (2, 3), (v, 5)).d, 5, "cluster size", [
        (0, "cluster size=0 must be >= 1"),
    ]),
    "random_subspace-m": (lambda v: random_subspace(stream(3), v, 2), 10, "ambient dimension m", [
        (0, "ambient dimension m=0 must be >= 1"),
        (1, "subspace dimension r=2 must satisfy 1 <= r <= m=1"),
    ]),
    "random_subspace-r": (lambda v: random_subspace(stream(3), 10, v), 2, "subspace dimension r", [
        (0, "subspace dimension r=0 must satisfy 1 <= r <= m=10"),
        (11, "subspace dimension r=11 must satisfy 1 <= r <= m=10"),
    ]),
    "unit_sphere-m": (lambda v: unit_sphere(stream(3), v, 4), 3, "ambient dimension m", [
        (0, "ambient dimension m=0 must be >= 1"),
    ]),
    "unit_sphere-count": (lambda v: unit_sphere(stream(3), 3, v), 4, "sample count", [
        (-1, "sample count=-1 must be >= 0"),
    ]),
    "random_projection-d": (lambda v: random_projection(D, v, 0), 4, "projection dimension d", [
        (0, "projection dimension d=0 must satisfy 1 <= d <= m=10"),
        (11, "projection dimension d=11 must satisfy 1 <= d <= m=10"),
    ]),
    "top_r_singular_subspace-r": (lambda v: top_r_singular_subspace(D, v).basis, 2, "rank r", [
        (0, "rank r=0 must satisfy 1 <= r <= min(m, n)=10"),
        (11, "rank r=11 must satisfy 1 <= r <= min(m, n)=10"),
    ]),
    "spca-r": (lambda v: spca(D, v), 2, "target rank r", [
        (0, "target rank r=0 must satisfy 1 <= r <= m=10"),
        (11, "target rank r=11 must satisfy 1 <= r <= m=10"),
    ]),
    "cop-r": (lambda v: cop(D, CopConfig(r=v)).basis, 2, "target rank r", [
        (0, "target rank r=0 must be >= 1"),
        (11, "target rank r=11 must satisfy 1 <= r <= m=10"),
    ]),
    "FixedCount-count": (lambda v: cop(D, CopConfig(r=2, strategy=FixedCount(count=v))).basis, 5, "column count", [
        (1, "column count=1 must be >= 2"),
    ]),
    "Adaptive-k": (lambda v: cop(D, CopConfig(r=2, strategy=Adaptive(k=v))).basis, 2, "sketch factor k", [
        (0, "sketch factor k=0 must be >= 1"),
        (6, "sketch dimension k*r=12 must satisfy k*r <= m=10"),
    ]),
    "Adaptive-passes": (lambda v: cop(D, CopConfig(r=2, strategy=Adaptive(passes=v))).basis, 2, "pass count h", [
        (0, "pass count h=0 must be >= 1"),
    ]),
    "saliency-patch": (lambda v: saliency(IMAGE, patch=v).values, 2, "patch", [
        (0, "patch=0 must satisfy 1 <= patch <= min(height, width)=8"),
        (9, "patch=9 must satisfy 1 <= patch <= min(height, width)=8"),
    ]),
    "noise_sweep-n2": (lambda v: [row["gap"] for row in run_noise_sweep((0.5,), m=20, r=2, n1=10, n2=v, seeds=1)], 5,
                       "outlier count n2", [
        (0, "outlier count n2=0 must be >= 1"),
    ]),
    "check_condition-m": (
        lambda v: check_condition("unstructured-l2-mean", ConditionParams(m=v, r=1, n1=5, n2=5)).lhs, 10,
        "ambient dimension m", [(1, "ambient dimension m=1 must be >= 2")],
    ),
}


@pytest.mark.parametrize("key", SIZES)
def test_every_size_is_an_integer_within_its_bounds_or_a_named_error(key):
    call, good, name, invalid = SIZES[key]
    for value in (good + 0.5, np.float64(good)):
        with pytest.raises(DataError, match=re.escape(f"{name}={value!r} must be an integer")):
            call(value)
    for value, message in invalid:
        for given in (value, np.int64(value)):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                call(given)
    assert np.array_equal(call(np.int64(good)), call(good))


def test_unit_sphere_draws_no_columns_at_count_zero():
    # gen_unstructured(..., n2=0) draws its outliers this way
    assert unit_sphere(stream(3), 3, 0).shape == (3, 0)


# ---- real parameters ----


def at_least(low, message):
    # an inclusive lower bound: low itself passes, the next float below fails
    return low, np.nextafter(low, -np.inf), message


def above(low, message):
    # a strict lower bound: the next float above passes, low itself fails
    return np.nextafter(low, np.inf), low, message


def below(high, message):
    return np.nextafter(high, -np.inf), high, message


def strategy(make):
    return lambda v: cop(D, CopConfig(r=1, strategy=make(v))).basis


def condition(**given):
    # sizes every kind takes, whp ones included (r >= 2, n2 >= 1)
    return ConditionParams(100, 5, 10, 10, **{"mu": 0.5, "sigma": 0.5, "nu": 0.5, **given})


Q = "fraction q={} must satisfy 0 < q < 1"
DELTA = "failure probability delta={} must satisfy 0 < delta < 1"
MU = "mixing parameter mu={} must satisfy 0 < mu < 1"
NU = "mixing parameter nu={} must satisfy 0 < nu < 1"

# id: (call of the value v, a valid v, the name the errors give, each
# finite bound as (last value inside, first value outside, message of the
# outside one[, message of another rule that rejects the inside one]), and
# the message for None, which some parameters take)
REALS = {
    "TopFraction-q": (strategy(lambda v: TopFraction(q=v)), 0.5, "fraction q", [
        above(0, Q), below(1, Q),
    ], "fraction q=None must be a real number"),
    "GreedyRank-rank_tol": (strategy(lambda v: GreedyRank(rank_tol=v)), 1e-10, "rank tolerance rank_tol", [
        at_least(0, "rank tolerance rank_tol={} must be >= 0"),
    ], "rank tolerance rank_tol=None must be a real number"),
    "Adaptive-upsilon": (strategy(lambda v: Adaptive(upsilon=v)), 0.1, "threshold upsilon", [
        at_least(0, "threshold upsilon={} must be >= 0"),
    ], None),  # None takes 0.2 times the median sketched norm
    "residual_outliers-threshold": (lambda v: residual_outliers(D, DS.basis, v), 0.2, "threshold", [
        at_least(0, "threshold={} must be >= 0"),
    ], "threshold=None must be a real number"),
    "gen_structured_outliers-mu": (lambda v: gen_structured_outliers(10, 2, 5, 5, mu=v, seed=1).d, 0.5,
                                   "mixing parameter mu", [
        above(0, "mixing parameter mu={} must be > 0"),
    ], "mixing parameter mu=None must be a real number"),
    "gen_structured_outliers-inlier_nu": (
        lambda v: gen_structured_outliers(10, 2, 5, 5, mu=0.5, inlier_nu=v, seed=1).d, 0.5,
        "mixing parameter inlier_nu", [above(0, "mixing parameter inlier_nu={} must be > 0")],
        None,  # None draws unclustered inliers
    ),
    "gen_clustered_inliers-nu": (lambda v: gen_clustered_inliers(10, 2, 5, 5, nu=v, seed=1).d, 0.5,
                                 "mixing parameter nu", [
        above(0, "mixing parameter nu={} must be > 0"),
    ], "mixing parameter nu=None must be a real number"),
    "gen_noisy-sigma": (lambda v: gen_noisy(10, 2, 5, 5, sigma=v, seed=1).d, 0.1, "noise level sigma", [
        at_least(0, "noise level sigma={} must be >= 0"),
    ], "noise level sigma=None must be a real number"),
    "sigma_for_tau-tau": (sigma_for_tau, 0.5, "norm ratio tau", [
        at_least(0, "norm ratio tau={} must be >= 0"),
    ], "norm ratio tau=None must be a real number"),
    "run_cluster_correction-corruption": (
        lambda v: [row["error"] for row in run_cluster_correction(
            m=10, dims=(2, 2), sizes=(10, 10), corruption=v, iterations=1, seeds=1)],
        0.2, "corruption", [
            at_least(0, "corruption={} must satisfy 0 <= corruption < 1"),
            below(1, "corruption={} must satisfy 0 <= corruption < 1"),
        ], "corruption=None must be a real number"),
    "run_phase_transition-success_tol": (
        lambda v: run_phase_transition(m=10, r=2, n1_over_r=(3,), n2_over_m=(1,), trials=1, count=4,
                                       success_tol=v).fractions,
        1e-5, "success tolerance success_tol", [
            at_least(0, "success tolerance success_tol={} must be >= 0"),
        ], "success tolerance success_tol=None must be a real number"),
    "check_condition-delta": (lambda v: check_condition("unstructured-l2-whp", condition(delta=v)).lhs,
                              0.05, "failure probability delta", [
        above(0, DELTA), below(1, DELTA),
    ], "failure probability delta=None must be a real number"),
    "t_delta-delta": (lambda v: t_delta(v, 10), 0.05, "failure probability delta", [
        above(0, DELTA), below(1, DELTA),
    ], "failure probability delta=None must be a real number"),
    "check_condition-mu": (lambda v: check_condition("structured-l1-mean", condition(mu=v)).lhs, 0.5,
                           "mixing parameter mu", [above(0, MU), below(1, MU)], "structured kinds need mu"),
    "check_condition-nu": (lambda v: check_condition("clustered-l1-mean", condition(nu=v)).lhs, 0.5,
                           "mixing parameter nu", [above(0, NU), below(1, NU)], "clustered kinds need nu"),
    "check_condition-sigma-mean": (lambda v: check_condition("noisy-l1-mean", condition(sigma=v)).lhs, 0.5,
                                   "noise level sigma", [
        at_least(0, "noise level sigma={} must be >= 0"),
    ], "noisy kinds need sigma"),
    # sigma next to 0 makes n/(delta*sqrt(2*pi)*sigma) infinite, which the
    # bound's own rule names
    "check_condition-sigma-whp": (lambda v: check_condition("noisy-l1-whp", condition(sigma=v)).lhs, 0.5,
                                  "noise level sigma", [
        (*above(0, "noise level sigma={} must be > 0"),
         "amplitude bound undefined: n/(delta*sqrt(2*pi)*sigma) = inf"),
    ], "noisy kinds need sigma"),
    "tail_f-t": (lambda v: tail_f(v, 10), 2.0, "threshold t", [
        at_least(0, "threshold t={} must be >= 0"),
    ], "threshold t=None must be a real number"),
}


@pytest.mark.parametrize("key", REALS)
def test_every_real_parameter_is_a_real_number_within_its_bounds_or_a_named_error(key):
    call, good, name, bounds, none = REALS[key]
    for value in ("0.5", 1j):
        with pytest.raises(DataError, match=f"^{re.escape(f'{name}={value!r} must be a real number')}$"):
            call(value)
    if none is not None:
        with pytest.raises(DataError, match=f"^{re.escape(none)}$"):
            call(None)
    with pytest.raises(DataError, match=f"^{re.escape(name)}=nan must "):
        call(math.nan)
    for inside, outside, message, *other in bounds:
        for given in (inside, float(inside)):
            if other:
                with pytest.raises(DataError, match=f"^{re.escape(other[0])}$"):
                    call(given)
            else:
                call(given)
        for given in (outside, np.float64(outside)):
            with pytest.raises(DataError, match=f"^{re.escape(message.format(given))}$"):
                call(given)
    # a numpy float is the float it holds
    assert np.array_equal(call(np.float64(good)), call(good))


def test_an_infinity_passes_where_no_bound_excludes_it():
    d = D.copy()
    d[:, 3] = 0.0
    # an infinite threshold leaves only the all-zero column an outlier
    assert residual_outliers(d, DS.basis, math.inf).tolist() == [int(j == 3) for j in range(d.shape[1])]
    assert tail_f(math.inf, 10) == 0.0
