"""One rule for every size argument: a rank, dimension or count is an
integer within its bounds, or a DataError that names it.

A bounded size reads ``rank r=11 must satisfy 1 <= r <= m=10``; a size
with a lower bound alone reads ``... must be >= 1``.  A numpy integer is
the int it holds.
"""

import re

import numpy as np
import pytest

from cohpca.errors import DataError
from cohpca.experiments import run_noise_sweep, saliency
from cohpca.guarantees import ConditionParams, check_condition
from cohpca.linalg import random_projection, top_r_singular_subspace
from cohpca.models import (
    gen_clustered_inliers,
    gen_noisy,
    gen_structured_outliers,
    gen_union,
    gen_unstructured,
    random_subspace,
    unit_sphere,
)
from cohpca.pursuit import Adaptive, CopConfig, FixedCount, cop, spca
from cohpca.rng import stream

D = gen_unstructured(10, 2, 20, 20, seed=0).d  # 10 x 40
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
