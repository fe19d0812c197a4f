"""Robust subspace recovery by coherence pursuit.

Columns that lie in a shared low dimensional subspace are mutually
coherent; outliers are not.  Ranking columns by total coherence and
spanning the leaders recovers the subspace without iterating, tolerates
far more outliers than it has inliers, and extends to noisy, clustered
and structured corruption regimes.
"""

from .errors import DataError, NumericalError
from .rng import stream
from .kernels import block_power_sums
from .linalg import (
    CoherenceProfile,
    Normalized,
    TopSubspace,
    coherence,
    coherence_gram,
    deflate,
    normalize_columns,
    orthonormal_basis,
    random_projection,
    recovery_error,
    top_r_singular_subspace,
)
from .models import (
    INLIER,
    OUTLIER,
    LabeledDataset,
    UnionDataset,
    gen_clustered_inliers,
    gen_noisy,
    gen_structured_outliers,
    gen_union,
    gen_unstructured,
    random_subspace,
    sigma_for_tau,
    unit_sphere,
)
from .pursuit import (
    Adaptive,
    CopConfig,
    CopResult,
    FixedCount,
    GreedyRank,
    TopFraction,
    adaptive_sampling,
    cop,
    cop_multipass,
    greedy_rank_sampling,
    residual_outliers,
    spca,
    top_fraction_sampling,
)
from .guarantees import (
    KINDS,
    CoherenceBound,
    ConditionParams,
    ConditionReport,
    check_condition,
    expected_coherence,
    t_delta,
    tail_f,
    validate_condition_empirically,
)
from .clustering import (
    CorrectionResult,
    ace,
    assign_to_subspaces,
    clustering_error,
    correct_clustering,
)
from .experiments import (
    PhaseResult,
    SaliencyResult,
    run_bench,
    run_cluster_correction,
    run_noise_sweep,
    run_phase_transition,
    run_structured_sweep,
    saliency,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "NumericalError",
    "stream",
    "block_power_sums",
    "CoherenceProfile",
    "Normalized",
    "TopSubspace",
    "coherence",
    "coherence_gram",
    "deflate",
    "normalize_columns",
    "orthonormal_basis",
    "random_projection",
    "recovery_error",
    "top_r_singular_subspace",
    "INLIER",
    "OUTLIER",
    "LabeledDataset",
    "UnionDataset",
    "gen_clustered_inliers",
    "gen_noisy",
    "gen_structured_outliers",
    "gen_union",
    "gen_unstructured",
    "random_subspace",
    "sigma_for_tau",
    "unit_sphere",
    "Adaptive",
    "CopConfig",
    "CopResult",
    "FixedCount",
    "GreedyRank",
    "TopFraction",
    "adaptive_sampling",
    "cop",
    "cop_multipass",
    "greedy_rank_sampling",
    "residual_outliers",
    "spca",
    "top_fraction_sampling",
    "KINDS",
    "CoherenceBound",
    "ConditionParams",
    "ConditionReport",
    "check_condition",
    "expected_coherence",
    "t_delta",
    "tail_f",
    "validate_condition_empirically",
    "CorrectionResult",
    "ace",
    "assign_to_subspaces",
    "clustering_error",
    "correct_clustering",
    "PhaseResult",
    "SaliencyResult",
    "run_bench",
    "run_cluster_correction",
    "run_noise_sweep",
    "run_phase_transition",
    "run_structured_sweep",
    "saliency",
]
