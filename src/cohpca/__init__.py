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
from .linalg import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .pursuit import *  # noqa: F401,F403
from .guarantees import *  # noqa: F401,F403
from .clustering import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from . import clustering, experiments, guarantees, linalg, models, pursuit

__version__ = "0.1.0"

__all__ = ["DataError", "NumericalError", "stream", "block_power_sums"] + [
    name
    for module in (linalg, models, pursuit, guarantees, clustering, experiments)
    for name in module.__all__
]
