"""Closed-form recovery conditions and their empirical validation.

Each condition is a strict inequality lhs > rhs in the problem sizes
(ambient dimension m, rank r, inlier count n1, outlier count n2) plus
model parameters.  When it holds, high-coherence column selection
provably prefers inliers for the matching data model.  Kind names have
three parts: the data model, the coherence power used (l1 or l2), and
the guarantee strength -- "mean" kinds separate expected coherences,
"whp" kinds separate worst cases with probability at least 1 - O(delta).

All constants inside the formulas are fixed by the derivations; nothing
here is tunable.  ``validate_condition_empirically`` closes the loop by
sampling datasets from the matching model and measuring how often the
separation actually occurs; the coherence it inspects is taken on the
raw (unnormalized) columns, which is the quantity the mean and
worst-case bounds control.
"""

import math
from dataclasses import dataclass

from . import models
from .errors import DataError, _integer, _power
from .linalg import coherence_gram
from .models import _check_sizes, _squarable

__all__ = [
    "KINDS",
    "ConditionParams",
    "ConditionReport",
    "CoherenceBound",
    "check_condition",
    "expected_coherence",
    "tail_f",
    "t_delta",
    "validate_condition_empirically",
]

@dataclass(frozen=True)
class ConditionParams:
    """Problem sizes plus the model parameter the kind calls for.

    ``delta`` only matters for whp kinds; ``mu``/``sigma``/``nu`` are
    required by the structured / noisy / clustered kinds respectively.
    """

    m: int
    r: int
    n1: int
    n2: int
    delta: float = 0.05
    mu: float | None = None
    sigma: float | None = None
    nu: float | None = None


@dataclass(frozen=True)
class ConditionReport:
    kind: str
    params: ConditionParams
    lhs: float
    rhs: float
    holds: bool
    intermediates: dict

    def record_lines(self):
        """Flat key=value lines, one fact per line, for logs and files."""
        p = self.params
        lines = [
            f"kind={self.kind}",
            f"m={p.m}",
            f"r={p.r}",
            f"n1={p.n1}",
            f"n2={p.n2}",
            f"delta={p.delta:.17g}",
        ]
        for name in ("mu", "sigma", "nu"):
            value = getattr(p, name)
            if value is not None:
                lines.append(f"{name}={value:.17g}")
        lines.append(f"lhs={self.lhs:.17g}")
        lines.append(f"rhs={self.rhs:.17g}")
        lines.append(f"holds={str(self.holds).lower()}")
        for key in sorted(self.intermediates):
            lines.append(f"{key}={self.intermediates[key]:.17g}")
        return lines


@dataclass(frozen=True)
class CoherenceBound:
    """A coherence expectation with its direction: exact, lower or upper."""

    value: float
    bound: str


def _require(cond, msg):
    if not cond:
        raise DataError(msg)


def _base_checks(p, kind):
    _check_sizes(p.m, p.r, p.n1, p.n2)
    _integer(p.m, "ambient dimension m", 2)
    if kind.endswith("whp"):
        _require(0.0 < p.delta < 1.0, f"delta={p.delta} must lie in (0, 1)")
        _require(p.n2 >= 1, f"n2={p.n2} must be >= 1 for whp kinds")


def _model_param(p, model):
    """``model``'s parameter (mu, sigma or nu): given, finite, with 1 + its square finite."""
    (name,) = models._MODELS[model][1]
    value = getattr(p, name)
    _require(value is not None, f"{model} kinds need {name}")
    _squarable(value, f"{name}={value}")
    return value


def _mu(p):
    mu = _model_param(p, "structured")
    _require(0 < mu < 1, f"the structured bounds need 0 < mu < 1, got {mu}")
    return mu


def _beta(n, delta):
    """The log-union floor max(8 log(n/delta), 8 pi) of the whp bounds."""
    return max(8 * math.log(n / delta), 8 * math.pi)


def _concentration(n, m, delta):
    """Whp bound on the summed |coherence| of n uniform unit vectors in R^m."""
    return n / math.sqrt(m) + 2 * math.sqrt(n) + math.sqrt(2 * n * math.log(n / delta) / (m - 1))


def _unstructured_l1_mean(p):
    lhs = p.n1 / math.sqrt(p.r) * (math.sqrt(2 / math.pi) - math.sqrt(4 * p.r**2 / p.m))
    rhs = 5 * p.n2 / (4 * math.sqrt(p.m)) + math.sqrt(2 / (math.pi * p.r))
    return lhs, rhs, {}


def _unstructured_l2_mean(p):
    lhs = p.n1 / p.r * (1 - 2 * p.r**2 / p.m)
    rhs = p.n2 / p.m + 1 / p.r
    return lhs, rhs, {}


def _unstructured_l1_whp(p):
    _require(p.r >= 2, "the l1 whp bound needs r >= 2")
    beta = _beta(p.n2, p.delta)
    kappa = p.m / (p.m - 1)
    lhs = (
        p.n1
        / math.sqrt(p.r)
        * (math.sqrt(2 / math.pi) - (p.r + 2 * math.sqrt(beta * kappa * p.r)) / math.sqrt(p.m))
        - 2 * math.sqrt(p.n1)
        - math.sqrt(2 * p.n1 * math.log(p.n1 / p.delta) / (p.r - 1))
    )
    rhs = _concentration(p.n2, p.m, p.delta) + 1 / math.sqrt(p.r)
    return lhs, rhs, {"beta": beta, "kappa": kappa}


def _unstructured_l2_whp(p):
    zeta = _beta(p.n2, p.delta)
    kappa = p.m / (p.m - 1)
    log1 = math.log(2 * p.r * p.n1 / p.delta)
    log2 = math.log(2 * p.m * p.n2 / p.delta)
    eta1 = max(4 / 3 * log1, math.sqrt(4 * (p.n1 / p.r) * log1))
    eta2 = max(4 / 3 * log2, math.sqrt(4 * (p.n2 / p.m) * log2))
    lhs = (
        p.n1
        * (1 / p.r - (p.r + 4 * zeta * kappa + 4 * math.sqrt(zeta * p.r * kappa)) / p.m)
        - eta1
    )
    rhs = 2 * eta2 + 1 / p.r
    return lhs, rhs, {"zeta": zeta, "kappa": kappa, "eta1": eta1, "eta2": eta2}


def _structured_l1_mean(p):
    mu = _mu(p)
    lhs = (p.n1 - 1) * math.sqrt(2 / (math.pi * p.r))
    rhs = 2 * p.n2 / (1 + mu**2) + (
        2 * mu**2 * p.n2
        + 4 * mu * p.n2
        + 2 * p.n1 * math.sqrt(p.r * (1 + mu**2)) * (mu + 1)
    ) / ((1 + mu**2) * math.sqrt(p.m))
    return lhs, rhs, {}


def _structured_l1_whp(p):
    mu = _mu(p)
    beta = _beta(p.n2, p.delta)
    kappa = p.m / (p.m - 1)
    t_tail = t_delta(p.delta, p.m)
    lhs = (
        math.sqrt(2 / math.pi) * (p.n1 - 1) / math.sqrt(p.r)
        - 2 * math.sqrt(p.n1)
        - math.sqrt(2 * p.n1 * math.log(p.n1 / p.delta) / p.r)
    )
    rhs = (
        p.n2 / (1 + mu**2)
        + ((mu**2 + mu) / (1 + mu**2)) * _concentration(p.n2, p.m, p.delta)
        + mu * p.n2 * math.sqrt(t_tail) / ((1 + mu**2) * math.sqrt(p.m))
        + p.n1 * (mu + 1) / math.sqrt((1 + mu**2) * p.m)
        * (math.sqrt(p.r) + 2 * math.sqrt(beta * kappa))
    )
    return lhs, rhs, {"beta": beta, "kappa": kappa, "t_delta": t_tail}


def _noisy_l1_mean(p):
    sigma = _model_param(p, "noisy")
    _require(sigma >= 0, f"sigma={sigma} must be >= 0")
    s2 = sigma**2
    xi = math.sqrt(2 * s2 / (math.pi * p.m)) * (
        p.n1 / math.sqrt(1 + s2) * (1 + sigma * math.sqrt(math.pi / 2) + math.sqrt(p.r))
        + p.n2
        + 2 * p.n1
    )
    lhs = (
        p.n1
        / math.sqrt(p.r)
        * (math.sqrt(2 / (math.pi * (1 + s2))) - math.sqrt(4 * p.r**2 / p.m))
    )
    rhs = p.n2 * math.sqrt(1 + s2) / math.sqrt(p.m) + math.sqrt(2 / (math.pi * p.r)) + xi
    return lhs, rhs, {"xi": xi}


def _noisy_l1_whp(p):
    sigma = _model_param(p, "noisy")
    _require(sigma > 0, "the noisy whp bound needs sigma > 0")
    _require(p.r >= 2, "the noisy whp bound needs r >= 2")
    s2 = sigma**2
    n = p.n1 + p.n2
    c_arg = n / (p.delta * math.sqrt(2 * math.pi) * sigma)
    _require(c_arg > 1.0, f"amplitude bound undefined: n/(delta*sqrt(2*pi)*sigma) = {c_arg:.3g} <= 1")
    c = math.sqrt(2 * math.log(c_arg))
    beta = _beta(p.n2, p.delta)
    beta_in = _beta(p.n1, p.delta)
    varsigma = (
        (c * sigma + c**2 * s2) / math.sqrt(1 + s2) + c * sigma
    ) * _concentration(p.n1, p.m, p.delta) + (c * p.n1 * sigma / math.sqrt(1 + s2)) * (
        math.sqrt(p.r / p.m) + 2 * math.sqrt(beta_in / (p.m - 1))
    )
    lhs = (
        p.n1
        / math.sqrt(p.r)
        * (
            math.sqrt(2 / (math.pi * (1 + s2)))
            - (p.r + 2 * math.sqrt(beta * p.r)) / math.sqrt(p.m - 1)
        )
        - 2 * math.sqrt(p.n1 / (1 + s2))
        - math.sqrt(2 * p.n1 * math.log(p.n1 / p.delta) / ((p.r - 1) * (1 + s2)))
    )
    rhs = math.sqrt(1 + s2) * _concentration(p.n2, p.m, p.delta) + 1 / math.sqrt(p.r) + varsigma
    inter = {
        "beta": beta,
        "beta_in": beta_in,
        "c": c,
        "omega": c * sigma,
        "varsigma": varsigma,
    }
    return lhs, rhs, inter


def _clustered_l1_mean(p):
    nu = _model_param(p, "clustered")
    _require(0 < nu < 1, f"the clustered bound needs 0 < nu < 1, got {nu}")
    lhs = p.n1 * (1 - (nu**2 + 2 * nu) / math.sqrt(p.r))
    rhs = (
        1
        + 2 * p.n1 * (1 + nu) * math.sqrt(p.r * (1 + nu**2)) / math.sqrt(p.m)
        + (p.n2 * math.sqrt(1 + nu**2) / math.sqrt(p.m))
        * (nu - math.sqrt(2 / math.pi) + 2 * math.sqrt(1 + nu**2))
    )
    return lhs, rhs, {}


_CHECKS = {
    "unstructured-l1-mean": _unstructured_l1_mean,
    "unstructured-l2-mean": _unstructured_l2_mean,
    "unstructured-l1-whp": _unstructured_l1_whp,
    "unstructured-l2-whp": _unstructured_l2_whp,
    "structured-l1-mean": _structured_l1_mean,
    "structured-l1-whp": _structured_l1_whp,
    "noisy-l1-mean": _noisy_l1_mean,
    "noisy-l1-whp": _noisy_l1_whp,
    "clustered-l1-mean": _clustered_l1_mean,
}
KINDS = tuple(_CHECKS)


def check_condition(kind, params):
    """Evaluate one recovery condition; strict inequality decides."""
    if kind not in _CHECKS:
        raise DataError(f"unknown condition kind {kind!r}; choose from {KINDS}")
    _base_checks(params, kind)
    lhs, rhs, inter = _CHECKS[kind](params)
    return ConditionReport(kind, params, float(lhs), float(rhs), bool(lhs > rhs), inter)


def expected_coherence(role, p, m, r, n1, n2):
    """Expected coherence of one column under the unstructured model.

    For the squared power the inlier value is exact; everything else is
    a one-sided bound, and the ``bound`` field says which side.
    """
    _require(role in ("inlier", "outlier"), f"role must be inlier or outlier, got {role!r}")
    _power(p)
    _check_sizes(m, r, n1, n2)
    _require(role == "inlier" or n2 >= 1, f"n2={n2} too small for role {role}")
    if p == 2:
        if role == "inlier":
            return CoherenceBound((n1 - 1) / r + n2 / m, "exact")
        return CoherenceBound((r * n1 + n2 - 1) / m, "upper")
    if role == "inlier":
        value = (n1 - 1) * math.sqrt(2 / (math.pi * r)) + n2 * math.sqrt(2 / (math.pi * m))
        return CoherenceBound(value, "lower")
    return CoherenceBound(n1 * math.sqrt(r / m) + (n2 - 1) * math.sqrt(1 / m), "upper")


def tail_f(t, m):
    """P(m * (u'v)^2 > t) for independent uniform unit vectors in R^m.

    The squared inner product follows a Beta(1/2, (m-1)/2) law, so the
    tail is that law's upper regularized incomplete beta function at
    t/m.  It stays accurate deep into the tail, where 1 - CDF would
    round to zero, and tail_f(0, m) is exactly 1.
    """
    m = _integer(m, "m", 3)
    _require(t >= 0, f"threshold t={t} must be >= 0")
    if t >= m:
        return 0.0
    from scipy.special import betaincc  # scipy loads on first use only

    return float(betaincc(0.5, (m - 1) / 2.0, t / m))


def t_delta(delta, m):
    """Smallest t with tail_f(t, m) below delta, by bisection to 1e-8."""
    _require(0.0 < delta < 1.0, f"delta={delta} must lie in (0, 1)")
    lo, hi = 0.0, float(_integer(m, "m", 3))
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if tail_f(mid, m) < delta:
            hi = mid
        else:
            lo = mid
    return hi


def validate_condition_empirically(kind, params, trials=20, seed=0):
    """Fraction of sampled datasets showing the separation a kind promises.

    Makes ``check_condition``'s checks first, so it rejects what the
    checker rejects.  Draws ``trials`` datasets from the kind's model
    and computes raw-column coherence at the kind's power.  Mean kinds
    count a trial as separated when the inlier mean exceeds twice the
    outlier mean, as the unstructured-l2-mean bound promises: its
    lhs - rhs + 2/m is the exact inlier ``expected_coherence`` minus
    twice the outlier upper bound.  Whp kinds require the worst inlier
    to beat the best outlier.  Mean kinds without outliers are
    separated by convention.
    """
    check_condition(kind, params)
    _integer(trials, "trials", 1)
    if params.n2 == 0:
        return 1.0
    name, fields = models._MODELS[kind.split("-")[0]]
    gen = getattr(models, name)
    extra = tuple(getattr(params, field) for field in fields)
    p = 2 if "-l2-" in kind else 1
    want_worst_case = kind.endswith("whp")
    hits = 0
    for trial in range(trials):
        ds = gen(params.m, params.r, params.n1, params.n2, *extra, seed=(seed, trial))
        prof = coherence_gram(ds.d, p).values
        inl = prof[ds.labels == models.INLIER]
        out = prof[ds.labels == models.OUTLIER]
        if want_worst_case:
            hits += bool(inl.min() > out.max())
        else:
            hits += bool(inl.mean() > 2 * out.mean())
    return hits / trials
