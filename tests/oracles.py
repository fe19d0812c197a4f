"""Independent reference routes used to cross-check the library.

Everything here is deliberately written the slowest, most explicit way
and never imports cohpca; the tests first pin these oracles on cases
small enough to verify by hand, then compare library output against
them.  Keeping both routes alive is the point: a bug would have to hit
two unrelated implementations identically to slip through.
"""

import math

import numpy as np
from scipy.special import gammaln


def naive_coherence(x, p, columns=None):
    """Per-column coherence by an explicit double loop with fsum.

    ``columns`` limits the outer loop to those columns, in that order, so
    a wide matrix can be checked at a few columns; by default all of them.
    """
    m, n = x.shape
    columns = range(n) if columns is None else list(columns)
    out = np.zeros(len(columns))
    for j, i in enumerate(columns):
        terms = []
        for k in range(n):
            if k == i:
                continue
            dot = math.fsum(float(x[q, i]) * float(x[q, k]) for q in range(m))
            terms.append(abs(dot) if p == 1 else dot * dot)
        out[j] = math.fsum(terms)
    return out


def gram_coherence(d, p):
    """Per-column coherence of raw columns from the full n-by-n Gram matrix.

    Forms G = D'D in one product, zeroes the diagonal and sums |G|^p down
    each column: O(n^2) memory, so keep n moderate.
    """
    d = np.asarray(d, dtype=np.float64)
    g = d.T @ d
    np.fill_diagonal(g, 0.0)
    return np.abs(g).sum(axis=0) if p == 1 else (g * g).sum(axis=0)


def subspace_distance(u, v):
    """Relative distance of span(u) from span(v) via explicit least squares."""
    total = 0.0
    for j in range(u.shape[1]):
        coef, *_ = np.linalg.lstsq(v, u[:, j], rcond=None)
        resid = u[:, j] - v @ coef
        total += math.fsum(float(e) ** 2 for e in resid)
    den = math.fsum(float(e) ** 2 for col in u.T for e in col)
    return math.sqrt(total / den)


def tail_m3(t):
    """P(3 (u'v)^2 > t) in R^3, where u'v is uniform on [-1, 1]."""
    if t >= 3.0:
        return 0.0
    return 1.0 - math.sqrt(t / 3.0)


def tail_m5(t):
    """P(5 (u'v)^2 > t) in R^5, where u'v has density 3/4 (1 - c^2)."""
    if t >= 5.0:
        return 0.0
    a = math.sqrt(t / 5.0)
    return 1.0 - 1.5 * a + 0.5 * a**3


def mean_abs_dot(m):
    """E|u'v| for independent uniform unit vectors in R^m.

    The inner product has density proportional to (1 - c^2)^b with
    b = (m - 3) / 2, so the mean of |c| is
    Gamma(b + 3/2) / ((b + 1) sqrt(pi) Gamma(b + 1)).
    """
    b = (m - 3) / 2.0
    return math.exp(gammaln(b + 1.5) - gammaln(b + 1.0)) / ((b + 1.0) * math.sqrt(math.pi))


def brute_assign(d, bases):
    """Nearest-subspace labels by explicit per-column, per-basis scoring."""
    labels = []
    for j in range(d.shape[1]):
        best, best_k = -1.0, 0
        for k, u in enumerate(bases):
            s = 0.0
            for col in range(u.shape[1]):
                s += float(u[:, col] @ d[:, j]) ** 2
            if s > best:
                best, best_k = s, k
        labels.append(best_k)
    return np.array(labels)


def brute_clustering_error(pred, truth, n_clusters):
    """Minimum mislabel fraction over relabelings, by explicit counting."""
    import itertools

    best = len(truth)
    for perm in itertools.permutations(range(n_clusters)):
        wrong = sum(1 for p, t in zip(pred, truth) if perm[p] != t)
        best = min(best, wrong)
    return best / len(truth)
