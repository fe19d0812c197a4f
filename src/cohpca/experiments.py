"""Desk-scale experiments: phase transitions, sweeps, timing, saliency.

Every runner is a pure function of its parameters; randomness flows
from one base seed into per-cell, per-trial sub-streams, so a run is
reproducible column for column and any single trial can be replayed.
Runners optionally write CSV files (first line is a "# cohpca <name> v1"
schema comment, then a header row) and, where it makes sense, PGM
heatmaps.
"""

import csv
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import DataError, NumericalError, _as_matrix, _integer, _power
from .linalg import coherence, normalize_columns, recovery_error
from .models import (
    INLIER,
    OUTLIER,
    _check_sizes,
    gen_noisy,
    gen_structured_outliers,
    gen_union,
    gen_unstructured,
    sigma_for_tau,
)
from .clustering import correct_clustering
from .pursuit import CopConfig, FixedCount, TopFraction, cop, spca
from .rng import _flat, stream

__all__ = [
    "PhaseResult",
    "run_phase_transition",
    "run_noise_sweep",
    "run_structured_sweep",
    "run_cluster_correction",
    "SaliencyResult",
    "saliency",
    "run_bench",
]


def write_rows_csv(path, tag, rows):
    """Write dict rows to CSV, headed by a schema comment and the first row's keys."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# cohpca {tag} v1\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _axis(name, values):
    """``values`` as a tuple of at least one value, none repeated: the rows
    of a sweep are grouped by value, so a repeat would be counted twice."""
    values = tuple(values)
    if not values:
        raise DataError(f"{name} must hold at least one value")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise DataError(f"{name} repeats the value {v}")
    return values


@dataclass(frozen=True)
class PhaseResult:
    """fractions[i, j] is the success rate at n1 = n1_over_r[i] * r,
    n2 = n2_over_m[j] * m."""

    fractions: np.ndarray
    n1_over_r: tuple
    n2_over_m: tuple
    m: int
    r: int
    trials: int
    count: int
    p: int
    success_tol: float


def run_phase_transition(
    m=100,
    r=10,
    n1_over_r=tuple(range(1, 11)),
    n2_over_m=(0, 5, 10, 20, 30),
    trials=10,
    count=20,
    p=2,
    seed=0,
    success_tol=1e-5,
    csv_path=None,
    pgm_path=None,
):
    """Exact-recovery success rates over a grid of inlier/outlier ratios.

    Each cell draws ``trials`` unstructured datasets, keeps the
    ``count`` highest-coherence columns, truncates their span to rank r
    and scores success when the recovery error is at most
    ``success_tol``.  The optional PGM heatmap has one row per
    n1_over_r value (in the given order), one column per n2_over_m
    value, and pixel round(255 * fraction), so 255 means every trial
    succeeded.
    """
    n1_over_r = _axis("n1_over_r", n1_over_r)
    n2_over_m = _axis("n2_over_m", n2_over_m)
    _integer(trials, "trials", 1)
    cfg = CopConfig(r=r, p=p, strategy=FixedCount(count))
    fractions = np.zeros((len(n1_over_r), len(n2_over_m)))
    rows = []
    for i, a in enumerate(n1_over_r):
        for j, b in enumerate(n2_over_m):
            n1 = int(round(a * r))
            n2 = int(round(b * m))
            wins = 0
            for t in range(trials):
                ds = gen_unstructured(m, r, n1, n2, seed=(seed, i, j, t))
                try:
                    res = cop(ds.d, cfg)
                except NumericalError as exc:
                    raise NumericalError(
                        f"phase cell n1/r={a} n2/m={b} trial={t}: {exc}"
                    ) from exc
                wins += recovery_error(ds.basis, res.basis) <= success_tol
            fractions[i, j] = wins / trials
            rows.append(
                {
                    "n1_over_r": a,
                    "n2_over_m": b,
                    "n1": n1,
                    "n2": n2,
                    "trials": trials,
                    "successes": wins,
                    "fraction": fractions[i, j],
                }
            )
    if csv_path:
        write_rows_csv(csv_path, "phase", rows)
    if pgm_path:
        io.write_pgm(pgm_path, np.rint(255 * fractions))
    return PhaseResult(
        fractions, n1_over_r, n2_over_m, m, r, trials, count, p, success_tol
    )


def run_noise_sweep(
    taus=(0.0, 0.5, 1.0),
    m=400,
    r=5,
    n1=50,
    n2=500,
    p=2,
    seeds=20,
    seed=0,
    csv_path=None,
):
    """Inlier/outlier coherence separation as noise grows.

    ``taus`` are noise-to-signal norm ratios (0 means clean data); each
    is converted to the matching amplitude sigma.  For every (tau, seed)
    the row records the smallest inlier and largest outlier coherence of
    the normalized data and their gap; a positive gap means coherence
    ranking still separates the classes perfectly.
    """
    _integer(n2, "outlier count n2", 1)
    _integer(seeds, "seeds", 1)
    taus = _axis("taus", taus)
    rows = []
    for ti, tau in enumerate(taus):
        sigma = sigma_for_tau(tau)
        for s in range(seeds):
            ds = gen_noisy(m, r, n1, n2, sigma, seed=(seed, ti, s))
            x, kept = normalize_columns(ds.d)
            prof = coherence(x, p).values
            labels = ds.labels[kept]
            min_inlier = float(prof[labels == INLIER].min())
            max_outlier = float(prof[labels == OUTLIER].max())
            vmax = float(prof.max())
            gap = min_inlier - max_outlier
            rows.append(
                {
                    "tau": tau,
                    "sigma": sigma,
                    "seed": s,
                    "p": p,
                    "min_inlier": min_inlier,
                    "max_outlier": max_outlier,
                    "gap": gap,
                    "gap_over_max": gap / vmax if vmax > 0 else 0.0,
                }
            )
    if csv_path:
        write_rows_csv(csv_path, "noise-sweep", rows)
    return rows


def run_structured_sweep(
    mus=(5.0, 0.5, 0.2, 0.1),
    m=200,
    r=5,
    n1=400,
    n2=20,
    nu=0.2,
    p=2,
    seeds=20,
    seed=0,
    csv_path=None,
):
    """Recovery error against clustered outliers of varying tightness.

    Inliers are clustered (mixing ``nu``), outliers are clustered around
    a common direction with mixing ``mu``; small mu makes the outliers
    nearly parallel and is the regime that defeats naive detectors.
    Every row also carries the plain spherical-PCA error on the same
    data as the baseline.
    """
    _integer(seeds, "seeds", 1)
    mus = _axis("mus", mus)
    cfg = CopConfig(r=r, p=p)
    rows = []
    for mi, mu in enumerate(mus):
        for s in range(seeds):
            ds = gen_structured_outliers(
                m, r, n1, n2, mu, seed=(seed, mi, s), inlier_nu=nu
            )
            try:
                res = cop(ds.d, cfg)
            except NumericalError as exc:
                raise NumericalError(f"structured sweep mu={mu} seed={s}: {exc}") from exc
            err = recovery_error(ds.basis, res.basis)
            err_spca = recovery_error(ds.basis, spca(ds.d, r))
            rows.append({"mu": mu, "seed": s, "error": err, "error_spca": err_spca})
    if csv_path:
        write_rows_csv(csv_path, "structured-sweep", rows)
    return rows


def run_cluster_correction(
    m=50,
    dims=(3, 3),
    sizes=(250, 250),
    corruption=0.2,
    iterations=4,
    q=0.5,
    seeds=20,
    seed=0,
    csv_path=None,
):
    """Clustering-error trajectories while correcting corrupted labels.

    Draws union-of-subspaces data, flips a ``corruption`` fraction of
    the true labels to uniformly random wrong clusters, then runs the
    correction loop.  Rows carry (seed, iteration, error); iteration 0
    is the corrupted starting point, whose error equals ``corruption``
    by construction (up to rounding to whole columns).
    """
    dims = tuple(dims)
    if len(set(dims)) != 1:
        raise DataError("the correction loop fits one common rank; dims must be equal")
    if not 0.0 <= corruption < 1.0:
        raise DataError(f"corruption={corruption} must lie in [0, 1)")
    _integer(seeds, "seeds", 1)
    r = dims[0]
    n = int(sum(sizes))
    n_clusters = len(dims)
    cfg = CopConfig(r=r, strategy=TopFraction(q))
    rows = []
    for s in range(seeds):
        ds = gen_union(m, dims, sizes, seed=(seed, s))
        rng = stream(seed, s, 1)
        flip = rng.choice(n, int(round(corruption * n)), replace=False)
        labels = ds.labels.copy()
        if n_clusters > 1:
            offsets = rng.integers(1, n_clusters, size=len(flip))
            labels[flip] = (labels[flip] + offsets) % n_clusters
        try:
            result = correct_clustering(
                ds.d, labels, r, iterations, cfg=cfg, truth=ds.labels
            )
        except NumericalError as exc:
            raise NumericalError(f"cluster correction seed={s}: {exc}") from exc
        for it, err in enumerate(result.trajectory):
            rows.append({"seed": s, "iteration": it, "error": err})
        # a run that converged early holds its final error for the
        # remaining iterations so every seed reports the full range
        last = result.trajectory[-1]
        for it in range(len(result.trajectory), iterations + 1):
            rows.append({"seed": s, "iteration": it, "error": last})
    if csv_path:
        write_rows_csv(csv_path, "cluster-correct", rows)
    return rows


@dataclass(frozen=True)
class SaliencyResult:
    """values: per-patch saliency in [0, 1] (1 = most outlying).
    image: the same map quantized to 0..255 and upsampled to the
    (possibly cropped) input size.  cropped: True when the input was
    trimmed to a multiple of the patch size."""

    values: np.ndarray
    image: np.ndarray
    cropped: bool


def saliency(image, patch=10, p=2):
    """Patch saliency by inverted coherence.

    The image is cut into non-overlapping ``patch`` x ``patch`` tiles
    (cropped from the top-left if the dimensions do not divide), tiles
    become columns, and each tile's coherence with all others is
    computed; background tiles resemble many others and score high.
    Saliency is 1 - coherence/max(coherence), so the most repetitive
    tile gets 0 and unusual tiles approach 1.  All-zero tiles are
    maximally salient by convention.
    """
    img = _as_matrix(image, "image")
    _integer(patch, "patch", 1, ("min(height, width)", min(img.shape)))
    _power(p)  # checked here too, as an all-zero image reaches no kernel
    gh, gw = img.shape[0] // patch, img.shape[1] // patch
    cropped = img.shape != (gh * patch, gw * patch)
    img = img[: gh * patch, : gw * patch]
    tiles = (
        img.reshape(gh, patch, gw, patch)
        .transpose(0, 2, 1, 3)
        .reshape(gh * gw, patch * patch)
        .T
    )
    sal = np.ones(gh * gw)  # all-zero tiles, absent from kept
    if tiles.any():  # else every tile is zero, and normalize_columns keeps none
        x, kept = normalize_columns(tiles)
        values = coherence(x, p).values
        vmax = values.max()
        sal[kept] = 1.0 - values / vmax if vmax > 0 else 0.0
    grid = sal.reshape(gh, gw)
    upsampled = np.kron(grid, np.ones((patch, patch)))
    out = np.rint(255 * upsampled).astype(np.uint8)
    return SaliencyResult(grid, out, cropped)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 cannot return its config
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _bench_environment():
    """Versions, CPU count and BLAS thread settings that a timing depends on."""
    # the metadata names scipy's version without loading scipy; imported
    # here, as importing it at module level slows every import cohpca
    import importlib.metadata

    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas_version(),
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _import_seconds(runs):
    """Wall time of ``import cohpca`` in a fresh interpreter, once per run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    seconds = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cohpca"], env=env, check=True)
        seconds.append(time.perf_counter() - t0)
    return seconds


def _spread(seconds):
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1), "seconds": seconds}


def _bench_case(m, n, r, p):
    """The sizes of one bench case: n // 5 inliers, the rest outliers, rank min(r, n1)."""
    n1 = n // 5
    case = {"m": m, "n": n, "n1": n1, "n2": n - n1, "r": min(r, n1), "p": p}
    try:
        _check_sizes(m, case["r"], n1, case["n2"])
    except DataError as err:
        raise DataError(f"bench case {m}x{n}: {err}") from None
    # plain ints, so the report is JSON whatever integer types came in
    return {key: _integer(value, key) for key, value in case.items()}


def run_bench(
    cases=((1000, 1000), (2000, 2000)),
    r=10,
    p=2,
    runs=1,
    seed=0,
    json_path=None,
):
    """Stage timings of the full pipeline on unstructured data, as one report.

    ``cases`` lists (m, n) sizes; each gets n1 = n/5 inliers and the
    rest outliers.  Each run times writing the data matrix to a text
    file in a temporary directory and reading it back, then runs ``cop``
    with ``CopConfig``'s default strategy on the matrix it read and
    records the seconds ``cop`` reports for its ``normalize``,
    ``coherence`` and ``select`` stages.  The
    returned report holds the environment, the settings, the spread
    (median, interquartile range and the seconds of every run, in run
    order) of the time a fresh interpreter takes to ``import cohpca``
    and, per case and stage, the same spread of the stage seconds.
    ``json_path`` receives the same report as JSON.
    """
    runs = _integer(runs, "runs", 1)
    # the stream path of the seed as plain ints, so the report is JSON
    # whatever integer types came in; a tuple seed is recorded as a list
    head = tuple(_integer(s, "seed component", 0) for s in _flat(seed))
    cases = _axis("cases", cases)
    checked = [_bench_case(m, n, r, p) for m, n in cases]
    summary = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.txt")
        for ci, case in enumerate(checked):
            seconds = {}
            for run in range(runs):
                ds = gen_unstructured(
                    case["m"], case["r"], case["n1"], case["n2"], seed=(*head, ci, run)
                )
                t0 = time.perf_counter()
                io.write_matrix(path, ds.d)
                t1 = time.perf_counter()
                d = io.read_matrix(path)
                times = {"write": t1 - t0, "read": time.perf_counter() - t1}
                times.update(cop(d, CopConfig(r=case["r"], p=p)).seconds)
                for stage, s in times.items():
                    seconds.setdefault(stage, []).append(s)
            stages = {stage: _spread(s) for stage, s in seconds.items()}
            summary.append({**case, "stages": stages})
    report = {
        "schema": "cohpca bench-json v3",
        "environment": _bench_environment(),
        "settings": {"runs": runs, "seed": list(head) if isinstance(seed, tuple) else head[0]},
        "import": _spread(_import_seconds(runs)),
        "cases": summary,
    }
    if json_path:
        # serialized before the file is opened: a failure leaves no partial file
        text = json.dumps(report, indent=2) + "\n"
        with open(json_path, "w") as fh:
            fh.write(text)
    return report
