"""One workload process: set up, warm up, then a closed loop with one caller.

run.py starts a fresh process of this script for every set-up and every
measured or traced run:

    python3 perfbench/workload.py --workload phase --seed 3 --seconds 10 --mode measure

The last line of standard output is one JSON record.  Modes: ``setup``
stops once the warm-up iteration is done and checked; ``measure`` then iterates for
``--seconds`` untraced; ``trace`` does the same with every layer wrapped
(see tracing.py).  Every iteration, the warm-up included, is checked
against a reference computed here, outside the package, and a failed
check or an exception counts as a failed iteration instead of ending
the run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

# counted in setup_s: run.py puts the checkout's src/ on PYTHONPATH
import numpy as np  # noqa: E402
import cohpca  # noqa: E402
from cohpca import cli, experiments, models, pursuit  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# a recovered basis this close to the truth is exact up to float64 roundoff
EXACT_TOL = 1e-10
# the profile check compares two summation orders of the same sums
PROFILE_RTOL = 1e-9
PROFILE_SAMPLE = 64
# noisy-l1 fails an iteration whose recovery error exceeds this multiple of
# the error of a plain top-r SVD of the normalized data, computed in set-up.
# At this noise level cop may lose to the plain SVD: over 200 seeds (0-189
# and ten larger ones) its error was 0.64 to 2.31 times the SVD's, which is
# about 0.12.  A basis unrelated to the truth has error near
# sqrt(1 - r/m) = 0.99, about eight times the SVD's.
RECOVERY_CEILING_FACTOR = 4.0


def read_text_matrix(path):
    """The benchmark's own reader for the "m n" header text format."""
    with open(path) as fh:
        m, n = (int(tok) for tok in fh.readline().split())
        a = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if a.shape != (m, n):
        raise ValueError(f"{path}: body {a.shape} does not match header {m}x{n}")
    return a


def subspace_error(u_true, u_hat):
    """||U - Q Q'U||_F / ||U||_F, or None when ``u_hat`` is not orthonormal."""
    if u_hat.shape != u_true.shape:
        return None
    if not np.allclose(u_hat.T @ u_hat, np.eye(u_hat.shape[1]), atol=EXACT_TOL):
        return None
    resid = u_true - u_hat @ (u_hat.T @ u_true)
    return float(np.linalg.norm(resid) / np.linalg.norm(u_true))


class CliText:
    """``cohpca gen`` then ``cohpca cop`` on text files in a private directory."""

    def __init__(self, seed, tiny, workdir):
        m, r, n1, n2 = (20, 2, 10, 50) if tiny else (400, 5, 50, 5000)
        self.columns = n1 + n2
        self.truth = models.gen_unstructured(m, r, n1, n2, seed).basis
        self.data, self.truth_file, self.basis_file = (
            os.path.join(workdir, name) for name in ("d.txt", "t.txt", "b.txt")
        )
        self.gen_argv = [
            "gen", "--model", "unstructured", "--m", str(m), "--r", str(r),
            "--n1", str(n1), "--n2", str(n2), "--seed", str(seed),
            "--out", self.data, "--basis-out", self.truth_file,
        ]
        self.cop_argv = ["cop", "--in", self.data, "--r", str(r),
                         "--basis-out", self.basis_file]
        self.errors = []

    def run_once(self):
        with contextlib.redirect_stdout(StringIO()):
            return cli.main(self.gen_argv), cli.main(self.cop_argv)

    def check(self, codes):
        if codes != (0, 0):
            return f"exit codes {codes}"
        if not np.array_equal(read_text_matrix(self.truth_file), self.truth):
            return "the truth basis file does not round-trip bit-exactly"
        err = subspace_error(self.truth, read_text_matrix(self.basis_file))
        if err is None:
            return "the recovered basis is not an orthonormal basis of the truth's shape"
        self.errors.append(err)
        if err > EXACT_TOL:
            return f"recovery error {err:.3e} above {EXACT_TOL:g}"
        return None

    def quality(self):
        return {"recovery_error_max": max(self.errors, default=float("nan"))}


class Phase:
    """The phase-transition runner over its default grid, p=2."""

    def __init__(self, seed, tiny, workdir):
        self.kwargs = dict(m=100, r=10, trials=1, count=20, p=2, seed=seed)
        if tiny:
            self.kwargs.update(m=20, r=2, count=5, n1_over_r=(1, 2, 5), n2_over_m=(0, 1, 3))
        self.seed = seed
        self.reference = None
        self.fractions = []
        self.columns = None

    def run_once(self):
        return experiments.run_phase_transition(**self.kwargs)

    def check(self, res):
        if self.reference is None:
            self.reference = reference_phase_grid(res, self.seed)
            self.columns = res.trials * sum(
                int(round(a * res.r)) + int(round(b * res.m))
                for a in res.n1_over_r
                for b in res.n2_over_m
            )
        self.fractions.append(float(np.mean(res.fractions)))
        if not np.array_equal(res.fractions, self.reference):
            return "success grid differs from the reference grid for this seed"
        return None

    def quality(self):
        return {"success_fraction": self.fractions[-1] if self.fractions else float("nan")}


def reference_phase_grid(res, seed):
    """The success grid, recomputed without the package's pipeline.

    Same datasets (the runner's per-trial seeds), but p=2 coherence by
    the covariance form sum_k (x_i'x_k)^2 = x_i'(XX')x_i, an independent
    route to the kernel's numbers, then top-count columns and an SVD.
    """
    grid = np.zeros((len(res.n1_over_r), len(res.n2_over_m)))
    for i, a in enumerate(res.n1_over_r):
        for j, b in enumerate(res.n2_over_m):
            n1, n2 = int(round(a * res.r)), int(round(b * res.m))
            wins = 0
            for t in range(res.trials):
                ds = models.gen_unstructured(res.m, res.r, n1, n2, seed=(seed, i, j, t))
                x = ds.d / np.linalg.norm(ds.d, axis=0)
                prof = np.einsum("ij,ij->j", x, (x @ x.T) @ x) - 1.0
                keep = np.argsort(-prof, kind="stable")[: res.count]
                u = np.linalg.svd(x[:, keep], full_matrices=False)[0][:, : res.r]
                wins += subspace_error(ds.basis, u) <= res.success_tol
            grid[i, j] = wins / res.trials
    return grid


class NoisyL1:
    """Multipass Adaptive cop with p=1 on one noisy dataset made in set-up."""

    def __init__(self, seed, tiny, workdir):
        m, r, n1, n2, self.h = (30, 2, 60, 200, 2) if tiny else (200, 5, 400, 9600, 3)
        ds = models.gen_noisy(m, r, n1, n2, models.sigma_for_tau(0.5), seed=seed)
        self.d, self.truth = ds.d, ds.basis
        self.columns = self.d.shape[1]
        self.cfg = pursuit.CopConfig(
            r=r, p=1, strategy=pursuit.Adaptive(k=2, upsilon=None), seed=seed
        )
        self.norms = np.linalg.norm(self.d, axis=0)
        x = self.d / self.norms
        plain = np.linalg.eigh(x @ x.T)[1][:, -r:]
        self.ceiling = RECOVERY_CEILING_FACTOR * subspace_error(self.truth, plain)
        self.sample = np.random.default_rng(seed).choice(
            self.columns, size=min(PROFILE_SAMPLE, self.columns), replace=False
        )
        self.errors = []

    def run_once(self):
        return pursuit.cop_multipass(self.d, self.cfg, h=self.h)

    def check(self, res):
        if len(res.dropped):
            return f"{len(res.dropped)} columns dropped from data with no zero column"
        s = self.sample
        g = (self.d[:, s].T @ self.d) / np.outer(self.norms[s], self.norms)
        expect = np.abs(g).sum(axis=1) - 1.0
        got = np.asarray(res.profile.values)[s]
        if not np.allclose(got, expect, rtol=PROFILE_RTOL, atol=0.0):
            worst = float(np.max(np.abs(got - expect) / np.abs(expect)))
            return f"profile differs from X_S'X at sampled columns (rel {worst:.2e})"
        err = subspace_error(self.truth, np.asarray(res.basis))
        if err is None:
            return "the recovered basis is not an orthonormal basis of the truth's shape"
        self.errors.append(err)
        if err > self.ceiling:
            return f"recovery error {err:.3e} above the ceiling {self.ceiling:.3e}"
        return None

    def quality(self):
        return {"recovery_error_max": max(self.errors, default=float("nan")),
                "recovery_error_ceiling": self.ceiling}


WORKLOADS = {"cli-text": CliText, "phase": Phase, "noisy-l1": NoisyL1}


def attempt(fn, *args):
    """Run one operation at the loop boundary: (result, failure message)."""
    try:
        return fn(*args), None
    except Exception as exc:  # counted as a failure, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def environment():
    """What the numbers depend on besides the code."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpu": cpu,
        "commit": git_commit(),
        "numba_imports": has_numba,
    }


def git_commit():
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_program():
    src = (ROOT / "src").resolve()
    if Path(cohpca.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported cohpca from {cohpca.__file__}, not from {src}")


def verdict(wl, result):
    """The check's failure message, or None when the result is correct."""
    message, exc = attempt(wl.check, result)
    return exc or message


def declared_layers(workload):
    with open(HERE / "layers.json") as fh:
        layers = json.load(fh)["layers"]
    return [name for name, spec in layers.items() if workload in spec["declared"]]


def measure(wl, args, setup_s, warm_err):
    """The closed loop: one caller, the next iteration starts when the last ends."""
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    failures = [warm_err]
    walls = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not walls or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.iteration = len(walls)
            t0 = time.perf_counter()
            result, err = attempt(wl.run_once)
            walls.append(time.perf_counter() - t0)
            failures.append(err or verdict(wl, result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = [f for f in failures if f]
    record = {
        "setup_s": setup_s,
        "walls": walls,
        "columns": wl.columns or 0,
        "attempted": len(failures),
        "failed": len(failed),
        "failures": failed[:5],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": wl.quality(),
    }
    if tracer is not None:
        missing = tracing.missing_layers(tracer.spans, declared_layers(args.workload))
        if missing:
            raise SystemExit(
                f"traced {args.workload}: declared layers {missing} recorded no call; "
                "a wrapped name in tracing.TARGETS no longer matches its caller"
            )
        record["layers"] = tracing.layer_metrics(
            tracer.spans, len(walls), sum(walls), tracing.dgemm_gflops()
        )
        (WORK / "results").mkdir(exist_ok=True)
        tracer.write(WORK / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl")
    record["env"] = environment()
    print(json.dumps(record))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    ap.add_argument("--tiny", action="store_true", help="tiny problem size, for tests")
    args = ap.parse_args(argv)

    check_program()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        warm, warm_err = attempt(wl.run_once)
        setup_s = time.perf_counter() - T_START
        warm_err = warm_err or verdict(wl, warm)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "attempted": 1, "failed": int(bool(warm_err)),
                              "failures": [warm_err] if warm_err else []}))
            return 0
        return measure(wl, args, setup_s, warm_err)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
