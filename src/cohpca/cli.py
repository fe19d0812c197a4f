"""Command line front end.

Exit codes: 0 on success, 1 for bad input (unreadable files, malformed
values, unusable parameter combinations), 2 when the data defeats the
numerics (rank collapse, exhausted candidate pools); the failing case is
named on stderr.

An option that a subcommand shares with the library function it calls
takes that function's default and is passed to it by name: ``cohpca phase``
with no flags runs ``run_phase_transition()``.  ``cohpca cop`` gives its
strategy only the strategy options given, and rejects another strategy's.

Every subcommand accepts ``--config FILE`` holding ``key = value`` lines
(keys are the long option names with dashes or underscores, '#' starts a
comment).  Each line is read as the argument ``--key=value`` and placed
before the command line's own arguments, so the file gets the same types,
choices and prefix abbreviations as the command line, options given on
the command line win over the file, and required options must still be
given on the command line.
"""

import argparse
import inspect
import sys

import numpy as np

from . import guarantees, io, models
from .errors import DataError, NumericalError, _integer
from .experiments import (
    run_bench,
    run_cluster_correction,
    run_noise_sweep,
    run_phase_transition,
    run_structured_sweep,
    saliency,
)
from .pursuit import (
    Adaptive,
    CopConfig,
    FixedCount,
    GreedyRank,
    TopFraction,
    cop,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage errors are bad input, same exit code as DataError
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# argparse prints an ArgumentTypeError's message; other ValueErrors lose it
def _ints(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")


def _floats(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated numbers, got {text!r}")


def _cases(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            m, n = (int(v) for v in tok.split("x"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected MxN case syntax, got {tok!r}")
        out.append((m, n))
    if not out:
        raise argparse.ArgumentTypeError(f"no cases in {text!r}")
    return tuple(out)


def _upsilon(text):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"upsilon must be a number or 'auto', got {text!r}")


_FLAG_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _flag(text):
    try:
        return _FLAG_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expected true/false, yes/no or 1/0, got {text!r}")


def _pass_count(text):
    try:  # a count below 1 is named here, whatever the strategy
        return _integer(int(text), "pass count h", 1)
    except ValueError as exc:  # DataError is one too
        raise argparse.ArgumentTypeError(str(exc))


def _defaults(*fns):
    """The keyword defaults of ``fns`` by parameter name, the first function's winning."""
    out = {}
    for fn in fns:
        for name, param in inspect.signature(fn).parameters.items():
            if param.default is not param.empty:
                out.setdefault(name, param.default)
    return out


def _call(fn, ns, **given):
    """Call ``fn`` with ``given`` and, for each other parameter, the option of that name."""
    names = inspect.signature(fn).parameters
    return fn(**{name: getattr(ns, name) for name in names if name not in given}, **given)


_STRATEGIES = {"greedy": GreedyRank, "top-fraction": TopFraction,
               "fixed-count": FixedCount, "adaptive": Adaptive}
_OWNERS = {opt: name for name, cls in _STRATEGIES.items() for opt in inspect.signature(cls).parameters}


def cmd_gen(ns):
    name, needs = models._MODELS[ns.model]
    flags = " and ".join(f"--{p}" for p in needs)
    if ns.model == "noisy":
        flags += " or --tau"
        if ns.sigma is None and ns.tau is not None:
            ns.sigma = models.sigma_for_tau(ns.tau)
    if any(getattr(ns, p) is None for p in needs):
        raise DataError(f"{ns.model} model needs {flags}")
    ds = _call(getattr(models, name), ns)
    io.write_matrix(ns.out, ds.d)
    if ns.labels_out:
        io.write_labels(ns.labels_out, ds.labels)
    if ns.basis_out:
        basis = np.hstack(ds.bases) if ns.model == "union" else ds.basis
        io.write_matrix(ns.basis_out, basis)
    print(f"wrote {ds.d.shape[0]}x{ds.d.shape[1]} matrix to {ns.out}")
    return 0


def cmd_cop(ns):
    given = {opt: getattr(ns, opt) for opt in _OWNERS if hasattr(ns, opt)}
    for opt, value in given.items():
        if _OWNERS[opt] != ns.strategy:
            shown = "auto" if value is None else value  # only --upsilon auto parses to None
            raise DataError(f"--{opt.replace('_', '-')} {shown} requires the {_OWNERS[opt]} strategy")
    strategy = _STRATEGIES[ns.strategy](**given)
    d = io.read_matrix(getattr(ns, "in"))
    res = cop(d, _call(CopConfig, ns, strategy=strategy))
    io.write_matrix(ns.basis_out, res.basis)
    if ns.profile_out:
        io.write_matrix(ns.profile_out, res.profile.values[:, None])
    if ns.indices_out:
        io.write_labels(ns.indices_out, res.sampled)
    flag = "" if res.unique else " (subspace not unique at this rank)"
    print(
        f"kept {d.shape[1] - len(res.dropped)} of {d.shape[1]} columns, "
        f"sampled {len(res.sampled)}, basis rank {res.basis.shape[1]}{flag}"
    )
    return 0


def cmd_phase(ns):
    result = _call(run_phase_transition, ns)
    print("success fractions (rows n1/r, columns n2/m):")
    header = " ".join(f"{b:>6}" for b in result.n2_over_m)
    print(f"{'n1/r':>6} {header}")
    for a, row in zip(result.n1_over_r, result.fractions):
        cells = " ".join(f"{f:6.2f}" for f in row)
        print(f"{a:>6} {cells}")
    return 0


def cmd_noise_sweep(ns):
    rows = _call(run_noise_sweep, ns)
    for tau in ns.taus:
        gaps = [row["gap"] for row in rows if row["tau"] == tau]
        positive = sum(g > 0 for g in gaps)
        print(
            f"tau={tau}: positive gap in {positive}/{len(gaps)} seeds, "
            f"median gap {float(np.median(gaps)):.4f}"
        )
    return 0


def cmd_structured_sweep(ns):
    rows = _call(run_structured_sweep, ns)
    for mu in ns.mus:
        errs = [row["error"] for row in rows if row["mu"] == mu]
        base = [row["error_spca"] for row in rows if row["mu"] == mu]
        exact = sum(e <= ns.success_tol for e in errs)
        med = float(np.median(errs))
        log_med = np.log10(med) if med > 0 else -np.inf
        print(
            f"mu={mu}: error <= {ns.success_tol:g} in {exact}/{len(errs)} seeds, "
            f"median error {med:.2e} (log10 {log_med:.1f}), "
            f"spca median {float(np.median(base)):.2e}"
        )
    return 0


def cmd_cluster_correct(ns):
    rows = _call(run_cluster_correction, ns)
    for it in range(ns.iterations + 1):
        errs = [row["error"] for row in rows if row["iteration"] == it]
        print(f"iteration {it}: median error {float(np.median(errs)):.4f}")
    return 0


def cmd_saliency(ns):
    result = _call(saliency, ns, image=io.read_pgm(ns.image))
    io.write_pgm(ns.out, result.image)
    note = " (input cropped to a multiple of the patch size)" if result.cropped else ""
    print(
        f"wrote {result.image.shape[0]}x{result.image.shape[1]} saliency map "
        f"to {ns.out}{note}"
    )
    return 0


def cmd_bench(ns):
    report = _call(run_bench, ns)
    for case in report["cases"]:
        stages = case["stages"]
        total = sum(sum(spread["seconds"]) for spread in stages.values()) / ns.runs
        medians = ", ".join(
            f"{stage} {spread['median_s']:.3f}s" for stage, spread in stages.items()
        )
        print(f"{case['m']}x{case['n']}: pipeline {total:.3f}s/run; stage medians: {medians}")
    print(f"import cohpca: median {report['import']['median_s']:.3f}s in a fresh interpreter")
    return 0


def cmd_check_condition(ns):
    params = _call(guarantees.ConditionParams, ns)
    report = guarantees.check_condition(ns.kind, params)
    lines = report.record_lines()
    if ns.validate_trials:
        hit = guarantees.validate_condition_empirically(
            ns.kind, params, trials=ns.validate_trials, seed=ns.seed
        )
        lines.append(f"empirical={hit:.17g}")
    for line in lines:
        print(line)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _add_common(sub):
    if sub.get_default("seed") is not None:  # the library takes a seed
        sub.add_argument("--seed", type=int, help="base seed")
    sub.add_argument("--config", help="key=value defaults file")


def build_parser():
    parser = _Parser(prog="cohpca", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    # each subparser takes the library's defaults before its options are
    # added, so an option the library does not have keeps its own default=

    generators = (getattr(models, name) for name, _ in models._MODELS.values())
    sub = subparsers.add_parser("gen", help="generate a synthetic dataset")
    sub.set_defaults(func=cmd_gen, **_defaults(*generators))
    sub.add_argument("--model", required=True, choices=list(models._MODELS))
    sub.add_argument("--m", type=int, default=100, help="ambient dimension")
    sub.add_argument("--r", type=int, default=5, help="subspace dimension")
    sub.add_argument("--n1", type=int, default=50, help="inlier count")
    sub.add_argument("--n2", type=int, default=100, help="outlier count")
    sub.add_argument("--mu", type=float, help="outlier mixing weight")
    sub.add_argument("--sigma", type=float, help="noise amplitude")
    sub.add_argument("--tau", type=float,
                     help="noise-to-signal ratio, alternative to --sigma")
    sub.add_argument("--nu", type=float, help="inlier mixing weight")
    sub.add_argument("--inlier-nu", type=float,
                     help="cluster the inliers of the structured model too")
    sub.add_argument("--dims", type=_ints, help="union ranks, e.g. 3,3")
    sub.add_argument("--sizes", type=_ints, help="union cluster sizes")
    sub.add_argument("--shuffle", type=_flag, nargs="?", const=True,
                     help="shuffle column order")
    sub.add_argument("--out", required=True, help="output matrix file")
    sub.add_argument("--labels-out", help="output labels file")
    sub.add_argument("--basis-out",
                     help="ground truth basis file (union: clusters side by side)")
    _add_common(sub)

    sub = subparsers.add_parser("cop", help="recover a subspace from a matrix file")
    sub.set_defaults(func=cmd_cop, **_defaults(CopConfig))
    sub.add_argument("--in", required=True, help="input matrix file")
    sub.add_argument("--r", type=int, required=True, help="target rank")
    sub.add_argument("--p", type=int, choices=[1, 2], help="coherence power")
    sub.add_argument("--strategy", default="greedy", choices=list(_STRATEGIES))
    options = sub.add_argument_group("strategy options", argument_default=argparse.SUPPRESS)
    options.add_argument("--q", type=float, help="discard fraction for top-fraction")
    options.add_argument("--count", type=int, help="columns kept by fixed-count")
    options.add_argument("--k", type=int, help="sketch dimension factor for adaptive")
    options.add_argument("--upsilon", type=_upsilon, help="adaptive retirement threshold, number or 'auto'")
    options.add_argument("--rank-tol", type=float, help="residual tolerance for greedy")
    options.add_argument("--passes", type=_pass_count,
                         help="adaptive rounds to pool before the final truncation")
    sub.add_argument("--basis-out", required=True, help="recovered basis file")
    sub.add_argument("--profile-out",
                     help="coherence profile file (kept columns, one per row)")
    sub.add_argument("--indices-out", help="sampled column indices file")
    _add_common(sub)

    sub = subparsers.add_parser("phase", help="success grid over inlier/outlier ratios")
    sub.set_defaults(func=cmd_phase, **_defaults(run_phase_transition))
    sub.add_argument("--m", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--n1-over-r", type=_ints)
    sub.add_argument("--n2-over-m", type=_ints)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--count", type=int, help="columns kept per trial")
    sub.add_argument("--p", type=int, choices=[1, 2])
    sub.add_argument("--success-tol", type=float)
    sub.add_argument("--csv", dest="csv_path", metavar="CSV", help="per-cell CSV output")
    sub.add_argument("--pgm", dest="pgm_path", metavar="PGM",
                     help="success heatmap PGM output")
    _add_common(sub)

    sub = subparsers.add_parser("noise-sweep", help="coherence gap under noise")
    sub.set_defaults(func=cmd_noise_sweep, **_defaults(run_noise_sweep))
    sub.add_argument("--taus", type=_floats)
    sub.add_argument("--m", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--n1", type=int)
    sub.add_argument("--n2", type=int)
    sub.add_argument("--p", type=int, choices=[1, 2])
    sub.add_argument("--seeds", type=int, help="trials per tau")
    sub.add_argument("--csv", dest="csv_path", metavar="CSV")
    _add_common(sub)

    sub = subparsers.add_parser("structured-sweep",
                                help="recovery against clustered outliers")
    sub.set_defaults(func=cmd_structured_sweep, **_defaults(run_structured_sweep))
    sub.add_argument("--mus", type=_floats)
    sub.add_argument("--m", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--n1", type=int)
    sub.add_argument("--n2", type=int)
    sub.add_argument("--nu", type=float, help="inlier cluster mixing")
    sub.add_argument("--p", type=int, choices=[1, 2])
    sub.add_argument("--seeds", type=int, help="trials per mu")
    sub.add_argument("--success-tol", type=float, default=1e-5)
    sub.add_argument("--csv", dest="csv_path", metavar="CSV")
    _add_common(sub)

    sub = subparsers.add_parser("cluster-correct",
                                help="fix corrupted subspace clustering labels")
    sub.set_defaults(func=cmd_cluster_correct, **_defaults(run_cluster_correction))
    sub.add_argument("--m", type=int)
    sub.add_argument("--dims", type=_ints)
    sub.add_argument("--sizes", type=_ints)
    sub.add_argument("--corruption", type=float)
    sub.add_argument("--iterations", type=int)
    sub.add_argument("--q", type=float,
                     help="discard fraction of the per-cluster subspace fit")
    sub.add_argument("--seeds", type=int)
    sub.add_argument("--csv", dest="csv_path", metavar="CSV")
    _add_common(sub)

    sub = subparsers.add_parser("saliency", help="patch saliency map of a PGM image")
    sub.set_defaults(func=cmd_saliency, **_defaults(saliency))
    sub.add_argument("--image", required=True, help="input PGM image")
    sub.add_argument("--patch", type=int, help="patch edge in pixels")
    sub.add_argument("--p", type=int, choices=[1, 2])
    sub.add_argument("--out", required=True, help="output PGM saliency map")
    _add_common(sub)

    sub = subparsers.add_parser("bench", help="time the pipeline stages")
    sub.set_defaults(func=cmd_bench, **_defaults(run_bench))
    sub.add_argument("--cases", type=_cases, help="comma separated MxN sizes")
    sub.add_argument("--r", type=int)
    sub.add_argument("--p", type=int, choices=[1, 2])
    sub.add_argument("--runs", type=int)
    sub.add_argument("--json", dest="json_path", metavar="JSON",
                     help="write the environment, the import time and per-stage "
                          "medians and IQRs")
    _add_common(sub)

    # --seed goes to validate_condition_empirically, whose trials default is
    # not the one of --validate-trials
    sub = subparsers.add_parser("check-condition",
                                help="evaluate a recovery guarantee condition")
    sub.set_defaults(func=cmd_check_condition, **_defaults(guarantees.ConditionParams),
                     seed=_defaults(guarantees.validate_condition_empirically)["seed"])
    sub.add_argument("--kind", required=True, choices=list(guarantees.KINDS))
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--n1", type=int, required=True)
    sub.add_argument("--n2", type=int, required=True)
    sub.add_argument("--delta", type=float,
                     help="failure probability for the high probability kinds")
    sub.add_argument("--mu", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--nu", type=float)
    sub.add_argument("--validate-trials", type=int, default=0,
                     help="also sample datasets and report the empirical hit rate")
    sub.add_argument("--out", help="write the report lines to a file")
    _add_common(sub)

    return parser


def _config_args(path):
    """Read a ``key = value`` file as the arguments ``--key=value``, in file order."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}")
    args = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        # "config" and its prefixes, the empty key among them, reach --config
        if "config".startswith(key):
            raise DataError(f"{path}:{lineno}: a config file cannot set {raw!r}")
        args.append(f"--{key}={value.strip()}")
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        ns = parser.parse_args(argv)
        if ns.config:
            # file values go first so the command line's own flags win
            ns = parser.parse_args(argv[:1] + _config_args(ns.config) + argv[1:])
        return ns.func(ns)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except DataError as exc:
        print(f"cohpca: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"cohpca: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cohpca: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
