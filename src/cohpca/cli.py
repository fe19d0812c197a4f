"""Command line front end.

Exit codes: 0 on success, 1 for bad input (unreadable files, malformed
values, unusable parameter combinations), 2 when the data defeats the
numerics (rank collapse, exhausted candidate pools); the failing case is
named on stderr.

A subcommand's options are the keyword parameters of the library function
it calls, plus its own files; each option's type and help are written once,
in ``_OPTIONS``.  Such an option takes that function's default and is passed
to it by name: ``cohpca phase`` with no flags runs ``run_phase_transition()``.
``cohpca cop`` gives its strategy only the strategy options given, and
rejects another strategy's; ``cohpca gen`` likewise rejects a parameter that
the chosen model's generator does not take, and ``--tau`` beside ``--sigma``.

Every subcommand accepts ``--config FILE`` holding ``key = value`` lines
(keys are the long option names with dashes or underscores, '#' starts a
comment).  Each line is read as the argument ``--key=value`` and placed
before the command line's own arguments, so the file gets the same types,
choices and prefix abbreviations as the command line, options given on
the command line win over the file, and required options must still be
given on the command line.
"""

import argparse
import contextlib
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
def _integers(tokens, what, text):
    """``tokens`` as ints by the rule of every integer the package reads:
    ASCII digits after an optional minus sign, so that "1_0", "+5" and
    " 7" are rejected rather than read by int()."""
    with contextlib.suppress(ValueError):  # a DataError, or a token that cannot encode
        return io._integers([tok.encode() for tok in tokens], "")
    raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")


def _int(text):
    return _integers([text], "an integer", text)[0]


def _ints(text):
    return tuple(_integers(list(filter(None, text.split(","))), "comma separated integers", text))


def _floats(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated numbers, got {text!r}")


def _cases(text):
    out = []
    for tok in filter(None, text.split(",")):
        case = _integers(tok.split("x"), "MxN case syntax", tok)
        if len(case) != 2:
            raise argparse.ArgumentTypeError(f"expected MxN case syntax, got {tok!r}")
        out.append(tuple(case))
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
        return _integer(_int(text), "pass count h", 1)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# one entry per library parameter that an option fills: its add_argument
# keywords, and the flag of each *_path parameter
_OPTIONS = {
    "m": dict(type=_int, help="ambient dimension"),
    "r": dict(type=_int, help="subspace dimension; cop: target rank"),
    "n1": dict(type=_int, help="inlier count"),
    "n2": dict(type=_int, help="outlier count"),
    "mu": dict(type=float, help="outlier mixing weight"),
    "sigma": dict(type=float, help="noise amplitude"),
    "nu": dict(type=float, help="inlier mixing weight"),
    "inlier_nu": dict(type=float, help="cluster the inliers of the structured model too"),
    "dims": dict(type=_ints, help="union ranks, e.g. 3,3"),
    "sizes": dict(type=_ints, help="union cluster sizes"),
    "shuffle": dict(type=_flag, nargs="?", const=True, help="shuffle column order"),
    "seed": dict(type=_int, help="base seed"),
    "p": dict(type=_int, choices=[1, 2], help="coherence power"),
    "n1_over_r": dict(type=_ints),
    "n2_over_m": dict(type=_ints),
    "trials": dict(type=_int),
    "success_tol": dict(type=float, help="recovery error that counts as exact"),
    "taus": dict(type=_floats),
    "mus": dict(type=_floats),
    "seeds": dict(type=_int, help="trials per swept value"),
    "corruption": dict(type=float),
    "iterations": dict(type=_int),
    "patch": dict(type=_int, help="patch edge in pixels"),
    "cases": dict(type=_cases, help="comma separated MxN sizes"),
    "runs": dict(type=_int),
    "delta": dict(type=float, help="failure probability for the high probability kinds"),
    "rank_tol": dict(type=float, help="residual tolerance for greedy"),
    "q": dict(type=float, help="discard fraction for top-fraction and the per-cluster fit"),
    "count": dict(type=_int, help="columns kept by fixed-count and per phase trial"),
    "k": dict(type=_int, help="sketch dimension factor for adaptive"),
    "upsilon": dict(type=_upsilon, help="adaptive retirement threshold, number or 'auto'"),
    "passes": dict(type=_pass_count, help="adaptive rounds to pool before the final truncation"),
    "csv_path": dict(flag="--csv", metavar="CSV", help="per-row CSV output"),
    "pgm_path": dict(flag="--pgm", metavar="PGM", help="success heatmap PGM output"),
    "json_path": dict(flag="--json", metavar="JSON",
                      help="write the environment, the import time and per-stage "
                           "medians and IQRs"),
}


def _call(fn, ns, **given):
    """Call ``fn`` with ``given`` and, for each other parameter, the option of that name."""
    names = inspect.signature(fn).parameters
    return fn(**{name: getattr(ns, name) for name in names if name not in given}, **given)


_STRATEGIES = {"greedy": GreedyRank, "top-fraction": TopFraction,
               "fixed-count": FixedCount, "adaptive": Adaptive}
_OWNERS = {opt: name for name, cls in _STRATEGIES.items() for opt in inspect.signature(cls).parameters}


def cmd_gen(ns):
    if ns.tau is not None:
        if ns.model != "noisy" or ns.sigma is not None:
            raise DataError(f"--tau {ns.tau} requires the noisy model without --sigma")
        ns.sigma = models.sigma_for_tau(ns.tau)
    # a parameter given to a model whose generator does not take it is an error
    takers = {}
    for model, (name, _) in models._MODELS.items():
        for opt in inspect.signature(getattr(models, name)).parameters:
            takers.setdefault(opt, []).append(model)
    for opt, owners in takers.items():
        value = getattr(ns, opt)
        if ns.model not in owners and value is not None:
            shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
            listed = ", ".join(owners[:-1]) + " or " + owners[-1] if owners[1:] else owners[0]
            raise DataError(f"--{opt.replace('_', '-')} {shown} requires the {listed} model")
    # no parser default, so that a size given to union is seen above
    for opt, default in (("r", 5), ("n1", 50), ("n2", 100)):
        if getattr(ns, opt) is None:
            setattr(ns, opt, default)
    name, needs = models._MODELS[ns.model]
    if any(getattr(ns, p) is None for p in needs):
        flags = " and ".join(f"--{p}" for p in needs) + (" or --tau" if ns.model == "noisy" else "")
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
    config = _call(CopConfig, ns, strategy=_STRATEGIES[ns.strategy](**given))
    # passed straight in, so cop can release the raw matrix once normalized
    res = cop(io.read_matrix(getattr(ns, "in")), config)
    io.write_matrix(ns.basis_out, res.basis)
    if ns.profile_out:
        io.write_matrix(ns.profile_out, res.profile.values[:, None])
    if ns.indices_out:
        io.write_labels(ns.indices_out, res.sampled)
    flag = "" if res.unique else " (subspace not unique at this rank)"
    kept = len(res.profile.values)
    print(
        f"kept {kept} of {kept + len(res.dropped)} columns, "
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


def _option(container, name, **kw):
    spec = {**_OPTIONS[name], **kw}
    container.add_argument(spec.pop("flag", "--" + name.replace("_", "-")), dest=name, **spec)


def _subcommand(subparsers, name, help, func, *fns, **cli_defaults):
    """A subparser with an option for each parameter of ``fns`` that ``_OPTIONS`` holds.

    Each option defaults to its ``cli_defaults`` entry, else to the first of
    ``fns`` that has a default for it; one with neither, that every one of
    ``fns`` takes, is required.  ``cli_defaults`` may also name an option
    that none of ``fns`` takes.  ``--config`` is added too.
    """
    params = [inspect.signature(fn).parameters for fn in fns]
    defaults = {}
    for names in params:
        for opt, param in names.items():
            if param.default is not param.empty:
                defaults.setdefault(opt, param.default)
    defaults.update(cli_defaults)
    sub = subparsers.add_parser(name, help=help)
    # set before the options are added: an option without default= takes it
    sub.set_defaults(func=func, **defaults)
    for opt in dict.fromkeys([*(opt for names in params for opt in names), *cli_defaults]):
        if opt in _OPTIONS:
            required = opt not in defaults and all(opt in names for names in params)
            _option(sub, opt, required=required)
    sub.add_argument("--config", help="key=value defaults file")
    return sub


def build_parser():
    parser = _Parser(prog="cohpca", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    generators = [getattr(models, name) for name, _ in models._MODELS.values()]
    sub = _subcommand(subparsers, "gen", "generate a synthetic dataset", cmd_gen,
                      *generators, m=100)
    sub.add_argument("--model", required=True, choices=list(models._MODELS))
    sub.add_argument("--tau", type=float,
                     help="noise-to-signal ratio, alternative to --sigma")
    sub.add_argument("--out", required=True, help="output matrix file")
    sub.add_argument("--labels-out", help="output labels file")
    sub.add_argument("--basis-out",
                     help="ground truth basis file (union: clusters side by side)")

    sub = _subcommand(subparsers, "cop", "recover a subspace from a matrix file", cmd_cop,
                      CopConfig)
    sub.add_argument("--in", required=True, help="input matrix file")
    sub.add_argument("--strategy", default="greedy", choices=list(_STRATEGIES))
    options = sub.add_argument_group("strategy options", argument_default=argparse.SUPPRESS)
    for opt in _OWNERS:
        _option(options, opt)
    sub.add_argument("--basis-out", required=True, help="recovered basis file")
    sub.add_argument("--profile-out",
                     help="coherence profile file (kept columns, one per row)")
    sub.add_argument("--indices-out", help="sampled column indices file")

    _subcommand(subparsers, "phase", "success grid over inlier/outlier ratios", cmd_phase,
                run_phase_transition)
    _subcommand(subparsers, "noise-sweep", "coherence gap under noise", cmd_noise_sweep,
                run_noise_sweep)
    _subcommand(subparsers, "structured-sweep", "recovery against clustered outliers",
                cmd_structured_sweep, run_structured_sweep, success_tol=1e-5)
    _subcommand(subparsers, "cluster-correct", "fix corrupted subspace clustering labels",
                cmd_cluster_correct, run_cluster_correction)

    sub = _subcommand(subparsers, "saliency", "patch saliency map of a PGM image",
                      cmd_saliency, saliency)
    sub.add_argument("--image", required=True, help="input PGM image")
    sub.add_argument("--out", required=True, help="output PGM saliency map")

    _subcommand(subparsers, "bench", "time the pipeline stages", cmd_bench, run_bench)

    # --seed goes to validate_condition_empirically, whose trials default is
    # not the one of --validate-trials
    seed = inspect.signature(guarantees.validate_condition_empirically).parameters["seed"]
    sub = _subcommand(subparsers, "check-condition", "evaluate a recovery guarantee condition",
                      cmd_check_condition, guarantees.ConditionParams, seed=seed.default)
    sub.add_argument("--kind", required=True, choices=list(guarantees.KINDS))
    sub.add_argument("--validate-trials", type=_int, default=0,
                     help="also sample datasets and report the empirical hit rate")
    sub.add_argument("--out", help="write the report lines to a file")

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
