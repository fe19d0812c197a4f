"""End-to-end command line behavior, including exit codes and config files."""

import inspect
import json
import sys
import tracemalloc

import numpy as np
import pytest

from cohpca import cli, experiments, guarantees, models, pursuit
from cohpca.cli import main
from cohpca.io import read_labels, read_matrix, read_pgm, write_matrix, write_pgm
from cohpca.linalg import recovery_error
from cohpca.models import gen_unstructured


def run(*args):
    return main([str(a) for a in args])


# ---- generate / recover round trip ----


def test_gen_cop_round_trip(tmp_path, capsys):
    data = tmp_path / "d.txt"
    labels = tmp_path / "labels.txt"
    truth = tmp_path / "truth.txt"
    basis = tmp_path / "basis.txt"
    assert run(
        "gen", "--model", "unstructured", "--m", 40, "--r", 3, "--n1", 30,
        "--n2", 60, "--out", data, "--labels-out", labels, "--basis-out", truth,
    ) == 0
    assert "wrote 40x90 matrix" in capsys.readouterr().out
    assert read_matrix(data).shape == (40, 90)
    assert read_labels(labels).tolist() == [0] * 30 + [1] * 60
    assert run("cop", "--in", data, "--r", 3, "--basis-out", basis) == 0
    assert recovery_error(read_matrix(truth), read_matrix(basis)) <= 1e-9


def test_npy_gen_cop_round_trip_is_bit_exact(tmp_path):
    gen = ["gen", "--model", "unstructured", "--m", 30, "--r", 2, "--n1", 20,
           "--n2", 40, "--seed", 4]
    outputs = {}
    for ext in ("txt", "npy"):
        data, truth, basis = (tmp_path / f"{name}.{ext}" for name in ("d", "t", "b"))
        assert run(*gen, "--out", data, "--basis-out", truth) == 0
        assert run("cop", "--in", data, "--r", 2, "--basis-out", basis) == 0
        outputs[ext] = [read_matrix(path) for path in (data, truth, basis)]
    assert (tmp_path / "d.npy").read_bytes().startswith(b"\x93NUMPY")
    ds = gen_unstructured(30, 2, 20, 40, seed=4)
    np.testing.assert_array_equal(outputs["npy"][0], ds.d)
    np.testing.assert_array_equal(outputs["npy"][1], ds.basis)
    for got, want in zip(outputs["npy"], outputs["txt"]):
        np.testing.assert_array_equal(got, want)


def test_cop_counts_the_columns_it_kept(tmp_path, capsys):
    d = gen_unstructured(20, 2, 50, 150, seed=2).d
    d[:, 7] = 0.0
    np.save(tmp_path / "z.npy", d)
    assert run("cop", "--in", tmp_path / "z.npy", "--r", 2, "--basis-out", tmp_path / "b.txt") == 0
    assert capsys.readouterr().out.startswith("kept 199 of 200 columns, sampled 2, basis rank 2")


@pytest.fixture(scope="module")
def cli_text_matrix(tmp_path_factory):
    """The 400 x 5050 matrix of the benchmark's gen then cop round trip, as
    .npy and as text, and its size in bytes."""
    d = gen_unstructured(400, 5, 50, 5000, seed=3).d
    folder = tmp_path_factory.mktemp("cli-text")
    write_matrix(folder / "d.npy", d)
    write_matrix(folder / "d.txt", d)
    return folder, d.nbytes


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="a call holds its arguments until it returns before 3.11")
@pytest.mark.parametrize("via, ext", [("library", "npy"), ("cli", "npy"), ("cli", "txt")])
def test_cop_holds_its_input_only_until_it_is_normalized(cli_text_matrix, capsys, via, ext):
    # the input and its normalized copy are both live while normalizing, 2x
    # the matrix; an input held through the kernel as well peaks at 2.3x
    folder, nbytes = cli_text_matrix
    path = folder / f"d.{ext}"
    tracemalloc.start()
    try:
        if via == "library":
            pursuit.cop(np.load(path), pursuit.CopConfig(r=5))
        else:
            assert run("cop", "--in", path, "--r", 5, "--basis-out", folder / "b.txt") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * nbytes, f"peak {peak / nbytes:.2f}x of the matrix"


def test_cop_rejects_a_npy_that_is_not_float64(tmp_path, capsys):
    data = tmp_path / "d.npy"
    np.save(data, np.ones((4, 6), np.float32))
    assert run("cop", "--in", data, "--r", 1, "--basis-out", tmp_path / "b.npy") == 1
    assert "float64" in capsys.readouterr().err


def test_cop_side_outputs_and_multipass(tmp_path):
    data = tmp_path / "d.txt"
    basis = tmp_path / "basis.txt"
    profile = tmp_path / "profile.txt"
    indices = tmp_path / "indices.txt"
    run("gen", "--model", "unstructured", "--m", 30, "--r", 2, "--n1", 40,
        "--n2", 20, "--out", data)
    assert run(
        "cop", "--in", data, "--r", 2, "--strategy", "adaptive", "--passes", 2,
        "--basis-out", basis, "--profile-out", profile, "--indices-out", indices,
    ) == 0
    assert read_matrix(basis).shape == (30, 2)
    assert read_matrix(profile).shape == (60, 1)
    picks = read_labels(indices)
    assert len(picks) == 4 and len(set(picks.tolist())) == 4


def test_gen_union_stacks_the_cluster_bases(tmp_path):
    truth = tmp_path / "truth.txt"
    assert run(
        "gen", "--model", "union", "--m", 20, "--dims", "2,2", "--sizes", "30,30",
        "--out", tmp_path / "d.txt", "--basis-out", truth,
    ) == 0
    assert read_matrix(truth).shape == (20, 4)


def test_gen_models_need_their_parameters(tmp_path, capsys):
    out = tmp_path / "d.txt"
    for model, needs in [("structured", "--mu"), ("noisy", "--sigma or --tau"),
                         ("clustered", "--nu"), ("union", "--dims and --sizes")]:
        assert run("gen", "--model", model, "--out", out) == 1
        assert capsys.readouterr().err == f"cohpca: error: {model} model needs {needs}\n"
    assert not out.exists()
    assert run("gen", "--model", "noisy", "--tau", 0.5, "--out", out) == 0


@pytest.mark.parametrize("args, name", [
    (("gen", "--model", "noisy", "--sigma", "1e200"), "sigma=1e+200"),
    (("gen", "--model", "noisy", "--tau", "inf"), "tau=inf"),
    (("gen", "--model", "structured", "--mu", "nan"), "mu=nan"),
    (("gen", "--model", "structured", "--mu", "1", "--inlier-nu", "1e200"), "inlier_nu=1e+200"),
    (("gen", "--model", "clustered", "--nu", "inf"), "nu=inf"),
    (("noise-sweep", "--taus", "1e308", "--seeds", 1, "--m", 20, "--n1", 5, "--n2", 10),
     "tau=1e+308"),
])
def test_unusable_generator_weights_exit_1_naming_them(tmp_path, capsys, args, name):
    out = tmp_path / "d.txt"
    assert run(*args, *(("--out", out) if args[0] == "gen" else ())) == 1
    assert f" {name} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--model", "unstructured", "--mu", "0.3"), "--mu 0.3 requires the structured model"),
    (("--model", "unstructured", "--tau", "0.5"),
     "--tau 0.5 requires the noisy model without --sigma"),
    (("--model", "noisy", "--sigma", "0.1", "--tau", "5"),
     "--tau 5.0 requires the noisy model without --sigma"),
    (("--model", "clustered", "--nu", "0.2", "--inlier-nu", "0.5"),
     "--inlier-nu 0.5 requires the structured model"),
    (("--model", "unstructured", "--dims", "2,2"), "--dims 2,2 requires the union model"),
])
def test_gen_rejects_the_parameters_of_another_model(tmp_path, capsys, args, message):
    out = tmp_path / "d.txt"
    assert run("gen", *args, "--m", 10, "--r", 2, "--n1", 3, "--n2", 4, "--out", out) == 1
    assert capsys.readouterr().err == f"cohpca: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("opt, value", [("r", "9"), ("n1", "1"), ("n2", "4")])
@pytest.mark.parametrize("in_config", [False, True])
def test_gen_union_rejects_the_sizes_of_the_other_models(tmp_path, capsys, opt, value, in_config):
    out = tmp_path / "d.txt"
    args = ["gen", "--model", "union", "--dims", "2,2", "--sizes", "3,3", "--out", out]
    if in_config:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"{opt} = {value}\n")
        args += ["--config", cfg]
    else:
        args += [f"--{opt}", value]
    assert run(*args) == 1
    assert capsys.readouterr().err == (
        f"cohpca: error: --{opt} {value} requires the unstructured, structured, noisy "
        "or clustered model\n"
    )
    assert not out.exists()


def test_gen_sizes_left_unset_take_the_command_line_defaults(tmp_path):
    # m=100 for every model; r=5, n1=50 and n2=100 for the models that take them
    for args, ds in [
        (("--model", "union", "--dims", "2,2", "--sizes", "3,3"),
         models.gen_union(100, (2, 2), (3, 3))),
        (("--model", "unstructured", "--n1", "7"), models.gen_unstructured(100, 5, 7, 100)),
    ]:
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        assert run("gen", *args, "--out", got) == 0
        write_matrix(want, ds.d)
        assert got.read_bytes() == want.read_bytes()


# ---- exit codes ----


def test_usage_errors_exit_1(tmp_path):
    assert run("no-such-command") == 1
    assert run("cop", "--in", tmp_path / "d.txt") == 1  # missing --r
    assert run("cop", "--in", tmp_path / "missing.txt", "--r", 2,
               "--basis-out", tmp_path / "b.txt") == 1
    assert run("cop", "--in", tmp_path / "missing.txt", "--r", 2,
               "--upsilon", "xyz", "--basis-out", tmp_path / "b.txt") == 1


def test_bad_rank_exits_1(tmp_path):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 10,
        "--n2", 10, "--out", data)
    assert run("cop", "--in", data, "--r", 0, "--basis-out", tmp_path / "b.txt") == 1


def test_bad_rank_is_named_before_the_input_is_read(tmp_path, capsys):
    assert run("cop", "--in", tmp_path / "missing.txt", "--r", 0,
               "--basis-out", tmp_path / "b.txt") == 1
    assert capsys.readouterr().err == "cohpca: error: target rank r=0 must be >= 1\n"


def test_rank_collapse_exits_2_and_names_the_failure(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 30,
        "--n2", 0, "--out", data)
    capsys.readouterr()
    assert run("cop", "--in", data, "--r", 5, "--basis-out", tmp_path / "b.txt") == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "need r=5" in err


def test_cop_rejects_a_pass_count_below_1(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 10,
        "--n2", 10, "--out", data)
    for passes in (0, -3):
        capsys.readouterr()
        assert run("cop", "--in", data, "--r", 2, "--passes", passes,
                   "--basis-out", tmp_path / "b.txt") == 1
        assert f"pass count h={passes} must be >= 1" in capsys.readouterr().err


def test_cop_rejects_passes_for_a_strategy_without_rounds(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 10,
        "--n2", 10, "--out", data)
    capsys.readouterr()
    assert run("cop", "--in", data, "--r", 2, "--passes", 2, "--strategy", "greedy",
               "--basis-out", tmp_path / "b.txt") == 1
    assert "--passes 2 requires the adaptive strategy" in capsys.readouterr().err
    assert not (tmp_path / "b.txt").exists()


@pytest.mark.parametrize("strategy, option, line, message", [
    ("greedy", ["--q", "0.3"], None, "--q 0.3 requires the top-fraction strategy"),
    ("adaptive", ["--count", "5"], None, "--count 5 requires the fixed-count strategy"),
    ("greedy", [], "k = 9", "--k 9 requires the adaptive strategy"),
    ("greedy", ["--upsilon", "auto"], None, "--upsilon auto requires the adaptive strategy"),
], ids=["greedy-q", "adaptive-count", "greedy-config-k", "greedy-upsilon-auto"])
def test_cop_rejects_the_options_of_another_strategy(
    tmp_path, capsys, strategy, option, line, message
):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 10,
        "--n2", 10, "--out", data)
    args = ["cop", "--in", data, "--r", 2, "--strategy", strategy, *option,
            "--basis-out", tmp_path / "b.txt"]
    if line:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        args += ["--config", cfg]
    capsys.readouterr()
    assert run(*args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.txt").exists()


def test_impossible_strategy_parameters_exit_1(tmp_path, capsys):
    data = tmp_path / "d.txt"
    run("gen", "--model", "unstructured", "--m", 20, "--r", 2, "--n1", 10,
        "--n2", 10, "--out", data)
    cases = [
        (("--rank-tol", "nan"), "rank_tol"),
        (("--rank-tol", "-1"), "rank_tol"),
        (("--strategy", "adaptive", "--upsilon", "nan"), "upsilon"),
        (("--strategy", "fixed-count", "--count", 1), "count"),
    ]
    for flags, name in cases:
        capsys.readouterr()
        assert run("cop", "--in", data, "--r", 2, *flags,
                   "--basis-out", tmp_path / "b.txt") == 1, flags
        assert name in capsys.readouterr().err


def test_empty_experiment_grids_exit_1(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    cases = [
        (("phase", "--n1-over-r", "", "--csv", csv_path), "n1_over_r"),
        (("phase", "--n2-over-m", "", "--pgm", tmp_path / "out.pgm"), "n2_over_m"),
        (("noise-sweep", "--taus", "", "--csv", csv_path), "taus"),
        (("structured-sweep", "--mus", "", "--csv", csv_path), "mus"),
        (("cluster-correct", "--seeds", 0, "--csv", csv_path), "seeds"),
        (("bench", "--cases", "40x4", "--json", json_path), "bench case 40x4: inlier count n1=0"),
        (("bench", "--cases", "3x1", "--json", json_path), "bench case 3x1"),
        (("bench", "--cases", "3x100", "--json", json_path), "bench case 3x100: rank r=10"),
        # a case that cannot run is named even after one that can
        (("bench", "--cases", "20x30,3x100", "--json", json_path), "bench case 3x100"),
    ]
    for args, name in cases:
        capsys.readouterr()
        assert run(*args) == 1, args
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_repeated_sweep_value_exits_1_naming_it(tmp_path, capsys, source):
    # the summary groups rows by value, so "0,0" printed the tau=0.0 line twice
    args = ["noise-sweep", "--seeds", "2"]
    if source == "flag":
        args += ["--taus", "0,0"]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("taus = 0,0\n")
        args += ["--config", cfg]
    assert run(*args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cohpca: error: taus repeats the value 0.0\n"


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "cohpca" in capsys.readouterr().out


# ---- experiment subcommands ----


def test_phase_writes_its_outputs(tmp_path, capsys):
    csv_path = tmp_path / "phase.csv"
    pgm_path = tmp_path / "phase.pgm"
    assert run(
        "phase", "--m", 30, "--r", 3, "--n1-over-r", "1,4", "--n2-over-m", "0,2",
        "--trials", 2, "--count", 9, "--csv", csv_path, "--pgm", pgm_path,
    ) == 0
    assert "success fractions" in capsys.readouterr().out
    assert csv_path.read_text().startswith("# cohpca phase v1\n")
    assert read_pgm(pgm_path).shape == (2, 2)


def test_noise_and_structured_sweeps_run(tmp_path, capsys):
    assert run("noise-sweep", "--taus", "0", "--m", 60, "--r", 3, "--n1", 20,
               "--n2", 40, "--seeds", 2) == 0
    assert "positive gap in 2/2 seeds" in capsys.readouterr().out
    assert run("structured-sweep", "--mus", "5", "--m", 60, "--r", 3, "--n1", 150,
               "--n2", 10, "--seeds", 2, "--csv", tmp_path / "s.csv") == 0
    assert "in 2/2 seeds" in capsys.readouterr().out


def test_cluster_correct_runs(capsys):
    assert run("cluster-correct", "--m", 30, "--dims", "3,3", "--sizes", "80,80",
               "--iterations", 2, "--seeds", 1) == 0
    out = capsys.readouterr().out
    assert "iteration 0: median error 0.2000" in out
    assert "iteration 2" in out


def test_saliency_round_trip(tmp_path, capsys):
    img = np.full((100, 100), 7.0)
    cb = (np.indices((20, 20)).sum(0) % 2) * 2 - 1
    img[40:60, 40:60] = 7.0 + 5.0 * cb
    src = tmp_path / "in.pgm"
    dst = tmp_path / "map.pgm"
    write_pgm(src, img)
    assert run("saliency", "--image", src, "--patch", 10, "--out", dst) == 0
    assert "wrote 100x100 saliency map" in capsys.readouterr().out
    # the map has no rank or fraction to set
    for flag in ("--r", "--q"):
        assert run("saliency", "--image", src, flag, 2, "--out", dst) == 1
    sal = read_pgm(dst)
    assert sal.shape == (100, 100)
    assert sal[45, 45] > sal[5, 5]  # the odd block stands out


def test_saliency_of_a_black_image_is_white(tmp_path, capsys):
    src, dst = tmp_path / "black.pgm", tmp_path / "map.pgm"
    src.write_text("P2\n4 4\n255\n" + "0 0 0 0\n" * 4)
    assert run("saliency", "--image", src, "--patch", 2, "--out", dst) == 0
    assert "wrote 4x4 saliency map" in capsys.readouterr().out
    np.testing.assert_array_equal(read_pgm(dst), np.full((4, 4), 255))


def test_bench_runs_on_one_backend(tmp_path, capsys):
    assert run("bench", "--cases", "30x40", "--r", 3, "--runs", 1,
               "--json", tmp_path / "b.json") == 0
    out = capsys.readouterr().out
    assert "30x40: pipeline" in out and "write" in out and "read" in out
    assert "import cohpca: median" in out
    report = json.loads((tmp_path / "b.json").read_text())
    assert [(case["m"], case["n"]) for case in report["cases"]] == [(30, 40)]
    # the report is the bench's one output; bench has no --csv
    assert run("bench", "--cases", "30x40", "--csv", tmp_path / "b.csv") == 1


def test_check_condition_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("check-condition", "--kind", "unstructured-l2-mean", "--m", 400,
               "--r", 5, "--n1", 50, "--n2", 500, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "holds=true" in stdout
    assert "kind=unstructured-l2-mean" in stdout
    assert out.read_text().splitlines()[0] == "kind=unstructured-l2-mean"
    assert run("check-condition", "--kind", "unstructured-l2-mean", "--m", 50,
               "--r", 3, "--n1", 30, "--n2", 20, "--validate-trials", 2) == 0
    assert "empirical=" in capsys.readouterr().out


# ---- every shared option defaults to the library's value ----


_MINIMAL = {
    "gen": (["--model", "unstructured", "--out", "d.txt"],
            [models.gen_unstructured, models.gen_structured_outliers, models.gen_noisy,
             models.gen_clustered_inliers, models.gen_union]),
    "cop": (["--in", "d.txt", "--r", "2", "--basis-out", "b.txt"], [pursuit.CopConfig]),
    "phase": ([], [experiments.run_phase_transition]),
    "noise-sweep": ([], [experiments.run_noise_sweep]),
    "structured-sweep": ([], [experiments.run_structured_sweep]),
    "cluster-correct": ([], [experiments.run_cluster_correction]),
    "saliency": (["--image", "i.pgm", "--out", "o.pgm"], [experiments.saliency]),
    "bench": ([], [experiments.run_bench]),
    "check-condition": (
        ["--kind", "unstructured-l2-mean", "--m", "9", "--r", "2", "--n1", "4", "--n2", "4"],
        [guarantees.ConditionParams],
    ),
}


def _keyword_defaults(fn):
    return {
        name: param.default
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not param.empty
    }


@pytest.mark.parametrize("command", list(_MINIMAL))
def test_unset_options_take_the_library_defaults(command):
    argv, fns = _MINIMAL[command]
    ns = cli.build_parser().parse_args([command] + argv)
    checked = 0
    for fn in fns:
        for name, default in _keyword_defaults(fn).items():
            value = getattr(ns, name)
            if fn is pursuit.CopConfig and name == "strategy":
                # --strategy names the class; its default instance is the library's
                value = cli._STRATEGIES[value]()
            # repr, not ==: an option's 0 and the library's 0.0 print differently
            assert repr(value) == repr(default), (command, fn.__name__, name)
            checked += 1
    assert checked
    if command == "cop":
        # no strategy option is in the namespace unless given, so each
        # strategy class fills in all of its own defaults
        assert cli._OWNERS.keys() == {"rank_tol", "q", "count", "k", "upsilon", "passes"}
        assert not cli._OWNERS.keys() & vars(ns).keys()
    if command == "check-condition":
        seed = _keyword_defaults(guarantees.validate_condition_empirically)["seed"]
        assert ns.seed == seed


# ---- config files ----


def test_config_sets_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(
        "# small grid\n"
        "m = 30\n"
        "r = 3\n"
        "n1-over-r = 4\n"
        "n2_over_m = 0\n"
        "count = 9\n"
        "trials = 2\n"
    )
    csv_path = tmp_path / "phase.csv"
    assert run("phase", "--config", cfg, "--csv", csv_path) == 0
    line = csv_path.read_text().splitlines()[2]
    assert line.split(",")[4] == "2"  # trials from the config file
    assert run("phase", "--config", cfg, "--trials", 1, "--csv", csv_path) == 0
    line = csv_path.read_text().splitlines()[2]
    assert line.split(",")[4] == "1"  # the command line wins


def test_config_error_cases(tmp_path):
    missing = tmp_path / "missing.cfg"
    assert run("phase", "--config", missing) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("trials\n")
    assert run("phase", "--config", bad) == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("bogus = 3\n")
    assert run("phase", "--config", unknown) == 1
    wrong_choice = tmp_path / "choice.cfg"
    wrong_choice.write_text("p = 7\n")
    assert run("phase", "--config", wrong_choice) == 1


_REQUIRED = {
    "gen": ["--model", "structured", "--out", "d.txt"],
    "cop": ["--in", "d.txt", "--r", "2", "--basis-out", "b.txt"],
}


@pytest.fixture
def parsed(monkeypatch):
    """Capture the Namespace each subcommand would run on, without running it."""
    seen = []

    def capture(ns):
        seen.append(ns)
        return 0

    for name in ("cmd_gen", "cmd_cop", "cmd_phase", "cmd_noise_sweep", "cmd_bench"):
        monkeypatch.setattr(cli, name, capture)
    return seen


@pytest.mark.parametrize("command, key, value", [
    ("phase", "trials", "3"),
    ("gen", "mu", "0.25"),
    ("phase", "n1_over_r", "2,4"),
    ("noise-sweep", "taus", "0,0.5"),
    ("bench", "cases", "10x20,30x40"),
    ("cop", "upsilon", "auto"),
    ("cop", "upsilon", "0.3"),
    ("cop", "strategy", "adaptive"),
    ("gen", "labels-out", "a=b.txt"),
    ("gen", "shuffle", "true"),
    ("gen", "shuffle", "false"),
    ("gen", "shuffle", "yes"),
    ("gen", "shuffle", "0"),
])
def test_config_line_parses_like_its_flag(tmp_path, parsed, command, key, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    base = [command] + _REQUIRED.get(command, [])
    assert main(base + ["--config", str(cfg)]) == 0
    assert main(base + ["--" + key.replace("_", "-"), value]) == 0
    from_file, from_flag = (vars(ns) for ns in parsed)
    assert from_file.pop("config") == str(cfg)
    assert from_flag.pop("config") is None
    assert from_file == from_flag


@pytest.mark.parametrize("line", ["help = 1", "config = other.cfg", "bogus = 3"])
def test_config_lines_the_command_line_would_reject_exit_1(tmp_path, parsed, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert run("phase", "--config", cfg) == 1
    assert parsed == []


@pytest.mark.parametrize("command, key, value, message", [
    ("phase", "n1-over-r", "a", "expected comma separated integers, got 'a'"),
    ("noise-sweep", "taus", "x", "expected comma separated numbers, got 'x'"),
    ("bench", "cases", "3y4", "expected MxN case syntax, got '3y4'"),
    ("bench", "cases", "3xq", "expected MxN case syntax, got '3xq'"),
    ("cop", "upsilon", "zz", "upsilon must be a number or 'auto', got 'zz'"),
    ("gen", "shuffle", "maybe", "expected true/false, yes/no or 1/0, got 'maybe'"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_option_values_exit_1_with_the_reason(
    tmp_path, parsed, capsys, source, command, key, value, message
):
    args = [command] + _REQUIRED.get(command, [])
    if source == "flag":
        args += ["--" + key, value]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert f"argument --{key}: {message}" in capsys.readouterr().err
    assert parsed == []


# ---- integers ----

# a digit group, an Arabic-Indic three and a plus sign: int() reads each
BAD_INTEGERS = ["1_0", "\u0663", "+5"]


def _with_value(tmp_path, args, key, value, source):
    """``args`` with ``--key value``, on the command line or in a config file."""
    if source == "flag":
        return args + ["--" + key, value]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    return args + ["--config", str(cfg)]


# a config value is stripped, so " 7" is 7 there
_SOURCES_AND_BAD_INTEGERS = [("flag", v) for v in BAD_INTEGERS + [" 7"]] + [
    ("config", v) for v in BAD_INTEGERS
]


@pytest.mark.parametrize("source, value", _SOURCES_AND_BAD_INTEGERS)
@pytest.mark.parametrize("key", ["m", "r", "n1", "n2", "seed"])
def test_gen_integers_follow_the_package_integer_rule(tmp_path, capsys, key, source, value):
    out = tmp_path / "d.txt"
    args = _with_value(tmp_path, ["gen", "--model", "unstructured", "--out", str(out)],
                       key, value, source)
    assert main(args) == 1
    assert f"argument --{key}: expected an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source, value", _SOURCES_AND_BAD_INTEGERS)
@pytest.mark.parametrize("args, key, text, what", [
    (["gen", "--model", "union", "--sizes", "3,3", "--out", "OUT"], "dims", "2,{}",
     "comma separated integers"),
    (["bench", "--json", "OUT"], "cases", "{}x20", "MxN case syntax"),
    (["cop", "--in", "IN", "--r", "2", "--strategy", "adaptive", "--basis-out", "OUT"],
     "passes", "{}", "an integer"),
    (["check-condition", *_MINIMAL["check-condition"][0], "--out", "OUT"], "validate-trials",
     "{}", "an integer"),
    (["phase", "--csv", "OUT"], "p", "{}", "an integer"),
], ids=["list-item", "case", "passes", "validate-trials", "p"])
def test_every_integer_option_follows_the_package_integer_rule(
    tmp_path, capsys, args, key, text, what, source, value
):
    out, data = tmp_path / "out", tmp_path / "d.txt"
    write_matrix(data, gen_unstructured(20, 2, 10, 10, seed=0).d)
    args = [{"OUT": str(out), "IN": str(data)}.get(a, a) for a in args]
    text = text.format(value)
    assert main(_with_value(tmp_path, args, key, text, source)) == 1
    assert f"argument --{key}: expected {what}, got {text!r}" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_seed_reaches_the_library_range_rule(tmp_path, capsys):
    out = tmp_path / "d.txt"
    assert run("gen", "--model", "unstructured", "--seed", "-1", "--out", out) == 1
    assert capsys.readouterr().err == "cohpca: error: seed component=-1 must be >= 0\n"
    assert not out.exists()


def test_no_option_is_parsed_by_int():
    # every integer option goes through the package's one integer rule
    for command in _MINIMAL:
        for action in _subparser(command)._actions:
            assert action.type is not int, (command, action.dest)


# ---- each option is declared once ----


def _subparser(command):
    (subparsers,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    return subparsers.choices[command]


@pytest.mark.parametrize("command", list(_MINIMAL))
def test_each_library_parameter_is_an_option_of_its_name(command):
    fns = _MINIMAL[command][1] + (list(cli._STRATEGIES.values()) if command == "cop" else [])
    names = {name for fn in fns for name in inspect.signature(fn).parameters}
    if command == "check-condition":
        names.add("seed")  # validate_condition_empirically's
    flags = {action.dest: action.option_strings for action in _subparser(command)._actions}
    for name in names:
        # a *_path parameter's flag drops the suffix: csv_path is --csv
        assert flags[name] == ["--" + name.removesuffix("_path").replace("_", "-")], name


@pytest.mark.parametrize("command", ["cop", "phase", "noise-sweep", "structured-sweep",
                                     "saliency", "bench"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_coherence_power_3_exits_1_on_every_subcommand(
    tmp_path, monkeypatch, capsys, source, command
):
    for name in vars(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda ns: pytest.fail("ran with --p 3"))
    assert "p" in {action.dest for action in _subparser(command)._actions}
    args = [command] + _MINIMAL[command][0]
    if source == "flag":
        args += ["--p", "3"]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p = 3\n")
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert "argument --p: invalid choice: 3" in capsys.readouterr().err
