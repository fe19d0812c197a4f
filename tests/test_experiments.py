"""Experiment runners: grids, sweeps, label correction, saliency, timing."""

import json
import re
from collections import defaultdict

import numpy as np
import pytest

from cohpca import experiments
from cohpca.errors import DataError, NumericalError
from cohpca.experiments import (
    run_bench,
    run_cluster_correction,
    run_noise_sweep,
    run_phase_transition,
    run_structured_sweep,
    saliency,
    write_rows_csv,
)
from cohpca.io import read_pgm
from cohpca.models import sigma_for_tau

GRID_KW = dict(
    m=30, r=3, n1_over_r=(1, 4), n2_over_m=(0, 2), trials=3, count=9, seed=0
)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return lines[0], [dict(zip(header, line.split(","))) for line in lines[2:]]


# ---- phase transition ----


def test_phase_grid_shape_and_easy_cells():
    res = run_phase_transition(**GRID_KW)
    assert res.fractions.shape == (2, 2)
    assert np.all((res.fractions >= 0.0) & (res.fractions <= 1.0))
    # with no outliers the kept columns span the subspace every time
    assert res.fractions[0, 0] == 1.0
    assert res.fractions[1, 0] == 1.0
    assert res.fractions[1, 1] == 1.0  # plenty of inliers, mild outliers
    assert (res.m, res.r, res.trials, res.count, res.p) == (30, 3, 3, 9, 2)


def test_phase_is_deterministic():
    a = run_phase_transition(**GRID_KW)
    b = run_phase_transition(**GRID_KW)
    np.testing.assert_array_equal(a.fractions, b.fractions)


def test_phase_writes_csv_and_pgm(tmp_path):
    csv_path = tmp_path / "phase.csv"
    pgm_path = tmp_path / "phase.pgm"
    res = run_phase_transition(**GRID_KW, csv_path=csv_path, pgm_path=pgm_path)
    schema, rows = read_csv_rows(csv_path)
    assert schema == "# cohpca phase v1"
    assert len(rows) == 4
    by_cell = {(r["n1_over_r"], r["n2_over_m"]): r for r in rows}
    cell = by_cell[("4", "0")]
    assert (cell["n1"], cell["n2"]) == ("12", "0")
    assert float(cell["fraction"]) == 1.0
    img = read_pgm(pgm_path)
    np.testing.assert_array_equal(img, np.rint(255 * res.fractions))


def test_phase_failure_names_the_cell():
    # n1 = round(0.5 * 3) = 2 columns and no outliers cannot span r=3
    with pytest.raises(NumericalError, match=r"phase cell n1/r=0.5 n2/m=0 trial=0"):
        run_phase_transition(
            m=10, r=3, n1_over_r=(0.5,), n2_over_m=(0,), trials=1, count=9
        )


def test_phase_rejects_bad_trials():
    with pytest.raises(DataError):
        run_phase_transition(trials=0)
    with pytest.raises(DataError, match="n1_over_r"):
        run_phase_transition(n1_over_r=())
    with pytest.raises(DataError, match="n2_over_m"):
        run_phase_transition(n2_over_m=())


@pytest.mark.parametrize("run, name, values, shown", [
    (run_phase_transition, "n1_over_r", (1, 2, 1), "1"),
    (run_phase_transition, "n2_over_m", (0, 0.0), "0.0"),
    (run_noise_sweep, "taus", (0.0, 0.5, 0), "0"),
    (run_structured_sweep, "mus", (0.5, 0.2, 0.5), "0.5"),
    (run_bench, "cases", ((40, 50), (60, 50), (40, 50)), "(40, 50)"),
], ids=["n1_over_r", "n2_over_m", "taus", "mus", "cases"])
def test_a_sweep_axis_may_not_repeat_a_value(run, name, values, shown):
    # rows are grouped by value, so a repeated one would be reported twice
    with pytest.raises(DataError, match=re.escape(f"{name} repeats the value {shown}")):
        run(**{name: values})


# ---- noise sweep ----


def test_noise_sweep_rows_and_gaps():
    taus = (0.0, 0.3)
    rows = run_noise_sweep(taus, m=100, r=5, n1=50, n2=100, seeds=3, seed=0)
    assert len(rows) == 6
    for row in rows:
        assert row["sigma"] == sigma_for_tau(row["tau"])
        assert row["gap"] == row["min_inlier"] - row["max_outlier"]
        # the gap is at most the largest coherence, so the ratio is <= 1
        assert -1.0 <= row["gap_over_max"] <= 1.0
        assert (row["gap_over_max"] > 0) == (row["gap"] > 0)
    # clean data separates with a wide margin
    assert all(row["gap"] > 1.0 for row in rows if row["tau"] == 0.0)


def test_noise_sweep_validation():
    with pytest.raises(DataError):
        run_noise_sweep((0.5,), n2=0)
    with pytest.raises(DataError):
        run_noise_sweep((0.5,), seeds=0)
    with pytest.raises(DataError, match="taus"):
        run_noise_sweep(())


# ---- structured sweep ----


def test_structured_sweep_recovers_exactly(tmp_path):
    csv_path = tmp_path / "structured.csv"
    rows = run_structured_sweep(
        (5.0, 0.5), m=60, r=3, n1=150, n2=10, nu=0.2, seeds=3, seed=0,
        csv_path=csv_path,
    )
    assert len(rows) == 6
    assert all(row["error"] <= 1e-5 for row in rows)
    # the spherical-PCA baseline has no outlier handling and misses
    assert all(row["error_spca"] > 1e-3 for row in rows)
    schema, back = read_csv_rows(csv_path)
    assert schema == "# cohpca structured-sweep v1"
    assert [r["mu"] for r in back] == ["5.0"] * 3 + ["0.5"] * 3
    assert "error_spca" in back[0]


def test_structured_sweep_validation():
    with pytest.raises(DataError, match="seeds"):
        run_structured_sweep((5.0,), seeds=0)
    with pytest.raises(DataError, match="mus"):
        run_structured_sweep(())


# ---- cluster correction ----


def test_cluster_correction_trajectories(tmp_path):
    csv_path = tmp_path / "correct.csv"
    rows = run_cluster_correction(
        m=30, dims=(3, 3), sizes=(80, 80), corruption=0.2, iterations=3,
        q=0.5, seeds=3, seed=0, csv_path=csv_path,
    )
    traj = defaultdict(dict)
    for row in rows:
        traj[row["seed"]][row["iteration"]] = row["error"]
    assert sorted(traj) == [0, 1, 2]
    for s, t in traj.items():
        # every seed reports iterations 0..3 even after early convergence
        assert sorted(t) == [0, 1, 2, 3]
        # 32 of 160 labels flipped: the starting error is exact
        assert t[0] == 0.2
        assert t[3] <= 0.02
    schema, _ = read_csv_rows(csv_path)
    assert schema == "# cohpca cluster-correct v1"


def test_cluster_correction_validation():
    with pytest.raises(DataError, match="equal"):
        run_cluster_correction(dims=(2, 3), sizes=(50, 50), seeds=1)
    with pytest.raises(DataError, match="corruption"):
        run_cluster_correction(corruption=1.0, seeds=1)
    with pytest.raises(DataError, match="corruption"):
        run_cluster_correction(corruption=-0.1, seeds=1)
    with pytest.raises(DataError, match="seeds"):
        run_cluster_correction(seeds=0)


# ---- saliency ----


def checkerboard_fixture():
    img = np.full((100, 100), 7.0)
    cb = (np.indices((20, 20)).sum(0) % 2) * 2 - 1
    img[40:60, 40:60] = 7.0 + 5.0 * cb
    return img


def test_saliency_flags_the_textured_block():
    res = saliency(checkerboard_fixture(), patch=10)
    flat = res.values.ravel()
    assert sorted(np.argsort(flat)[-4:].tolist()) == [44, 45, 54, 55]
    assert flat[0] == 0.0  # background tiles are maximally coherent
    assert res.cropped is False
    assert res.image.dtype == np.uint8 and res.image.shape == (100, 100)
    upsampled = np.kron(res.values, np.ones((10, 10)))
    np.testing.assert_array_equal(res.image, np.rint(255 * upsampled))


@pytest.mark.parametrize("k", [-1000, 1000])
def test_saliency_does_not_change_with_the_whole_image_scale(k):
    # scaling by 2**k is exact while the pixels stay normal floats, and
    # each tile is normalized, so the map is the same to the bit
    images = [checkerboard_fixture(), np.random.default_rng(8).uniform(0.5, 1.0, (40, 60))]
    for img in images:
        base = saliency(img, patch=10)
        scaled = saliency(np.ldexp(img, k), patch=10)
        np.testing.assert_array_equal(scaled.values, base.values)
        np.testing.assert_array_equal(scaled.image, base.image)


def test_saliency_of_a_constant_image_is_flat():
    res = saliency(np.full((30, 30), 3.0), patch=10)
    assert np.all(res.values == 0.0)
    assert np.ptp(res.image) == 0


def test_saliency_crops_to_whole_patches():
    rng = np.random.default_rng(5)
    res = saliency(rng.standard_normal((57, 41)), patch=10)
    assert res.values.shape == (5, 4)
    assert res.image.shape == (50, 40)
    assert res.cropped is True


def test_saliency_zero_patch_is_maximally_salient():
    rng = np.random.default_rng(5)
    img = rng.standard_normal((30, 30))
    img[:10, :10] = 0.0
    res = saliency(img, patch=10)
    assert res.values[0, 0] == 1.0
    assert res.values.max() == 1.0
    # so are those of an image that is zero throughout
    res = saliency(np.zeros((20, 20)), patch=10)
    np.testing.assert_array_equal(res.values, np.ones((2, 2)))
    np.testing.assert_array_equal(res.image, np.full((20, 20), 255))
    with pytest.raises(DataError, match="power p must be 1 or 2, got 3"):
        saliency(np.zeros((20, 20)), patch=10, p=3)


def test_saliency_degenerate_images():
    img = np.zeros((20, 10))
    img[10:, :] = np.arange(100).reshape(10, 10)
    # one usable tile has no coherence, exactly 0 whatever the rounding,
    # and the all-zero tile is salient
    res = saliency(img, patch=10)
    np.testing.assert_array_equal(res.values, [[1.0], [0.0]])
    img = np.zeros((8, 4))
    img[4:, :] = np.random.default_rng(1).standard_normal((4, 4))
    np.testing.assert_array_equal(saliency(img, patch=4).values, [[1.0], [0.0]])
    with pytest.raises(DataError, match=r"patch=10 must satisfy 1 <= patch <= min\(height, width\)=5"):
        saliency(np.zeros((5, 8)), patch=10)
    with pytest.raises(DataError, match="2-d"):
        saliency(np.zeros(12), patch=2)
    with pytest.raises(DataError, match="patch"):
        saliency(np.zeros((8, 8)), patch=0)
    # 1-pixel tiles of one sign are parallel, so they all cohere equally
    res = saliency(np.arange(1.0, 17.0).reshape(4, 4), patch=1)
    np.testing.assert_array_equal(res.values, 0.0)


# ---- benchmark ----


def test_bench_row_structure():
    report = run_bench(cases=((40, 50),), r=3, runs=2, seed=0)
    (case,) = report["cases"]
    assert (case["m"], case["n"], case["n1"], case["n2"]) == (40, 50, 10, 40)
    assert list(case["stages"]) == ["write", "read", "normalize", "coherence", "select"]
    for spread in case["stages"].values():
        assert len(spread["seconds"]) == 2  # one entry per run
        assert min(spread["seconds"]) >= 0.0


def test_bench_json_report(tmp_path):
    json_path = tmp_path / "bench.json"
    returned = run_bench(cases=((20, 30), (10, 25)), r=2, runs=3, seed=1, json_path=json_path)
    report = json.loads(json_path.read_text())
    assert returned == report
    assert set(report) == {"schema", "environment", "settings", "import", "cases"}
    assert report["schema"] == "cohpca bench-json v3"
    start = report["import"]
    assert len(start["seconds"]) == 3 and min(start["seconds"]) > 0.0
    q1, median, q3 = np.percentile(start["seconds"], [25, 50, 75])
    assert start["median_s"] == median and start["iqr_s"] == q3 - q1 >= 0.0
    env = report["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "nproc", "threads"}
    assert env["numpy"] == np.__version__ and env["nproc"] >= 1
    assert set(env["threads"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    }
    assert report["settings"] == {"runs": 3, "seed": 1}
    assert [
        (c["m"], c["n"], c["n1"], c["n2"], c["r"], c["p"]) for c in report["cases"]
    ] == [(20, 30, 6, 24, 2, 2), (10, 25, 5, 20, 2, 2)]
    for case in report["cases"]:
        assert list(case["stages"]) == [
            "write", "read", "normalize", "coherence", "select"
        ]
        for spread in case["stages"].values():
            seconds = spread["seconds"]
            assert len(seconds) == 3 and min(seconds) >= 0.0
            q1, median, q3 = np.percentile(seconds, [25, 50, 75])
            assert spread["median_s"] == median
            assert spread["iqr_s"] == q3 - q1 >= 0.0


@pytest.mark.parametrize(
    "kw, settings",
    [
        (dict(runs=np.int64(1), seed=np.int64(3)), {"runs": 1, "seed": 3}),
        (dict(runs=1, seed=(1, np.int64(2))), {"runs": 1, "seed": [1, 2]}),
        (
            dict(cases=((np.int64(10), np.int64(25)),), r=np.int64(2), p=np.int64(1)),
            {"runs": 1, "seed": 0},
        ),
    ],
    ids=["numpy-runs-and-seed", "tuple-seed", "numpy-case"],
)
def test_bench_report_is_the_json_it_writes_for_any_integer_types(tmp_path, kw, settings):
    json_path = tmp_path / "bench.json"
    returned = run_bench(**{"cases": ((10, 25),), "r": 2, **kw}, json_path=json_path)
    with open(json_path) as fh:
        assert returned == json.load(fh)
    assert returned["settings"] == settings


def test_bench_stage_seconds_are_the_seconds_cop_reports(monkeypatch):
    cop, calls = experiments.cop, []

    def counting(d, cfg):
        res = cop(d, cfg)
        calls.append((cfg.r, cfg.p, res.seconds))
        return res

    monkeypatch.setattr(experiments, "cop", counting)
    report = run_bench(cases=((20, 30), (10, 25)), r=2, p=1, runs=3, seed=1)
    assert len(calls) == 2 * 3  # one cop call per case and run
    for ci, case in enumerate(report["cases"]):
        mine = calls[3 * ci : 3 * ci + 3]
        assert [(r, p) for r, p, _ in mine] == [(case["r"], case["p"])] * 3
        for stage in ("normalize", "coherence", "select"):
            assert case["stages"][stage]["seconds"] == [s[stage] for _, _, s in mine]


def test_bench_validation():
    with pytest.raises(DataError):
        run_bench(cases=((20, 30),), runs=0)
    with pytest.raises(DataError, match="cases"):
        run_bench(cases=())


# ---- csv writer ----


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_phase_transition(trials=1.5),
        lambda: run_noise_sweep(seeds=2.0),
        lambda: run_structured_sweep(seeds=2.0),
        lambda: run_cluster_correction(seeds=2.0),
        lambda: saliency(np.zeros((10, 10)), patch=2.5),
        lambda: run_bench(runs=1.5),
    ],
    ids=["trials", "noise-seeds", "structured-seeds", "correction-seeds", "patch", "runs"],
)
def test_runner_counts_must_be_integers(call):
    # each used to reach range() or a reshape and raise a raw TypeError
    with pytest.raises(DataError, match="must be an integer"):
        call()


def test_write_rows_csv_layout(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, "demo", [{"a": 1, "b": 2.5}])
    assert path.read_text() == "# cohpca demo v1\na,b\n1,2.5\n"
