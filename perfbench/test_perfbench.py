"""Tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def span(sid, start, end, parent=None, name="x"):
    return tracing.Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_the_direct_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # a grandchild counts against its parent only
        span(3, 5.0, 6.5, parent=0),
        span(4, 7.0, 9.0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.0}
    assert sum(own.values()) == 12.0  # the top-level spans' total


def test_layer_metrics_per_iteration_and_coverage():
    spans = [
        span(0, 0.0, 4.0, name="pursuit.cop"),
        span(1, 1.0, 3.0, parent=0, name="kernels.coherence"),
        span(2, 5.0, 9.0, name="pursuit.cop"),
        span(3, 5.0, 6.0, parent=2, name="kernels.coherence"),
    ]
    spans[1].attrs = spans[3].attrs = {"flops": 3e9, "gram_bytes": 8.0}
    m = tracing.layer_metrics(spans, iterations=2, traced_wall=10.0, dgemm_gflops=4.0)
    assert m["kernels.coherence.s"] == 1.5
    assert m["kernels.coherence.calls"] == 1.0
    assert m["kernels.coherence.flops"] == 3e9
    assert m["kernels.coherence.gflops_per_s"] == 2.0
    assert m["kernels.coherence.peak_frac"] == 0.5
    assert m["pursuit.cop.self_s"] == 2.5
    assert m["trace.covered_frac"] == 0.8
    assert m["io.read_matrix.mb_per_s"] == 0.0


def test_tracer_wraps_the_looked_up_name_and_restores_it(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(v):
        return v + 1

    def outer(v):
        return mod.inner(v) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tr = tracing.Tracer()
    tr.install([("fake_layer", "outer", "a", None), ("fake_layer", "inner", "b", None),
                ("fake_layer", "absent", "c", None)])
    assert mod.outer(1) == 4
    tr.uninstall()
    assert mod.inner is inner and mod.outer is outer
    b, a = tr.spans
    assert (a.name, b.name, b.parent, a.parent) == ("a", "b", a.id, None)
    assert tracing.missing_layers(tr.spans, ["a", "b", "c"]) == ["c"]

    failing = tr.wrap("d", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tr.spans[-1].attrs == {"error": True} and tr.spans[-1].parent is None


def test_wrong_basis_is_a_failed_check(tmp_path):
    from cohpca import io, models

    wl = workload.CliText(seed=5, tiny=True, workdir=str(tmp_path))
    codes = wl.run_once()
    assert wl.check(codes) is None
    wrong = models.random_subspace(np.random.default_rng(1), *wl.truth.shape)
    io.write_matrix(wl.basis_file, wrong)
    assert "recovery error" in wl.check(codes)
    io.write_matrix(wl.basis_file, 2.0 * wl.truth)
    assert "not an orthonormal basis" in wl.check(codes)
    assert wl.check((0, 2)) == "exit codes (0, 2)"


def test_noisy_recovery_above_the_ceiling_is_a_failed_check(tmp_path):
    from cohpca import models

    wl = workload.NoisyL1(seed=3, tiny=True, workdir=str(tmp_path))
    res = wl.run_once()
    assert wl.check(res) is None
    assert 0 < wl.errors[-1] <= wl.ceiling < 0.99
    # any r orthonormal columns: right shape, unrelated to the truth
    wrong = models.random_subspace(np.random.default_rng(1), *wl.truth.shape)
    assert "above the ceiling" in wl.check(dataclasses.replace(res, basis=wrong))


def test_a_failed_warm_up_counts_in_setup_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workload, "WORK", tmp_path)
    monkeypatch.setattr(workload.CliText, "check", lambda self, codes: "wrong basis")
    assert workload.main(["--workload", "cli-text", "--seed", "1", "--mode", "setup",
                          "--tiny"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (rec["attempted"], rec["failed"], rec["failures"]) == (1, 1, ["wrong basis"])


class WrongBasis:
    """A stand-in workload whose output is wrong every other time, and
    whose run raises on the third call."""

    columns = 7

    def __init__(self):
        self.calls = 0

    def run_once(self):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("boom")
        return self.calls

    def check(self, result):
        return "wrong basis" if result % 2 else None

    def quality(self):
        return {}


def test_failures_are_counted_and_the_loop_goes_on(capsys):
    args = Namespace(mode="measure", seconds=0.05, workload="phase", seed=0)
    assert workload.measure(WrongBasis(), args, 0.1, "warm-up failed") == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["attempted"] >= 5
    odd = sum(1 for k in range(1, rec["attempted"]) if k % 2 and k != 3)
    assert rec["failed"] == 1 + 1 + odd  # warm-up, the exception, odd results
    assert rec["failures"][:2] == ["warm-up failed", "wrong basis"]


def test_every_per_layer_metric_belongs_to_a_declared_layer():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    workloads = {w["name"] for w in SPEC["workloads"]}
    ends = {m["name"] for m in SPEC["end_to_end"]}
    for spec in layers.values():
        assert set(spec["declared"]) <= workloads
        assert set(spec["moves"]) <= workloads
        assert all(set(v) <= ends for v in spec["moves"].values())
    for m in SPEC["per_layer"]:
        prefix = m["name"].rsplit(".", 1)[0]
        assert prefix in layers or prefix in ("machine", "trace")
