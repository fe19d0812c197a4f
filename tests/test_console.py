"""Checks that run ``cohpca.cli.main`` in a new process, as the console
script does: each child imports ``cohpca`` from the source tree this
process imports it from, and works in a temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohpca
from cohpca.io import read_matrix

MAIN = "import sys; from cohpca.cli import main; sys.exit(main(sys.argv[1:]))"


def cohpca_cli(*argv, cwd):
    src = str(Path(cohpca.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", MAIN, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("power", [[], ["--p", "1"]], ids=["default-p", "p=1"])
def test_column_scale_through_the_console_script(tmp_path, power):
    # each column times 2**k, k in [-1000, 1000], is exact in float64, so
    # cop must write the same basis and index bytes for both files, at the
    # default p=2 and at p=1
    cohpca_cli("gen", "--model", "unstructured", "--m", "40", "--r", "3", "--n1", "30",
               "--n2", "200", "--out", "cs.txt", cwd=tmp_path)
    d = read_matrix(tmp_path / "cs.txt")
    k = np.random.default_rng(1).integers(-1000, 1001, d.shape[1])
    s = np.ldexp(d, k)
    assert np.array_equal(np.ldexp(s, -k), d), "the scale lost bits"
    np.save(tmp_path / "cs1.npy", d)
    np.save(tmp_path / "cs2.npy", s)
    for i in (1, 2):
        cohpca_cli("cop", "--in", f"cs{i}.npy", "--r", "3", *power,
                   "--basis-out", f"cb{i}.txt", "--indices-out", f"ci{i}.txt", cwd=tmp_path)
    for name in ("cb", "ci"):
        one, two = ((tmp_path / f"{name}{i}.txt").read_bytes() for i in (1, 2))
        assert one == two, name
