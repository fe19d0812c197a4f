"""What a fresh interpreter loads.

scipy serves only ``tail_f`` and ``clustering_error``, so importing the
package, running ``gen`` then ``cop`` and running the bench must not
load it.  Each check runs in a new ``sys.executable`` process: this one
has scipy loaded already (``tests/oracles.py`` imports ``scipy.special``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohpca

GEN_THEN_COP = """
import json, sys
import cohpca, cohpca.cli
from cohpca import cli
data, basis = sys.argv[1:]
codes = [
    cli.main(["gen", "--model", "unstructured", "--m", "8", "--r", "2",
              "--n1", "6", "--n2", "12", "--out", data]),
    cli.main(["cop", "--in", data, "--r", "2", "--basis-out", basis]),
]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

BENCH = """
import json, sys
import cohpca
metadata = "importlib.metadata" in sys.modules
from cohpca.experiments import run_bench
report = run_bench(cases=((20, 30),), runs=1, json_path=sys.argv[1])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"metadata": metadata, "scipy": scipy, "version": report["environment"]["scipy"]}))
"""

SCIPY_USERS = """
import json, sys
import numpy as np
from cohpca import clustering_error, tail_f
truth = np.repeat(np.arange(12), 4)
pred = 11 - truth
pred[[0, 4, 8, 12, 16]] = 0
print(json.dumps({
    "tail": [tail_f(0.75, 3), tail_f(1.25, 5), tail_f(0.0, 10)],
    "error": [
        clustering_error(np.array([0, 0, 1, 1, 1]), np.array([0, 0, 0, 1, 1])),
        clustering_error(pred, truth),
    ],
    "loaded": ["scipy.special" in sys.modules, "scipy.optimize" in sys.modules],
}))
"""


def _fresh(code, *args, cwd):
    # the child imports the same cohpca as this process
    src = str(Path(cohpca.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_and_gen_then_cop_load_no_scipy(tmp_path):
    got = _fresh(GEN_THEN_COP, str(tmp_path / "d.txt"), str(tmp_path / "b.txt"),
                 cwd=tmp_path)
    assert got == {"codes": [0, 0], "scipy": []}
    assert (tmp_path / "b.txt").exists()


def test_bench_reports_scipy_without_loading_it(tmp_path):
    import scipy  # already loaded in this process, see above

    got = _fresh(BENCH, str(tmp_path / "b.json"), cwd=tmp_path)
    # import cohpca alone leaves importlib.metadata out; the bench reads
    # scipy's version from it
    assert got == {"metadata": False, "scipy": [], "version": scipy.__version__}


def test_scipy_users_load_it_on_first_call(tmp_path):
    got = _fresh(SCIPY_USERS, cwd=tmp_path)
    # tail_m3(0.75) = 1/2 and tail_m5(1.25) = 5/16 (tests/oracles.py)
    assert got["tail"][:2] == pytest.approx([0.5, 0.3125], abs=1e-10)
    assert got["tail"][2] == 1.0
    assert got["error"] == pytest.approx([0.2, 5 / 48])
    assert got["loaded"] == [True, True]
