"""The reproducibility contract across BLAS thread counts.

One script runs in two interpreters, with every BLAS thread variable set
to 1 and then to 2.  Decisions must come out equal; values may differ in
their last bits, within the bounds the README states.
"""

import os
import pickle
import subprocess
import sys

import numpy as np

import cohpca
from cohpca.experiments import _THREAD_VARS

_SCRIPT = """
import pickle, sys
from cohpca import Adaptive, CopConfig, FixedCount, GreedyRank, TopFraction, cop
from cohpca.experiments import run_noise_sweep, run_phase_transition, run_structured_sweep
from cohpca.models import gen_noisy, gen_unstructured, sigma_for_tau

def fields(res):
    return {"sampled": res.sampled, "dropped": res.dropped, "unique": res.unique,
            "profile": res.profile.values, "basis": res.basis}

out = {}
d = gen_unstructured(400, 5, 50, 5000, seed=1).d
for p in (1, 2):
    for s in (GreedyRank(), TopFraction(), FixedCount(), Adaptive()):
        out[f"cop {type(s).__name__} p={p}"] = fields(cop(d, CopConfig(r=5, p=p, strategy=s)))
d = gen_noisy(200, 5, 400, 9600, sigma_for_tau(0.5), seed=1).d
cfg = CopConfig(r=5, p=1, strategy=Adaptive(k=2, upsilon=None, passes=3), seed=1)
out["cop Adaptive(passes=3)"] = fields(cop(d, cfg))
out["phase"] = run_phase_transition(trials=1).fractions
out["noise-sweep"] = run_noise_sweep(seeds=3)
out["structured-sweep"] = run_structured_sweep(seeds=3)
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""


def _run(tmp_path, threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohpca.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.update({var: str(threads) for var in _THREAD_VARS})
    out = tmp_path / f"threads{threads}.pkl"
    subprocess.run([sys.executable, "-c", _SCRIPT, str(out)], env=env, check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def test_decisions_match_and_values_stay_in_bounds_across_thread_counts(tmp_path):
    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    assert one.keys() == two.keys()
    for name in one:
        a, b = one[name], two[name]
        if name == "phase":
            np.testing.assert_array_equal(a, b, err_msg=name)
        elif name.endswith("sweep"):
            assert len(a) == len(b), name
            for row_a, row_b in zip(a, b):
                assert row_a.keys() == row_b.keys(), name
                for key, value in row_a.items():
                    if isinstance(value, float):
                        np.testing.assert_allclose(
                            row_b[key], value, rtol=1e-14, atol=0, err_msg=f"{name} {key}"
                        )
                    else:
                        assert row_b[key] == value, (name, key)
        else:
            for key in ("sampled", "dropped", "unique"):
                np.testing.assert_array_equal(a[key], b[key], err_msg=f"{name} {key}")
            np.testing.assert_allclose(
                a["profile"], b["profile"], rtol=1e-14, atol=0, err_msg=name
            )
            np.testing.assert_allclose(
                a["basis"] @ a["basis"].T, b["basis"] @ b["basis"].T, rtol=0, atol=1e-8,
                err_msg=name,
            )
