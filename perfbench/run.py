"""The cohpca benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each run starts fresh workload processes (perfbench/workload.py) on the
package in ``src/``.  ``--trace 0`` prints the end-to-end metrics: set-up
time as the median of several fresh set-ups, and the iteration times,
throughput and peak memory of one untraced closed loop.  ``--trace 1``
prints the per-layer metrics: half the seconds go to an untraced loop
and half to a traced one, and the ratio of their medians is the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is non-zero
when any check failed.  The full record, with the environment, is also
written to .perfbench/results/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"

SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a single workload process may not outlive this, whatever --seconds says
CHILD_GRACE_S = 120


class BenchError(Exception):
    pass


def child_env():
    """Environment of a workload process: the package from src/, and BLAS
    threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_child(workload, seed, seconds, mode, tiny):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    try:
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process did not finish in time")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited with code {out.returncode}")
    return json.loads(lines[-1])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, args):
    # the set-up processes check their warm-up too, so they count in attempted/failed
    records = [run_child(workload, args.seed, 0, "setup", args.tiny)
               for _ in range(SETUPS - 1)]
    rec = run_child(workload, args.seed, args.seconds, "measure", args.tiny)
    records.append(rec)
    setups = [r["setup_s"] for r in records]
    walls = rec["walls"]
    # throughput of the median iteration: a mean over the run would let a
    # few iterations stalled by the shared host move it
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s_p50": statistics.median(walls),
        "wall_s_p90": p90(walls),
        "cols_per_s": rec["columns"] / statistics.median(walls),
        "peak_rss_mib": rec["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "wall_s_p50": f"n={len(walls)} iterations",
        "wall_s_p90": f"n={len(walls)} iterations",
        "cols_per_s": f"{rec['columns']} columns per median iteration",
    }
    return records, metrics, notes


def per_layer(workload, args):
    half = args.seconds / 2.0
    base = run_child(workload, args.seed, half, "measure", args.tiny)
    rec = run_child(workload, args.seed, half, "trace", args.tiny)
    metrics = dict(rec["layers"])
    metrics["trace.overhead_frac"] = (
        statistics.median(rec["walls"]) / statistics.median(base["walls"]) - 1.0
    )
    notes = {"trace.overhead_frac": (
        f"traced n={len(rec['walls'])} vs untraced n={len(base['walls'])} iterations")}
    return [base, rec], metrics, notes


def run_workload(workload, args, spec):
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    records, metrics, notes = (per_layer if args.trace else end_to_end)(workload, args)
    if set(metrics) != set(units):
        raise BenchError(
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    quality = dict(records[-1]["quality"])
    quality["fail_ratio"] = failed / attempted

    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(records[-1]["env"], sort_keys=True))
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}{note}")
    for name, value in quality.items():
        print(f"  {name:32s} {value:.6g}  (checked; not a JSON metric)")
    for rec in records:
        for failure in rec["failures"]:
            print(f"  FAILED: {failure}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"args": vars(args), "result": result, "quality": quality,
         "env": records[-1]["env"], "walls": [r["walls"] for r in records if "walls" in r]},
        indent=1,
    ))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes, for tests")
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "cohpca" / "__init__.py").is_file():
        print(f"perfbench: no cohpca package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")

    correct = True
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(workload, args, spec)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
