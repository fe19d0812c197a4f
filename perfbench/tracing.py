"""Span tracing for the benchmark's traced run.

The package is not instrumented.  Instead, each layer is timed by
replacing a function at the exact name its caller looks up (for example
``cohpca.pursuit.coherence``, which is what ``cop`` calls, rather than
``cohpca.linalg.coherence``, which nobody calls through).  Every call
becomes a span (name, start, end, parent id, iteration id); spans stay
in memory and are written out when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Spans come from one thread with a strict call
stack, so children never overlap each other or outlast their parent;
nested layers are never counted twice and the self times of all spans
add up to the traced wall time.
"""

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

# the plain matrix product that kernels.coherence.peak_frac is measured against
DGEMM_N = 1024
DGEMM_REPEATS = 5

# Attribute hooks: they run after a span has ended, so their cost falls
# into the caller's self time, never into the layer being measured.


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _kernel_shape(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    m, n = (int(v) for v in np.shape(x))
    # computed from the shape, not counted: one Gram product, float64 entries
    return {"m": m, "n": n, "flops": 2.0 * m * n * n, "gram_bytes": 8.0 * n * n}


def _greedy(args, kwargs, result):
    """Columns kept over candidates walked: the walk visits columns by
    decreasing coherence (ties to the lower index) until the last keep."""
    profile = args[1] if len(args) > 1 else kwargs["profile"]
    order = np.argsort(-np.asarray(profile.values), kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return {"kept": len(result), "walked": int(rank[np.asarray(result)].max()) + 1}


# (module, attribute as its caller looks it up, layer, attribute hook):
# every lookup the three workloads make, and no other
TARGETS = (
    ("cohpca.cli", "main", "cli.main", None),
    ("cohpca.cli", "cop", "pursuit.cop", None),
    ("cohpca.experiments", "run_phase_transition", "experiments.phase", None),
    ("cohpca.experiments", "cop", "pursuit.cop", None),
    ("cohpca.pursuit", "cop_multipass", "pursuit.cop", None),
    ("cohpca.io", "write_matrix", "io.write_matrix", _file_bytes),
    ("cohpca.io", "read_matrix", "io.read_matrix", _file_bytes),
    ("cohpca.models", "gen_unstructured", "models.gen", None),
    ("cohpca.experiments", "gen_unstructured", "models.gen", None),
    ("cohpca.pursuit", "normalize_columns", "linalg.normalize_columns", None),
    ("cohpca.pursuit", "coherence", "kernels.coherence", _kernel_shape),
    ("cohpca.pursuit", "orthonormal_basis", "linalg.basis", None),
    ("cohpca.pursuit", "top_r_singular_subspace", "linalg.basis", None),
    ("cohpca.pursuit", "greedy_rank_sampling", "pursuit.select", _greedy),
    ("cohpca.pursuit", "adaptive_sampling", "pursuit.select", None),
    ("cohpca.experiments", "recovery_error", "linalg.recovery_error", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the functions it wraps; one per traced process."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self._next_id = 0
        self._stack = []
        self._installed = []

    def wrap(self, layer, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            span = Span(sid, layer, time.perf_counter(), 0.0, parent, self.iteration)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs = {"error": True}
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Replace every target that exists; absent names are skipped here
        and caught by ``missing_layers`` when a workload needs them."""
        for module_name, attr, layer, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original, hook))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Map span id to its duration minus its direct children's durations."""
    out = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def missing_layers(spans, declared):
    """Declared layers that recorded no call."""
    seen = {span.name for span in spans}
    return sorted(set(declared) - seen)


def layer_metrics(spans, iterations, traced_wall, dgemm_gflops):
    """Per-layer metrics, per iteration of the traced loop.

    ``traced_wall`` is the summed wall time of those iterations;
    ``dgemm_gflops`` is the plain DGEMM rate measured in the same run.
    """
    own = self_times(spans)
    s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    for span in spans:
        s[span.name] += own[span.id]
        calls[span.name] += 1
        for key in ("bytes", "flops", "gram_bytes", "kept", "walked"):
            if key in span.attrs:
                attr[span.name, key] += span.attrs[key]

    def per_iter(value):
        return value / iterations

    def rate(amount, seconds, scale):
        return amount / seconds / scale if seconds > 0 else 0.0

    out = {}
    for layer in ("io.write_matrix", "io.read_matrix"):
        out[f"{layer}.s"] = per_iter(s[layer])
        out[f"{layer}.calls"] = per_iter(calls[layer])
        out[f"{layer}.bytes"] = per_iter(attr[layer, "bytes"])
        out[f"{layer}.mb_per_s"] = rate(attr[layer, "bytes"], s[layer], 1e6)
    k = "kernels.coherence"
    out[f"{k}.s"] = per_iter(s[k])
    out[f"{k}.calls"] = per_iter(calls[k])
    out[f"{k}.flops"] = per_iter(attr[k, "flops"])
    out[f"{k}.gram_bytes"] = per_iter(attr[k, "gram_bytes"])
    out[f"{k}.gflops_per_s"] = rate(attr[k, "flops"], s[k], 1e9)
    out[f"{k}.peak_frac"] = out[f"{k}.gflops_per_s"] / dgemm_gflops
    out["machine.dgemm_gflops"] = dgemm_gflops
    for layer in ("models.gen", "linalg.normalize_columns", "linalg.basis",
                  "linalg.recovery_error", "pursuit.select"):
        out[f"{layer}.s"] = per_iter(s[layer])
        out[f"{layer}.calls"] = per_iter(calls[layer])
    walked = attr["pursuit.select", "walked"]
    out["pursuit.select.accept_ratio"] = (
        attr["pursuit.select", "kept"] / walked if walked else 0.0
    )
    for layer in ("pursuit.cop", "experiments.phase", "cli.main"):
        out[f"{layer}.self_s"] = per_iter(s[layer])
    out["trace.covered_frac"] = sum(own.values()) / traced_wall
    out["trace.iterations"] = iterations
    return out


def dgemm_gflops():
    """Best rate of a plain DGEMM_N-square float64 matrix product, in GFLOP/s."""
    n = DGEMM_N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9
