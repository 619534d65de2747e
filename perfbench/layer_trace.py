"""Outside-in layer trace of the mlq pipeline.

``install`` wraps every public function and public method of each ``mlq``
module (except those of the ``LaurentLoop`` value type), plus
``scipy.linalg.cholesky`` as seen by the Iwasawa split, at every place the
name is looked up: each ``mlq`` module attribute that holds the original
object is replaced by the wrapper, so ``from .iwasawa import iwasawa`` call
sites and lazy imports both see it.  Nothing in ``src/`` is edited.

Each call records one span ``[name, start_ns, end_ns, parent, node, arg]``
in memory; ``node`` is the grid node or monodromy unit the call belongs to,
``arg`` is a small argument digest for the few spans that need one.  The
process writes the spans out once, at exit.  ``summarize`` turns one trace
into the per-layer metrics.  The tracer assumes one thread (``--jobs 1``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("potentials", "holonomy", "loops", "iwasawa", "frames", "verify", "closedform", "cli")

#: value types whose methods are not wrapped: LaurentLoop.coefficient alone
#: runs about 47,000 times in one verify-radial command
UNTRACED_CLASSES = {"LaurentLoop"}

#: spans that open a new unit: a generate node, a verify node, a monodromy triple
NODE_STARTS = {"frames.SurfaceMap.sample", "verify.invariant_stencil",
               "closedform.trinoid_monodromies"}

#: spans whose argument is recorded
ARG_DIGESTS = {
    "frames.SurfaceMap.frame_loop": lambda args, kwargs: [complex(args[1]).real, complex(args[1]).imag],
    "iwasawa.cholesky": lambda args, kwargs: int(args[0].shape[0]),
}

READOUT = ("frames.frame_pair_at", "frames.xy_matrices", "frames.q2_point", "frames.sphere_pair")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._node = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        digest = ARG_DIGESTS.get(name)
        starts_node = name in NODE_STARTS

        def traced(*args, **kwargs):
            if starts_node:
                self._node += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self._node,
                    digest(args, kwargs) if digest else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        import mlq.cli  # noqa: F401  (imports every layer module)
        import scipy.linalg

        mods = [m for n, m in sys.modules.items() if n == "mlq" or n.startswith("mlq.")]
        for layer in LAYERS:
            mod = sys.modules[f"mlq.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for m in mods:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                setattr(m, k, wrapped)
                elif inspect.isclass(obj) and attr not in UNTRACED_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        scipy.linalg.cholesky = self.wrap("iwasawa.cholesky", scipy.linalg.cholesky)

    def write(self, path) -> None:
        # one dumps call is about 4x faster than streaming json.dump
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": self.spans}, separators=(",", ":")))


# ---------------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command (times in ms)."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    node_span: dict[int, list] = {}
    node_points: dict[int, set] = defaultdict(set)
    for i, (name, t0, t1, parent, node, arg) in enumerate(spans):
        d = t1 - t0
        calls[name] += 1
        total[name] += d
        self_ns[name] += d - child_ns[i]
        layer_self[name.split(".", 1)[0]] += d - child_ns[i]
        durations[name].append(d / 1e6)
        if node >= 0:
            kind, lo, hi = node_span.setdefault(node, [name, t0, t1])
            node_span[node] = [kind, min(lo, t0), max(hi, t1)]
        if name == "frames.SurfaceMap.frame_loop":
            node_points[node].add(tuple(arg))

    def ms(table, name):
        return table.get(name, 0) / 1e6

    verify_nodes = [(hi - lo) / 1e6 for kind, lo, hi in node_span.values()
                    if kind == "verify.invariant_stencil"]
    n_split = calls.get("iwasawa.iwasawa", 0)
    n_frame = calls.get("frames.SurfaceMap.frame_loop", 0)
    chol_n = [arg for name, *_, arg in spans if name == "iwasawa.cholesky"]
    out = {
        "potentials.eval_xi.calls": calls.get("potentials.eval_xi", 0),
        "potentials.eval_xi.self_ms": ms(self_ns, "potentials.eval_xi"),
        "holonomy.integrate_frame.calls": calls.get("holonomy.integrate_frame", 0),
        "holonomy.integrate_frame.ms": ms(total, "holonomy.integrate_frame"),
        "holonomy.integrate_frame.self_ms": ms(self_ns, "holonomy.integrate_frame"),
        "holonomy.integrate_at_lambda.calls": calls.get("holonomy.integrate_at_lambda", 0),
        "holonomy.integrate_at_lambda.ms": ms(total, "holonomy.integrate_at_lambda"),
        "frames.SurfaceMap.frame_loop.calls": n_frame,
        "frames.SurfaceMap.frame_loop.self_ms": ms(self_ns, "frames.SurfaceMap.frame_loop"),
        "frames.frame_loop.distinct_ratio":
            sum(len(p) for p in node_points.values()) / n_frame if n_frame else 0.0,
        "frames.SurfaceMap.sample.node_ms_p50": _pct(durations["frames.SurfaceMap.sample"], 0.5),
        "frames.SurfaceMap.sample.node_ms_p95": _pct(durations["frames.SurfaceMap.sample"], 0.95),
        "frames.readout.ms": sum(ms(total, n) for n in READOUT),
        "iwasawa.iwasawa.calls": n_split,
        "iwasawa.iwasawa.ms": ms(total, "iwasawa.iwasawa"),
        "iwasawa.iwasawa.self_ms": ms(self_ns, "iwasawa.iwasawa"),
        "iwasawa.split_ms_p50": _pct(durations["iwasawa.iwasawa"], 0.5),
        "iwasawa.split_ms_p99": _pct(durations["iwasawa.iwasawa"], 0.99),
        "iwasawa.spectral_factor_plus.ms": ms(total, "iwasawa.spectral_factor_plus"),
        "iwasawa.cholesky.calls": len(chol_n),
        "iwasawa.cholesky.max_n": max(chol_n, default=0),
        "iwasawa.cholesky.per_split": len(chol_n) / n_split if n_split else 0.0,
        "loops.loop_mul.calls": calls.get("loops.loop_mul", 0),
        "loops.loop_mul.ms": ms(total, "loops.loop_mul"),
        "loops.plus_inverse.ms": ms(total, "loops.plus_inverse"),
        "verify.invariants_report.calls": calls.get("verify.invariants_report", 0),
        "verify.invariants_report.self_ms": ms(self_ns, "verify.invariants_report"),
        "verify.geometry_report.self_ms": ms(self_ns, "verify.geometry_report"),
        "verify.node_ms_p50": statistics.median(verify_nodes) if verify_nodes else 0.0,
        "closedform.trinoid_monodromies.calls": calls.get("closedform.trinoid_monodromies", 0),
        "closedform.trinoid_monodromies.ms": ms(total, "closedform.trinoid_monodromies"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self.get(layer, 0) / 1e6
    return out


#: metrics that must repeat exactly between traced runs of the same input
COUNTS = tuple(k for k in summarize([]) if k.endswith((".calls", ".max_n", ".per_split",
                                                        ".distinct_ratio")))
