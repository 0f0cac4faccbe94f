"""Span tracing of heiswalk's layers from outside the package.

`install(tracer)` replaces each layer-entry function listed in `LAYERS`
with a wrapper that records a span, in every heiswalk module that holds
the function (so `percolation.ball_with_distances` is traced as well as
`heisenberg.ball_with_distances`, and `paths.stream`, `reference.stream`
and `percolation.stream` as well as `rng.stream`).  Generators returned
by `rng.stream` are wrapped so that each draw is a span of its own.

A span is (id, name, layer, parent, thread, start, end, cpu start, cpu
end, max-RSS start, max-RSS end).  Spans stay in memory until the pass
ends.  A span opened on a pool thread with no open span of its own takes
as parent the innermost open span of the main thread, which is the call
that is waiting for the pool.

Self time partitions the traced wall time: at every instant the time is
shared equally by the innermost open spans (one per busy thread).  With
one thread this is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time

# layer -> traced functions.  These are the names the workloads call
# across module boundaries, plus the Monte Carlo chunk functions (run on
# pool threads, so busy threads are told apart) and the quadrature core
# (the only place panel counts are known).  Helpers called in tight inner
# loops (group multiplication, cos_product, weight_bounds) are left out:
# a span per call would cost more than the work.
LAYERS = {
    "tables": ["scan_statistics", "dyadic_uniformity"],
    "fourier": ["cos_product_integral", "head_integral", "tail_integral_decay",
                "verify_cos_gaussian_bound", "_adaptive_simpson"],
    "paths": ["tail_estimate", "continuation_ratios", "_fit_tail", "_pair_statistics_chunk"],
    "reference": ["zd_collision_probability", "theta_d_estimate", "zd_eit_tail",
                  "edge_collision_rate", "lazy_return_probability", "srw_return_profile",
                  "srw_mutual_intersections", "_theta_chunk", "_zd_pair_chunk"],
    "rng": ["stream", "split_seed", "edge_uniforms"],
    "heisenberg": ["ball_with_distances", "ball_sizes"],
    "percolation": ["heisenberg_box", "lattice_box", "percolate", "resistance_profile",
                    "effective_resistance", "oriented_cluster", "path_flow_assignment",
                    "path_flow_energy"],
    "fitting": ["fit_loglog", "fit_exponential", "_fit_line"],
}

# counts that must repeat exactly between two passes of the same seed
REPEATED_COUNTS = [
    "rng.stream.calls",
    "tables.stats_evaluated",
    "fourier.panels",
    "heisenberg.ball_vertices",
    "percolation.box_vertices",
    "percolation.box_edges",
    "percolation.effective_resistance.calls",
]

_ID, _NAME, _LAYER, _PARENT, _THREAD, _T0, _T1, _CPU0, _CPU1, _RSS0, _RSS1 = range(11)


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Thread-safe in-memory span and counter store for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            stack.append(sid)
        rec = [sid, name, layer, parent, threading.get_ident(),
               time.perf_counter(), None, time.process_time(), None, _max_rss_kib(), None]
        try:
            yield rec
        finally:
            rec[_T1] = time.perf_counter()
            rec[_CPU1] = time.process_time()
            rec[_RSS1] = _max_rss_kib()
            with self._lock:
                stack.pop()
                self.spans.append(rec)

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def write(self, path: str) -> None:
        keys = ("id", "name", "layer", "parent", "thread", "start", "end",
                "cpu_start", "cpu_end", "maxrss_kib_start", "maxrss_kib_end")
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r[_ID]):
                fh.write(json.dumps({"run_id": self.run_id, **dict(zip(keys, rec))}) + "\n")


class _TracedGenerator:
    """Proxy for a numpy Generator that records a span per draw."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            with tracer.span("rng.draw", "rng"):
                out = value(*args, **kwargs)
            tracer.count("rng.draw_bytes", getattr(out, "nbytes", 8))
            return out

        return draw


def _after_scan_statistics(tracer, out, bound):
    tracer.count("tables.stats_evaluated", len(out))
    if out:
        k = max(out)
        # dense buffer (k+1) x (k(k-1)/2+1); row s reaches s(k-s)+1 cells
        tracer.count("tables.allocated_cells", (k + 1) * (k * (k - 1) // 2 + 1))
        tracer.count("tables.reachable_cells", sum(s * (k - s) + 1 for s in range(k + 1)))
    return out


def _after_adaptive_simpson(tracer, out, bound):
    tracer.count("fourier.panels", out.panels)
    return out


def _after_tail_estimate(tracer, out, bound):
    tracer.count("paths.pair_steps", bound["samples"] * bound["horizon"])
    return out


def _after_theta_d_estimate(tracer, out, bound):
    tracer.count("reference.walk_steps", bound["samples"] * bound["horizon"])
    return out


def _after_stream(tracer, out, bound):
    return _TracedGenerator(out, tracer)


def _after_ball(tracer, out, bound):
    tracer.count("heisenberg.ball_vertices", len(out))
    return out


def _after_box(tracer, out, bound):
    tracer.count("percolation.box_vertices", out.n_vertices)
    tracer.count("percolation.box_edges", out.n_edges)
    return out


def _after_flow_assignment(tracer, out, bound):
    tracer.count("percolation.flow_paths", bound["num_paths"])
    tracer.count("percolation.flow_surviving", 0 if out is None else out.surviving)
    return out


_AFTER = {
    "tables.scan_statistics": _after_scan_statistics,
    "fourier._adaptive_simpson": _after_adaptive_simpson,
    "paths.tail_estimate": _after_tail_estimate,
    "reference.theta_d_estimate": _after_theta_d_estimate,
    "rng.stream": _after_stream,
    "heisenberg.ball_with_distances": _after_ball,
    "percolation.heisenberg_box": _after_box,
    "percolation.lattice_box": _after_box,
    "percolation.path_flow_assignment": _after_flow_assignment,
}


def _traced(tracer: Tracer, layer: str, name: str, fn):
    span_name = f"{layer}.{name}"
    after = _AFTER.get(span_name)
    signature = inspect.signature(fn) if after else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name, layer):
            out = fn(*args, **kwargs)
        if after is None:
            return out
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return after(tracer, out, bound.arguments)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a heiswalk module holds it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "heiswalk" or name.startswith("heiswalk."))]
    for layer, names in LAYERS.items():
        home = sys.modules[f"heiswalk.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapper = _traced(tracer, layer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> self time; the values sum to the covered wall time."""
    events = []
    for rec in spans:
        events.append((rec[_T0], 1, rec[_ID], rec))
        events.append((rec[_T1], 0, -rec[_ID], rec))
    events.sort(key=lambda e: e[:3])
    open_ids: set[int] = set()
    open_children: collections.Counter = collections.Counter()
    leaves: set[int] = set()
    own: dict[int, float] = collections.defaultdict(float)
    last = None
    for t, is_start, _key, rec in events:
        if leaves and last is not None:
            share = (t - last) / len(leaves)
            for sid in leaves:
                own[sid] += share
        last = t
        sid, parent = rec[_ID], rec[_PARENT]
        if is_start:
            open_ids.add(sid)
            leaves.add(sid)
            if parent in open_ids:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent in open_ids:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def layer_metrics(tracer: Tracer, root: list, call_labels: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `root` spans the whole pass."""
    spans = tracer.spans
    own = self_times(spans)
    total = collections.defaultdict(float)
    cpu = collections.defaultdict(float)
    rss = collections.defaultdict(float)
    calls = collections.Counter()
    self_by_name = collections.defaultdict(float)
    self_by_layer = collections.defaultdict(float)
    for rec in spans:
        name = rec[_NAME]
        total[name] += rec[_T1] - rec[_T0]
        cpu[name] += rec[_CPU1] - rec[_CPU0]
        rss[name] += (rec[_RSS1] - rec[_RSS0]) / 1024.0  # max RSS only grows
        calls[name] += 1
        self_by_name[name] += own.get(rec[_ID], 0.0)
        self_by_layer[rec[_LAYER]] += own.get(rec[_ID], 0.0)
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"cli.{label}.s": total[f"cli.{label}"] for label in call_labels}
    m["cli.self_s"] = self_by_layer["cli"]
    m.update({
        "tables.scan_statistics.s": total["tables.scan_statistics"],
        "tables.stats_evaluated": counts["tables.stats_evaluated"],
        "tables.rss_growth_mb": rss["tables.scan_statistics"],
        "tables.dense_fill": ratio(counts["tables.reachable_cells"], counts["tables.allocated_cells"]),
        "tables.self_s": self_by_layer["tables"],
        "fourier.cos_product_integral.s": total["fourier.cos_product_integral"],
        "fourier.tail_integral_decay.s": total["fourier.tail_integral_decay"],
        "fourier.panels": counts["fourier.panels"],
        "fourier.self_s": self_by_layer["fourier"],
        "paths.tail_estimate.s": total["paths.tail_estimate"],
        "paths.tail_estimate.cpu_s": cpu["paths.tail_estimate"],
        "paths.pair_steps_per_s": ratio(counts["paths.pair_steps"], total["paths.tail_estimate"]),
        "paths.self_s": self_by_layer["paths"],
        "reference.zd_eit_tail.s": total["reference.zd_eit_tail"],
        "reference.theta_d_estimate.s": total["reference.theta_d_estimate"],
        "reference.theta_d_estimate.cpu_s": cpu["reference.theta_d_estimate"],
        "reference.walk_steps_per_s": ratio(counts["reference.walk_steps"],
                                            total["reference.theta_d_estimate"]),
        "reference.srw_return_profile.s": total["reference.srw_return_profile"],
        "reference.srw_return_profile.rss_growth_mb": rss["reference.srw_return_profile"],
        "reference.srw_mutual_intersections.s": total["reference.srw_mutual_intersections"],
        "reference.self_s": self_by_layer["reference"],
        "rng.stream.calls": calls["rng.stream"],
        "rng.draw_s": total["rng.draw"],
        "rng.draw_mb": counts["rng.draw_bytes"] / 2**20,
        "rng.edge_uniforms.s": total["rng.edge_uniforms"],
        "rng.self_s": self_by_layer["rng"],
        "heisenberg.ball_with_distances.s": total["heisenberg.ball_with_distances"],
        "heisenberg.ball_vertices": counts["heisenberg.ball_vertices"],
        "heisenberg.self_s": self_by_layer["heisenberg"],
        "percolation.box_build.s": (self_by_name["percolation.heisenberg_box"]
                                    + self_by_name["percolation.lattice_box"]),
        "percolation.box_vertices": counts["percolation.box_vertices"],
        "percolation.box_edges": counts["percolation.box_edges"],
        "percolation.effective_resistance.s": total["percolation.effective_resistance"],
        "percolation.effective_resistance.calls": calls["percolation.effective_resistance"],
        "percolation.oriented_cluster.s": total["percolation.oriented_cluster"],
        "percolation.path_flow_assignment.s": total["percolation.path_flow_assignment"],
        "percolation.flow_survival": ratio(counts["percolation.flow_surviving"],
                                           counts["percolation.flow_paths"]),
        "percolation.self_s": self_by_layer["percolation"],
        "fitting.s": self_by_layer["fitting"],
        "trace.wall_s": root[_T1] - root[_T0],
    })
    return {k: float(v) for k, v in m.items()}
