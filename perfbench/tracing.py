"""Span tracing of the coles library from outside it, and per-layer metrics.

`instrument` replaces every public function of the traced coles modules with
a wrapper that records a span, in the defining module and in every module
that imported the function by name (so `coles.cli.sample_negative_graph` is
traced as well as `coles.negative_sampling.sample_negative_graph`). Two
`SparseSym` methods are wrapped too, because the graph layer spends its time
in them. `coles.rng` is left alone: a wrapper per random draw would cost more
than the draw, so its cost shows up as the self time of its callers.
`coles.losses` and `coles.planetoid` are not on any path the CLI takes.

A span is (name, start, end, parent index, run id). Self time is a span's
duration minus the durations of its direct children. Counts are derived from
arguments and results after a span has ended, outside its timed interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

# traced coles modules, one layer each
LAYERS = ("cli", "coles_solver", "synthetic", "negative_sampling", "graph_core",
          "spectral_filters", "io", "evaluation", "diagnostics")

# per-layer self-time metrics: metric -> the spans whose self time it sums
SELF_TIME = {
    "coles_solver.sym_eig_s": ("coles_solver.sym_eig",),
    "coles_solver.build_quadratic_form_s": ("coles_solver.build_quadratic_form",),
    "coles_solver.solve_projection_s": ("coles_solver.solve_projection",),
    "coles_solver.hash_features_s": ("coles_solver.hash_features",),
    "synthetic.generate_sbm_s": ("synthetic.generate_sbm",),
    "negative_sampling.sample_s": ("negative_sampling.sample_negative_graph",
                                   "negative_sampling.negative_stream"),
    "negative_sampling.build_delta_w_s": ("negative_sampling.build_delta_w",),
    "negative_sampling.psd_margin_s": ("negative_sampling.psd_margin",),
    "graph_core.load_edge_list_s": ("graph_core.load_edge_list",),
    "graph_core.save_edge_list_s": ("graph_core.save_edge_list",),
    "graph_core.from_edges_s": ("graph_core.from_edges",),
    "graph_core.edge_list_s": ("graph_core.edge_list",),
    # normalisation wherever it runs: the data graph and every negative graph
    "graph_core.normalized_adjacency_s": ("graph_core.normalized_adjacency",
                                          "graph_core.add_self_loops",
                                          "graph_core.degree_normalize"),
    "graph_core.laplacian_s": ("graph_core.laplacian",),
    "graph_core.spmm_s": ("graph_core.spmm",),
    "spectral_filters.apply_filter_s": ("spectral_filters.apply_filter",
                                        "spectral_filters.sgc_filter",
                                        "spectral_filters.s2gc_filter"),
    "io.read_dense_s": ("io.read_dense", "io.read_csv", "io.read_clsm"),
    "io.read_labels_s": ("io.read_labels",),
    "io.write_s": ("io.write_clsm", "io.write_csv", "io.write_labels"),
    "evaluation.random_split_s": ("evaluation.random_split",),
    "evaluation.logreg_fit_s": ("evaluation.logreg_fit",),
    "evaluation.kmeans_s": ("evaluation.kmeans",),
    "evaluation.score_s": ("evaluation.score", "evaluation.nmi_score",
                           "evaluation.hungarian_accuracy"),
    "diagnostics.pair_scores_s": ("diagnostics.pair_scores",),
    "diagnostics.js_divergence_s": ("diagnostics.js_divergence",
                                    "diagnostics.silverman_bandwidth",
                                    "diagnostics.shared_grid"),
    "diagnostics.parzen_density_s": ("diagnostics.parzen_density",),
    "diagnostics.wasserstein1_s": ("diagnostics.wasserstein1",),
    "diagnostics.homophily_s": ("diagnostics.homophily",),
}

COUNT_UNITS = {
    "coles_solver.sym_eig_dim": "count",
    "synthetic.edges": "count",
    "negative_sampling.graphs": "count",
    "negative_sampling.edges": "count",
    "negative_sampling.unique_edge_ratio": "fraction",
    "negative_sampling.psd_margin_converged": "fraction",
    "graph_core.spmm_calls": "count",
    "graph_core.spmm_flops": "flop",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "evaluation.logreg_fit_calls": "count",
    "evaluation.kmeans_calls": "count",
    "diagnostics.scores": "count",
}

STAGES = ("setup", "embed", "evaluate", "diagnose")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in SELF_TIME}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(COUNT_UNITS)
    units.update({f"stage.{stage}_s": "s" for stage in STAGES})
    units.update({"trace.overhead_s": "s", "trace.spans": "count", "trace.span_cost_s": "s",
                  "host.calib_s": "s"})
    return units


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = {}
        self.run_id = ""

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn, count=None):
        """fn traced as span `name`; count(counts, result, arguments) runs after it."""
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, signature.bind(*args, **kwargs).arguments)
            return result
        return traced


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, from a wrapped no-op timed against a bare one."""
    bare = lambda: None  # noqa: E731
    wrapped = Tracer().wrap("noop", bare)
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    mid = time.perf_counter()
    for _ in range(calls):
        bare()
    return max(0.0, ((mid - start) - (time.perf_counter() - mid)) / calls)


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _sym_eig(c, res, a):
    c["coles_solver.sym_eig_dim"] = max(c.get("coles_solver.sym_eig_dim", 0),
                                        int(np.shape(a["m"])[0]))


def _generate_sbm(c, graph, a):
    _add(c, "synthetic.edges", graph.adjacency.nnz // 2)


def _sample_negative_graph(c, w, a):
    n, cfg = a["n"], a["cfg"]
    _add(c, "negative_sampling.graphs", 1)
    _add(c, "negative_sampling.edges", (w.nnz - n) // 2)  # self-loops were added
    _add(c, "negative_sampling.draws",
         n * cfg.per_node if cfg.mode == "per-node-k" else n * (n - 1) // 2)


def _psd_margin(c, margin, a):
    _add(c, "negative_sampling.psd_calls", 1)
    _add(c, "negative_sampling.psd_converged", int(bool(margin.converged)))


def _spmm(c, res, a):
    _add(c, "graph_core.spmm_calls", 1)
    _add(c, "graph_core.spmm_flops", 2 * a["s"].nnz * int(np.shape(a["x"])[1]))


def _read(c, res, a):
    _add(c, "io.bytes_read", os.path.getsize(a["path"]))


def _write(c, res, a):
    _add(c, "io.bytes_written", os.path.getsize(a["path"]))


def _calls(key):
    return lambda c, res, a: _add(c, key, 1)


def _scores(c, res, a):
    _add(c, "diagnostics.scores", int(np.size(res)))


# count hooks keyed by span name
COUNTERS = {
    "coles_solver.sym_eig": _sym_eig,
    "synthetic.generate_sbm": _generate_sbm,
    "negative_sampling.sample_negative_graph": _sample_negative_graph,
    "negative_sampling.psd_margin": _psd_margin,
    "graph_core.spmm": _spmm,
    "io.read_dense": _read,
    "io.read_labels": _read,
    "io.write_clsm": _write,
    "io.write_csv": _write,
    "io.write_labels": _write,
    "evaluation.logreg_fit": _calls("evaluation.logreg_fit_calls"),
    "evaluation.kmeans": _calls("evaluation.kmeans_calls"),
    "diagnostics.pair_scores": _scores,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the traced coles functions in place, recording into tracer."""
    mods = {layer: importlib.import_module(f"coles.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(span, obj, COUNTERS.get(span))
    importers = [importlib.import_module("coles")] + list(mods.values())
    for mod in importers:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    sparse = mods["graph_core"].SparseSym
    sparse.from_edges = classmethod(
        tracer.wrap("graph_core.from_edges", sparse.from_edges.__func__))
    sparse.edge_list = tracer.wrap("graph_core.edge_list", sparse.edge_list)


def self_times(spans, run_prefix: str = "") -> dict:
    """Summed self time per span name, for the spans of one process.

    Only spans whose run id starts with run_prefix count, e.g. "embed#" for
    the spans made inside `coles embed` calls.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, run) in enumerate(spans):
        if run.startswith(run_prefix):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def stage_share(proc: dict, metric: str, run_prefix: str, stage_seconds: float) -> float:
    """Self time of a SELF_TIME metric inside one stage's calls, over that stage's time."""
    own = self_times(proc.get("spans", []), run_prefix)
    return sum(own.get(s, 0.0) for s in SELF_TIME[metric]) / stage_seconds if stage_seconds else 0.0


def layer_metrics(processes) -> dict:
    """Per-layer metric values from traced processes, each a dict with spans and counts."""
    own: dict = {}
    for proc in processes:
        for name, seconds in self_times(proc.get("spans", [])).items():
            own[name] = own.get(name, 0.0) + seconds
    counts = merge_counts(proc.get("counts", {}) for proc in processes)
    out = {metric: sum(own.get(s, 0.0) for s in names) for metric, names in SELF_TIME.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    for key in COUNT_UNITS:
        out[key] = counts.get(key, 0)
    draws = counts.get("negative_sampling.draws", 0)
    out["negative_sampling.unique_edge_ratio"] = (
        counts.get("negative_sampling.edges", 0) / draws if draws else 0.0)
    psd_calls = counts.get("negative_sampling.psd_calls", 0)
    out["negative_sampling.psd_margin_converged"] = (
        counts.get("negative_sampling.psd_converged", 0) / psd_calls if psd_calls else 0.0)
    out["trace.spans"] = sum(len(proc.get("spans", [])) for proc in processes)
    return out


def merge_counts(parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "coles_solver.sym_eig_dim":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
