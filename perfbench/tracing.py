"""Span tracing for the traced benchmark run.

The package itself carries no instrumentation.  :func:`instrument` rebinds
the public functions and methods at each layer boundary of ``qnnbench``, in
every module that calls them, with wrappers that record a span (name,
start, end, parent, root) and a few exact counts.  Spans stay in memory in
the :class:`Tracer`; :func:`layer_metrics` folds them into per-layer numbers
at the end of the run and :meth:`Tracer.write` writes them out.

A span's layer is the part of its name before the first dot.  Self time is
a span's duration minus the durations of its direct children.  Spans opened
while another span is open share that outer span's root index, so all spans
of one request (or one fit, or one protocol run) share an identifier.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time
from collections import defaultdict

GATE_KINDS = ("h", "p", "rz", "ry", "cnot")


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else index
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path, header: dict) -> None:
        """Write ``header`` then one JSON line per span, times relative to
        the first span, to a gzip file."""
        origin = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, root in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 9), round(end - origin, 9), parent, root]
                ) + "\n")


class NullTracer:
    """Stand-in for the untraced run: spans and counts cost one call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: int = 1) -> None:
        pass


def _wrap(tracer: Tracer, fn, name: str, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


def _tree_nodes(root) -> int:
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return nodes


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(path)
        for name in names
    )


def _count_gate(tracer, args, result):
    # computed, not measured: each gate reads and writes its state once
    tracer.count("engine.bytes_moved_computed", 2 * args[0].nbytes)


def _count_alloc(tracer, args, result):
    tracer.count("engine.bytes_moved_computed", result.nbytes)


def _count_read(tracer, args, result):
    tracer.count("engine.bytes_moved_computed", args[0].nbytes)


def _count_run_circuit(tracer, args, result):
    state = args[1]
    tracer.count("circuits.rows", state.shape[0] if state.ndim == 2 else 1)


def _count_gradient(tracer, args, result):
    objective, params = args[0], args[1]
    tracer.count("qnn.gradient_rows", objective.encoded.shape[1] * (2 * len(params) + 1))


def _count_minimize(tracer, args, result):
    tracer.count("lbfgs.iterations", result.n_iters)


def _count_fit(tracer, args, result):
    tracer.count("benchmark.fits")


def _count_knn_predict(tracer, args, result):
    tracer.count("baselines.knn.distance_pairs", len(result) * len(args[0].X_train))


def _count_dtr_fit(tracer, args, result):
    tracer.count("baselines.dtr.nodes", _tree_nodes(result.root))


def _count_report(tracer, args, result):
    tracer.count("benchmark.report_bytes", _dir_bytes(result))


def instrument(tracer: Tracer):
    """Rebind the layer boundaries of ``qnnbench`` to traced wrappers.

    Returns a function that restores every original binding.
    """
    from qnnbench import baselines, benchmark, circuits, cli, engine, qnn

    originals = []

    def patch(owner, attr, name, counter=None):
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, counter))

    # engine: called through the module object by circuits and qnn
    for kind in GATE_KINDS:
        patch(engine, f"apply_{kind}", f"engine.{kind}", _count_gate)
        patch(engine, f"apply_{kind}_t", f"engine.{kind}", _count_gate)
    patch(engine, "zero_state", "engine.zero_state", _count_alloc)
    patch(engine, "zero_state_t", "engine.zero_state", _count_alloc)
    patch(engine, "expectation", "engine.expectation", _count_read)
    patch(engine, "parity_z_expectation_t", "engine.expectation", _count_read)

    # circuits: evaluate_circuit calls run_circuit through the module globals
    patch(circuits, "run_circuit", "circuits.run_circuit", _count_run_circuit)

    # qnn and the optimizer it drives
    patch(qnn, "train", "qnn.train")
    patch(qnn, "predict", "qnn.predict")
    patch(qnn, "minimize", "lbfgs.minimize", _count_minimize)
    patch(qnn.CircuitObjective, "__init__", "qnn.encode")
    patch(qnn.CircuitObjective, "loss", "qnn.loss")
    patch(qnn.CircuitObjective, "gradient", "qnn.gradient", _count_gradient)

    # baselines: methods are shared by every caller through the classes
    patch(baselines.KnnRegressor, "fit", "baselines.knn.fit")
    patch(baselines.KnnRegressor, "predict", "baselines.knn.predict", _count_knn_predict)
    patch(baselines.DecisionTreeRegressor, "fit", "baselines.dtr.fit", _count_dtr_fit)
    patch(baselines.DecisionTreeRegressor, "predict", "baselines.dtr.predict")
    patch(baselines.LinearModel, "predict", "baselines.lr.predict")
    patch(baselines, "ols_fit", "baselines.lr.fit")

    # the protocol module binds its own copies of the names it imported
    patch(benchmark, "train", "qnn.train", _count_fit)
    patch(benchmark, "predict", "qnn.predict")
    patch(benchmark, "ols_fit", "baselines.lr.fit")
    patch(benchmark, "fit_predict_baseline", "benchmark.fit_predict_baseline", _count_fit)
    patch(benchmark, "write_report", "benchmark.write_report", _count_report)
    patch(benchmark, "stability_scores", "benchmark.stability_scores")
    patch(benchmark, "gen_synthetic", "data.gen_synthetic")
    patch(benchmark, "load_dataset", "data.load_dataset")
    for name in ("feature_matrix", "target_vector", "subset_and_split",
                 "minmax_fit", "minmax_apply", "minmax_invert_target"):
        patch(benchmark, name, "data.split_scale")

    # cli
    patch(cli, "main", "cli.main")
    patch(cli, "run_benchmark", "benchmark.run_benchmark")
    patch(cli, "load_experiment_config", "benchmark.load_config")

    def restore():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


# Per-layer metrics: name -> unit.  Counts repeat exactly for a fixed seed.
LAYER_METRICS = {
    **{f"engine.gate_calls.{kind}": "count" for kind in GATE_KINDS},
    "engine.gate_calls": "count",
    "engine.bytes_moved_computed": "B",
    "engine.busy_s": "s",
    "circuits.run_calls": "count",
    "circuits.rows": "count",
    "circuits.busy_s": "s",
    "qnn.encode_s": "s",
    "qnn.gradient_calls": "count",
    "qnn.gradient_rows": "count",
    "qnn.gradient_s": "s",
    "qnn.loss_calls": "count",
    "qnn.loss_s": "s",
    "qnn.predict_calls": "count",
    "qnn.predict_s": "s",
    "lbfgs.iterations": "count",
    "lbfgs.f_evals": "count",
    "lbfgs.g_evals": "count",
    "lbfgs.evals_per_iteration": "ratio",
    "lbfgs.self_s": "s",
    "baselines.knn.predict_s": "s",
    "baselines.knn.distance_pairs": "count",
    "baselines.dtr.predict_s": "s",
    "baselines.dtr.fit_s": "s",
    "baselines.dtr.nodes": "count",
    "baselines.lr.predict_s": "s",
    "data.gen_synthetic_s": "s",
    "data.split_scale_s": "s",
    "data.load_dataset_s": "s",
    "data.request_scale_s": "s",
    "benchmark.fits": "count",
    "benchmark.write_report_s": "s",
    "benchmark.report_bytes": "B",
    "benchmark.stability_s": "s",
    "benchmark.self_s": "s",
    "cli.overhead_s": "s",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
}

EXACT_UNITS = ("count", "B")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans and counts into :data:`LAYER_METRICS`
    (all but ``trace.overhead_share``, which the caller measures)."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    layer_self_s: dict[str, float] = defaultdict(float)
    under: dict[tuple[str, str], int] = defaultdict(int)  # (name, parent name)
    under_s: dict[tuple[str, str], float] = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total_s[name] += duration
        layer_self_s[layer] += duration - child_s[index]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name.split(".", 1)[0] != layer:
            layer_s[layer] += duration  # outermost span of its layer
        under[(name, parent_name)] += 1
        under_s[(name, parent_name)] += duration

    counts = tracer.counts
    iterations = counts["lbfgs.iterations"]
    f_evals = under[("qnn.loss", "lbfgs.minimize")]
    metrics = {f"engine.gate_calls.{kind}": calls[f"engine.{kind}"] for kind in GATE_KINDS}
    metrics.update({
        "engine.gate_calls": sum(calls[f"engine.{kind}"] for kind in GATE_KINDS),
        "engine.bytes_moved_computed": counts["engine.bytes_moved_computed"],
        "engine.busy_s": layer_s["engine"],
        "circuits.run_calls": calls["circuits.run_circuit"],
        "circuits.rows": counts["circuits.rows"],
        "circuits.busy_s": layer_s["circuits"],
        "qnn.encode_s": total_s["qnn.encode"],
        "qnn.gradient_calls": calls["qnn.gradient"],
        "qnn.gradient_rows": counts["qnn.gradient_rows"],
        "qnn.gradient_s": total_s["qnn.gradient"],
        "qnn.loss_calls": calls["qnn.loss"],
        "qnn.loss_s": total_s["qnn.loss"],
        "qnn.predict_calls": calls["qnn.predict"],
        "qnn.predict_s": total_s["qnn.predict"],
        "lbfgs.iterations": iterations,
        "lbfgs.f_evals": f_evals,
        "lbfgs.g_evals": under[("qnn.gradient", "lbfgs.minimize")],
        "lbfgs.evals_per_iteration": f_evals / iterations if iterations else 0.0,
        "lbfgs.self_s": layer_self_s["lbfgs"],
        "baselines.knn.predict_s": total_s["baselines.knn.predict"],
        "baselines.knn.distance_pairs": counts["baselines.knn.distance_pairs"],
        "baselines.dtr.predict_s": total_s["baselines.dtr.predict"],
        "baselines.dtr.fit_s": total_s["baselines.dtr.fit"],
        "baselines.dtr.nodes": counts["baselines.dtr.nodes"],
        "baselines.lr.predict_s": total_s["baselines.lr.predict"],
        "data.gen_synthetic_s": total_s["data.gen_synthetic"],
        "data.split_scale_s": total_s["data.split_scale"],
        "data.load_dataset_s": total_s["data.load_dataset"],
        "data.request_scale_s": total_s["data.request_scale"],
        "benchmark.fits": counts["benchmark.fits"],
        "benchmark.write_report_s": total_s["benchmark.write_report"],
        "benchmark.report_bytes": counts["benchmark.report_bytes"],
        "benchmark.stability_s": total_s["benchmark.stability_scores"],
        "benchmark.self_s": layer_self_s["benchmark"],
        "cli.overhead_s": total_s["cli.main"] - under_s[("benchmark.run_benchmark", "cli.main")],
        "trace.spans": len(spans),
    })
    return metrics
