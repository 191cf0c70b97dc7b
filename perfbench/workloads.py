"""The benchmark's three workloads, each driven by one closed-loop client.

A workload object is built by its set-up (timed as ``setup_s``) from the
workload seed alone, then runs numbered passes over a fixed unit of work:

* ``train-large``: one pass is ``qnn.train`` for QNN-1..QNN-6 on the
  1280-row training split of a size-1600 subset -- ten full gradient blocks
  per call, so the transposed-layout engine kernels do nearly all the work.
* ``protocol-small``: one pass is ``qnnbench bench run`` in-process on all
  nine models at sizes 100 and 200 with 5 folds: 72 small QNN fits whose
  cost is dominated by per-call overhead, plus tree fitting, report I/O,
  stability scoring and config parsing.
* ``serve-mixed``: one pass is one cycle of 180 read-only requests over all
  nine fitted models (per model 14 one-row, 5 sixteen-row and 1
  256-row requests, seeded order and rows); each request scales, predicts
  and un-scales.  Trains nothing; exercises the dim-last engine path, the
  one-row dispatch overhead and the classical predictors.

Each workload checks its own outputs; every failed operation or failed
check adds to ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import reference
from qnnbench import baselines, cli, data, qnn
from qnnbench.benchmark import ALL_MODELS
from qnnbench.lbfgs import OptimizeOptions

VERIFY_TOLERANCE = 1e-9  # in scaled target units


def derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0])


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _scaled_split(rows, size: int, seed: int):
    """Scaled training split plus the raw test rows and the scaler."""
    X, y = data.feature_matrix(rows), data.target_vector(rows)
    split = data.subset_and_split(rows, size, seed)
    scaler = data.minmax_fit(X[split.train_idx], y[split.train_idx])
    Xtr, ytr = data.minmax_apply(scaler, X[split.train_idx], y[split.train_idx])
    return scaler, Xtr, ytr, X[split.test_idx]


class TrainLarge:
    name = "train-large"
    setup_repeats = 9
    min_passes = 1
    trace_passes = 1

    def __init__(self, seed: int, tracer, workdir: Path):
        with tracer.span("data.gen_synthetic"):
            rows = data.gen_synthetic(1600, seed)
        with tracer.span("data.split_scale"):
            _, self.X, self.y, _ = _scaled_split(rows, 1600, seed)
        self.fits = [(config, derived_seed(seed, i))
                     for i, config in enumerate(qnn.QNN_CONFIGS.values())]
        self.attempted = self.failed = 0
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.final_losses: list[float] = []

    def run_pass(self, tracer, index: int) -> None:
        elapsed = 0.0
        for config, seed in self.fits:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                _, history = qnn.train(config, self.X, self.y, seed=seed)
            except Exception:
                _report_failure(f"train {config.name}")
                self.failed += 1
                continue
            self.op_s.append(time.perf_counter() - t0)
            elapsed += self.op_s[-1]
            # accepted quasi-Newton steps never raise the loss
            if not (np.all(np.isfinite(history)) and np.all(np.diff(history) <= 0.0)):
                print(f"perfbench: {config.name} loss history increases", file=sys.stderr)
                self.failed += 1
            if len(self.final_losses) < len(self.fits):
                self.final_losses.append(float(history[-1]))
        self.pass_s.append(elapsed)

    def check(self) -> None:
        pass

    def report(self) -> list[tuple]:
        return [
            ("train_s", "s", self.pass_s, "pass of six 1280-row fits"),
            ("fit_s", "s", self.op_s, "1280-row fit"),
            ("final_loss_mean", "mse",
             float(np.mean(self.final_losses)) if self.final_losses else math.nan, None),
        ]

    def close(self) -> None:
        pass


class ProtocolSmall:
    name = "protocol-small"
    setup_repeats = 9
    min_passes = 2  # summary.json must be byte-identical across passes
    trace_passes = 1  # after one untraced pass, so the traced run compares too

    def __init__(self, seed: int, tracer, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="protocol-", dir=workdir))
        with tracer.span("data.gen_synthetic"):
            rows = data.gen_synthetic(5000, seed)
        with tracer.span("data.write_dataset"):
            data.write_dataset(self.dir / "corpus.csv", rows)
        self.report_dir = self.dir / "report"
        self.config = self.dir / "experiment.json"
        self.config.write_text(json.dumps({
            "seed": seed,
            "models": list(ALL_MODELS),
            "sizes": [100, 200],
            "k_folds": 5,
            "data": {"csv": str(self.dir / "corpus.csv")},
            "timing": {"enabled": False},
            "output_dir": str(self.report_dir),
        }))
        self.attempted = self.failed = 0
        self.pass_s: list[float] = []
        self.op_s: list[float] = []  # one operation is one protocol run
        self.summary: bytes | None = None
        self.holdout_r2_mean = math.nan

    def run_pass(self, tracer, index: int) -> None:
        shutil.rmtree(self.report_dir, ignore_errors=True)
        self.attempted += 1
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["bench", "run", "--config", str(self.config)])
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"perfbench: bench run exited with {code}", file=sys.stderr)
            self.failed += 1
            return
        self.pass_s.append(elapsed)
        self.op_s.append(elapsed)
        summary = (self.report_dir / "summary.json").read_bytes()
        if not self._finite(json.loads(summary)):
            print("perfbench: summary.json holds a non-finite metric", file=sys.stderr)
            self.failed += 1
        if self.summary is None:
            self.summary = summary
            results = json.loads(summary)["results"]
            self.holdout_r2_mean = float(np.mean([r["holdout"]["r2"] for r in results]))
        elif summary != self.summary:
            print("perfbench: summary.json differs between passes", file=sys.stderr)
            self.failed += 1

    @classmethod
    def _finite(cls, value) -> bool:
        if isinstance(value, dict):
            return all(cls._finite(v) for v in value.values())
        if isinstance(value, list):
            return all(cls._finite(v) for v in value)
        if isinstance(value, float):
            return math.isfinite(value)
        return True

    def check(self) -> None:
        if len(self.pass_s) < 2:
            print("perfbench: fewer than two protocol passes to compare", file=sys.stderr)
            self.failed += 1

    def report(self) -> list[tuple]:
        return [
            ("protocol_s", "s", self.pass_s, "protocol run"),
            ("holdout_r2_mean", "r2", self.holdout_r2_mean, None),
        ]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# requests per model in one serve cycle, by batch size: about 70/25/5
BATCH_MIX = {1: 14, 16: 5, 256: 1}
VERIFIED_PER_CYCLE = 3


class ServeMixed:
    name = "serve-mixed"
    setup_repeats = 3
    min_passes = 1
    trace_passes = 20

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        with tracer.span("data.gen_synthetic"):
            rows = data.gen_synthetic(4000, seed)
        with tracer.span("data.split_scale"):
            self.scaler, Xtr, ytr, self.X_requests = _scaled_split(rows, 4000, seed)
        knn = baselines.KnnRegressor(k=5, p=2.0).fit(Xtr, ytr)
        dtr = baselines.DecisionTreeRegressor().fit(Xtr, ytr)
        lr = baselines.ols_fit(Xtr, ytr)
        # serving cost does not depend on the parameter values, so short fits do
        short = OptimizeOptions(max_iter=5)
        qnns = [qnn.train(config, Xtr[:256], ytr[:256], seed=derived_seed(seed, i), options=short)[0]
                for i, config in enumerate(qnn.QNN_CONFIGS.values())]
        # (kind, predict, reference for one scaled row); predict looks the
        # package function up per call so the traced run sees it
        self.models = [
            ("qnn", lambda xs, m=m: qnn.predict(m, xs),
             lambda x, m=m: reference.qnn_output(m.config, m.params, x))
            for m in qnns
        ] + [
            ("classical", lambda xs: knn.predict(xs),
             lambda x: reference.knn_output(Xtr, ytr, knn.k, x)),
            ("classical", lambda xs: dtr.predict(xs), None),
            ("classical", lambda xs: lr.predict(xs),
             lambda x: reference.lr_output(lr.weights, lr.intercept, x)),
        ]
        self.plan = [(m, batch) for m in range(len(self.models))
                     for batch, n in BATCH_MIX.items() for _ in range(n)]
        self.attempted = self.failed = 0
        self.pass_s: list[float] = []
        self.latency_s: dict[str, list[float]] = {"qnn": [], "classical": []}
        # one operation is a QNN request: the median over the whole mix sits
        # on the boundary between per-model latency levels and jumps
        self.op_s = self.latency_s["qnn"]
        self.rows = 0
        self.to_verify: list[tuple[int, np.ndarray, np.ndarray]] = []

    def _cycle(self, index: int):
        rng = np.random.default_rng((self.seed, index))
        requests = []
        for p in rng.permutation(len(self.plan)):
            model, batch = self.plan[p]
            rows = rng.choice(len(self.X_requests), size=batch, replace=False)
            requests.append((model, self.X_requests[rows]))
        verify = set(rng.choice(len(requests), size=VERIFIED_PER_CYCLE, replace=False).tolist())
        return requests, verify

    def run_pass(self, tracer, index: int) -> None:
        requests, verify = self._cycle(index)
        busy = 0.0
        for j, (model, raw) in enumerate(requests):
            kind, predict, _ = self.models[model]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("serve.request"):
                    with tracer.span("data.request_scale"):
                        xs = data.minmax_apply(self.scaler, raw)
                    scaled = predict(xs)
                    with tracer.span("data.request_scale"):
                        out = data.minmax_invert_target(self.scaler, scaled)
            except Exception:
                _report_failure(f"request to model {model}")
                self.failed += 1
                continue
            latency = time.perf_counter() - t0
            busy += latency
            self.latency_s[kind].append(latency)
            self.rows += len(raw)
            if out.shape != (len(raw),) or not np.all(np.isfinite(out)):
                print(f"perfbench: malformed response from model {model}", file=sys.stderr)
                self.failed += 1
            elif j in verify:
                self.to_verify.append((model, raw, out))
        self.pass_s.append(busy)

    def check(self) -> None:
        """Compare the sampled responses with the reference implementations,
        scaling requests and targets independently of the package."""
        mins, maxs = self.scaler.mins, self.scaler.maxs
        span = maxs[-1] - mins[-1]
        for model, raw, out in self.to_verify:
            ref_fn = self.models[model][2]
            if ref_fn is None:
                continue
            xs = reference.scale_features(mins, maxs, raw)
            expected = reference.unscale_target(mins, maxs, [ref_fn(x) for x in xs])
            error = float(np.max(np.abs(out - expected))) / span
            if not error <= VERIFY_TOLERANCE:
                print(f"perfbench: model {model} differs from the reference by {error:.3g}",
                      file=sys.stderr)
                self.failed += 1

    def report(self) -> list[tuple]:
        def ms(samples):
            return [1e3 * s for s in samples]

        busy = sum(self.pass_s)
        return [
            ("serve_rows_per_s", "1/s", self.rows / busy if busy else math.nan, None),
            ("serve_latency_ms", "ms", ms(self.latency_s["qnn"] + self.latency_s["classical"]),
             "request"),
            ("serve_qnn_latency_ms", "ms", ms(self.latency_s["qnn"]), "QNN request"),
            ("serve_classical_latency_ms", "ms", ms(self.latency_s["classical"]),
             "classical request"),
            ("cycle_s", "s", self.pass_s, "180-request cycle"),
        ]

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (TrainLarge, ProtocolSmall, ServeMixed)}
