"""The benchmark's own tests.  Not collected by the repository's test run;
run them from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

The repeat test runs every workload traced twice (a few minutes).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from qnnbench import baselines, qnn  # noqa: E402

WORKLOADS = ("train-large", "protocol-small", "serve-mixed")


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_basis_state():
    # zero features and angles: H P(0) H is the identity and RY(0) is too,
    # so the state stays |0000> with parity +1
    config = qnn.QNN_CONFIGS["QNN-1"]
    assert reference.qnn_output(config, np.zeros(12), np.zeros(4)) == pytest.approx(1.0, abs=1e-12)


def test_reference_cnot_flips_target_when_control_set():
    # qubit 0 is the least-significant bit: |01> (index 1) -> |11> (index 3)
    state = np.zeros(4)
    state[1] = 1.0
    assert np.argmax(np.abs(reference.cnot(0, 1, 2) @ state)) == 3


@pytest.mark.parametrize("name", list(qnn.QNN_CONFIGS))
def test_reference_matches_qnn_predict(name):
    rng = np.random.default_rng(5)
    config = qnn.QNN_CONFIGS[name]
    model = qnn.QnnModel(config, config.circuit(), rng.uniform(0, 2 * math.pi, 12))
    X = rng.uniform(-0.2, 1.2, size=(8, 4))
    expected = [reference.qnn_output(config, model.params, x) for x in X]
    assert np.max(np.abs(qnn.predict(model, X) - expected)) <= 1e-9


def test_reference_matches_baselines():
    rng = np.random.default_rng(6)
    X, y = rng.uniform(size=(300, 4)), rng.uniform(size=300)
    queries = rng.uniform(size=(20, 4))
    knn = baselines.KnnRegressor(k=5, p=2.0).fit(X, y)
    lr = baselines.ols_fit(X, y)
    assert np.allclose(knn.predict(queries),
                       [reference.knn_output(X, y, 5, q) for q in queries], rtol=0, atol=1e-12)
    assert np.allclose(lr.predict(queries),
                       [reference.lr_output(lr.weights, lr.intercept, q) for q in queries],
                       rtol=0, atol=1e-12)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["lbfgs.minimize", 0.0, 10.0, -1, 0], ["qnn.loss", 1.0, 4.0, 0, 0],
                    ["qnn.gradient", 5.0, 9.0, 0, 0], ["qnn.loss", 11.0, 12.0, -1, 3]]
    tracer.counts["lbfgs.iterations"] = 1
    metrics = tracing.layer_metrics(tracer)
    assert metrics["lbfgs.self_s"] == pytest.approx(3.0)
    assert metrics["lbfgs.f_evals"] == 1  # the loss outside the optimizer is not counted
    assert metrics["lbfgs.g_evals"] == 1
    assert metrics["qnn.loss_calls"] == 2


def test_instrument_restores_bindings():
    from qnnbench import benchmark, engine

    before = (engine.apply_ry_t, qnn.CircuitObjective.gradient, benchmark.train)
    restore = tracing.instrument(tracing.Tracer())
    assert engine.apply_ry_t is not before[0]
    restore()
    assert (engine.apply_ry_t, qnn.CircuitObjective.gradient, benchmark.train) == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(ROOT, "--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "1")) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(tracing.LAYER_METRICS)
    counts = {name for name, unit in tracing.LAYER_METRICS.items() if unit in tracing.EXACT_UNITS}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "serve-mixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
