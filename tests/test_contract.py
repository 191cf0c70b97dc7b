"""The input contract shared by all nine models: every fit and predict
accepts the same inputs and rejects the same bad ones with the same
``ValueError`` message, before any arithmetic."""

import warnings

import numpy as np
import pytest

from qnnbench import qnn
from qnnbench.baselines import DecisionTreeRegressor, KnnRegressor, ols_fit
from qnnbench.lbfgs import OptimizeOptions

SEED = 20240817
MODELS = [*qnn.QNN_CONFIGS, "kNN", "DTR", "LR"]


def fit(name, X, y):
    """Fit one of the nine models; returns its predict as a function."""
    if name in qnn.QNN_CONFIGS:
        options = OptimizeOptions(max_iter=1)
        model, _ = qnn.train(qnn.QNN_CONFIGS[name], X, y, seed=0, options=options)
        return lambda queries: qnn.predict(model, queries)
    if name == "kNN":
        return KnnRegressor(k=5).fit(X, y).predict
    if name == "DTR":
        return DecisionTreeRegressor().fit(X, y).predict
    return ols_fit(X, y).predict


def training_set():
    rng = np.random.default_rng(SEED)
    return rng.uniform(size=(16, 4)), rng.uniform(size=16)


@pytest.fixture(scope="module")
def fitted():
    X, y = training_set()
    return {name: fit(name, X, y) for name in MODELS}


def with_bad_value(values, bad):
    """A copy of ``values`` with ``bad`` at a seeded position."""
    values = np.array(values, dtype=float)
    position = np.random.default_rng(SEED).integers(values.size)
    values.reshape(-1)[position] = bad
    return values


def bad_queries():
    rng = np.random.default_rng(SEED)
    cases = {
        "0-D": np.array(0.5),
        "3-D": rng.uniform(size=(2, 3, 4)),
        "narrow row": rng.uniform(size=3),
        "wide row": rng.uniform(size=5),
        "narrow batch": rng.uniform(size=(3, 3)),
        "wide batch": rng.uniform(size=(3, 5)),
    }
    for bad in (np.nan, np.inf, -np.inf):
        cases[f"{bad} in a row"] = with_bad_value(rng.uniform(size=4), bad)
        cases[f"{bad} in a batch"] = with_bad_value(rng.uniform(size=(6, 4)), bad)
    return cases


def bad_training_sets():
    X, y = training_set()
    cases = {
        "length mismatch": (X, y[:-1]),
        "empty": (X[:0], y[:0]),
        "1-D X": (X[:, 0], y),
        "3-D X": (X.reshape(16, 2, 2), y),
    }
    for bad in (np.nan, np.inf, -np.inf):
        cases[f"{bad} in X"] = (with_bad_value(X, bad), y)
        cases[f"{bad} in y"] = (X, with_bad_value(y, bad))
    return cases


def rejection_messages(calls):
    """The ``ValueError`` message of each call, with any warning an error."""
    messages = {}
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                call()
        messages[name] = str(excinfo.value)
    return messages


@pytest.mark.parametrize("case", list(bad_queries()))
def test_bad_query_gets_one_message(fitted, case):
    query = bad_queries()[case]
    messages = rejection_messages(
        {name: lambda p=predict: p(query) for name, predict in fitted.items()}
    )
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("case", list(bad_training_sets()))
def test_bad_training_set_gets_one_message(case):
    X, y = bad_training_sets()[case]
    messages = rejection_messages({name: lambda n=name: fit(n, X, y) for name in MODELS})
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("name", MODELS)
def test_row_and_batch_agree(fitted, name):
    predict = fitted[name]
    queries = np.random.default_rng(SEED).uniform(-0.2, 1.2, size=(5, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = predict(queries)
        assert batch.shape == (5,)
        for row in queries:
            value = predict(row)
            assert isinstance(value, float)
            assert np.array_equal(value, predict(row[None])[0])
            assert np.array_equal(predict(row.tolist()), value)
        assert predict(queries[:0]).shape == (0,)
