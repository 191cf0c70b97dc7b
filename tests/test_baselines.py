import numpy as np
import pytest

import _oracles
from qnnbench.baselines import (
    DecisionTreeRegressor,
    KnnRegressor,
    TreeNode,
    ols_fit,
)


class TestKnn:
    def test_k_one_returns_nearest_target(self):
        model = KnnRegressor(k=1).fit([[0.0], [1.0], [2.0]], [10.0, 20.0, 30.0])
        np.testing.assert_allclose(model.predict([[0.9]]), [20.0])

    def test_k_equal_to_training_size_returns_global_mean(self, rng):
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        model = KnnRegressor(k=8).fit(X, y)
        np.testing.assert_allclose(model.predict(rng.normal(size=(4, 3))), np.full(4, y.mean()))

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(6, 25))
            X = rng.normal(size=(n, 4))
            y = rng.normal(size=n)
            model = KnnRegressor(k=5, p=2.0).fit(X, y)
            queries = rng.normal(size=(3, 4))
            got = model.predict(queries)
            expected = [_oracles.knn_predict(X, y, q, k=5, p=2.0) for q in queries]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_distance_ties_prefer_lower_index(self):
        # two training points equidistant from the query
        model = KnnRegressor(k=1).fit([[1.0], [-1.0]], [111.0, 222.0])
        np.testing.assert_allclose(model.predict([[0.0]]), [111.0])

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_ties_at_the_kth_distance_prefer_lower_index(self, rng, p):
        # integer grid: many training rows share the k-th distance exactly
        X = rng.integers(0, 3, size=(60, 2)).astype(float)
        y = rng.normal(size=60)
        queries = rng.integers(0, 3, size=(20, 2)).astype(float)
        for k in (1, 3, 5, 12):
            got = KnnRegressor(k=k, p=p).fit(X, y).predict(queries)
            expected = [_oracles.knn_predict(X, y, q, k=k, p=p) for q in queries]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_tie_straddling_k_keeps_lowest_indices(self):
        # four rows at distance 1 for k=3: the lowest three indices win
        X = [[5.0], [1.0], [-1.0], [1.0], [-1.0], [0.5]]
        y = [100.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        got = KnnRegressor(k=3).fit(X, y).predict([[0.0]])
        np.testing.assert_array_equal(got, [(16.0 + 1.0 + 2.0) / 3])

    def test_zero_training_error_with_k_one(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = KnnRegressor(k=1).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)

    def test_minkowski_order_changes_neighbours(self):
        X = [[0.0, 0.0], [0.8, 0.8], [1.2, 0.0]]
        y = [0.0, 1.0, 2.0]
        query = [[0.0, 0.0]]
        # diagonal point: distance 1.6 under p=1 but ~1.13 under p=2
        np.testing.assert_allclose(KnnRegressor(k=2, p=1.0).fit(X, y).predict(query), [1.0])
        np.testing.assert_allclose(KnnRegressor(k=2, p=2.0).fit(X, y).predict(query), [0.5])

    def test_k_larger_than_training_rejected(self):
        with pytest.raises(ValueError):
            KnnRegressor(k=5).fit([[0.0]], [1.0])

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            KnnRegressor(k=1).fit(np.empty((0, 2)), [])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError):
            KnnRegressor().predict([[1.0]])

    def test_wrong_feature_count_rejected(self):
        model = KnnRegressor(k=1).fit([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
        for queries in ([[0.0]], [[0.0, 1.0, 2.0]]):
            with pytest.raises(ValueError):
                model.predict(queries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
        model = KnnRegressor(k=2).fit(X, [10.0, 20.0, 90.0])
        with pytest.raises(ValueError):
            model.predict([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError):
            KnnRegressor(k=2).fit([[0.0, 1.0], [1.0, bad], [2.0, 2.0]], [1.0, 2.0, 3.0])


class TestDecisionTree:
    def test_single_sample_gives_root_leaf(self):
        model = DecisionTreeRegressor().fit([[3.0]], [7.0])
        assert model.root.is_leaf
        np.testing.assert_allclose(model.predict([[0.0], [100.0]]), [7.0, 7.0])

    def test_two_points_recovered_exactly(self):
        model = DecisionTreeRegressor().fit([[0.0], [1.0]], [0.0, 10.0])
        assert not model.root.is_leaf
        np.testing.assert_allclose(model.predict([[0.0], [1.0]]), [0.0, 10.0])

    def test_interpolates_distinct_inputs(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        model = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=0)

    def test_matches_recursive_partition_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 16))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            model = DecisionTreeRegressor().fit(X, y)
            queries = rng.normal(size=(3, 3))
            got = model.predict(queries)
            expected = [_oracles.tree_predict(X, y, q) for q in queries]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_duplicate_inputs_predict_their_mean(self):
        X = [[1.0], [1.0], [2.0]]
        y = [4.0, 6.0, 9.0]
        model = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(model.predict([[1.0]]), [5.0])

    def test_constant_features_give_leaf(self):
        model = DecisionTreeRegressor().fit([[2.0], [2.0]], [1.0, 3.0])
        assert model.root.is_leaf
        np.testing.assert_allclose(model.predict([[2.0]]), [2.0])

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 1)), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = DecisionTreeRegressor().fit([[0.0], [1.0]], [10.0, 90.0])
        with pytest.raises(ValueError):
            model.predict([[0.5], [bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_features_rejected(self, bad):
        # a NaN row fails every <= test, so its target would leak into a leaf
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit([[0.0], [bad], [1.0]], [1.0, 50.0, 2.0])

    def test_wrong_feature_count_rejected(self):
        # a split on feature 1 must not read a missing column, nor a query
        # with a third feature be answered from the first two
        model = DecisionTreeRegressor().fit([[0, 5], [1, 5], [2, 5]], [1, 2, 3])
        for queries in ([[1.0]], [[1.0, 5.0, 9.0]]):
            with pytest.raises(ValueError, match="2 features"):
                model.predict(queries)


class TestOls:
    def test_exact_line_recovered(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = 2.0 * X[:, 0] + 1.0
        model = ols_fit(X, y)
        np.testing.assert_allclose(model.weights, [2.0], atol=1e-10)
        np.testing.assert_allclose(model.intercept, 1.0, atol=1e-10)
        assert not model.rank_deficient

    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(50):
            X = rng.normal(size=(30, 4))
            y = rng.normal(size=30)
            model = ols_fit(X, y)
            expected = _oracles.ols_normal_equations(X, y)
            np.testing.assert_allclose(model.weights, expected[:-1], atol=1e-8)
            np.testing.assert_allclose(model.intercept, expected[-1], atol=1e-8)

    def test_residuals_orthogonal_to_design(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        model = ols_fit(X, y)
        residual = y - model.predict(X)
        design = np.column_stack([X, np.ones(len(y))])
        np.testing.assert_allclose(design.T @ residual, np.zeros(5), atol=1e-8)

    def test_constant_feature_flags_rank_deficiency(self):
        X = np.full((10, 1), 3.0)
        y = np.arange(10.0)
        model = ols_fit(X, y)
        assert model.rank_deficient
        np.testing.assert_allclose(model.predict(X), np.full(10, y.mean()), atol=1e-10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 4)), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, rng, bad):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        bad_X = X.copy()
        bad_X[3, 1] = bad
        # lstsq's own LinAlgError on such a design is a ValueError too
        with pytest.raises(ValueError, match="finite"):
            ols_fit(bad_X, y)
        model = ols_fit(X, y)
        with pytest.raises(ValueError):
            model.predict([[0.5, 1.0], [bad, 1.0]])

    def test_three_dimensional_query_rejected(self, rng):
        model = ols_fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ValueError, match="2 features"):
            model.predict(np.ones((2, 2, 2)))


class TestDeterminism:
    def test_all_models_deterministic_given_data(self, rng):
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        queries = rng.normal(size=(5, 4))
        for build in (
            lambda: KnnRegressor(k=5).fit(X, y),
            lambda: DecisionTreeRegressor().fit(X, y),
            lambda: ols_fit(X, y),
        ):
            first = build().predict(queries)
            second = build().predict(queries)
            np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_targets_rejected(bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    y[3] = bad
    for fit in (KnnRegressor(k=2).fit, DecisionTreeRegressor().fit, ols_fit):
        with pytest.raises(ValueError):
            fit(X, y)
