"""Classical regression baselines: k-nearest neighbours with Minkowski
distance, a CART-style variance-reduction decision tree, and ordinary
least squares.

All three are deterministic given their training data (no RNG anywhere)
and fitted models are immutable, so they can be shared across threads.
Non-finite training features, targets or query features raise
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _finite_matrix(X, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{what} must be finite")
    return X


def _finite_targets(y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ValueError("training targets must be finite")
    return y


class KnnRegressor:
    """Mean-of-neighbours regression under Minkowski-p distance.

    Distance ties are broken toward the lower training index, making
    predictions fully deterministic.
    """

    def __init__(self, k: int = 5, p: float = 2.0):
        if k < 1:
            raise ValueError("k must be >= 1")
        if p < 1:
            raise ValueError("Minkowski order p must be >= 1")
        self.k = k
        self.p = p
        self.X_train: np.ndarray | None = None
        self.y_train: np.ndarray | None = None

    def fit(self, X, y) -> "KnnRegressor":
        X = _finite_matrix(X, "training features")
        y = _finite_targets(y)
        if len(y) == 0:
            raise ValueError("cannot fit on an empty training set")
        if len(y) != len(X):
            raise ValueError("X and y lengths differ")
        if self.k > len(y):
            raise ValueError(f"k={self.k} exceeds training size {len(y)}")
        self.X_train = X
        self.y_train = y
        return self

    def predict(self, X) -> np.ndarray:
        if self.X_train is None:
            raise ValueError("model is not fitted")
        X = _finite_matrix(X, "query features")
        if X.shape[1] != self.X_train.shape[1]:
            raise ValueError(
                f"expected {self.X_train.shape[1]} features, got shape {X.shape}"
            )
        # summed one feature column at a time, left to right, so the only
        # buffers are (rows, train) however many features there are
        dists = np.zeros((len(X), len(self.X_train)))
        for f in range(X.shape[1]):
            dists += np.abs(X[:, f, None] - self.X_train[:, f]) ** self.p
        dists **= 1.0 / self.p
        # candidates: every training row at or below the k-th smallest distance;
        # a stable sort of those by (query, distance) keeps the lower training
        # index first on exact ties, so the first k per query are the neighbours
        kth = np.partition(dists, self.k - 1, axis=1)[:, self.k - 1, None]
        query, train = np.nonzero(dists <= kth)
        order = np.lexsort((dists[query, train], query))
        counts = np.bincount(query, minlength=len(X))
        first = np.cumsum(counts) - counts
        nearest = train[order][first[:, None] + np.arange(self.k)]
        return self.y_train[nearest].mean(axis=1)


@dataclass(frozen=True)
class TreeNode:
    """Either a leaf (``value`` set) or an internal split; rows with
    feature <= threshold go left, the rest go right."""

    value: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


# Two candidate splits inducing the same sample partition have equal SSE in
# exact arithmetic but can differ in the last float bits depending on the
# summation order; candidates within this relative tolerance of the best are
# treated as ties (resolved toward the lower feature index, then the lower
# threshold).
SPLIT_TIE_RTOL = 1e-9


def _best_split(X: np.ndarray, y: np.ndarray):
    """Lowest-SSE midpoint split, ties broken by lowest feature index then
    lowest threshold.  Returns (feature, threshold) or None."""
    n = len(y)
    tolerance = SPLIT_TIE_RTOL * float(np.sum((y - y.mean()) ** 2))
    best = None  # (sse, feature, threshold)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        cut = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # split sizes with distinct values
        if len(cut) == 0:
            continue
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys**2)
        nl = cut.astype(float)
        nr = n - nl
        sse_left = c2[cut - 1] - c1[cut - 1] ** 2 / nl
        sse_right = (c2[-1] - c2[cut - 1]) - (c1[-1] - c1[cut - 1]) ** 2 / nr
        total = sse_left + sse_right
        i = int(np.argmax(total <= total.min() + tolerance))  # lowest tied threshold
        candidate = (float(total[i]), f, float(0.5 * (xs[cut[i] - 1] + xs[cut[i]])))
        if best is None or candidate[0] < best[0] - tolerance:
            best = candidate
    if best is None:
        return None
    return best[1], best[2]


def _grow(X: np.ndarray, y: np.ndarray) -> TreeNode:
    if len(y) < 2 or np.all(y == y[0]):
        return TreeNode(value=float(np.mean(y)))
    split = _best_split(X, y)
    if split is None:  # every feature is constant on this node
        return TreeNode(value=float(np.mean(y)))
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask]),
        right=_grow(X[~mask], y[~mask]),
    )


class DecisionTreeRegressor:
    """Fully grown CART regression tree (variance-reduction splits, no depth
    limit, min-samples-to-split of 2); prediction is the leaf mean."""

    def __init__(self):
        self.root: TreeNode | None = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = _finite_matrix(X, "training features")
        y = _finite_targets(y)
        if len(y) == 0:
            raise ValueError("cannot fit on an empty training set")
        if len(y) != len(X):
            raise ValueError("X and y lengths differ")
        self.root = _grow(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        if self.root is None:
            raise ValueError("model is not fitted")
        X = _finite_matrix(X, "query features")
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


@dataclass(frozen=True)
class LinearModel:
    """Least-squares fit with intercept.  ``rank_deficient`` flags designs
    solved by the minimum-norm solution."""

    weights: np.ndarray
    intercept: float
    rank_deficient: bool = False

    def predict(self, X) -> np.ndarray:
        return _finite_matrix(X, "query features") @ self.weights + self.intercept


def ols_fit(X, y) -> LinearModel:
    """Ordinary least squares via an orthogonal decomposition (SVD-backed
    ``lstsq``); rank-deficient designs yield the minimum-norm solution."""
    X = _finite_matrix(X, "training features")
    y = _finite_targets(y)
    if len(y) != len(X):
        raise ValueError("X and y lengths differ")
    if len(y) <= X.shape[1]:
        raise ValueError(f"need more than {X.shape[1]} samples, got {len(y)}")
    design = np.column_stack([X, np.ones(len(y))])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(
        weights=coef[:-1],
        intercept=float(coef[-1]),
        rank_deficient=rank < design.shape[1],
    )
