"""Classical regression baselines: k-nearest neighbours with Minkowski
distance, a CART-style variance-reduction decision tree, and ordinary
least squares.

All three are deterministic given their training data (no RNG anywhere)
and fitted models are immutable, so they can be shared across threads:
each keeps its own read-only copy of what it needs from the training set,
so changing the caller's arrays after ``fit`` changes no prediction.
Like the QNN models they take the contract of :func:`data.check_training_set`
and :func:`data.check_features`: a ``(rows, width)`` query returns
``(rows,)`` and one 1-D row returns a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_features, check_training_set

# queries whose distances are built and ranked together; two (block, train)
# buffers stay in cache where a whole request's distance matrix would not
KNN_QUERY_BLOCK = 16


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
        X, y = check_training_set(X, y)
        if self.k > len(y):
            raise ValueError(f"k={self.k} exceeds training size {len(y)}")
        # owned read-only copies; the features are stored (features, rows) so
        # each column predict reads is unit-stride, and X_train is its view
        columns = np.array(X.T, order="C")
        columns.flags.writeable = False
        self.X_train = columns.T
        self.y_train = np.array(y)
        self.y_train.flags.writeable = False
        return self

    def predict(self, X) -> np.ndarray | float:
        if self.X_train is None:
            raise ValueError("model is not fitted")
        request = check_features(X, self.X_train.shape[1])
        X = np.atleast_2d(request)
        columns = self.X_train.T
        n_train = columns.shape[1]
        out = np.empty(len(X))
        # a block's distances d are summed from one feature's terms c at a
        # time, left to right
        dists = np.empty((min(KNN_QUERY_BLOCK, len(X)), n_train))
        terms = np.empty_like(dists)
        for start in range(0, len(X), KNN_QUERY_BLOCK):
            block = X[start:start + KNN_QUERY_BLOCK]
            d, c = dists[:len(block)], terms[:len(block)]
            d.fill(0.0)
            for f, column in enumerate(columns):
                np.subtract(block[:, f, None], column, out=c)
                np.abs(c, out=c)
                c **= self.p
                d += c
            d **= 1.0 / self.p
            # candidates: every training row at or below the k-th smallest
            # distance; a stable sort of those by (query, distance) keeps the
            # lower training index first on exact ties, so the first k per
            # query are the neighbours
            kth = np.partition(d, self.k - 1, axis=1)[:, self.k - 1, None]
            flat = np.flatnonzero(d <= kth)
            query, train = np.divmod(flat, n_train)
            order = np.lexsort((d.ravel()[flat], query))
            counts = np.bincount(query, minlength=len(block))
            first = np.cumsum(counts) - counts
            nearest = train[order][first[:, None] + np.arange(self.k)]
            out[start:start + len(block)] = self.y_train[nearest].mean(axis=1)
        return out if request.ndim == 2 else float(out[0])


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
        self.n_features = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_training_set(X, y)
        self.root = _grow(X, y)
        self.n_features = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray | float:
        if self.root is None:
            raise ValueError("model is not fitted")
        request = check_features(X, self.n_features)
        X = np.atleast_2d(request)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out if request.ndim == 2 else float(out[0])


@dataclass(frozen=True)
class LinearModel:
    """Least-squares fit with intercept.  ``rank_deficient`` flags designs
    solved by the minimum-norm solution."""

    weights: np.ndarray
    intercept: float
    rank_deficient: bool = False

    def predict(self, X) -> np.ndarray | float:
        request = check_features(X, len(self.weights))
        out = np.atleast_2d(request) @ self.weights + self.intercept
        return out if request.ndim == 2 else float(out[0])


def ols_fit(X, y) -> LinearModel:
    """Ordinary least squares via an orthogonal decomposition (SVD-backed
    ``lstsq``); rank-deficient designs yield the minimum-norm solution."""
    X, y = check_training_set(X, y)
    if len(y) <= X.shape[1]:
        raise ValueError(f"need more than {X.shape[1]} samples, got {len(y)}")
    design = np.column_stack([X, np.ones(len(y))])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(
        weights=coef[:-1],
        intercept=float(coef[-1]),
        rank_deficient=rank < design.shape[1],
    )
