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

# queries screened and ranked together; their screen values fill one reused
# (block, train) buffer, so memory does not grow with the request
KNN_QUERY_BLOCK = 16
# contiguous runs of training rows whose smallest screen values bound each
# query's k-th distance; k runs are used when k is larger
KNN_SCREEN_CHUNKS = 64


class KnnRegressor:
    """Mean-of-neighbours regression under Minkowski-p distance.

    Distance ties are broken toward the lower training index, making
    predictions fully deterministic.

    ``predict`` computes exact distances only for the training rows that a
    squared-Euclidean screen keeps.  Row x's screen value for query q is
    ``‖x‖² − 2q·x``, which is ``‖q − x‖₂² − ‖q‖²`` up to a bounded rounding
    error, and one BLAS product gives it for a whole block of queries.  With
    the rows cut into chunks, the k-th smallest chunk minimum belongs to at
    least k distinct rows, so it bounds the query's k-th distance from above;
    rounding bounds and the equivalence of the p- and 2-norms turn that into a
    per-query threshold.  Invariant: every row whose computed distance is at
    or below the query's k-th computed distance passes the screen.  The kept
    rows get the same per-feature arithmetic and the same ranking as a dense
    search over every row, so the answers are identical to it.  Where the
    rounding model does not hold (the bound is not finite, squared norms near
    overflow, or the bound's p-th power outside [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰], where
    ``|c|**p`` can underflow or overflow) the query keeps every row.
    """

    def __init__(self, k: int = 5, p: float = 2.0):
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        if not np.isfinite(p):
            raise ValueError(f"Minkowski order p must be finite, got {p!r}")
        if p < 1:
            raise ValueError("Minkowski order p must be >= 1")
        self.k = int(k)
        self.p = p
        self.X_train: np.ndarray | None = None
        self.y_train: np.ndarray | None = None

    def fit(self, X, y) -> "KnnRegressor":
        X, y = check_training_set(X, y)
        n_train, width = X.shape
        if self.k > n_train:
            raise ValueError(f"k={self.k} exceeds training size {n_train}")
        # owned read-only copies; the screen's product reads the features as
        # (features, rows) rows followed by each row's squared norm, and
        # X_train is a view of the features
        screen_rows = np.empty((width + 1, n_train))
        screen_rows[:width] = X.T
        # a squared norm that overflows makes the screen keep every row
        with np.errstate(over="ignore"):
            np.einsum("fj,fj->j", X.T, X.T, out=screen_rows[width])
        screen_rows.flags.writeable = False
        self._screen_rows = screen_rows
        self._max_sqnorm = float(screen_rows[width].max())
        self.X_train = screen_rows[:width].T
        self.y_train = np.array(y)
        self.y_train.flags.writeable = False
        chunks = max(self.k, min(KNN_SCREEN_CHUNKS, n_train))
        self._chunk_starts = np.arange(chunks) * n_train // chunks
        # |screen value − (‖q − x‖₂² − ‖q‖²)| and the rounding of the bound and
        # threshold built from it stay below rounding·(‖q‖² + max‖x‖²) plus the
        # smallest normal number, which covers gradual underflow
        self._rounding = 2 * (width + 2) * np.finfo(float).eps
        # ‖v‖_p ≤ lp_per_l2·‖v‖₂ and ‖v‖₂² ≤ gain/lp_per_l2²·‖v‖_p² with a
        # relative margin for the rounding of computed distances, including
        # terms |c|**p that underflow when the bound's p-th power is ≥ 2⁻¹⁰⁰⁰
        self._lp_per_l2 = width ** max(0.0, 1.0 / self.p - 0.5)
        self._gain = width ** abs(1.0 - 2.0 / self.p) * (1.0 + (width + 1) * 2.0**-20) ** 4
        # radii whose p-th power lies in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰], narrowed so that a few
        # ulps of rounding in a radius cannot leave it; empty for huge p
        self._radius_range = (2.0 ** (-1000 / self.p) * (1 + 2.0**-40),
                              2.0 ** (1000 / self.p) * (1 - 2.0**-40))
        return self

    def _thresholds(self, screen: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Per query, a screen value above which no row can be at or below
        the query's k-th computed distance; +inf keeps every row."""
        sqnorm = np.einsum("qf,qf->q", block, block)
        scale = sqnorm + self._max_sqnorm
        slack = self._rounding * scale + np.finfo(float).smallest_normal
        chunk_min = np.minimum.reduceat(screen, self._chunk_starts, axis=1)
        kth = np.partition(chunk_min, self.k - 1, axis=1)[:, self.k - 1]
        # ≥ the squared Euclidean distance of k distinct rows
        bound = kth + sqnorm + slack
        radius = self._lp_per_l2 * np.sqrt(bound)
        low, high = self._radius_range
        # below 2¹⁰⁰⁰ no product or sum in the screen can overflow
        modelled = (scale < 2.0**1000) & (low <= radius) & (radius <= high)
        return np.where(modelled, self._gain * bound - sqnorm + slack, np.inf)

    def predict(self, X) -> np.ndarray | float:
        if self.X_train is None:
            raise ValueError("model is not fitted")
        request = check_features(X, self.X_train.shape[1])
        X = np.atleast_2d(request)
        columns = self.X_train.T
        n_train = columns.shape[1]
        out = np.empty(len(X))
        # a block's screen values are one product: (−2q, 1) times the rows
        # (x, ‖x‖²); scaling by −2 is exact
        screens = np.empty((min(KNN_QUERY_BLOCK, len(X)), n_train))
        factors = np.ones((len(screens), len(columns) + 1))
        for start in range(0, len(X), KNN_QUERY_BLOCK):
            block = X[start:start + KNN_QUERY_BLOCK]
            screen, lhs = screens[:len(block)], factors[:len(block)]
            # overflow or NaN in the screen only makes its threshold +inf,
            # and a NaN screen value is kept
            with np.errstate(all="ignore"):
                np.multiply(block, -2.0, out=lhs[:, :-1])
                np.matmul(lhs, self._screen_rows, out=screen)
                keep = np.flatnonzero(~(screen > self._thresholds(screen, block)[:, None]))
            # invariant: every row whose computed distance is at or below its
            # query's k-th computed distance is kept, in ascending row order
            query, train = np.divmod(keep, n_train)
            # exact distances of the kept rows, one feature at a time, left
            # to right, with the same ufuncs and exponents as a dense search
            # (which adds the first term to 0.0, giving the term itself)
            terms = block.T.take(query, axis=1)
            terms -= columns.take(train, axis=1)
            np.abs(terms, out=terms)
            terms **= self.p
            d = terms[0]
            for term in terms[1:]:
                d += term
            d **= 1.0 / self.p
            # a stable sort of the kept rows by (query, distance) keeps the
            # lower training index first on exact ties, so the first k per
            # query are the neighbours
            order = np.lexsort((d, query))
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
        # einsum sums each row's products the same way in any batch, where a
        # BLAS product's order can depend on the batch's size
        out = np.einsum("bf,f->b", np.atleast_2d(request), self.weights) + self.intercept
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
