"""Reference outputs the benchmark checks served predictions against.

Written from the textbook definitions and independent of the package's
simulator: the QNN reference multiplies a dense ``2**n``-amplitude
statevector by full ``2**n x 2**n`` operators built as Kronecker products
of 2x2 gate matrices (qubit 0 is the least-significant bit of the basis
index, as in the package).  kNN is a brute-force sort of every training
distance, and linear regression is ``X @ w + b``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)
Z_GATE = np.array([[1, 0], [0, -1]], dtype=complex)
H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def phase(angle: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)


def ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def lift(gates: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker product placing ``gates[q]`` on qubit ``q`` (identity
    elsewhere); the highest qubit is the leftmost factor."""
    return reduce(np.kron, [gates.get(q, I2) for q in reversed(range(n))])


def cnot(control: int, target: int, n: int) -> np.ndarray:
    """|0><0| on the control plus |1><1| on the control with X on the target."""
    return lift({control: P0}, n) + lift({control: P1, target: X_GATE}, n)


def entangler_pairs(strategy: str, n: int, layer: int) -> list[tuple[int, int]]:
    """(control, target) pairs of one entangling layer of the RY/CNOT ansatz."""
    linear = [(i, i + 1) for i in range(n - 1)]
    circular = [(n - 1, 0)] + linear
    if strategy == "linear":
        return linear
    if strategy == "reverse_linear":
        return linear[::-1]
    if strategy == "full":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if strategy == "circular":
        return circular
    if strategy == "pairwise":
        return linear[0::2] + linear[1::2]
    if strategy == "sca":
        shift = layer % len(circular)
        rotated = circular[shift:] + circular[:shift]
        return [(t, c) for c, t in rotated] if layer % 2 else rotated
    raise ValueError(f"no reference for entanglement strategy {strategy!r}")


def qnn_output(config, params, x) -> float:
    """Parity-Z expectation of the feature map (H then P(2 x_q) on every
    qubit, ``feature_reps`` times) followed by the RY/CNOT ansatz."""
    n = config.n_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    hadamards = lift({q: H_GATE for q in range(n)}, n)
    for _ in range(config.feature_reps):
        state = hadamards @ state
        state = lift({q: phase(2.0 * x[q]) for q in range(n)}, n) @ state
    k = 0
    for layer in range(config.ansatz_reps + 1):
        state = lift({q: ry(params[k + q]) for q in range(n)}, n) @ state
        k += n
        if layer < config.ansatz_reps:
            for control, target in entangler_pairs(config.strategy, n, layer):
                state = cnot(control, target, n) @ state
    parity = lift({q: Z_GATE for q in range(n)}, n)
    return float(np.real(np.conj(state) @ parity @ state))


def knn_output(X_train, y_train, k: int, x) -> float:
    """Mean target of the ``k`` nearest training rows (Euclidean), ties to
    the lower training index."""
    distances = np.sqrt(np.sum((np.asarray(X_train) - x) ** 2, axis=1))
    order = np.lexsort((np.arange(len(distances)), distances))
    return float(np.mean(np.asarray(y_train)[order[:k]]))


def lr_output(weights, intercept, x) -> float:
    return float(np.asarray(x) @ weights + intercept)


def scale_features(mins, maxs, X) -> np.ndarray:
    """Min-max scaling of raw feature rows with training extrema."""
    return (np.asarray(X, dtype=float) - mins[:-1]) / (maxs[:-1] - mins[:-1])


def unscale_target(mins, maxs, y) -> np.ndarray:
    return np.asarray(y, dtype=float) * (maxs[-1] - mins[-1]) + mins[-1]
