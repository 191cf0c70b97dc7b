"""Independent reference implementations used to check the library.

Everything here is deliberately naive and kept separate from the package's
own computation paths: dense kron-expanded matrix products for circuits,
exhaustive sorting/partitioning for the classical baselines, and
higher-precision normal equations for least squares.
"""

import numpy as np

from qnnbench.circuits import FEATURE


def dense_gate(kind: str, angle: float = 0.0) -> np.ndarray:
    """2x2 gate matrices written out from their closed forms."""
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    if kind == "p":
        return np.diag([1.0, np.exp(1j * angle)])
    if kind == "rz":
        return np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
    if kind == "ry":
        return np.array(
            [
                [np.cos(angle / 2), -np.sin(angle / 2)],
                [np.sin(angle / 2), np.cos(angle / 2)],
            ],
            dtype=complex,
        )
    raise ValueError(kind)


def embed_single(n_qubits: int, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Little-endian tensor embedding: qubit 0 is the least-significant bit,
    so the kron chain runs from qubit n-1 down to qubit 0."""
    eye_low = np.eye(1 << qubit, dtype=complex)
    eye_high = np.eye(1 << (n_qubits - qubit - 1), dtype=complex)
    return np.kron(eye_high, np.kron(matrix, eye_low))


def cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = b ^ (1 << target) if (b >> control) & 1 else b
        mat[out, b] = 1.0
    return mat


def circuit_unitary(circuit, features=None, params=None) -> np.ndarray:
    """Full 2^n x 2^n unitary of a bound circuit, by dense matrix products."""
    n = circuit.n_qubits
    unitary = np.eye(1 << n, dtype=complex)
    for inst in circuit.instructions:
        if inst.gate == "cnot":
            gate = cnot_permutation(n, *inst.qubits)
        else:
            angle = 0.0
            if inst.slot is not None:
                source = features if inst.slot.role == FEATURE else params
                angle = inst.slot.multiplier * source[inst.slot.index]
            gate = embed_single(n, dense_gate(inst.gate, angle), inst.qubits[0])
        unitary = gate @ unitary
    return unitary


def circuit_state(circuit, features=None, params=None) -> np.ndarray:
    """Statevector from the dense unitary applied to |0...0>."""
    zero = np.zeros(1 << circuit.n_qubits, dtype=complex)
    zero[0] = 1.0
    return circuit_unitary(circuit, features, params) @ zero


def parity_expectation(state: np.ndarray) -> float:
    total = 0.0
    for b, amp in enumerate(state):
        sign = -1.0 if bin(b).count("1") % 2 else 1.0
        total += sign * abs(amp) ** 2
    return total


def param_shift_gradient(objective, params) -> np.ndarray:
    """Parameter-shift MSE gradient of a ``CircuitObjective`` with nothing
    shared between settings: the centre, every +pi/2 shift and every -pi/2
    shift (2k+1 settings, in that order) each run through the whole
    RY/CNOT ansatz, gate by gate, in 128-row blocks.

    RY pairs are gathered by basis index and rotated through temporaries,
    and CNOT swaps its index sets by fancy indexing.  The arithmetic per
    amplitude, the parity reduction and the per-block sum order are the
    ones the package's shared-prefix gradient must reproduce bit for bit.
    """
    params = np.asarray(params, dtype=float)
    k = len(params)
    settings = np.tile(params, (2 * k + 1, 1))
    shift = np.arange(k)
    settings[1 + shift, shift] += np.pi / 2
    settings[1 + k + shift, shift] -= np.pi / 2
    dim, n_samples = objective.encoded.shape
    index = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(index) & 1)
    total = np.zeros(k)
    for start in range(0, n_samples, 128):
        block = objective.encoded[:, start:start + 128]
        states = np.broadcast_to(block[:, None, :], (dim, 2 * k + 1, block.shape[1])).copy()
        for inst in objective.ansatz.instructions:
            if inst.gate == "cnot":
                control, target = inst.qubits
                zero = index[((index >> control) & 1 == 1) & ((index >> target) & 1 == 0)]
                one = zero | (1 << target)
                states[zero], states[one] = states[one], states[zero].copy()
            elif inst.gate == "ry":
                angle = inst.slot.multiplier * settings[:, None, inst.slot.index]
                c, s = np.cos(angle / 2), np.sin(angle / 2)
                bit = (index >> inst.qubits[0]) & 1
                s0, s1 = states[bit == 0], states[bit == 1]
                states[bit == 0] = c * s0 - s * s1
                states[bit == 1] = s * s0 + c * s1
            else:
                raise ValueError(f"the gradient oracle runs RY/CNOT ansatzes only, got {inst.gate}")
        preds = np.tensordot(signs, states.real**2 + states.imag**2, axes=(0, 0))
        residual = preds[0] - objective.y[start:start + 128]
        dpred = 0.5 * (preds[1:k + 1] - preds[k + 1:])
        total += np.sum(2.0 * residual * dpred, axis=1)
    return total / n_samples


def knn_predict(X_train, y_train, query, k: int, p: float) -> float:
    """k nearest by explicit sort, ties toward the lower training index."""
    ranked = sorted(
        (sum(abs(q - x) ** p for q, x in zip(query, row)) ** (1.0 / p), i)
        for i, row in enumerate(X_train)
    )
    chosen = [y_train[i] for _, i in ranked[:k]]
    return sum(chosen) / len(chosen)


def knn_predict_dense(X_train, y_train, queries, k: int, p: float) -> np.ndarray:
    """Every query's Minkowski distance to every training row, built one
    feature at a time in blocks of 16 queries, then ranked with ties toward
    the lower training index.

    The package's screened search computes each distance it keeps with the
    same ufuncs, layouts and exponents, so it must answer ``np.array_equal``
    to this.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    X = np.atleast_2d(np.asarray(queries, dtype=float))
    columns = np.array(X_train.T, order="C")
    n_train = columns.shape[1]
    out = np.empty(len(X))
    dists = np.empty((min(16, len(X)), n_train))
    terms = np.empty_like(dists)
    for start in range(0, len(X), 16):
        block = X[start:start + 16]
        d, c = dists[:len(block)], terms[:len(block)]
        d.fill(0.0)
        for f, column in enumerate(columns):
            np.subtract(block[:, f, None], column, out=c)
            np.abs(c, out=c)
            c **= p
            d += c
        d **= 1.0 / p
        kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
        flat = np.flatnonzero(d <= kth)
        query, train = np.divmod(flat, n_train)
        order = np.lexsort((d.ravel()[flat], query))
        counts = np.bincount(query, minlength=len(block))
        first = np.cumsum(counts) - counts
        nearest = train[order][first[:, None] + np.arange(k)]
        out[start:start + len(block)] = y_train[nearest].mean(axis=1)
    return out


def _sse(values) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def tree_predict(X, y, query) -> float:
    """Recursive-partition prediction computed on the fly with a naive
    threshold scan (lowest SSE; ties to the lowest feature index, then the
    lowest threshold; leaves when fewer than two samples or pure).

    "Tie" uses the same relative tolerance as the library, since two splits
    inducing the same partition round differently per summation order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) < 2 or all(v == y[0] for v in y):
        return float(sum(y) / len(y))
    tolerance = 1e-9 * _sse(y.tolist())
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = X[:, f] <= threshold
            sse = _sse(y[mask].tolist()) + _sse(y[~mask].tolist())
            if best is None or sse < best[0] - tolerance:
                best = (sse, f, threshold)
    if best is None:
        return float(sum(y) / len(y))
    _, f, threshold = best
    if query[f] <= threshold:
        return tree_predict(X[X[:, f] <= threshold], y[X[:, f] <= threshold], query)
    return tree_predict(X[X[:, f] > threshold], y[X[:, f] > threshold], query)


def ols_normal_equations(X, y) -> np.ndarray:
    """(weights..., intercept) via normal equations in extended precision."""
    X = np.asarray(X, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    design = np.column_stack([X, np.ones(len(y), dtype=np.longdouble)])
    coef = np.linalg.solve(
        (design.T @ design).astype(float), (design.T @ y).astype(float)
    )
    return coef
