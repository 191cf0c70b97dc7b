"""Dense statevector simulation for small qubit registers.

Amplitude layout is little-endian: qubit 0 is the least-significant bit of
the basis-state index, so basis index ``b`` assigns qubit ``q`` the bit
``(b >> q) & 1``.  States are complex128 numpy arrays of ``2**n``
amplitudes, optionally batched so that many inputs can be pushed through
the same circuit in one call.

Each gate kind has exactly one arithmetic body: the basis-first kernel
``apply_<gate>_t``, which takes states shaped ``(2**n, *batch)``.  The
public dim-last functions (``apply_h``, ``apply_p``, ``apply_rz``,
``apply_ry``, ``apply_cnot``, ``apply_single_qubit``) take states shaped
``(2**n,)`` or ``(*batch, 2**n)``, validate their angles, and run that
kernel on a view with the basis axis moved to the front, so the update
lands in the caller's array.

Gates update amplitudes in place through strided views and never
materialise the ``2**n x 2**n`` operator (the dense-matrix route exists
only in the test oracles).  Rotation angles may be scalars or, for batched
states, one angle per state in the batch.

Thread-safety: a state array must be owned by a single caller at a time;
distinct state arrays can be processed concurrently without locking.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Dense simulation guard; the benchmark itself only needs 4 qubits.
MAX_QUBITS = 24

GATE_KINDS = ("h", "p", "rz", "ry", "cnot")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gate_matrix(kind: str, angle: float = 0.0) -> np.ndarray:
    """Return the unitary matrix for a single gate.

    ``kind`` is one of ``h`` (Hadamard), ``p`` (phase shift by ``angle``),
    ``rz`` / ``ry`` (axis rotations by ``angle``), or ``cnot`` (4x4,
    control = first qubit).  ``angle`` is ignored for ``h`` and ``cnot``.
    """
    if not np.isfinite(angle):
        raise ValueError(f"gate angle must be finite, got {angle!r}")
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    if kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    if kind == "rz":
        return np.array(
            [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
        )
    if kind == "ry":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "cnot":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"unknown gate kind {kind!r}; expected one of {GATE_KINDS}")


def zero_state(n_qubits: int, batch: int | None = None) -> np.ndarray:
    """Fresh |0...0> state, optionally replicated into a batch."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"n_qubits={n_qubits} exceeds dense-simulation guard {MAX_QUBITS}")
    shape = (1 << n_qubits,) if batch is None else (batch, 1 << n_qubits)
    state = np.zeros(shape, dtype=complex)
    state[..., 0] = 1.0
    return state


def zero_state_t(n_qubits: int, batch: tuple[int, ...]) -> np.ndarray:
    """|0...0> replicated over trailing batch axes: shape (2**n, *batch)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"n_qubits={n_qubits} exceeds dense-simulation guard {MAX_QUBITS}")
    state = np.zeros((1 << n_qubits,) + tuple(batch), dtype=complex)
    state[0] = 1.0
    return state


# ---------------------------------------------------------------------------
# basis-first kernels: the one arithmetic body of every gate kind
#
# The state's basis axis comes FIRST (shape ``(2**n, *batch)``), so every
# qubit slice is contiguous along the batch axes when the state is; rotation
# angles broadcast against the trailing batch axes.  Circuit evaluation
# (``circuits.run_circuit``) calls these directly, once per instruction.


def _check_qubits(state: np.ndarray, *qubits: int) -> int:
    """Qubit count of a basis-first state, after range-checking ``qubits``."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"state length {dim} is not a power of two")
    for q in qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    return n


def _views_t(state: np.ndarray, qubit: int):
    """The (qubit=0, qubit=1) amplitude slices of a basis-first state."""
    _check_qubits(state, qubit)
    low = 1 << qubit
    view = state.reshape((state.shape[0] // (2 * low), 2, low) + state.shape[1:])
    return view[:, 0], view[:, 1]


def apply_h_t(state: np.ndarray, qubit: int) -> np.ndarray:
    s0, s1 = _views_t(state, qubit)
    new0 = (s0 + s1) * _INV_SQRT2
    s1[...] = (s0 - s1) * _INV_SQRT2
    s0[...] = new0
    return state


def apply_p_t(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    _, s1 = _views_t(state, qubit)
    s1 *= np.exp(1j * np.asarray(angle))
    return state


def apply_rz_t(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    half = 0.5j * np.asarray(angle)
    s0, s1 = _views_t(state, qubit)
    s0 *= np.exp(-half)
    s1 *= np.exp(half)
    return state


def apply_ry_t(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    c = np.cos(np.asarray(angle) / 2)
    s = np.sin(np.asarray(angle) / 2)
    s0, s1 = _views_t(state, qubit)
    new0 = c * s0 - s * s1
    s1[...] = s * s0 + c * s1
    s0[...] = new0
    return state


@lru_cache(maxsize=None)
def _cnot_swap_indices(n_qubits: int, control: int, target: int):
    """Basis indices (control=1, target=0) and their target-flipped partners."""
    idx = np.arange(1 << n_qubits)
    mask = ((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)
    src = idx[mask]
    return src, src | (1 << target)


def apply_cnot_t(state: np.ndarray, control: int, target: int) -> np.ndarray:
    if control == target:
        raise ValueError("control and target qubits must differ")
    a, b = _cnot_swap_indices(_check_qubits(state, control, target), control, target)
    tmp = state[a].copy()
    state[a] = state[b]
    state[b] = tmp
    return state


# ---------------------------------------------------------------------------
# dim-last adapters: validate, then run the kernel on a basis-first view


def _angle_factor(state: np.ndarray, angle) -> np.ndarray | float:
    """Validate an angle (scalar, or one per state along the leading batch
    axes of a dim-last ``state``) and shape it to broadcast against the
    trailing batch axes of the basis-first view."""
    arr = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("gate angle must be finite")
    if arr.ndim == 0:
        return float(arr)
    lead = state.shape[:-1]
    if arr.ndim > len(lead):
        raise ValueError(
            f"angle shape {arr.shape} has more axes than state batch {lead}"
        )
    try:
        np.broadcast_shapes(arr.shape, lead[: arr.ndim])
    except ValueError:
        raise ValueError(
            f"angle shape {arr.shape} does not broadcast over state batch {lead}"
        ) from None
    return arr.reshape(arr.shape + (1,) * (len(lead) - arr.ndim))


def apply_single_qubit(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit; mutates and returns ``state``."""
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate matrix, got shape {matrix.shape}")
    s0, s1 = _views_t(np.moveaxis(state, -1, 0), qubit)
    new0 = matrix[0, 0] * s0 + matrix[0, 1] * s1
    s1[...] = matrix[1, 0] * s0 + matrix[1, 1] * s1
    s0[...] = new0
    return state


def apply_h(state: np.ndarray, qubit: int) -> np.ndarray:
    """Hadamard on one qubit; mutates and returns ``state``."""
    apply_h_t(np.moveaxis(state, -1, 0), qubit)
    return state


def apply_p(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    """Phase shift diag(1, e^{i*angle}) on one qubit."""
    apply_p_t(np.moveaxis(state, -1, 0), qubit, _angle_factor(state, angle))
    return state


def apply_rz(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    """Z rotation diag(e^{-i*angle/2}, e^{i*angle/2}) on one qubit."""
    apply_rz_t(np.moveaxis(state, -1, 0), qubit, _angle_factor(state, angle))
    return state


def apply_ry(state: np.ndarray, qubit: int, angle) -> np.ndarray:
    """Y rotation by ``angle`` on one qubit."""
    apply_ry_t(np.moveaxis(state, -1, 0), qubit, _angle_factor(state, angle))
    return state


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT with the given control and target qubits; mutates ``state``.

    A pure basis permutation, so the norm is preserved exactly.
    """
    apply_cnot_t(np.moveaxis(state, -1, 0), control, target)
    return state


# ---------------------------------------------------------------------------
# observables


@lru_cache(maxsize=None)
def _parity_signs(dim: int) -> np.ndarray:
    """(-1)^popcount(b) for every basis index b."""
    parity = np.bitwise_count(np.arange(dim)) & 1
    return 1.0 - 2.0 * parity


def parity_z_expectation(state: np.ndarray):
    """<Z x Z x ... x Z> of a dim-last statevector (or of each state in a
    batch).

    Equals sum_b (+/-1)|amp_b|^2 with the sign given by the parity of the
    basis bitstring; always lies in [-1, 1] for unit-norm states.
    """
    prob = state.real**2 + state.imag**2
    value = prob @ _parity_signs(state.shape[-1])
    return float(value) if np.ndim(value) == 0 else value


def expectation(state: np.ndarray, observable: str = "parity_z"):
    """Expectation value of a named observable on a dim-last ``state``."""
    if observable != "parity_z":
        raise ValueError(f"unknown observable {observable!r}")
    return parity_z_expectation(state)


def parity_z_expectation_t(state: np.ndarray) -> np.ndarray:
    """:func:`parity_z_expectation` of a basis-first state, per batch entry."""
    prob = state.real**2 + state.imag**2
    return np.tensordot(_parity_signs(state.shape[0]), prob, axes=(0, 0))
