"""Parameterised circuit construction and evaluation.

Two circuit families are provided: a phase-encoding feature map (Hadamard
followed by per-qubit phase rotations at twice the feature value, repeated)
and an RY/CNOT variational ansatz whose CNOT layout is chosen by an
entanglement strategy.  Circuits are immutable instruction lists with
symbolic parameter slots, split into feature slots (bound to input data)
and trainable slots (bound to optimiser parameters), and can be evaluated
for a whole batch of feature vectors at once.  A circuit without feature
slots can also be compiled, at fixed parameters, into its dense unitary
(:func:`circuit_unitary`), which a fitted model applies in place of its
ansatz gates.  A one-qubit feature circuit can be run on every qubit of a
register at once and the per-qubit states folded with Kronecker products
(:func:`product_state`), which is how a fitted model encodes a request:
the feature map has no two-qubit gates, so its state is such a product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine

FEATURE = "feature"
TRAINABLE = "trainable"

ENTANGLEMENTS = ("full", "linear", "circular", "sca", "reverse_linear", "pairwise")


@dataclass(frozen=True)
class Slot:
    """Symbolic angle: ``multiplier`` times the bound feature/parameter value."""

    role: str  # FEATURE or TRAINABLE
    index: int
    multiplier: float = 1.0


@dataclass(frozen=True)
class Instruction:
    gate: str  # "h", "p", "rz", "ry", "cnot"
    qubits: tuple[int, ...]
    slot: Slot | None = None


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with declared slot counts.

    Every instruction is validated once on construction (``ValueError``
    for a gate the interpreter cannot run as written).  Immutable after
    construction and safe to share across threads; evaluation allocates a
    fresh statevector per call.
    """

    n_qubits: int
    instructions: tuple[Instruction, ...]
    n_feature_slots: int
    n_trainable_slots: int

    def __post_init__(self):
        slot_counts = {FEATURE: self.n_feature_slots, TRAINABLE: self.n_trainable_slots}
        for inst in self.instructions:
            _check_instruction(inst, self.n_qubits, slot_counts)


def _check_instruction(inst: Instruction, n_qubits: int, slot_counts: dict[str, int]) -> None:
    if inst.gate not in engine.GATE_KINDS:
        raise ValueError(f"unknown gate {inst.gate!r}; expected one of {engine.GATE_KINDS}")
    arity = 2 if inst.gate == "cnot" else 1
    if len(inst.qubits) != arity or len(set(inst.qubits)) != arity:
        raise ValueError(f"{inst.gate} needs {arity} distinct qubit(s), got {inst.qubits}")
    if not all(0 <= q < n_qubits for q in inst.qubits):
        raise ValueError(f"{inst.gate} on {inst.qubits} outside a {n_qubits}-qubit register")
    if inst.gate in ("h", "cnot"):
        if inst.slot is not None:
            raise ValueError(f"{inst.gate} takes no angle slot, got {inst.slot}")
        return
    if inst.slot is None:
        raise ValueError(f"{inst.gate} on {inst.qubits} needs an angle slot")
    if inst.slot.role not in slot_counts:
        raise ValueError(
            f"slot role must be {FEATURE!r} or {TRAINABLE!r}, got {inst.slot.role!r}"
        )
    if not 0 <= inst.slot.index < slot_counts[inst.slot.role]:
        raise ValueError(
            f"{inst.slot.role} slot {inst.slot.index} outside the "
            f"{slot_counts[inst.slot.role]} declared"
        )


@dataclass(frozen=True)
class GateCensus:
    single_qubit: int
    two_qubit: int
    total: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.single_qubit, self.two_qubit, self.total)


def entangler_pairs(strategy: str, n_qubits: int, layer: int = 0) -> list[tuple[int, int]]:
    """(control, target) pairs for one entangling layer.

    Conventions (deterministic in ``(strategy, n_qubits, layer)``):

    * ``linear``: (0,1), (1,2), ..., (n-2, n-1)
    * ``reverse_linear``: the linear pairs applied in reverse order
    * ``full``: every ordered pair (i, j) with i < j
    * ``circular``: the wrap-around pair (n-1, 0) prepended to linear
    * ``pairwise``: even pairs (0,1), (2,3), ... then odd pairs (1,2), ...
    * ``sca``: circular pairs rotated left by ``layer`` positions, with
      control and target swapped on odd layers
    """
    if n_qubits < 2:
        raise ValueError("entangling layers need at least 2 qubits")
    if layer < 0:
        raise ValueError("layer index must be >= 0")
    linear = [(i, i + 1) for i in range(n_qubits - 1)]
    if strategy == "linear":
        return linear
    if strategy == "reverse_linear":
        return linear[::-1]
    if strategy == "full":
        return [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    if strategy == "circular":
        return [(n_qubits - 1, 0)] + linear
    if strategy == "pairwise":
        even = [(i, i + 1) for i in range(0, n_qubits - 1, 2)]
        odd = [(i, i + 1) for i in range(1, n_qubits - 1, 2)]
        return even + odd
    if strategy == "sca":
        base = [(n_qubits - 1, 0)] + linear
        shift = layer % len(base)
        rotated = base[shift:] + base[:shift]
        if layer % 2 == 1:
            rotated = [(t, c) for c, t in rotated]
        return rotated
    raise ValueError(f"unknown entanglement strategy {strategy!r}; expected one of {ENTANGLEMENTS}")


def build_z_feature_map(n_qubits: int, reps: int, phase_gate: str = "p") -> Circuit:
    """Phase-encoding feature map: per repetition, H on every qubit followed
    by a phase rotation through twice the feature value on every qubit.

    Contains no two-qubit gates.  ``phase_gate`` may be ``"p"`` (default) or
    ``"rz"``; the two differ only by a global phase, so all expectation
    values agree.
    """
    if reps < 1:
        raise ValueError("feature map needs reps >= 1")
    if n_qubits < 1:
        raise ValueError("feature map needs n_qubits >= 1")
    if phase_gate not in ("p", "rz"):
        raise ValueError(f"phase_gate must be 'p' or 'rz', got {phase_gate!r}")
    instructions = []
    for _ in range(reps):
        for q in range(n_qubits):
            instructions.append(Instruction("h", (q,)))
        for q in range(n_qubits):
            instructions.append(
                Instruction(phase_gate, (q,), Slot(FEATURE, q, multiplier=2.0))
            )
    return Circuit(n_qubits, tuple(instructions), n_feature_slots=n_qubits, n_trainable_slots=0)


def build_real_amplitudes(n_qubits: int, reps: int, strategy: str) -> Circuit:
    """RY/CNOT variational ansatz: ``reps + 1`` rotation layers (one RY with
    its own trainable slot per qubit) interleaved with ``reps`` entangling
    layers from :func:`entangler_pairs`."""
    if n_qubits < 2:
        raise ValueError("ansatz needs n_qubits >= 2")
    if reps < 1:
        raise ValueError("ansatz needs reps >= 1")
    entangler_pairs(strategy, n_qubits, 0)  # validate strategy early
    instructions = []
    k = 0
    for layer in range(reps + 1):
        for q in range(n_qubits):
            instructions.append(Instruction("ry", (q,), Slot(TRAINABLE, k)))
            k += 1
        if layer < reps:
            for control, target in entangler_pairs(strategy, n_qubits, layer):
                instructions.append(Instruction("cnot", (control, target)))
    return Circuit(
        n_qubits,
        tuple(instructions),
        n_feature_slots=0,
        n_trainable_slots=n_qubits * (reps + 1),
    )


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate two circuits on the same register; slot counts are the
    union of both parts."""
    if first.n_qubits != second.n_qubits:
        raise ValueError(
            f"qubit count mismatch: {first.n_qubits} vs {second.n_qubits}"
        )
    return Circuit(
        first.n_qubits,
        first.instructions + second.instructions,
        n_feature_slots=max(first.n_feature_slots, second.n_feature_slots),
        n_trainable_slots=max(first.n_trainable_slots, second.n_trainable_slots),
    )


def gate_census(circuit: Circuit) -> GateCensus:
    """Count gates by arity."""
    single = sum(1 for inst in circuit.instructions if len(inst.qubits) == 1)
    two = sum(1 for inst in circuit.instructions if len(inst.qubits) == 2)
    return GateCensus(single, two, single + two)


def _bound_angle(slot: Slot, features, params):
    if slot.role == FEATURE:
        value = features[..., slot.index]
    else:
        value = params[..., slot.index]
    return slot.multiplier * value


def _over_batch(values: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """Shape slot values ``(*lead, n_slots)`` so that ``lead`` meets the
    state's batch axes from the left once the basis axis leads."""
    lead = values.shape[:-1]
    if not lead:
        return values
    if len(lead) > len(batch) or any(
        a != b and 1 not in (a, b) for a, b in zip(lead, batch)
    ):
        raise ValueError(
            f"binding shape {values.shape} does not broadcast over state batch {batch}"
        )
    return values.reshape(lead + (1,) * (len(batch) - len(lead)) + values.shape[-1:])


def run_circuit(circuit: Circuit, state: np.ndarray, features=None, params=None) -> np.ndarray:
    """Apply every instruction of ``circuit`` to ``state`` in order, binding
    feature and trainable slots; mutates and returns ``state``.

    ``state`` is dim-last: ``(2**n,)`` or ``(*batch, 2**n)``.  ``features``
    and ``params`` hold their slots on the last axis and may each be a
    single vector or a stack whose leading axes broadcast against the
    state's batch axes from the left: a batch ``(batch, n_features)``
    binds one row per state, and a parameter stack ``(S, 1, k)`` binds one
    setting per leading index of an ``(S, B, 2**n)`` state.

    This is the only circuit interpreter: it moves the basis axis to the
    front once (a view, so ``state`` is updated in place) and drives the
    basis-first ``engine.apply_*_t`` kernels.  A non-finite bound angle
    leaves non-finite amplitudes, so the state is checked once after the
    last gate and ``ValueError`` raised.
    """
    features = np.asarray(features, dtype=float) if features is not None else np.empty(0)
    params = np.asarray(params, dtype=float) if params is not None else np.empty(0)
    if circuit.n_feature_slots and features.shape[-1] != circuit.n_feature_slots:
        raise ValueError(
            f"expected {circuit.n_feature_slots} features, got shape {features.shape}"
        )
    if circuit.n_trainable_slots == 0:
        params_ok = params.size == 0
    else:  # a vector, or a stack of vectors for batched parameter settings
        params_ok = params.ndim >= 1 and params.shape[-1] == circuit.n_trainable_slots
    if not params_ok:
        raise ValueError(
            f"expected {circuit.n_trainable_slots} trainable parameters, "
            f"got shape {params.shape}"
        )
    batch = state.shape[:-1]
    features = _over_batch(features, batch)
    params = _over_batch(params, batch)
    basis_first = state.transpose((state.ndim - 1,) + tuple(range(state.ndim - 1)))
    for inst in circuit.instructions:
        if inst.gate == "cnot":
            engine.apply_cnot_t(basis_first, *inst.qubits)
        elif inst.gate == "h":
            engine.apply_h_t(basis_first, inst.qubits[0])
        else:
            angle = _bound_angle(inst.slot, features, params)
            if inst.gate == "p":
                engine.apply_p_t(basis_first, inst.qubits[0], angle)
            elif inst.gate == "rz":
                engine.apply_rz_t(basis_first, inst.qubits[0], angle)
            else:
                engine.apply_ry_t(basis_first, inst.qubits[0], angle)
    if not np.all(np.isfinite(state)):
        raise ValueError("gate angle must be finite")
    return state


def evaluate_circuit(circuit: Circuit, features=None, params=None) -> np.ndarray:
    """Run ``circuit`` from |0...0> with the given bindings.

    Returns a statevector ``(2**n,)``, or a batch ``(batch, 2**n)`` when
    ``features`` is two-dimensional.
    """
    batch = None
    if features is not None:
        arr = np.asarray(features)
        if arr.ndim == 2:
            batch = arr.shape[0]
    state = engine.zero_state(circuit.n_qubits, batch=batch)
    return run_circuit(circuit, state, features, params)


def product_state(circuit: Circuit, features) -> np.ndarray:
    """Register state prepared by running a one-qubit ``circuit`` on every
    qubit, qubit ``q`` bound to feature column ``q``.

    ``circuit`` must have one qubit, one feature slot and no trainable
    slots, such as ``build_z_feature_map(1, reps)``.  It runs once through
    :func:`run_circuit` on a one-qubit batch holding every (row, feature)
    pair, and the per-qubit states are folded together with Kronecker
    products, qubit 0 least significant: the state the ``n``-qubit version
    of a circuit without two-qubit gates prepares, from ``1/n`` of its gate
    calls.  Returns ``(2**n,)`` for a feature vector of length ``n``, or
    ``(batch, 2**n)`` for a batch.
    """
    if circuit.n_qubits != 1 or circuit.n_feature_slots != 1 or circuit.n_trainable_slots:
        raise ValueError(
            "product_state needs a one-qubit circuit with one feature slot and "
            f"no trainable slots, got {circuit.n_qubits} qubit(s), "
            f"{circuit.n_feature_slots} feature and {circuit.n_trainable_slots} "
            "trainable slot(s)"
        )
    features = np.asarray(features, dtype=float)
    if features.ndim not in (1, 2) or features.shape[-1] == 0:
        raise ValueError(
            f"expected a feature vector or a batch of them, got shape {features.shape}"
        )
    n_qubits = features.shape[-1]
    if n_qubits > engine.MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} features exceed the dense-simulation guard {engine.MAX_QUBITS}"
        )
    qubits = engine.zero_state(1, batch=features.size)
    run_circuit(circuit, qubits, features.reshape(-1, 1))
    qubits = qubits.reshape(features.shape + (2,))
    lead = features.shape[:-1]
    state = qubits[..., 0, :]
    for q in range(1, n_qubits):  # qubit q becomes the next more significant bit
        state = (qubits[..., q, :, None] * state[..., None, :]).reshape(lead + (2 << q,))
    return state


def circuit_unitary(circuit: Circuit, params=None) -> np.ndarray:
    """The ``2**n x 2**n`` unitary of a circuit with no feature slots.

    Runs :func:`run_circuit` once on all ``2**n`` basis states as one batch,
    so the gates, their order and the angle-finiteness check are the
    interpreter's own; column ``j`` is the image of basis state ``j``.
    """
    if circuit.n_feature_slots:
        raise ValueError(
            f"cannot compile a circuit with {circuit.n_feature_slots} feature slots"
        )
    images = np.eye(1 << circuit.n_qubits, dtype=complex)  # row j: basis state j
    return run_circuit(circuit, images, params=params).T


def format_circuit(circuit: Circuit) -> str:
    """Stable text rendering, one instruction per line.

    Line format: ``<gate> q<i>[,q<j>] [<angle>]`` where ``<angle>`` is
    ``<mult>*x[<j>]`` for feature slots (multiplier omitted when 1) and
    ``theta[<k>]`` for trainable slots.
    """
    lines = []
    for inst in circuit.instructions:
        qubits = ",".join(f"q{q}" for q in inst.qubits)
        if inst.slot is None:
            lines.append(f"{inst.gate} {qubits}")
        else:
            name = "x" if inst.slot.role == FEATURE else "theta"
            prefix = "" if inst.slot.multiplier == 1 else f"{inst.slot.multiplier:g}*"
            lines.append(f"{inst.gate} {qubits} {prefix}{name}[{inst.slot.index}]")
    return "\n".join(lines)
