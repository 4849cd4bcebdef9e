"""Exact dense statevector simulation.

Basis index convention: qubit 1 is the most significant bit, so for an
algorithm register split into an n-bit x part and a t-bit q part the
index is (x << t) | q.  States own their amplitude buffer and are
mutated in place by at most one caller at a time.

Dense buffers are capped at MAX_DENSE_QUBITS qubits: 2^24 complex
amplitudes are 256 MiB, and a wider request is refused before anything
is allocated rather than left to fail in the allocator.
"""

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, gate_matrix

NORM_TOL = 1e-9
MAX_DENSE_QUBITS = 24


def check_dense_width(num_qubits: int) -> None:
    """Raise ValueError when a dense 2^num_qubits buffer is over the cap."""
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{num_qubits} qubits exceed the dense simulation limit of {MAX_DENSE_QUBITS}"
        )


class Statevector:
    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"amplitude vector must have length {1 << num_qubits}, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |amps| = {norm}")
        self.num_qubits = num_qubits
        self.amps = amps

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def _bit(self, qubit: int) -> int:
        if not 1 <= qubit <= self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range 1..{self.num_qubits}")
        return self.num_qubits - qubit

    def apply_unitary1(self, qubit: int, u: np.ndarray) -> "Statevector":
        kernels.apply_single(self.amps, self._bit(qubit), np.asarray(u, dtype=np.complex128))
        return self

    def apply_unitary2(self, q1: int, q2: int, u: np.ndarray) -> "Statevector":
        if q1 == q2:
            raise ValueError("two-qubit unitary needs distinct qubits")
        kernels.apply_two(
            self.amps, self._bit(q1), self._bit(q2), np.asarray(u, dtype=np.complex128)
        )
        return self

    def apply_gate(self, gate: Gate) -> "Statevector":
        u = gate_matrix(gate)
        if gate.kind == "cx":
            return self.apply_unitary2(gate.qubits[0], gate.qubits[1], u)
        return self.apply_unitary1(gate.qubits[0], u)

    def apply_phase_diagonal(self, signs: np.ndarray) -> "Statevector":
        """Multiply amplitude b by signs[b]; the fast path for phase oracles."""
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != self.amps.shape:
            raise ValueError(
                f"diagonal length {signs.shape[0]} does not match state length {self.amps.shape[0]}"
            )
        kernels.apply_signs(self.amps, signs)
        return self

    def dominant_outcome(self, tol: float = NORM_TOL) -> str | None:
        """The single outcome when one probability exceeds 1 - tol, else None."""
        probs = self.probabilities()
        idx = int(np.argmax(probs))
        if probs[idx] >= 1.0 - tol:
            return format(idx, f"0{self.num_qubits}b")
        return None


def init_basis(num_qubits: int, index: int) -> Statevector:
    check_dense_width(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


def simulate(circuit: Circuit, initial: Statevector | None = None) -> Statevector:
    """Run a circuit on |0...0> (or on a copy of `initial`)."""
    state = init_basis(circuit.width, 0) if initial is None else initial.copy()
    if state.num_qubits != circuit.width:
        raise ValueError("initial state width does not match circuit width")
    for gate in circuit.gates:
        state.apply_gate(gate)
    return state


def equal_up_to_global_phase(a: Statevector, b: Statevector, tol: float = NORM_TOL) -> bool:
    """True iff a == lam * b for some unit-modulus lam, to max-norm tol.

    lam is fixed from the largest-magnitude amplitude of a, which avoids
    dividing by near-zero entries.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different widths")
    k = int(np.argmax(np.abs(a.amps)))
    if abs(b.amps[k]) <= tol:
        return False
    lam = a.amps[k] / b.amps[k]
    lam /= abs(lam)
    return float(np.max(np.abs(a.amps - lam * b.amps))) <= tol
