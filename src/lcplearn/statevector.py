"""Exact dense statevector simulation.

Basis index convention: qubit 1 is the most significant bit, so for an
algorithm register split into an n-bit x part and a t-bit q part the
index is (x << t) | q.  States own their amplitude buffer and are
mutated in place by at most one caller at a time.

Dense buffers are capped at MAX_DENSE_QUBITS qubits: 2^24 complex
amplitudes are 256 MiB, and a wider request is refused before anything
is allocated rather than left to fail in the allocator.

The statevector simulates circuits: the synthesized and transpiled
learner circuits, and the noisy replay.  The learner itself runs on
the four amplitudes of each round, or on the state's support when it
is traced, and builds no Statevector.
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def _check(self, qubits: tuple) -> None:
        for q in qubits:
            if not 1 <= q <= self.num_qubits:
                raise ValueError(f"qubit {q} out of range 1..{self.num_qubits}")

    def apply_gate(self, gate: Gate) -> "Statevector":
        self._check(gate.qubits)
        kernels.apply_unitary(self.amps, self.num_qubits, gate.qubits, gate_matrix(gate))
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


def simulate(circuit: Circuit) -> Statevector:
    """Run a circuit on |0...0>."""
    state = init_basis(circuit.width, 0)
    for gate in circuit.gates:
        state.apply_gate(gate)
    return state


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True iff a == lam * b for some unit-modulus lam, to max-norm tol.

    lam is fixed from the largest-magnitude entry of a, which avoids
    dividing by near-zero entries.
    """
    k = int(np.argmax(np.abs(a)))
    ref = b.flat[k]
    if abs(ref) <= tol:
        return False
    lam = a.flat[k] / ref
    lam /= abs(lam)
    return float(np.max(np.abs(a - lam * b))) <= tol
