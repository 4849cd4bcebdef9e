import numpy as np
import pytest

from lcplearn import (
    CX,
    H,
    RZ,
    X,
    Circuit,
    Gate,
    init_basis,
    simulate,
)
from lcplearn import kernels
from lcplearn.circuit import gate_matrix
from lcplearn.statevector import MAX_DENSE_QUBITS, Statevector, _equal_up_to_phase, check_dense_width

SQRT1_2 = 1 / np.sqrt(2)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


class TestInitBasis:
    def test_three_qubit_zero(self):
        state = init_basis(3, 0)
        assert np.array_equal(state.amps, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_one_qubit_one(self):
        assert np.array_equal(init_basis(1, 1).amps, [0, 1])

    def test_msb_first_encoding(self):
        # index 5 = 0101 with qubit 1 as the most significant bit
        state = init_basis(4, 5)
        assert state.amps[5] == 1
        assert state.dominant_outcome() == "0101"

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            init_basis(2, 4)

    def test_width_over_the_dense_limit_refused_before_allocating(self):
        check_dense_width(MAX_DENSE_QUBITS)
        with pytest.raises(ValueError, match="dense simulation limit"):
            check_dense_width(MAX_DENSE_QUBITS + 1)
        # 2^60 amplitudes could not be allocated: the refusal comes first
        with pytest.raises(ValueError, match="dense simulation limit"):
            init_basis(60, 0)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = init_basis(1, 0).apply_gate(H(1))
        assert np.allclose(state.amps, [SQRT1_2, SQRT1_2])

    def test_x_on_second_qubit(self):
        state = init_basis(2, 0).apply_gate(X(2))
        assert state.dominant_outcome() == "01"

    def test_rz_pi_on_one(self):
        # diag(e^{-i pi/2}, e^{i pi/2}) |1> = i |1>
        state = init_basis(1, 1).apply_gate(RZ(np.pi, 1))
        assert np.allclose(state.amps, [0, 1j])

    def test_cx_flips_target_when_control_set(self):
        state = init_basis(2, 2).apply_gate(CX(1, 2))  # |10> -> |11>
        assert state.dominant_outcome() == "11"

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            init_basis(2, 0).apply_gate(H(3))

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))


class TestPhaseDiagonal:
    def test_all_plus_one_is_identity(self):
        state = random_state(3, seed=1)
        before = state.amps.copy()
        state.apply_phase_diagonal(np.ones(8))
        assert np.array_equal(state.amps, before)

    def test_published_two_bit_diagonal_on_uniform_state(self):
        state = Statevector(3, np.full(8, SQRT1_2 / 2, dtype=complex))
        signs = np.array([-1, -1, -1, 1, 1, 1, 1, 1], dtype=float)
        state.apply_phase_diagonal(signs)
        assert np.allclose(state.amps, signs * SQRT1_2 / 2)

    def test_involutive(self):
        state = random_state(3, seed=2)
        before = state.amps.copy()
        signs = np.array([-1, 1, -1, 1, 1, -1, 1, -1], dtype=float)
        state.apply_phase_diagonal(signs)
        state.apply_phase_diagonal(signs)
        assert np.allclose(state.amps, before, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            init_basis(2, 0).apply_phase_diagonal(np.ones(8))


class TestMeasure:
    def test_dominant_outcome_requires_near_certainty(self):
        assert init_basis(2, 3).dominant_outcome() == "11"
        assert init_basis(1, 0).apply_gate(H(1)).dominant_outcome() is None


class TestGlobalPhaseEquality:
    def test_pure_phase_is_equal(self):
        a = init_basis(1, 0)
        b = Statevector(1, np.exp(1j * np.pi / 4) * a.amps)
        assert _equal_up_to_phase(a.amps, b.amps, 1e-9)

    def test_distinct_basis_states_differ(self):
        assert not _equal_up_to_phase(init_basis(1, 0).amps, init_basis(1, 1).amps, 1e-9)

    def test_double_hadamard_returns_input(self):
        state = random_state(3, seed=9)
        other = Statevector(3, state.amps.copy()).apply_gate(H(2)).apply_gate(H(2))
        assert _equal_up_to_phase(state.amps, other.amps, 1e-9)

    def test_width_mismatch(self):
        # amplitude vectors of different lengths do not broadcast
        with pytest.raises(ValueError):
            _equal_up_to_phase(init_basis(1, 0).amps, init_basis(2, 0).amps, 1e-9)


def test_norm_preserved_through_random_circuit():
    rng = np.random.default_rng(31)
    for trial in range(10):
        gates = []
        for _ in range(60):
            kind = rng.choice(["x", "z", "h", "sx", "rz", "cx"])
            if kind == "cx":
                a, b = rng.choice(4, size=2, replace=False) + 1
                gates.append(CX(int(a), int(b)))
            elif kind == "rz":
                gates.append(RZ(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(1, 5))))
            else:
                gates.append(Gate(str(kind), (int(rng.integers(1, 5)),)))
        state = simulate(Circuit(4, gates))
        assert abs(state.norm() - 1.0) <= 1e-9 * len(gates)


def test_each_gate_followed_by_inverse_is_identity():
    """Unitarity: applying the conjugate transpose undoes the gate."""
    gates = [X(2), Gate("z", (1,)), H(3), Gate("sx", (2,)), RZ(0.7321, 1), CX(3, 1)]
    for gate in gates:
        state = random_state(3, seed=hash(gate.kind) % 1000)
        before = state.amps.copy()
        state.apply_gate(gate)
        inverse = gate_matrix(gate).conj().T
        kernels.apply_unitary(state.amps, state.num_qubits, gate.qubits, inverse)
        assert np.max(np.abs(state.amps - before)) < 1e-12
