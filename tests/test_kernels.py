"""The numpy kernels against dense operators built with np.kron."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from lcplearn import CX, H, RZ, SX, X, Circuit, NoiseProfile, kernels, run_noisy, simulate
from lcplearn.circuit import gate_matrix
from lcplearn.noise import exact_distribution

I2 = np.eye(2)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def dense_single(width, bit, u):
    """u on `bit` of a width-qubit register; bit 0 is the last kron factor."""
    op = np.eye(1)
    for b in reversed(range(width)):
        op = np.kron(op, u if b == bit else I2)
    return op


def dense_two(width, b1, b2, u):
    """u on (b1, b2), b1 the high bit of u's row index.

    u is written as sum_k A_k (x) B_k over 2x2 operator bases, so each term
    is a plain kron product with A_k on b1 and B_k on b2.
    """
    op = np.zeros((1 << width, 1 << width), dtype=complex)
    for r1, c1 in itertools.product(range(2), repeat=2):
        a = np.zeros((2, 2))
        a[r1, c1] = 1.0
        b = u.reshape(2, 2, 2, 2)[r1, :, c1, :]
        term = np.eye(1)
        for bit in reversed(range(width)):
            term = np.kron(term, a if bit == b1 else b if bit == b2 else I2)
        op += term
    return op


@pytest.mark.parametrize("width", range(1, 7))
def test_single_qubit_kernel_matches_dense(width):
    for bit in range(width):
        u = random_unitary(2, seed=10 * width + bit)
        amps = random_state(width, seed=100 * width + bit)
        expected = dense_single(width, bit, u) @ amps
        kernels.apply_single(amps, bit, u)
        assert np.max(np.abs(amps - expected)) < 1e-12, bit


@pytest.mark.parametrize("width", range(2, 7))
def test_two_qubit_kernel_matches_dense(width):
    for b1, b2 in itertools.permutations(range(width), 2):
        u = random_unitary(4, seed=100 * width + 10 * b1 + b2)
        amps = random_state(width, seed=1000 * width + 10 * b1 + b2)
        expected = dense_two(width, b1, b2, u) @ amps
        kernels.apply_two(amps, b1, b2, u)
        assert np.max(np.abs(amps - expected)) < 1e-12, (b1, b2)


def test_dense_two_reference_orders_bits():
    """CX written as a 4x4 with b1 the control: flips b2 where b1 is set."""
    cx = np.eye(4)[[0, 1, 3, 2]]
    op = dense_two(3, 2, 0, cx)
    assert op[0b101, 0b100] == 1.0 and op[0b001, 0b001] == 1.0


@pytest.mark.parametrize("width", [1, 4, 7])
def test_sign_kernel_is_bit_exact(width):
    rng = np.random.default_rng(width)
    signs = rng.choice([-1.0, 1.0], size=1 << width)
    amps = random_state(width, seed=30 + width)
    expected = np.diag(signs) @ amps
    kernels.apply_signs(amps, signs)
    assert np.array_equal(amps, expected)


@pytest.mark.parametrize("width", range(1, 6))
@pytest.mark.parametrize("rows", [None, 3])
def test_flip_kernel_equals_the_gate_matrix(width, rows):
    """X on every qubit and CX on every ordered qubit pair, as a swap,
    equal the butterfly or 4x4 update on the gate's own matrix, on one
    state and on a stack of leading rows."""
    rng = np.random.default_rng(40 + width)
    shape = (1 << width,) if rows is None else (rows, 1 << width)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gates = [X(q) for q in range(1, width + 1)]
    gates += [CX(a, b) for a, b in itertools.permutations(range(1, width + 1), 2)]
    for gate in gates:
        swapped, multiplied = state.copy(), state.copy()
        kernels.apply_flip(swapped, width, gate.qubits)
        kernels.apply_unitary(multiplied, width, gate.qubits, gate_matrix(gate))
        assert np.array_equal(swapped, multiplied), gate
        assert not np.array_equal(swapped, state), gate


def test_every_gate_makes_one_kernel_call(monkeypatch):
    """The statevector, Circuit.unitary, the density matrix and the noisy
    replay's fault rows each apply a gate with one kernel call: X and CX
    as the swap, every other gate through apply_unitary, which makes one
    butterfly call.  No gate reaches the 4x4 update."""
    calls = {"apply_flip": 0, "apply_single": 0, "apply_two": 0, "apply_unitary": 0}
    for name in calls:
        original = getattr(kernels, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(kernels, name, counted)
    circuit = Circuit(3, [H(1), CX(1, 3), SX(2), X(3), RZ(0.4, 3), CX(3, 2), H(2)])
    flips, others = 3, 4
    # every gate errs for sure, so run_noisy resimulates fault patterns
    profile = NoiseProfile.uniform(3, cx=1.0, readout=0.0, sq=1.0)
    # exact_distribution conjugates by the 24 non-identity digits of the
    # 15 faults of each of the 2 CXs and the 3 Paulis of each of the 5
    # single-qubit gates, each on the row and the column qubits
    paulis = 2 * (2 * 24 + 5 * 3)
    for run, passes, extra in (
        (lambda: simulate(circuit), 1, 0),
        (circuit.unitary, 1, 0),
        (lambda: exact_distribution(circuit, profile), 2, paulis),
        # one clean simulate and one batch of fault patterns
        (lambda: run_noisy(circuit, profile, shots=64, seed=5), 2, 0),
    ):
        for name in calls:
            calls[name] = 0
        run()
        assert calls["apply_flip"] == passes * flips
        assert calls["apply_unitary"] == passes * others + extra
        assert calls["apply_single"] == calls["apply_unitary"]
        assert calls["apply_two"] == 0


def test_learning_never_imports_numba():
    code = (
        "import sys, lcplearn\n"
        "lcplearn.run_quantum_learn(lcplearn.SecretString.from_string('0110'))\n"
        "print('numba' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
