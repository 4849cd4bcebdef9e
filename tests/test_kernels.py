"""The numpy kernels against dense operators built with np.kron."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from lcplearn import kernels

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


def test_learning_never_imports_numba():
    code = (
        "import sys, lcplearn\n"
        "lcplearn.run_quantum_learn(lcplearn.SecretString.from_string('0110'))\n"
        "print('numba' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
