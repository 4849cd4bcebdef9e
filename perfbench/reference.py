"""Independent correctness references for the benchmark.

Nothing here imports lcplearn.  Each check recomputes the expected
answer from the generated inputs with its own small numpy code, so a
defect in a layer under test cannot vouch for itself.  Gates are read as
plain (kind, qubits, theta) triples; qubits are 1-based with qubit 1 the
most significant bit of a basis index, and physical qubit Qp is qubit
p + 1.
"""

import math

import numpy as np

DEVICE_GATES = frozenset({"cx", "rz", "sx", "x"})

QUITO_EDGES = frozenset({(0, 1), (1, 2), (1, 3), (3, 4)})


class CheckFailed(AssertionError):
    """An output disagreed with its reference."""


def linear_edges(width: int) -> frozenset:
    return frozenset((p, p + 1) for p in range(width - 1))


def q_register_width(n: int) -> int:
    """ceil(log2(n)) for even n, ceil(log2(n - 1)) for odd n: the paper's t."""
    return (n - 1 - n % 2).bit_length()


def lcp(a: str, b: str) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return len(a)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def triples(circuit) -> list:
    return [(g.kind, g.qubits, g.theta) for g in circuit.gates]


def cx_count(gates) -> int:
    return sum(kind == "cx" for kind, _, _ in gates)


def depth(width: int, gates) -> int:
    level = [0] * (width + 1)
    for _, qubits, _ in gates:
        d = 1 + max(level[q] for q in qubits)
        for q in qubits:
            level[q] = d
    return max(level)


def check_legal(gates, edges) -> None:
    """Every gate in the device set and every CX on a coupling edge."""
    for kind, qubits, _ in gates:
        expect(kind in DEVICE_GATES, f"gate {kind} is not a device gate")
        if kind == "cx":
            a, b = sorted(q - 1 for q in qubits)
            expect((a, b) in edges, f"cx on Q{a}-Q{b} is not a coupling edge")


# ---------------------------------------------------------------------------
# Dense pure-state simulation of compiled circuits (device gate set only).

_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def _halves(width: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with the qubit at 0, and the same indices with it at 1."""
    bit = 1 << (width - qubit)
    idx = np.arange(1 << width)
    low = idx[(idx & bit) == 0]
    return low, low | bit


def simulate_device(width: int, gates) -> np.ndarray:
    """Amplitudes after running device gates on |0...0>."""
    amps = np.zeros(1 << width, dtype=complex)
    amps[0] = 1.0
    halves = {q: _halves(width, q) for q in range(1, width + 1)}
    for kind, qubits, theta in gates:
        if kind == "cx":
            _, c_high = halves[qubits[0]]
            t_bit = 1 << (width - qubits[1])
            src = c_high[(c_high & t_bit) == 0]
            amps[src], amps[src | t_bit] = amps[src | t_bit], amps[src].copy()
            continue
        low, high = halves[qubits[0]]
        a0, a1 = amps[low], amps[high]
        if kind == "x":
            amps[low], amps[high] = a1, a0.copy()
        elif kind == "rz":
            amps[low] = a0 * np.exp(-0.5j * theta)
            amps[high] = a1 * np.exp(0.5j * theta)
        elif kind == "sx":
            amps[low], amps[high] = _SX[0, 0] * a0 + _SX[0, 1] * a1, _SX[1, 0] * a0 + _SX[1, 1] * a1
        else:
            raise CheckFailed(f"cannot simulate gate {kind}")
    return amps


def check_compiled_recovers(secret: str, width: int, gates, physical) -> None:
    """The compiled circuit ends in one basis state whose x-bits give the secret.

    `physical[l - 1]` is the physical qubit carrying logical qubit l.  For
    odd n the circuit fixes the first n - 1 bits; the last one comes from
    one classical query lcp(s, x) > n - 1, as in the learner.
    """
    n = len(secret)
    probs = np.abs(simulate_device(width, gates)) ** 2
    idx = int(np.argmax(probs))
    expect(probs[idx] > 1.0 - 1e-6, f"final state is not a basis state (max prob {probs[idx]:.6f})")
    x = [(idx >> (width - 1 - physical[l])) & 1 for l in range(n)]
    if n % 2:
        guess = "".join(map(str, x))
        if lcp(secret, guess) <= n - 1:
            x[-1] ^= 1
    got = "".join(map(str, x))
    expect(got == secret, f"compiled circuit recovers {got}, expected {secret}")


# ---------------------------------------------------------------------------
# Exact ASP by density-matrix evolution through the replay's error model.

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _device_matrix(kind: str, theta) -> np.ndarray:
    if kind == "x":
        return _PAULI[1]
    if kind == "sx":
        return _SX
    if kind == "rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if kind == "cx":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    raise CheckFailed(f"no matrix for gate {kind}")


def _conjugate(rho: np.ndarray, u: np.ndarray, axes: tuple) -> np.ndarray:
    """u rho u^dagger, with u acting on the given row axes of the rho tensor."""
    width = rho.ndim // 2
    k = len(axes)
    u = u.reshape((2,) * (2 * k))
    rho = np.tensordot(u, rho, axes=(list(range(k, 2 * k)), list(axes)))
    rho = np.moveaxis(rho, list(range(k)), list(axes))
    cols = [width + a for a in axes]
    rho = np.tensordot(u.conj(), rho, axes=(list(range(k, 2 * k)), cols))
    return np.moveaxis(rho, list(range(k)), cols)


def exact_asp(width: int, gates, required, cx_error, sq_error, readout) -> float:
    """Probability that every (position, bit) in `required` reads correctly.

    After each CX, with probability p = cx_error(a, b) one of the 15
    non-identity two-qubit Paulis (p/15 each) hits its qubits; after each
    single-qubit gate, with p = sq_error[a], one of X, Y, Z (p/3 each).
    Position q of the readout flips with probability readout[q].
    """
    rho = np.zeros((2,) * (2 * width), dtype=complex)
    rho[(0,) * (2 * width)] = 1.0
    for kind, qubits, theta in gates:
        axes = tuple(q - 1 for q in qubits)
        rho = _conjugate(rho, _device_matrix(kind, theta), axes)
        if kind == "cx":
            p = cx_error(*axes)
            errors = [np.kron(_PAULI[i], _PAULI[j]) for i in range(4) for j in range(4)][1:]
        else:
            p = sq_error[axes[0]]
            errors = list(_PAULI[1:])
        if p:
            mixed = sum(_conjugate(rho, e, axes) for e in errors) / len(errors)
            rho = (1.0 - p) * rho + p * mixed
    probs = np.real(np.diagonal(rho.reshape(1 << width, 1 << width)))
    outcomes = np.arange(1 << width)
    success = np.ones(1 << width)
    for pos, bit in required:
        measured = (outcomes >> (width - 1 - pos)) & 1
        success *= np.where(measured == bit, 1.0 - readout[pos], readout[pos])
    return float(probs @ success)


def check_asp(estimate: float, exact: float, shots: int) -> None:
    """The Monte-Carlo estimate lies within 5 binomial standard errors of the
    exact value; 1e-9 absorbs float rounding where the exact value is 0 or
    1 and the standard error vanishes."""
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / shots)
    expect(abs(estimate - exact) <= 5.0 * se + 1e-9,
           f"ASP {estimate:.5f} is {abs(estimate - exact) / max(se, 1e-300):.1f} SE from exact {exact:.5f}")
