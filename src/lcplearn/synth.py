"""Compile abstract operators into the basic gate set.

A +-1 diagonal is a phase function phi(b) in {0, pi}; expanding phi over
parity characters (Walsh functions) turns each nonzero coefficient into
a CNOT parity chain feeding one RZ.  Masks sharing a target qubit are
visited in Gray-code order so consecutive chains differ by one CNOT.
All diagonal equivalences are modulo global phase: the empty-mask
coefficient is dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CX, H, RZ, X, Z, Circuit, Gate
from .oracle import SecretString, oracle_diagonal
from .quantum import AlgorithmLayout, build_round_circuit

COEFF_TOL = 1e-12
MAX_SYNTH_QUBITS = 12


@dataclass(frozen=True)
class WalshSpectrum:
    """Parity-character coefficients of a phase exponent function.

    coefficients[w] multiplies (-1)^(w.b); w is a subset mask laid out
    like a basis index (qubit 1 = most significant bit).
    """

    width: int
    coefficients: np.ndarray


def _walsh_transform(values: np.ndarray) -> np.ndarray:
    """In-place fast transform with kernel (-1)^popcount(w & b).

    At stride h each block of 2h entries is a pair of views (a, b), and
    every butterfly is the same two float operations: a + b, a - b.
    """
    n = values.shape[0]
    h = 1
    while h < n:
        a, b = values.reshape(-1, 2, h).swapaxes(0, 1)
        a[...], b[...] = a + b, a - b
        h *= 2
    return values


def walsh_decompose(signs: np.ndarray) -> WalshSpectrum:
    """Spectrum of phi(b) = pi * f(b) where signs[b] = (-1)^f(b)."""
    signs = np.asarray(signs, dtype=np.float64)
    n = signs.shape[0]
    if n < 2 or n & (n - 1):
        raise ValueError(f"diagonal length {n} is not a power of two")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("diagonal entries must be +1 or -1")
    width = n.bit_length() - 1
    phi = math.pi * (1.0 - signs) / 2.0
    coeffs = _walsh_transform(phi) / n
    return WalshSpectrum(width, coeffs)


def _gray_group(
    spectrum: WalshSpectrum, target: int, tol: float
) -> list[Gate]:
    """Chain all masks whose last member qubit is `target`, sharing CNOTs.

    Control combinations walk in Gray-code order and zero coefficients
    are jumped over.  The jumped walk visits a subsequence of a cyclic
    Gray code from 0 back to 0, so by the triangle inequality for Hamming
    distance it never needs more CNOTs than the full walk's 2^controls.
    The codes, their masks and the zero test are arrays over one gather
    of coefficients; the walk visits only the kept codes, emitting a CNOT
    for each control bit that flips, lowest first.
    """
    cxs = [CX(target - 1 - p, target) for p in range(target - 1)]  # one shared gate per control
    codes = np.arange(1 << (target - 1))
    codes ^= codes >> 1
    coeffs = spectrum.coefficients[(2 * codes + 1) << (spectrum.width - target)]  # target bit under the codes
    kept = ~(np.abs(coeffs) <= tol)
    gates: list[Gate] = []
    cur = 0  # control mask whose parity the target holds now
    # the walk closes at code 0 with no rotation, clearing the parity
    for v, coeff in zip(codes[kept].tolist() + [0], coeffs[kept].tolist() + [None]):
        diff = cur ^ v
        while diff:
            low = diff & -diff
            gates.append(cxs[low.bit_length() - 1])
            diff ^= low
        cur = v
        if coeff is not None:
            gates.append(RZ(-2.0 * coeff, target))
    return gates


def _check_synth_width(width: int) -> None:
    """Refuse a diagonal wider than MAX_SYNTH_QUBITS before transforming it."""
    if width > MAX_SYNTH_QUBITS:
        raise ValueError(f"diagonal synthesis limited to {MAX_SYNTH_QUBITS} qubits")


def synth_diagonal(signs: np.ndarray) -> Circuit:
    """A {CX, RZ} circuit equal to diag(signs) up to global phase.

    The mask for each parity term selects a target qubit (its last
    member); RZ(-2 c_w) on the accumulated parity contributes exactly
    exp(i c_w (-1)^(w.b)) per basis state.
    """
    _check_synth_width(len(signs).bit_length() - 1)
    spectrum = walsh_decompose(signs)
    gates: list[Gate] = []
    for target in range(1, spectrum.width + 1):
        gates.extend(_gray_group(spectrum, target, COEFF_TOL))
    return Circuit(spectrum.width, gates)


def _r_gates(a: int, b: int) -> list[Gate]:
    """The round reflection R on qubits a, b, with a as R's high bit."""
    return [H(a), CX(a, b), Z(a), X(b), H(a)]


def synth_R() -> Circuit:
    """Gate realization of the round reflection on two qubits."""
    return Circuit(2, _r_gates(1, 2))


def build_full_circuit(s: SecretString) -> Circuit:
    """The complete pre-transpilation learner circuit for secret s.

    Each round, placed by `build_round_circuit` as the learner places it,
    is H on its pair, X on its q-register qubits, the synthesized oracle,
    then R's gates on its pair.  For odd n the last bit still needs the
    one-query classical fix-up after measuring; the circuit omits it.
    """
    return _build(s)[0]


def _build(s: SecretString) -> tuple[Circuit, Circuit]:
    """`build_full_circuit`'s circuit and the synthesized oracle block it repeats."""
    if s.n < 2:
        raise ValueError("circuit construction needs n >= 2")
    layout = AlgorithmLayout.for_n(s.n)
    width = s.n + layout.t
    _check_synth_width(width)
    oracle = synth_diagonal(oracle_diagonal(s, layout.t))

    gates: list[Gate] = []
    for i in range(1, layout.rounds + 1):
        rc = build_round_circuit(i, layout)
        gates.extend(H(q) for q in rc.pair)
        gates.extend(X(q) for q in rc.x_qubits)
        gates.extend(oracle.gates)
        gates.extend(_r_gates(*rc.pair))
    return Circuit(width, gates), oracle
