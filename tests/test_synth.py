import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplearn import (
    CX,
    AlgorithmLayout,
    H,
    SX,
    X,
    Z,
    RZ,
    Circuit,
    SecretString,
    build_full_circuit,
    build_round_circuit,
    init_basis,
    oracle_diagonal,
    r_operator,
    rewrite_to_device,
    run_quantum_learn,
    serialize,
    simulate,
    synth_R,
    synth_diagonal,
    walsh_decompose,
)
from lcplearn import synth
from lcplearn.oracle import Query, f
from lcplearn.synth import COEFF_TOL, WalshSpectrum, _gray_group, _walsh_transform


def mat_equal_up_to_phase(a, b, tol=1e-9):
    k = int(np.argmax(np.abs(a)))
    if abs(b.flat[k]) <= tol:
        return False
    lam = a.flat[k] / b.flat[k]
    lam /= abs(lam)
    return float(np.max(np.abs(a - lam * b))) <= tol


def reconstruct(spectrum):
    """phi(b) = sum_w c_w * (-1)^(w.b); the transform is its own inverse up to 2^m."""
    return _walsh_transform(spectrum.coefficients.copy())


def decompose_H():
    """The H rule of the device rewrite, on its own."""
    return rewrite_to_device(Circuit(1, [H(1)]))


def scalar_walsh_transform(values):
    """The transform as one butterfly per pair of numpy scalars: the
    reference the vectorized `_walsh_transform` must match bit for bit."""
    n = values.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, h * 2):
            for j in range(start, start + h):
                a, b = values[j], values[j + h]
                values[j] = a + b
                values[j + h] = a - b
        h *= 2
    return values


def per_bit_gray_group(spectrum, target, tol):
    """The Gray walk as one Python step per code and per control bit: the
    reference the array walk of `_gray_group` must match gate for gate."""
    m = spectrum.width
    p_target = m - target
    n_controls = target - 1
    cxs = [CX(target - 1 - p, target) for p in range(n_controls)]
    gates = []
    cur = 0
    for j in range(1 << n_controls):
        v = j ^ (j >> 1)
        w = 1 << p_target
        for p in range(n_controls):
            if (v >> p) & 1:
                w |= 1 << (p_target + 1 + p)
        coeff = spectrum.coefficients[w]
        if abs(coeff) <= tol:
            continue
        diff = cur ^ v
        for p in range(n_controls):
            if (diff >> p) & 1:
                gates.append(cxs[p])
        cur = v
        gates.append(RZ(-2.0 * coeff, target))
    for p in range(n_controls):
        if (cur >> p) & 1:
            gates.append(cxs[p])
    return gates


def gate_bits(gates):
    """Each gate's kind, qubits and exact angle bits."""
    return [(g.kind, g.qubits, None if g.theta is None else g.theta.hex()) for g in gates]


def all_secrets(n):
    for value in range(1 << n):
        yield SecretString(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))


class TestWalsh:
    def test_trivial_diagonal_has_no_spectrum(self):
        spectrum = walsh_decompose(np.ones(8))
        assert np.array_equal(spectrum.coefficients, np.zeros(8))

    def test_two_point_transform_by_hand(self):
        # phi = (0, pi): mean pi/2 on the empty mask, -pi/2 on the full mask
        spectrum = walsh_decompose(np.array([1.0, -1.0]))
        assert spectrum.coefficients == pytest.approx([math.pi / 2, -math.pi / 2])

    def test_reconstruction_is_exact(self):
        signs = np.array([-1, -1, -1, 1, 1, 1, 1, 1], dtype=float)
        spectrum = walsh_decompose(signs)
        phi = math.pi * (1.0 - signs) / 2.0
        assert np.max(np.abs(reconstruct(spectrum) - phi)) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            signs = rng.choice([-1.0, 1.0], size=1 << m)
            spectrum = walsh_decompose(signs)
            phi = math.pi * (1.0 - signs) / 2.0
            assert np.max(np.abs(reconstruct(spectrum) - phi)) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_decompose(np.ones(6))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_transform_is_bit_identical_to_the_scalar_loop(self, m):
        """In place, and equal bit for bit on inputs whose magnitudes span
        ten decades, where any change in the order of operations shows."""
        rng = np.random.default_rng(100 + m)
        for _ in range(4):
            values = rng.standard_normal(1 << m) * 10.0 ** rng.uniform(-5, 5, 1 << m)
            want = scalar_walsh_transform(values.copy())
            got = _walsh_transform(values)
            assert got is values
            assert got.tobytes() == want.tobytes()


class TestSynthDiagonal:
    def test_identity_gives_empty_circuit(self):
        assert len(synth_diagonal(np.ones(8))) == 0

    def test_single_qubit_z_diagonal(self):
        circuit = synth_diagonal(np.array([1.0, -1.0]))
        assert circuit.gate_counts() == {"x": 0, "z": 0, "h": 0, "sx": 0, "rz": 1, "cx": 0}
        assert mat_equal_up_to_phase(np.diag([1, -1]).astype(complex), circuit.unitary(), 1e-12)

    def test_published_two_bit_oracle_budget(self):
        signs = oracle_diagonal(SecretString.from_string("00"), 1)
        circuit = synth_diagonal(signs)
        counts = circuit.gate_counts()
        assert counts["cx"] <= 6 and counts["rz"] <= 7
        assert mat_equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary())

    def test_random_diagonals_equivalent(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            signs = rng.choice([-1.0, 1.0], size=1 << m)
            circuit = synth_diagonal(signs)
            assert mat_equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary())

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_gray_gate_budget(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=1 << m)
            counts = synth_diagonal(signs).gate_counts()
            assert counts["cx"] <= (1 << m) - 2
            assert counts["rz"] <= (1 << m) - 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_jumped_gray_walk_within_full_walk_budget(self, data):
        """Skipping zero coefficients never costs more CNOTs than the full
        Gray walk over a target's 2^controls control masks."""
        m = data.draw(st.integers(1, 7), label="width")
        masks = data.draw(st.sets(st.integers(1, (1 << m) - 1), max_size=12), label="masks")
        coefficients = np.zeros(1 << m)
        for w in masks:
            coefficients[w] = data.draw(st.floats(0.01, 3.0), label=f"c{w}")
        spectrum = WalshSpectrum(m, coefficients)
        for target in range(1, m + 1):
            gates = _gray_group(spectrum, target, COEFF_TOL)
            assert sum(g.kind == "cx" for g in gates) <= 1 << (target - 1)

    def test_array_walk_matches_the_per_bit_walk(self):
        """On random +-1 diagonals of width 1..10 the array walk emits the
        per-bit walk's gates: kinds, qubits and angle bits."""
        rng = np.random.default_rng(30)
        for m in list(range(1, 11)) * 4:
            signs = rng.choice([-1.0, 1.0], size=1 << m)
            spectrum = walsh_decompose(signs)
            want = [g for t in range(1, m + 1) for g in per_bit_gray_group(spectrum, t, COEFF_TOL)]
            assert gate_bits(synth_diagonal(signs).gates) == gate_bits(want)

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_coefficients_at_the_tolerance_skip_as_before(self, m):
        """Exact zeros of either sign and coefficients at exactly +-tol are
        skipped; one ulp past tol is kept, one ulp under it skipped."""
        past = np.nextafter(COEFF_TOL, 1.0)
        under = np.nextafter(COEFF_TOL, 0.0)
        cycle = [0.0, -0.0, COEFF_TOL, -COEFF_TOL, past, -past, under, -under, 0.75]
        coefficients = np.array([cycle[w % len(cycle)] for w in range(1 << m)])
        spectrum = WalshSpectrum(m, coefficients)
        angles = []
        for target in range(1, m + 1):
            gates = _gray_group(spectrum, target, COEFF_TOL)
            assert gate_bits(gates) == gate_bits(per_bit_gray_group(spectrum, target, COEFF_TOL))
            angles += [g.theta for g in gates if g.kind == "rz"]
        kept = [c for c in coefficients[1:] if abs(c) > COEFF_TOL]
        assert sorted(angles) == sorted(-2.0 * c for c in kept)

    def test_equal_cnots_are_one_shared_gate(self):
        """Each (control, target) pair's CNOT is built once and repeated."""
        oracle = synth_diagonal(oracle_diagonal(SecretString.from_string("011010"), 3))
        cxs = [g for g in oracle.gates if g.kind == "cx"]
        shared = {g.qubits: g for g in cxs}
        assert len(cxs) == 510 and len(shared) == 36
        assert all(g is shared[g.qubits] for g in cxs)

    def test_gate_level_matches_fast_path_on_random_states(self):
        """Cross-module check: synthesized circuit vs direct sign multiply."""
        rng = np.random.default_rng(14)
        signs = oracle_diagonal(SecretString.from_string("011"), 1)
        circuit = synth_diagonal(signs)
        for _ in range(50):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            amps /= np.linalg.norm(amps)
            via_gates = init_basis(4, 0)
            via_gates.amps[:] = amps
            for gate in circuit.gates:
                via_gates.apply_gate(gate)
            direct = amps * signs
            # phases align exactly up to the dropped global coefficient
            k = int(np.argmax(np.abs(direct)))
            lam = via_gates.amps[k] / direct[k]
            assert abs(abs(lam) - 1) < 1e-12
            assert np.max(np.abs(via_gates.amps - lam * direct)) < 1e-9


class TestFixedBlocks:
    def test_reflection_gate_list(self):
        assert synth_R().gates == (H(1), CX(1, 2), Z(1), X(2), H(1))

    def test_reflection_unitary_exact(self):
        assert np.allclose(synth_R().unitary(), r_operator(), atol=1e-14)

    def test_reflection_twice_is_identity(self):
        doubled = Circuit(2, list(synth_R().gates) * 2)
        assert np.allclose(doubled.unitary(), np.eye(4), atol=1e-14)

    def test_reflection_collapses_flagged_state(self):
        state = init_basis(2, 0)
        state.amps[:] = 0.5 * np.array([1, 1, 1, -1])
        for gate in synth_R().gates:
            state.apply_gate(gate)
        assert state.dominant_outcome(tol=1e-12) == "11"

    def test_hadamard_decomposition(self):
        got = decompose_H().unitary()
        h = Circuit(1, [H(1)]).unitary()
        assert mat_equal_up_to_phase(h, got, tol=1e-12)
        assert decompose_H().gates == (RZ(math.pi / 2, 1), SX(1), RZ(math.pi / 2, 1))

    def test_hadamard_decomposition_on_zero(self):
        state = init_basis(1, 0)
        for gate in decompose_H().gates:
            state.apply_gate(gate)
        probs = state.probabilities()
        assert probs == pytest.approx([0.5, 0.5])

    def test_hadamard_decomposition_squares_to_identity(self):
        doubled = Circuit(1, list(decompose_H().gates) * 2)
        assert mat_equal_up_to_phase(np.eye(2, dtype=complex), doubled.unitary(), tol=1e-12)


class TestFullCircuit:
    def test_two_bit_structure(self):
        circuit = build_full_circuit(SecretString.from_string("00"))
        assert circuit.width == 3
        kinds = [g.kind for g in circuit.gates]
        assert kinds[:3] == ["h", "h", "x"]  # H pair then the q-register shift
        assert kinds[-5:] == ["h", "cx", "z", "x", "h"]  # reflection block
        counts = circuit.gate_counts()
        assert counts["cx"] == 6 + 1 and counts["rz"] == 7

    def test_each_round_is_placed_by_build_round_circuit(self):
        """Round i's block is H on its pair, X on its q-register qubits, the
        synthesized oracle block, then R's five gates on its pair; the
        rounds follow one another with nothing else between, for n = 2..8."""
        rng = np.random.default_rng(22)
        for n in range(2, 9):
            layout = AlgorithmLayout.for_n(n)
            if n <= 5:
                secrets = list(all_secrets(n))
            else:
                secrets = [SecretString(tuple(int(b) for b in rng.integers(0, 2, n))) for _ in range(4)]
            for s in secrets:
                circuit, oracle = synth._build(s)
                gates = list(circuit.gates)
                for i in range(1, layout.rounds + 1):
                    rc = build_round_circuit(i, layout)
                    a, b = rc.pair
                    block = [H(a), H(b), *(X(q) for q in rc.x_qubits), *oracle.gates]
                    block += [H(a), CX(a, b), Z(a), X(b), H(a)]
                    assert gates[: len(block)] == block, (str(s), i)
                    del gates[: len(block)]
                assert gates == []

    def test_circuits_are_pinned_by_digest(self):
        """SHA-256 of the serialized circuits of every secret n = 2..6, in
        order of n and then of the secret's value."""
        digest = hashlib.sha256()
        for n in range(2, 7):
            for s in all_secrets(n):
                digest.update(serialize(build_full_circuit(s)).encode())
        assert digest.hexdigest() == "063338621808380c7f6c3dc9147647e07054bfb170d38e52be34ef5c9a3ad822"

    def test_three_bit_width(self):
        circuit = build_full_circuit(SecretString.from_string("000"))
        assert circuit.width == 4

    def test_simulation_recovers_secret(self):
        circuit = build_full_circuit(SecretString.from_string("00"))
        assert simulate(circuit).dominant_outcome() == "001"

    def test_matches_fast_path_for_all_small_secrets(self):
        for n in (2, 3):
            for s in all_secrets(n):
                circuit = build_full_circuit(s)
                outcome = simulate(circuit).dominant_outcome()
                assert outcome is not None
                x_bits = tuple(int(c) for c in outcome[:n])
                if n % 2:  # classical fix-up for the last bit
                    answer = f(s, Query(x_bits, n - 1))
                    last = x_bits[-1] if answer else x_bits[-1] ^ 1
                    x_bits = x_bits[:-1] + (last,)
                assert x_bits == run_quantum_learn(s).recovered

    def test_even_n4_round_trip(self):
        s = SecretString.from_string("1011")
        outcome = simulate(build_full_circuit(s)).dominant_outcome()
        assert outcome == "101111"  # x = s, q = 3

    def test_rejects_single_bit(self):
        with pytest.raises(ValueError):
            build_full_circuit(SecretString.from_string("1"))

    def test_oversized_synthesis_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built or transformed the diagonal before refusing it")

        monkeypatch.setattr(synth, "walsh_decompose", fail)
        monkeypatch.setattr(synth, "oracle_diagonal", fail)
        with pytest.raises(ValueError, match="limited to 12 qubits"):
            synth_diagonal(np.ones(1 << 13))
        with pytest.raises(ValueError, match="limited to 12 qubits"):
            build_full_circuit(SecretString.from_string("0110100110"))  # t = 4: 14 qubits
