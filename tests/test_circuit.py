import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplearn import CX, H, RZ, SX, X, Z, Circuit, Gate, init_basis, parse, serialize, simulate
from lcplearn.circuit import ParseError


class TestGateValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("ry", (1,))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("cx", (1,))
        with pytest.raises(ValueError):
            Gate("h", (1, 2))

    def test_rejects_angle_on_non_rotation(self):
        with pytest.raises(ValueError):
            Gate("x", (1,), 0.5)

    def test_rejects_zero_based_qubits(self):
        with pytest.raises(ValueError, match="1-based"):
            Gate("x", (0,))

    def test_repr_is_readable(self):
        assert repr(CX(1, 2)) == "CX(1, 2)"
        assert repr(RZ(0.5, 3)) == "RZ(0.5, 3)"

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(1, [CX(1, 2)])
        # the message names the first gate out of range, however many precede it
        with pytest.raises(ValueError, match=r"^gate CX\(2, 4\) out of range for width 3$"):
            Circuit(3, [X(1)] * 100 + [CX(2, 4)])

    def test_late_shared_out_of_range_gate_is_named(self):
        """The check reads each distinct qubit tuple once; a shared gate
        object repeated late in a long circuit is still the one named."""
        bad = CX(4, 6)
        gates = [H(1), CX(1, 2), RZ(0.25, 3), CX(2, 5)] * 2000 + [bad] * 50 + [X(2)] * 10
        with pytest.raises(ValueError, match=r"^gate CX\(4, 6\) out of range for width 5$"):
            Circuit(5, gates)


class TestDepth:
    def test_empty(self):
        assert Circuit(2).depth() == 0

    def test_disjoint_gates_parallelize(self):
        assert Circuit(2, [H(1), H(2)]).depth() == 1

    def test_chain_through_shared_qubits(self):
        assert Circuit(2, [H(1), CX(1, 2), H(2)]).depth() == 3

    def test_invariant_under_disjoint_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gates = _random_gates(rng, width=4, count=30)
            circuit = Circuit(4, gates)
            k = int(rng.integers(0, len(gates) - 1))
            a, b = gates[k], gates[k + 1]
            if set(a.qubits) & set(b.qubits):
                continue
            swapped = gates[:k] + [b, a] + gates[k + 2 :]
            assert Circuit(4, swapped).depth() == circuit.depth()


class TestCounts:
    def test_empty_is_all_zeros(self):
        assert Circuit(3).gate_counts() == {"x": 0, "z": 0, "h": 0, "sx": 0, "rz": 0, "cx": 0}

    def test_rz_counted_regardless_of_angle(self):
        counts = Circuit(1, [RZ(0.1, 1), RZ(-2.0, 1), RZ(0.1, 1)]).gate_counts()
        assert counts["rz"] == 3


class TestUnitary:
    def test_single_hadamard(self):
        u = Circuit(1, [H(1)]).unitary()
        s = 1 / math.sqrt(2)
        assert np.allclose(u, [[s, s], [s, -s]])

    def test_double_cx_is_identity(self):
        u = Circuit(2, [CX(1, 2), CX(1, 2)]).unitary()
        assert np.allclose(u, np.eye(4))

    def test_composition_order(self):
        """unitary(a then b) = unitary(b) @ unitary(a)."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Circuit(3, _random_gates(rng, 3, 10))
            b = Circuit(3, _random_gates(rng, 3, 10))
            ab = Circuit(3, list(a.gates) + list(b.gates))
            assert np.allclose(ab.unitary(), b.unitary() @ a.unitary(), atol=1e-12)

    def test_cx_nonadjacent_embedding(self):
        # CX(1,3) on 3 qubits: flips bit 3 when bit 1 set, qubit 2 untouched
        u = Circuit(3, [CX(1, 3)]).unitary()
        for idx in range(8):
            out = idx ^ 1 if idx & 4 else idx
            assert u[out, idx] == 1

    def test_width_limit(self):
        with pytest.raises(ValueError):
            Circuit(13).unitary()

    def test_columns_are_bit_identical_to_simulating_basis_states(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            width = int(rng.integers(2, 6))
            c = Circuit(width, _random_gates(rng, width, int(rng.integers(1, 30))))
            u = c.unitary()
            assert np.array_equal(simulate(c).amps, u[:, 0])
            last = init_basis(width, (1 << width) - 1)
            for g in c.gates:
                last.apply_gate(g)
            assert np.array_equal(last.amps, u[:, -1])


def test_unitary_of_qubit1_gate_matches_kron():
    u = Circuit(2, [H(1)]).unitary()
    assert np.allclose(u, np.kron(Circuit(1, [H(1)]).unitary(), np.eye(2)))


class TestSerialize:
    def test_single_gate_emission(self):
        text = serialize(Circuit(2, [X(1)]))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[0];\n'

    def test_all_kinds_round_trip(self):
        circuit = Circuit(3, [X(1), Z(2), H(3), SX(1), RZ(0.25, 2), CX(1, 3)])
        assert parse(serialize(circuit)) == circuit

    def test_angle_serialized_with_17_digits(self):
        theta = 1.2345678901234567
        assert f"{theta:.17g}" in serialize(Circuit(1, [RZ(theta, 1)]))

    def test_angle_canonicalized_preserving_matrix(self):
        # 5pi wraps to pi: same RZ matrix, not just same phase class
        circuit = parse(serialize(Circuit(1, [RZ(5 * math.pi, 1)])))
        assert circuit.gates[0] == RZ(math.pi, 1)

    def test_comments_and_blank_lines_allowed(self):
        text = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2]; // two wires\n"
            "\n"
            "// prepare\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
        )
        assert parse(text) == Circuit(2, [H(1), CX(1, 2)])


class TestParseErrors:
    def test_control_equals_target(self):
        with pytest.raises(ParseError) as err:
            parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[0];\n')
        assert err.value.line == 4

    def test_unknown_gate_name(self):
        with pytest.raises(ParseError, match="unknown gate 'ry'"):
            parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry q[0];\n')

    def test_out_of_range_qubit(self):
        with pytest.raises(ParseError, match="out of range"):
            parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[1];\n')

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("qreg q[1];\nx q[0];\n")

    def test_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[0];\nbogus;\n')
        assert err.value.line == 5

    def test_overflowing_angle_rejected(self):
        # 1e400 parses to inf, which is not a usable rotation
        with pytest.raises(ParseError, match="finite"):
            parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(1e400) q[0];\n')
        with pytest.raises(ValueError):
            RZ(float("nan"), 1)


GATE_CHOICES = ("x", "z", "h", "sx", "rz", "cx")

_angles = st.floats(
    min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False, allow_infinity=False
)


@st.composite
def circuits(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(GATE_CHOICES if width > 1 else GATE_CHOICES[:-1]))
        if kind == "cx":
            c = draw(st.integers(min_value=1, max_value=width))
            t = draw(st.integers(min_value=1, max_value=width).filter(lambda q: q != c))
            gates.append(CX(c, t))
        elif kind == "rz":
            gates.append(RZ(draw(_angles), draw(st.integers(min_value=1, max_value=width))))
        else:
            gates.append(Gate(kind, (draw(st.integers(min_value=1, max_value=width)),)))
    return Circuit(width, gates)


@given(circuits())
@settings(max_examples=150, deadline=None)
def test_round_trip_identity(circuit):
    recovered = parse(serialize(circuit))
    assert recovered == circuit
    assert recovered.depth() == circuit.depth()
    assert recovered.gate_counts() == circuit.gate_counts()


def _random_gates(rng, width, count):
    gates = []
    choices = GATE_CHOICES if width > 1 else GATE_CHOICES[:-1]
    for _ in range(count):
        kind = str(rng.choice(choices))
        if kind == "cx":
            a, b = rng.choice(width, size=2, replace=False) + 1
            gates.append(CX(int(a), int(b)))
        elif kind == "rz":
            gates.append(RZ(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(1, width + 1))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, width + 1)),)))
    return gates
