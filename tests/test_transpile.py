import json
import math

import numpy as np
import pytest

from lcplearn import (
    CX,
    H,
    RZ,
    SX,
    X,
    Z,
    Circuit,
    CouplingGraph,
    Gate,
    QubitMapping,
    SecretString,
    build_full_circuit,
    optimize,
    rewrite_to_device,
    route_cnot,
    simulate,
    transpile,
)
from lcplearn.oracle import Query, f
from lcplearn.transpile import check_legal

LINEAR3 = CouplingGraph.linear(3)
QUITO = CouplingGraph.quito()


def mat_equal_up_to_phase(a, b, tol=1e-9):
    k = int(np.argmax(np.abs(a)))
    if abs(b.flat[k]) <= tol:
        return False
    lam = a.flat[k] / b.flat[k]
    lam /= abs(lam)
    return float(np.max(np.abs(a - lam * b))) <= tol


def random_circuit(rng, width, max_gates):
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = str(rng.choice(["x", "z", "h", "sx", "rz", "cx"]))
        if kind == "cx":
            a, b = rng.choice(width, size=2, replace=False) + 1
            gates.append(CX(int(a), int(b)))
        elif kind == "rz":
            gates.append(RZ(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(1, width + 1))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, width + 1)),)))
    return Circuit(width, gates)


class TestCouplingGraph:
    def test_quito_shape(self):
        assert QUITO.num_qubits == 5
        assert QUITO.edges == frozenset({(0, 1), (1, 2), (1, 3), (3, 4)})
        assert QUITO.neighbors(1) == [0, 2, 3]

    def test_linear3(self):
        assert LINEAR3.edges == frozenset({(0, 1), (1, 2)})

    def test_from_json(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"qubits": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}))
        assert CouplingGraph.from_json(str(path)) == QUITO

    @pytest.mark.parametrize(
        "data",
        [
            [3],
            {"qubits": 3, "edges": [5]},
            {"qubits": "3", "edges": []},
            {"qubits": True, "edges": []},
            {"qubits": 0, "edges": []},
            {"qubits": 3, "edges": [[0, 1, 2]]},
            {"qubits": 3, "edges": [[0, 1.0]]},
            {"edges": [[0, 1]]},
        ],
    )
    def test_from_dict_rejects_wrong_types(self, data):
        with pytest.raises(ValueError):
            CouplingGraph.from_dict(data)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_shortest_path(self):
        assert QUITO.shortest_path(0, 4) == [0, 1, 3, 4]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            CouplingGraph.named("melbourne")


class TestMapping:
    def test_injective_required(self):
        with pytest.raises(ValueError):
            QubitMapping((0, 0, 1))

    def test_lookup_is_one_based(self):
        mapping = QubitMapping((2, 0, 1))
        assert mapping[1] == 2 and mapping[3] == 1


class TestRouting:
    def test_adjacent_pair_is_single_cx(self):
        assert route_cnot(0, 1, QUITO).gates == (CX(1, 2),)

    def test_distance_two_uses_four_cnots(self):
        fragment = route_cnot(0, 2, QUITO)
        assert fragment.gate_counts()["cx"] == 4
        got = Circuit(3, [g for g in fragment.gates]).unitary()
        assert np.allclose(got, Circuit(3, [CX(1, 3)]).unitary())

    def test_distance_three_unitary(self):
        fragment = route_cnot(0, 4, QUITO)
        assert np.allclose(fragment.unitary(), Circuit(5, [CX(1, 5)]).unitary())

    def test_routed_cx_stays_on_edges(self):
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                fragment = route_cnot(a, b, QUITO)
                assert all(QUITO.has_edge(g.qubits[0] - 1, g.qubits[1] - 1) for g in fragment.gates)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            route_cnot(2, 2, QUITO)


class TestRewrite:
    def test_hadamard_expansion(self):
        out = rewrite_to_device(Circuit(1, [H(1)]))
        assert out.gates == (RZ(math.pi / 2, 1), SX(1), RZ(math.pi / 2, 1))

    def test_z_becomes_rz_pi(self):
        out = rewrite_to_device(Circuit(1, [Z(1)]))
        assert out.gates == (RZ(math.pi, 1),)
        assert mat_equal_up_to_phase(Circuit(1, [Z(1)]).unitary(), out.unitary(), 1e-12)

    def test_legal_circuit_unchanged(self):
        circuit = Circuit(2, [X(1), SX(2), RZ(0.3, 1), CX(1, 2)])
        assert rewrite_to_device(circuit) == circuit

    def test_unitary_preserved_on_random_circuits(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            circuit = random_circuit(rng, 4, 40)
            assert mat_equal_up_to_phase(circuit.unitary(), rewrite_to_device(circuit).unitary())


class TestOptimize:
    def test_rotation_merge(self):
        out, _ = optimize(Circuit(1, [RZ(math.pi / 3, 1), RZ(math.pi / 6, 1)]))
        assert out.gates == (RZ(math.pi / 2, 1),)

    def test_cnot_pair_cancellation(self):
        out, _ = optimize(Circuit(2, [CX(1, 2), CX(1, 2)]))
        assert len(out) == 0

    def test_merge_through_control(self):
        """A rotation commutes past the control of a CNOT to reach its partner."""
        circuit = Circuit(2, [RZ(0.5, 1), CX(1, 2), RZ(0.25, 1)])
        out, _ = optimize(circuit)
        assert out.gate_counts()["rz"] == 1
        assert mat_equal_up_to_phase(circuit.unitary(), out.unitary())

    def test_cancellation_through_target_x(self):
        circuit = Circuit(2, [CX(1, 2), X(2), CX(1, 2)])
        out, _ = optimize(circuit)
        assert out.gates == (X(2),)

    def test_exchange_rule_shortens_cx_rz_word(self):
        """Three CNOTs with interleaved target rotations collapse to one."""
        circuit = Circuit(
            2, [CX(1, 2), RZ(0.3, 2), CX(1, 2), RZ(0.7, 2), CX(1, 2)]
        )
        out, _ = optimize(circuit)
        assert out.gate_counts()["cx"] == 1
        assert mat_equal_up_to_phase(circuit.unitary(), out.unitary())

    def test_zero_rotation_elided(self):
        out, _ = optimize(Circuit(1, [RZ(1e-15, 1), X(1)]))
        assert out.gates == (X(1),)

    def test_full_rotation_elided(self):
        out, _ = optimize(Circuit(1, [RZ(math.pi, 1), RZ(math.pi, 1)]))
        assert len(out) == 0

    def test_soundness_on_random_circuits(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            circuit = random_circuit(rng, 4, 60)
            out, report = optimize(circuit)
            assert mat_equal_up_to_phase(circuit.unitary(), out.unitary())
            assert len(out) <= len(circuit)
            again, _ = optimize(out)
            assert again == out
            assert report.sweeps is not None

    def test_blocked_rotation_not_moved(self):
        # RZ on the target does not commute through the CNOT
        circuit = Circuit(2, [RZ(0.4, 2), CX(1, 2), RZ(0.6, 2)])
        out, _ = optimize(circuit)
        assert out.gate_counts()["rz"] == 2
        assert mat_equal_up_to_phase(circuit.unitary(), out.unitary())


class TestTranspile:
    def test_n2_budget_on_linear3(self):
        circuit = build_full_circuit(SecretString.from_string("00"))
        final, report = transpile(circuit, LINEAR3)
        assert report.legal
        counts = report.final_counts
        assert counts["cx"] <= 11  # published reference: 9
        assert report.final_depth <= 20  # published reference: 15
        assert simulate(final).dominant_outcome() is not None

    def test_n3_legal_on_quito(self):
        s = SecretString.from_string("000")
        final, report = transpile(build_full_circuit(s), QUITO)
        assert report.legal
        outcome = simulate(final).dominant_outcome()
        x_bits = tuple(int(outcome[report.mapping[j]]) for j in range(3))
        assert x_bits[:2] == s.bits[:2]
        answer = f(s, Query(x_bits, 2))
        last = x_bits[2] if answer else x_bits[2] ^ 1
        assert x_bits[:2] + (last,) == s.bits

    def test_identity_circuit_passes_through(self):
        circuit = Circuit(2, [CX(1, 2)])
        final, report = transpile(circuit, LINEAR3, mapping=QubitMapping((0, 1)))
        assert final.gates == (CX(1, 2),)
        assert report.legal

    def test_explicit_mapping_respected(self):
        circuit = Circuit(2, [CX(1, 2)])
        final, report = transpile(circuit, QUITO, mapping=QubitMapping((3, 4)))
        assert report.mapping == (3, 4)
        assert final.gates == (CX(4, 5),)

    def test_unoptimized_never_beats_optimized(self):
        circuit = build_full_circuit(SecretString.from_string("10"))
        _, with_opt = transpile(circuit, LINEAR3, opt=True)
        _, without = transpile(circuit, LINEAR3, opt=False)
        assert with_opt.final_counts["cx"] <= without.final_counts["cx"]

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            transpile(Circuit(4, [X(1)]), LINEAR3)

    def test_equivalence_under_identity_mapping(self):
        """map+route+rewrite+optimize preserves the unitary on the device."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            circuit = random_circuit(rng, 3, 25)
            final, report = transpile(circuit, LINEAR3, mapping=QubitMapping((0, 1, 2)))
            assert report.legal
            assert mat_equal_up_to_phase(circuit.unitary(), final.unitary())

    def test_stage_records_cover_pipeline(self):
        circuit = build_full_circuit(SecretString.from_string("11"))
        _, report = transpile(circuit, LINEAR3)
        assert [s.name for s in report.stages] == ["input", "map", "route", "rewrite", "optimize"]
        as_dict = report.to_dict()
        assert as_dict["legal_gate_set"] and as_dict["legal_coupling"]


def test_check_legal_flags():
    ok = Circuit(3, [CX(1, 2), RZ(0.2, 1)])
    bad_edge = Circuit(3, [CX(1, 3)])
    bad_kind = Circuit(3, [H(1)])
    assert check_legal(ok, LINEAR3) == (True, True)
    assert check_legal(bad_edge, LINEAR3) == (True, False)
    assert check_legal(bad_kind, LINEAR3) == (False, True)
