import importlib
import itertools
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
    serialize,
    simulate,
    transpile,
)
from lcplearn.oracle import Query, f
from lcplearn.transpile import AUTO_MAP_LIMIT, StageRecord, _route, check_legal
from lcplearn.verify import _recovers_secret

# the package attribute `lcplearn.transpile` is the function, not the module
transpile_module = importlib.import_module("lcplearn.transpile")

LINEAR3 = CouplingGraph.linear(3)
QUITO = CouplingGraph.quito()
RING6 = CouplingGraph(6, frozenset((i, (i + 1) % 6) for i in range(6)))


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


def assert_every_pair_routes_as_a_ladder(graph):
    """Every ordered pair's routed CX, in both expansion orders: coupled
    CNOTs only, 4(d - 1) of them at distance d >= 2, the exact CX
    unitary; variant 1 is variant 0 reversed."""
    width = graph.num_qubits
    for a, b in itertools.permutations(range(width), 2):
        ladders = graph.routes[a, b]
        path = graph.shortest_path(a, b)
        d = len(path) - 1
        assert ladders[1] == ladders[0][::-1]
        expected = Circuit(width, [CX(a + 1, b + 1)]).unitary()
        for ladder in ladders:
            routed = Circuit(width, ladder)
            assert len(routed) == (1 if d == 1 else 4 * (d - 1))
            assert check_legal(routed, graph) == (True, True)
            assert np.allclose(routed.unitary(), expected)


class TestCouplingGraph:
    def test_quito_shape(self):
        assert QUITO.num_qubits == 5
        assert QUITO.edges == frozenset({(0, 1), (1, 2), (1, 3), (3, 4)})
        assert [v for v in range(5) if QUITO.has_edge(1, v)] == [0, 2, 3]

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

    @pytest.mark.parametrize("qubits,edges", [(2, []), (3, [[0, 1]]), (4, [[0, 1], [0, 1]])])
    def test_from_dict_rejects_too_few_edges_before_building(self, monkeypatch, qubits, edges):
        """A connected graph needs qubits - 1 edges; fewer is refused
        before any per-qubit structure or search."""

        def fail(self, root):
            raise AssertionError("searched a graph that was already refused")

        monkeypatch.setattr(CouplingGraph, "_bfs", fail)
        with pytest.raises(ValueError, match="cannot be connected"):
            CouplingGraph.from_dict({"qubits": qubits, "edges": edges})

    def test_from_dict_single_qubit_needs_no_edge(self):
        graph = CouplingGraph.from_dict({"qubits": 1, "edges": []})
        assert (graph.num_qubits, graph.edges) == (1, frozenset())

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_shortest_path(self):
        assert QUITO.shortest_path(0, 4) == [0, 1, 3, 4]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            CouplingGraph.named("melbourne")

    def test_search_reads_the_adjacency_built_at_construction(self):
        """A path search runs end to end across a 1000-line."""
        line = CouplingGraph.linear(1000)
        assert line.shortest_path(0, 999) == list(range(1000))


class TestMapping:
    def test_injective_required(self):
        with pytest.raises(ValueError):
            QubitMapping((0, 0, 1))

    def test_lookup_is_one_based(self):
        mapping = QubitMapping((2, 0, 1))
        assert mapping[1] == 2 and mapping[3] == 1


class TestRouting:
    def test_adjacent_pair_is_single_cx(self):
        assert QUITO.routes[0, 1][0] == (CX(1, 2),)

    def test_distance_two_uses_four_cnots(self):
        ladder = QUITO.routes[0, 2][0]
        assert len(ladder) == 4 and all(g.kind == "cx" for g in ladder)
        got = Circuit(3, ladder).unitary()
        assert np.allclose(got, Circuit(3, [CX(1, 3)]).unitary())

    def test_distance_three_unitary(self):
        ladder = QUITO.routes[0, 4][0]
        assert np.allclose(Circuit(5, ladder).unitary(), Circuit(5, [CX(1, 5)]).unitary())

    def test_routed_cx_stays_on_edges(self):
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                ladder = QUITO.routes[a, b][0]
                assert all(QUITO.has_edge(g.qubits[0] - 1, g.qubits[1] - 1) for g in ladder)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError, match="endpoints must differ"):
            QUITO.routes[2, 2]

    def test_every_pair_on_a_line(self):
        """CX(a, b) at distance d routes to one CNOT at d = 1 and 4(d - 1)
        coupled CNOTs otherwise, in both expansion orders."""
        line = CouplingGraph.linear(7)
        for a, b in itertools.permutations(range(7), 2):
            d = abs(a - b)
            assert len(line.routes[a, b][0]) == (1 if d == 1 else 4 * (d - 1))
        assert_every_pair_routes_as_a_ladder(line)

    @pytest.mark.parametrize("graph", [QUITO, RING6], ids=["quito", "ring6"])
    def test_every_pair_on_quito_and_a_ring(self, graph):
        assert_every_pair_routes_as_a_ladder(graph)

    def test_ring_breaks_ties_by_sorted_neighbour(self):
        assert RING6.shortest_path(0, 3) == [0, 1, 2, 3]
        assert RING6.shortest_path(3, 0) == [3, 2, 1, 0]

    @pytest.mark.parametrize("a,b", [(0, 9), (9, 0), (-1, 2), (2, -1), (5, 1)])
    def test_out_of_range_endpoint_rejected(self, a, b):
        with pytest.raises(ValueError, match="not on this 5-qubit graph"):
            QUITO.shortest_path(a, b)
        with pytest.raises(ValueError, match="not on this 5-qubit graph"):
            QUITO.routes[a, b]

    def test_repeated_long_cx_alternates_and_preserves_unitary(self):
        """Repeat occurrences of a routed pair use the reversed ladder."""
        line = CouplingGraph.linear(5)
        circuit = Circuit(5, [CX(1, 4), H(2), CX(1, 4), RZ(0.3, 4), CX(1, 4), CX(5, 3), X(1), CX(5, 3)])
        routed = Circuit(5, _route(circuit, (0, 1, 2, 3, 4), line, {}))
        assert check_legal(routed, line)[1]
        far, near = len(line.routes[0, 3][0]), len(line.routes[4, 2][0])
        assert (far, near) == (8, 4)  # distance 3 and distance 2
        gates = routed.gates
        first, second, third = gates[:far], gates[far + 1 : 2 * far + 1], gates[2 * far + 2 : 3 * far + 2]
        assert second == first[::-1] != first
        assert third == first
        assert (gates[far], gates[2 * far + 1]) == (H(2), RZ(0.3, 4))
        rest = gates[3 * far + 2 :]
        assert rest[near] == X(1) and len(rest) == 2 * near + 1
        assert rest[near + 1 :] == rest[:near][::-1] != rest[:near]
        assert np.allclose(routed.unitary(), circuit.unitary())

    def test_far_pair_on_a_long_line_builds_its_route_only(self):
        """A pair's ladders are built on its first lookup, not with every
        other pair's: one CX across a 300-qubit line routes as 4 * 298
        CNOTs and builds one route."""
        line = CouplingGraph.linear(300)
        final, report = transpile(Circuit(2, [CX(1, 2)]), line, mapping=QubitMapping((0, 299)))
        assert final.gate_counts()["cx"] == report.final_counts["cx"] == 1192
        assert report.legal
        assert list(line.routes) == [(0, 299)]
        assert len(line.routes[0, 299][0]) == 1192
        assert list(line.routes) == [(0, 299)]


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

    @pytest.mark.parametrize("mapping", [(-1, 0, 1), (0, 1, 5)])
    def test_mapping_outside_the_device_rejected(self, mapping):
        circuit = build_full_circuit(SecretString.from_string("00"))
        with pytest.raises(ValueError, match="nonexistent physical qubits"):
            transpile(circuit, QUITO, mapping=QubitMapping(mapping))

    @pytest.mark.parametrize("text,cx", [("0110", 478), ("01101", 718), ("011010", 6693)])
    def test_chain_compile_is_pinned(self, text, cx):
        """Identity-mapped onto a line of width n + t, the chain's long CXs
        route as ladders; the final CX count is pinned and the circuit
        still recovers the secret."""
        s = SecretString.from_string(text)
        circuit = build_full_circuit(s)
        width = circuit.width
        final, report = transpile(circuit, CouplingGraph.linear(width), mapping=QubitMapping.identity(width))
        assert final.gate_counts()["cx"] == report.final_counts["cx"] == cx
        assert report.legal
        assert _recovers_secret(final, report.mapping, s)

    def test_stage_records_cover_pipeline(self):
        circuit = build_full_circuit(SecretString.from_string("11"))
        _, report = transpile(circuit, LINEAR3)
        assert [s.name for s in report.stages] == ["input", "map", "route", "rewrite", "optimize"]
        as_dict = report.to_dict()
        assert as_dict["legal_gate_set"] and as_dict["legal_coupling"]


DEMO_COMPILES = [(text, "linear3") for text in ("00", "01", "10", "11")] + [
    (text, "quito") for text in ("00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111")
]


class TestMappingSearch:
    @pytest.mark.parametrize("text,device", DEMO_COMPILES)
    def test_demo_auto_map_is_pinned(self, text, device):
        """The winning mapping, its final circuit's size and every stage total are pinned."""
        s = SecretString.from_string(text)
        final, report = transpile(build_full_circuit(s), CouplingGraph.named(device))
        assert report.mapping == tuple(range(s.n + 1))
        assert final.gate_counts() == report.final_counts == {"x": 2, "z": 0, "h": 0, "sx": 4, "rz": 10, "cx": 11}
        assert final.depth() == report.final_depth == 18
        assert report.sweeps == 2
        assert [(st.name, sum(st.counts.values())) for st in report.stages] == [
            ("input", 21), ("map", 21), ("route", 27), ("rewrite", 35), ("optimize", 27)
        ]
        assert report.legal

    @pytest.mark.parametrize("text,device", [("10", "linear3"), ("01", "quito"), ("110", "quito")])
    def test_explicit_winning_mapping_reproduces_auto(self, text, device):
        circuit = build_full_circuit(SecretString.from_string(text))
        graph = CouplingGraph.named(device)
        auto_final, auto_report = transpile(circuit, graph)
        final, report = transpile(circuit, graph, mapping=QubitMapping(auto_report.mapping))
        assert final == auto_final
        assert report.to_dict() == auto_report.to_dict()

    def test_full_tie_picks_lexicographically_first(self):
        _, report = transpile(Circuit(2, [X(1)]), QUITO)
        assert report.mapping == (0, 1)

    @pytest.mark.parametrize("opt,names", [
        (True, ["input", "map", "route", "rewrite", "optimize"]),
        (False, ["input", "map", "route", "rewrite"]),
    ])
    def test_stage_records_built_for_the_winner_only(self, monkeypatch, opt, names):
        """One record per pass of the winner; the map record reuses the
        input's, since placing keeps gate counts and depth."""
        built = []
        original = StageRecord.of

        def counting(name, circuit):
            built.append(name)
            return original(name, circuit)

        monkeypatch.setattr(StageRecord, "of", counting)
        _, report = transpile(build_full_circuit(SecretString.from_string("101")), QUITO, opt=opt)
        assert built == [name for name in names if name != "map"]
        assert [s.name for s in report.stages] == names

    def test_explicit_compile_takes_one_depth_pass_per_record(self, monkeypatch):
        """input and map share one depth pass: 4 with `opt`, not 5."""
        calls = []
        original = Circuit.depth

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(Circuit, "depth", counting)
        circuit = build_full_circuit(SecretString.from_string("101"))
        _, report = transpile(circuit, QUITO, mapping=QubitMapping.identity(circuit.width))
        assert len(calls) == 4
        assert report.stages[0].depth == report.stages[1].depth == original(circuit)

    @pytest.mark.parametrize("mapping,calls", [(None, 13), (QubitMapping((0, 1, 2, 3)), 1)], ids=["auto", "explicit"])
    def test_each_distinct_routed_circuit_compiled_once(self, monkeypatch, mapping, calls):
        """The auto-map of s=101 onto quito rewrites and optimizes each of
        its 13 distinct relabelled routed circuits once, the winner's
        included; an explicit mapping is compiled once."""
        counts = {"rewrite_to_device": 0, "optimize": 0}
        for name in counts:
            original = getattr(transpile_module, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(transpile_module, name, counting)
        transpile(build_full_circuit(SecretString.from_string("101")), QUITO, mapping=mapping)
        assert counts == {"rewrite_to_device": calls, "optimize": calls}

    def test_search_over_the_limit_refused_before_compiling(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a candidate was routed or compiled")

        monkeypatch.setattr(transpile_module, "_route", fail)
        assert math.perm(27, 4) > AUTO_MAP_LIMIT
        with pytest.raises(ValueError, match="explicit mapping"):
            transpile(Circuit(4, [CX(1, 4)]), CouplingGraph.linear(27))

    @pytest.mark.parametrize("circuit,graph", [
        (build_full_circuit(SecretString.from_string("01")), QUITO),
        (build_full_circuit(SecretString.from_string("101")), QUITO),
        (build_full_circuit(SecretString.from_string("110")), RING6),
        (random_circuit(np.random.default_rng(22), 3, 40), CouplingGraph.linear(5)),
    ], ids=["quito-01", "quito-101", "ring6-110", "line5-random"])
    @pytest.mark.parametrize("opt", [True, False])
    def test_keyed_search_equals_exhaustive_search(self, circuit, graph, opt):
        """Compiling one mapping per relabelled routed circuit picks the
        same mapping, circuit and report as compiling every mapping on its
        own."""
        compiles = {
            physical: transpile(circuit, graph, mapping=QubitMapping(physical), opt=opt)
            for physical in itertools.permutations(range(graph.num_qubits), circuit.width)
        }
        best = min(compiles, key=lambda p: (compiles[p][1].final_counts["cx"], compiles[p][1].final_depth, p))
        want_final, want_report = compiles[best]
        final, report = transpile(circuit, graph, opt=opt)
        assert report.mapping == best
        assert serialize(final) == serialize(want_final)
        assert report.to_dict() == want_report.to_dict()

    def test_search_within_the_limit_accepted(self):
        _, report = transpile(Circuit(4, [CX(1, 2), CX(3, 4)]), CouplingGraph.linear(6))
        assert report.legal and report.final_counts["cx"] == 2

    def test_limit_counts_mappings_not_width(self):
        assert math.perm(7, 5) == AUTO_MAP_LIMIT
        assert transpile(Circuit(5, []), CouplingGraph.linear(7))[1].mapping == (0, 1, 2, 3, 4)
        with pytest.raises(ValueError):
            transpile(Circuit(5, []), CouplingGraph.linear(8))


def test_check_legal_flags():
    ok = Circuit(3, [CX(1, 2), RZ(0.2, 1)])
    bad_edge = Circuit(3, [CX(1, 3)])
    bad_kind = Circuit(3, [H(1)])
    assert check_legal(ok, LINEAR3) == (True, True)
    assert check_legal(bad_edge, LINEAR3) == (True, False)
    assert check_legal(bad_kind, LINEAR3) == (False, True)
