import hashlib
import importlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from lcplearn.transpile import AUTO_MAP_LIMIT, StageRecord, _placement_key, _route, check_legal
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


# The passes as they were before their commutation tests were inlined:
# the reference `optimize` must match rewrite for rewrite.
def reference_axis(gate, qubit):
    """On `qubit`, `gate` acts diagonally ('d'), as a function of X ('x'),
    or neither ('?')."""
    if gate.kind in ("z", "rz"):
        return "d"
    if gate.kind in ("x", "sx"):
        return "x"
    if gate.kind == "cx":
        return "d" if qubit == gate.qubits[0] else "x"
    return "?"


def reference_commutes(g1, g2):
    """Gates commute when they share no qubit or match types on every shared qubit."""
    for q in set(g1.qubits) & set(g2.qubits):
        a1, a2 = reference_axis(g1, q), reference_axis(g2, q)
        if a1 != a2 or a1 == "?":
            return False
    return True


def reference_merge_rz(gates):
    norm, tol = transpile_module._norm_angle, transpile_module.ZERO_ANGLE_TOL
    changed = False
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != "rz":
            i += 1
            continue
        q = g.qubits[0]
        if abs(norm(g.theta)) <= tol:
            del gates[i]
            changed = True
            continue
        merged = False
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if q not in other.qubits:
                continue
            if other.kind == "rz":
                gates[i] = RZ(norm(g.theta + other.theta), q)
                del gates[j]
                changed = merged = True
                break
            if not reference_commutes(g, other):
                break
        if not merged:
            i += 1
    return changed


def reference_cancel_cx(gates):
    changed = False
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != "cx":
            i += 1
            continue
        cancelled = False
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if not set(g.qubits) & set(other.qubits):
                continue
            if other.kind == "cx" and other.qubits == g.qubits:
                del gates[j]
                del gates[i]
                changed = cancelled = True
                # resume at the last CX before the deleted pair
                while i > 0 and gates[i - 1].kind != "cx":
                    i -= 1
                i = max(i - 1, 0)
                break
            if not reference_commutes(g, other):
                break
        if not cancelled:
            i += 1
    return changed


def reference_canonicalize_runs(gates):
    norm, tol = transpile_module._norm_angle, transpile_module.ZERO_ANGLE_TOL
    changed = False
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != "cx":
            i += 1
            continue
        c, t = g.qubits
        start = i
        while start > 0 and gates[start - 1].kind == "rz" and gates[start - 1].qubits[0] == t:
            start -= 1
        end = i + 1
        while end < len(gates):
            nxt = gates[end]
            if nxt.kind == "cx" and nxt.qubits == (c, t):
                end += 1
            elif nxt.kind == "rz" and nxt.qubits[0] == t:
                end += 1
            else:
                break
        run = gates[start:end]
        k = sum(1 for h in run if h.kind == "cx")
        if k < 2:
            i = end
            continue
        even = odd = 0.0
        seen = 0
        for h in run:
            if h.kind == "cx":
                seen += 1
            elif seen % 2 == 0:
                even += h.theta
            else:
                odd += h.theta
        e, o = norm(even), norm(odd)
        new_run = []
        if abs(e) > tol:
            new_run.append(RZ(e, t))
        if k % 2 == 0:
            if abs(o) > tol:
                new_run.extend([CX(c, t), RZ(o, t), CX(c, t)])
        else:
            new_run.append(CX(c, t))
            if abs(o) > tol:
                new_run.append(RZ(o, t))
        if len(new_run) < len(run):
            gates[start:end] = new_run
            changed = True
            i = start + len(new_run)
        else:
            i = end
    return changed


REFERENCE_PASSES = (reference_cancel_cx, reference_merge_rz, reference_canonicalize_runs)


def reference_optimize(circuit, fired):
    """(final gates, sweeps) of the reference passes; adds to `fired` the
    name of every pass that rewrote something."""
    gates = list(circuit.gates)
    for sweep in range(1, transpile_module.MAX_SWEEPS + 1):
        changed = False
        for rewrite in REFERENCE_PASSES:
            if rewrite(gates):
                fired.add(rewrite.__name__)
                changed = True
        if not changed:
            break
    norm = transpile_module._norm_angle
    return [RZ(norm(g.theta), g.qubits[0]) if g.kind == "rz" else g for g in gates], sweep


def exact(gates):
    """Gates as (kind, qubits, angle bits): equal only when serialized alike."""
    return [(g.kind, g.qubits, None if g.theta is None else g.theta.hex()) for g in gates]


def peephole_circuit(rng, width):
    """Random gates of every kind, CX and RZ heavy, CXs mostly between
    neighbours and RZ angles often multiples of pi/2, so that every
    rewrite of the peephole passes fires."""
    gates = []
    for _ in range(int(rng.integers(1, 80))):
        kind = str(rng.choice(["x", "z", "h", "sx", "rz", "rz", "cx", "cx", "cx"]))
        if kind == "cx":
            if rng.random() < 0.8:
                a = int(rng.integers(1, width))
                pair = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
            else:
                pair = tuple(int(q) + 1 for q in rng.choice(width, size=2, replace=False))
            gates.append(CX(*pair))
        elif kind == "rz":
            theta = rng.uniform(-4.0, 4.0) if rng.random() < 0.5 else int(rng.integers(-4, 5)) * math.pi / 2
            gates.append(RZ(float(theta), int(rng.integers(1, width + 1))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, width + 1)),)))
    return Circuit(width, gates)


# every gate over the six kinds on three qubits
GATES_ON_3 = [
    Gate(kind, (q,), 0.5 if kind == "rz" else None) for kind in ("x", "z", "h", "sx", "rz") for q in (1, 2, 3)
] + [CX(a, b) for a, b in itertools.permutations((1, 2, 3), 2)]


class TestPeepholeAgainstReference:
    @pytest.mark.parametrize("first", [g for g in GATES_ON_3 if g.kind in ("cx", "rz")], ids=repr)
    def test_inlined_commutation_agrees_with_the_reference(self, first):
        """A CX cancels, and an RZ merges, with its copy across `other`
        exactly when the reference says `first` and `other` commute;
        `other` runs over every gate on up to three qubits."""
        rewrite = transpile_module._cancel_cx if first.kind == "cx" else transpile_module._merge_rz
        second = first if first.kind == "cx" else RZ(0.25, first.qubits[0])
        for other in GATES_ON_3:
            if other.kind == first.kind and other.qubits == first.qubits:
                continue  # the pair meets directly, with nothing between
            gates = [first, other, second]
            rewrite(gates)
            assert (len(gates) < 3) == reference_commutes(first, other), other

    def test_optimize_matches_the_reference_passes(self):
        """Same final gates, angle bits included, and the same sweep count
        on 300 random circuits of widths 2 to 6, each as drawn and after
        the device rewrite."""
        rng = np.random.default_rng(1710)
        fired = set()
        taking = []  # sweeps per compile
        for k in range(300):
            drawn = peephole_circuit(rng, 2 + k % 5)
            for circuit in (drawn, rewrite_to_device(drawn)):
                out, report = optimize(circuit)
                want, sweeps = reference_optimize(circuit, fired)
                assert exact(out.gates) == exact(want)
                assert report.sweeps == sweeps
                taking.append(sweeps)
        assert fired == {rewrite.__name__ for rewrite in REFERENCE_PASSES}
        # a draw whose second sweep still rewrites takes the full-sweep path
        # after a span check that changed
        assert taking.count(3) >= 1

    def test_reference_passes_agree_on_the_n6_chain(self):
        """The routed and rewritten n = 6 chain (s = 011010, identity-mapped
        onto a 9-qubit line) gives the reference's gates, angle bits
        included, after every pass of every sweep, so a divergence names
        its pass; `optimize` then returns them in as many sweeps."""
        circuit = build_full_circuit(SecretString.from_string("011010"))
        graph = CouplingGraph.linear(circuit.width)
        rewritten = rewrite_to_device(Circuit(circuit.width, _route(circuit, tuple(range(circuit.width)), graph, {})))
        passes = (transpile_module._cancel_cx, transpile_module._merge_rz, transpile_module._canonicalize_runs)
        gates, ref = list(rewritten.gates), list(rewritten.gates)
        changed = True
        while changed:
            changed = False
            for rewrite, reference in zip(passes, REFERENCE_PASSES):
                fired = rewrite(gates)
                assert fired == reference(ref), rewrite.__name__
                assert exact(gates) == exact(ref), rewrite.__name__
                changed |= fired
        out, report = optimize(rewritten)
        want, sweeps = reference_optimize(rewritten, set())
        assert exact(out.gates) == exact(want)
        assert report.sweeps == sweeps == 2


PASS_NAMES = ("_cancel_cx", "_merge_rz", "_canonicalize_runs")


def spy_on_passes(monkeypatch):
    """Pass name -> the lengths of the gate lists it is called on, in order."""
    lengths = {name: [] for name in PASS_NAMES}
    for name in PASS_NAMES:

        def spy(gates, marks=None, rewrite=getattr(transpile_module, name), seen=lengths[name]):
            seen.append(len(gates))
            return rewrite(gates, marks)

        monkeypatch.setattr(transpile_module, name, spy)
    return lengths


class TestLocalFixedPoint:
    """A sweep that rewrote something is confirmed by running the passes
    on spans around its edits; a full sweep runs again only when a span
    changes, and `sweeps` counts the confirmation either way."""

    def test_chain_runs_each_pass_once_over_the_whole_list(self, monkeypatch):
        """The routed and rewritten n = 6 chain (s = 011010, identity-mapped
        onto a 9-qubit line): one full sweep, then the passes on spans
        holding under a twentieth of the list."""
        circuit = build_full_circuit(SecretString.from_string("011010"))
        graph = CouplingGraph.linear(circuit.width)
        rewritten = rewrite_to_device(Circuit(circuit.width, _route(circuit, tuple(range(circuit.width)), graph, {})))
        want, sweeps = reference_optimize(rewritten, set())
        lengths = spy_on_passes(monkeypatch)
        out, report = optimize(rewritten)
        assert exact(out.gates) == exact(want)
        assert report.sweeps == sweeps == 2
        for name, seen in lengths.items():
            assert len([n for n in seen if n >= len(out)]) == 1, name
            spans = [n for n in seen if n < len(out)]
            assert spans and sum(spans) < len(out) // 20, name

    def test_rewrite_far_from_the_edit_that_enables_it(self, monkeypatch):
        """The rotations merge to zero and are dropped, which lets the CXs
        around them cancel.  The CX that cancels sits 200 gates before
        the edit, so the span reaches back to it, changes, and the full
        sweep runs again."""
        circuit = Circuit(4, [CX(1, 2)] + [H(3), H(4)] * 100 + [RZ(0.5, 2), RZ(-0.5, 2), CX(1, 2)])
        want, sweeps = reference_optimize(circuit, set())
        lengths = spy_on_passes(monkeypatch)
        out, report = optimize(circuit)
        assert exact(out.gates) == exact(want) == exact([H(3), H(4)] * 100)
        assert report.sweeps == sweeps == 3
        # sweep 1, the span check over all 202 gates left, then sweep 2
        assert lengths["_cancel_cx"][:3] == [204, 202, 202]
        assert lengths["_merge_rz"] == [204, 200]

    def test_sweep_cap_boundary_is_unchanged(self, monkeypatch):
        """A circuit that settles in 3 sweeps is refused under a cap of 2
        and compiled under a cap of 3, as the full loop did: a span check
        never runs after the last sweep the cap allows."""
        circuit = Circuit(3, [CX(1, 2), X(3), RZ(0.5, 2), RZ(-0.5, 2), CX(1, 2)])
        out, report = optimize(circuit)
        assert out.gates == (X(3),) and report.sweeps == 3
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 2)
        with pytest.raises(ValueError, match=r"needs more than MAX_SWEEPS = 2 sweeps"):
            optimize(circuit)
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 3)
        assert optimize(circuit)[1].sweeps == 3
        merge = Circuit(1, [RZ(0.5, 1), RZ(0.5, 1)])
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match=r"needs more than MAX_SWEEPS = 1 sweeps"):
            optimize(merge)
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 2)
        assert optimize(merge)[1].sweeps == 2

    def test_settled_agrees_with_one_more_full_sweep(self):
        """After every sweep that rewrote something, on 300 random circuits
        as drawn and after the device rewrite, `_settled` holds exactly
        when a sweep of the reference passes would change nothing; the
        marks stay one per gate plus the slot before gate 0."""
        rng = np.random.default_rng(29)
        verdicts = []
        for k in range(300):
            drawn = peephole_circuit(rng, 2 + k % 5)
            for circuit in (drawn, rewrite_to_device(drawn)):
                gates = list(circuit.gates)
                while True:
                    marks = [0] * (len(gates) + 1)
                    changed = transpile_module._cancel_cx(gates, marks) | transpile_module._merge_rz(gates, marks)
                    resynthesized = transpile_module._canonicalize_runs(gates, marks)
                    if not changed | resynthesized:
                        break
                    assert len(marks) == len(gates) + 1
                    copy = list(gates)
                    still = any([rewrite(copy) for rewrite in REFERENCE_PASSES])
                    verdicts.append(transpile_module._settled(gates, marks, resynthesized))
                    assert verdicts[-1] == (not still)
        assert True in verdicts and False in verdicts


class TestSharedGates:
    """Gates are immutable values, so the compile builds one only where it
    keeps a new gate and otherwise shares the objects it already has."""

    @staticmethod
    def forbid_gate_builds(monkeypatch):
        def fail(*args):
            raise AssertionError("a gate was built")

        for name in ("CX", "RZ", "SX", "Gate"):
            monkeypatch.setattr(transpile_module, name, fail)

    def test_run_it_cannot_shorten_builds_no_gate(self, monkeypatch):
        gates = [CX(1, 2), RZ(0.3, 2), CX(1, 2), RZ(0.4, 2)]
        before = list(gates)
        self.forbid_gate_builds(monkeypatch)
        assert not transpile_module._canonicalize_runs(gates)
        assert all(a is b for a, b in zip(gates, before, strict=True))

    def test_identity_placement_keeps_the_input_gates(self, monkeypatch):
        circuit = Circuit(3, [H(1), CX(1, 3), RZ(0.3, 3), X(2), CX(1, 3), SX(1), Z(2)])
        graph = CouplingGraph.linear(3)
        _route(circuit, (0, 1, 2), graph, {})  # builds both ladders of the (0, 2) pair
        self.forbid_gate_builds(monkeypatch)
        routed = _route(circuit, (0, 1, 2), graph, {})
        singles = [g for g in circuit.gates if g.kind != "cx"]
        assert all(a is b for a, b in zip((g for g in routed if g.kind != "cx"), singles, strict=True))

    def test_hadamards_on_one_qubit_share_their_expansion(self):
        out = rewrite_to_device(Circuit(2, [H(1), CX(1, 2), H(1), H(2)])).gates
        assert all(a is b for a, b in zip(out[0:3], out[4:7], strict=True))
        assert out[0] is out[2]
        assert out[7:] == (RZ(math.pi / 2, 2), SX(2), RZ(math.pi / 2, 2))


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


@st.composite
def record_circuits(draw):
    """A circuit of up to 60 gates of all six kinds on 1..5 qubits."""
    width = draw(st.integers(1, 5), label="width")
    kinds = ["x", "z", "h", "sx", "rz"] + (["cx"] if width > 1 else [])
    qubit = st.integers(1, width)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=60), label="kinds"):
        if kind == "cx":
            gates.append(CX(*draw(st.lists(qubit, min_size=2, max_size=2, unique=True))))
        elif kind == "rz":
            gates.append(RZ(draw(st.floats(-math.pi, math.pi)), draw(qubit)))
        else:
            gates.append(Gate(kind, (draw(qubit),)))
    return Circuit(width, gates)


class TestStageRecords:
    """The route and rewrite records' counts are derived from the input's, not scanned; each record
    must still describe its stage's circuit, and the legality flags the final circuit."""

    @given(
        circuit=record_circuits(),
        device=st.sampled_from(["quito", "line", "ring6"]),
        order=st.one_of(st.none(), st.permutations(range(6))),
    )
    @example(
        circuit=Circuit(3, [SX(1), H(1), RZ(0.3, 1), Z(2), X(2), H(2), CX(1, 3), Z(3), SX(3), H(3)]),
        device="quito",
        order=[4, 3, 1, 0, 2, 5],
    )
    @settings(max_examples=150, deadline=None)
    def test_records_match_the_stage_circuits(self, circuit, device, order):
        """Auto-mapped (no order) or mapped onto the first qubits of `order` on the device."""
        graph = {"quito": QUITO, "line": CouplingGraph.linear(circuit.width), "ring6": RING6}[device]
        mapping = None if order is None else QubitMapping([p for p in order if p < graph.num_qubits][: circuit.width])
        final, report = transpile(circuit, graph, mapping)
        routed = Circuit(graph.num_qubits, _route(circuit, report.mapping, graph, {}))
        stages = [circuit, circuit, routed, rewrite_to_device(routed), final]
        assert [(r.counts, r.depth) for r in report.stages] == [(c.gate_counts(), c.depth()) for c in stages]
        assert (report.legal_gate_set, report.legal_coupling) == check_legal(final, graph)


DEMO_COMPILES = [(text, "linear3") for text in ("00", "01", "10", "11")] + [
    (text, "quito") for text in ("00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111")
]


CHAIN_SECRETS = ("0110", "1011", "0001", "01101", "10010", "11100", "011010", "100111", "001011")

# SHA-256 of the compiles below, recorded before the peephole passes
# inlined their commutation tests; a compiler change that claims the
# same output keeps it.
COMPILE_DIGEST = "d7cd387333b0f780e1940d74bbd58aec3c32ba6c1675cba026429fb7e06c4b25"


def test_compile_output_is_pinned_by_digest():
    """The serialized final circuit and the report JSON of every demo
    auto-map and of nine identity-mapped chains (n = 4..6) hash to the
    recorded digest."""
    compiles = [
        transpile(build_full_circuit(SecretString.from_string(text)), CouplingGraph.named(device))
        for text, device in DEMO_COMPILES
    ]
    for text in CHAIN_SECRETS:
        circuit = build_full_circuit(SecretString.from_string(text))
        identity = QubitMapping.identity(circuit.width)
        compiles.append(transpile(circuit, CouplingGraph.linear(circuit.width), mapping=identity))
    digest = hashlib.sha256()
    for final, report in compiles:
        digest.update(serialize(final).encode())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == COMPILE_DIGEST


def reference_relabelled(gates):
    """The search key before candidates were keyed by placement: the routed
    gates' kinds, and their qubits relabelled 0, 1, ... in order of first
    appearance."""
    qubits = list(itertools.chain.from_iterable(g.qubits for g in gates))
    label = {q: i for i, q in enumerate(dict.fromkeys(qubits))}
    return tuple(g.kind for g in gates), tuple(map(label.__getitem__, qubits))


KEYED_CASES = [
    (build_full_circuit(SecretString.from_string("01")), QUITO),
    (build_full_circuit(SecretString.from_string("101")), QUITO),
    (build_full_circuit(SecretString.from_string("110")), RING6),
    (random_circuit(np.random.default_rng(22), 3, 40), CouplingGraph.linear(5)),
    (random_circuit(np.random.default_rng(26), 5, 40), QUITO),  # 35 gates, 5 CX pairs, 60 keys
    # paths of lengths 2 and 3 cover the same five vertices as 3 and 2
    (Circuit(4, [CX(1, 2), CX(3, 4)]), QUITO),
]
KEYED_IDS = ["quito-01", "quito-101", "ring6-110", "line5-random"]


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

    def test_stage_records_built_for_the_winner_only(self, monkeypatch):
        """One record per pass of the winner, and only the input and the
        final circuit are scanned: the map record reuses the input's, since
        placing keeps gate counts and depth, and the route and rewrite
        counts follow from the input's by arithmetic."""
        built = []
        original = StageRecord.of

        def counting(name, circuit):
            built.append(name)
            return original(name, circuit)

        monkeypatch.setattr(StageRecord, "of", counting)
        _, report = transpile(build_full_circuit(SecretString.from_string("101")), QUITO)
        assert built == ["input", "optimize"]
        assert [s.name for s in report.stages] == ["input", "map", "route", "rewrite", "optimize"]

    def test_explicit_compile_takes_one_depth_pass_per_record(self, monkeypatch):
        """input and map share one depth pass: 4 passes for 5 records."""
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
        """The auto-map of s=101 onto quito routes, rewrites and optimizes
        each of its 13 distinct relabelled routed circuits once, the
        winner's included, out of 120 mappings; an explicit mapping is
        compiled once."""
        counts = {"_route": 0, "rewrite_to_device": 0, "optimize": 0}
        for name in counts:
            original = getattr(transpile_module, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(transpile_module, name, counting)
        transpile(build_full_circuit(SecretString.from_string("101")), QUITO, mapping=mapping)
        assert counts == {"_route": calls, "rewrite_to_device": calls, "optimize": calls}

    def test_search_over_the_limit_refused_before_compiling(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a candidate was routed or compiled")

        monkeypatch.setattr(transpile_module, "_route", fail)
        assert math.perm(27, 4) > AUTO_MAP_LIMIT
        with pytest.raises(ValueError, match="explicit mapping"):
            transpile(Circuit(4, [CX(1, 4)]), CouplingGraph.linear(27))

    @pytest.mark.parametrize("circuit,graph", KEYED_CASES[:4], ids=KEYED_IDS)
    def test_keyed_search_equals_exhaustive_search(self, circuit, graph):
        """Compiling one mapping per relabelled routed circuit picks the
        same mapping, circuit and report as compiling every mapping on its
        own."""
        compiles = {
            physical: transpile(circuit, graph, mapping=QubitMapping(physical))
            for physical in itertools.permutations(range(graph.num_qubits), circuit.width)
        }
        best = min(compiles, key=lambda p: (compiles[p][1].final_counts["cx"], compiles[p][1].final_depth, p))
        want_final, want_report = compiles[best]
        final, report = transpile(circuit, graph)
        assert report.mapping == best
        assert serialize(final) == serialize(want_final)
        assert report.to_dict() == want_report.to_dict()

    @pytest.mark.parametrize("circuit,graph", KEYED_CASES, ids=KEYED_IDS + ["quito-random5", "quito-two-pairs"])
    def test_placement_key_groups_candidates_as_the_routed_key_does(self, monkeypatch, circuit, graph):
        """Keyed before routing, the candidates fall into the groups that
        keying each routed circuit (`reference_relabelled`) forms, and the
        search routes exactly the first candidate of each group, in order."""
        items = list(dict.fromkeys(tuple(q - 1 for q in g.qubits) for g in circuit.gates))
        placed, routed = {}, {}
        for physical in itertools.permutations(range(graph.num_qubits), circuit.width):
            placed.setdefault(_placement_key(items, physical, graph.routes), []).append(physical)
            routed.setdefault(reference_relabelled(_route(circuit, physical, graph, {})), []).append(physical)
        assert sorted(placed.values()) == sorted(routed.values())
        firsts = []
        original = transpile_module._route

        def recording(circuit, physical, graph, mapped):
            firsts.append(physical)
            return original(circuit, physical, graph, mapped)

        monkeypatch.setattr(transpile_module, "_route", recording)
        transpile(circuit, graph)
        assert firsts == [group[0] for group in routed.values()]

    def test_second_auto_map_on_a_graph_searches_no_path(self, monkeypatch):
        """The key reads each pair's path from the graph's route table: the
        first auto-map onto a fresh quito runs one breadth-first search per
        ordered pair, and later ones on the same graph run none."""
        quito = CouplingGraph.quito()
        searched = []
        original = CouplingGraph._bfs

        def counting(self, root):
            searched.append(root)
            return original(self, root)

        monkeypatch.setattr(CouplingGraph, "_bfs", counting)
        circuit = build_full_circuit(SecretString.from_string("101"))
        transpile(circuit, quito)
        assert len(searched) == len(quito.routes.paths) == 5 * 4
        searched.clear()
        transpile(circuit, quito)
        transpile(build_full_circuit(SecretString.from_string("110")), quito)
        assert searched == []

    def test_search_within_the_limit_accepted(self):
        _, report = transpile(Circuit(4, [CX(1, 2), CX(3, 4)]), CouplingGraph.linear(6))
        assert report.legal and report.final_counts["cx"] == 2

    def test_widest_searches_within_the_limit_fit_the_byte_key(self):
        """A key's vertex counts and labels are bytes: a width-2 search on a
        50-line (2450 mappings, paths of up to 50 vertices) and a width-1
        search on a 2520-line both run; a 51-line is over the limit."""
        _, report = transpile(Circuit(2, [CX(1, 2)]), CouplingGraph.linear(50))
        assert report.mapping == (0, 1) and report.final_counts["cx"] == 1
        assert math.perm(51, 2) > AUTO_MAP_LIMIT
        _, report = transpile(Circuit(1, [X(1)]), CouplingGraph.linear(AUTO_MAP_LIMIT))
        assert report.mapping == (0,)

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
