"""Device-constrained compilation.

Pipeline: map logical qubits onto the coupling graph, route non-adjacent
CNOTs through the four-CNOT identity, rewrite into the device gate set
{CX, RZ, SX, X}, then peephole-optimize to a fixed point.  Every pass
preserves the unitary up to global phase and never increases the gate
count.

Physical qubits are 0-based (Q0, Q1, ...); a physical circuit of width P
uses internal qubit p+1 for Qp, so the serialized q[p] is exactly Qp.
"""

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .circuit import CX, RZ, SX, Circuit, Gate

DEVICE_GATES = frozenset({"cx", "rz", "sx", "x"})

ZERO_ANGLE_TOL = 1e-12

MAX_SWEEPS = 50

AUTO_MAP_LIMIT = 2520  # candidate mappings an exhaustive search may compile: P(7, 5)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CouplingGraph:
    num_qubits: int
    edges: frozenset

    def __post_init__(self):
        norm = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        for a, b in norm:
            if a == b or not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"bad edge ({a}, {b}) for {self.num_qubits} qubits")
        if self.num_qubits > 1 and not self._connected():
            raise ValueError("coupling graph must be connected")

    def _connected(self) -> bool:
        seen = {0}
        frontier = deque([0])
        while frontier:
            v = frontier.popleft()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.num_qubits

    def has_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def shortest_path(self, a: int, b: int) -> list[int]:
        if a == b:
            raise ValueError("endpoints must differ")
        prev = {a: None}
        frontier = deque([a])
        while frontier:
            v = frontier.popleft()
            if v == b:
                break
            for w in self.neighbors(v):
                if w not in prev:
                    prev[w] = v
                    frontier.append(w)
        path = [b]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return path[::-1]

    @classmethod
    def linear(cls, n: int) -> "CouplingGraph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def quito(cls) -> "CouplingGraph":
        """The 5-qubit T-shape: Q0-Q1, Q1-Q2, Q1-Q3, Q3-Q4."""
        return cls(5, frozenset({(0, 1), (1, 2), (1, 3), (3, 4)}))

    @classmethod
    def named(cls, name: str) -> "CouplingGraph":
        if name == "linear3":
            return cls.linear(3)
        if name == "quito":
            return cls.quito()
        raise ValueError(f"unknown coupling graph {name!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "CouplingGraph":
        """Load {"qubits": n, "edges": [[a, b], ...]}; raise ValueError for
        anything but a JSON object whose fields have the right types."""
        if not isinstance(data, dict):
            raise ValueError(f"coupling graph must be a JSON object, got {type(data).__name__}")
        qubits, edges = data.get("qubits"), data.get("edges")
        if not _is_int(qubits) or qubits < 1:
            raise ValueError(f"qubits must be a positive integer, got {qubits!r}")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError("edges must be a list of [a, b] integer pairs")
        return cls(qubits, frozenset(tuple(e) for e in edges))

    @classmethod
    def from_json(cls, path: str) -> "CouplingGraph":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True)
class QubitMapping:
    """physical[l-1] is the physical qubit carrying logical qubit l."""

    physical: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "physical", tuple(int(p) for p in self.physical))
        if len(set(self.physical)) != len(self.physical):
            raise ValueError("mapping must be injective")

    def __getitem__(self, logical: int) -> int:
        return self.physical[logical - 1]

    @property
    def width(self) -> int:
        return len(self.physical)

    @classmethod
    def identity(cls, width: int) -> "QubitMapping":
        return cls(tuple(range(width)))


def _route_gates(path: list[int], variant: int) -> list[Gate]:
    """CX from physical `path[0]` to `path[-1]` along a shortest path,
    using only coupled CNOTs.

    Distance 2 uses the four-CNOT identity through the midpoint; longer
    distances recurse on the rest of the path.  The two expansion orders
    are equivalent; alternating them across repeat occurrences exposes
    pair cancellations to the optimizer.
    """
    control, mid, target = path[0], path[1], path[-1]
    if len(path) == 2:
        return [CX(control + 1, target + 1)]
    hop = CX(control + 1, mid + 1)
    rest = _route_gates(path[1:], 0)
    if variant == 0:
        return [hop] + rest + [hop] + rest
    return rest + [hop] + rest + [hop]


def route_cnot(control: int, target: int, graph: CouplingGraph) -> Circuit:
    """Coupling-legal realization of CX(control, target), as a fragment."""
    if control == target:
        raise ValueError("control and target must differ")
    return Circuit(graph.num_qubits, _route_gates(graph.shortest_path(control, target), 0))


def rewrite_to_device(circuit: Circuit) -> Circuit:
    """Rewrite into {CX, RZ, SX, X}: H -> RZ.SX.RZ, Z -> RZ(pi)."""
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind in DEVICE_GATES:
            gates.append(g)
        elif g.kind == "h":
            q = g.qubits[0]
            gates.extend([RZ(math.pi / 2, q), SX(q), RZ(math.pi / 2, q)])
        elif g.kind == "z":
            gates.append(RZ(math.pi, g.qubits[0]))
        else:
            raise ValueError(f"cannot rewrite gate kind {g.kind!r}")
    return Circuit(circuit.width, gates)


# Commutation typing: on each qubit a gate acts diagonally ('d'), as a
# function of X ('x'), or neither.  Two gates commute when they share no
# qubit or match types on every shared qubit.
def _axis(gate: Gate, qubit: int) -> str:
    if gate.kind in ("z", "rz"):
        return "d"
    if gate.kind in ("x", "sx"):
        return "x"
    if gate.kind == "cx":
        return "d" if qubit == gate.qubits[0] else "x"
    return "?"


def _commutes(g1: Gate, g2: Gate) -> bool:
    shared = set(g1.qubits) & set(g2.qubits)
    for q in shared:
        a1, a2 = _axis(g1, q), _axis(g2, q)
        if a1 != a2 or a1 == "?":
            return False
    return True


def _norm_angle(theta: float) -> float:
    """Wrap into (-pi, pi]; changes at most the global phase of RZ."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    elif theta > math.pi:
        theta -= 2.0 * math.pi
    return theta


def _merge_rz(gates: list[Gate]) -> bool:
    """Merge rotation pairs through commuting intermediates; drop zeros."""
    changed = False
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != "rz":
            i += 1
            continue
        q = g.qubits[0]
        if abs(_norm_angle(g.theta)) <= ZERO_ANGLE_TOL:
            del gates[i]
            changed = True
            continue
        merged = False
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if q not in other.qubits:
                continue
            if other.kind == "rz":
                gates[i] = RZ(_norm_angle(g.theta + other.theta), q)
                del gates[j]
                changed = merged = True
                break
            if not _commutes(g, other):
                break
        if not merged:
            i += 1
    return changed


def _cancel_cx(gates: list[Gate]) -> bool:
    """Cancel identical CNOT pairs through commuting intermediates."""
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
                break
            if not _commutes(g, other):
                break
        if not cancelled:
            i += 1
    return changed


def _canonicalize_runs(gates: list[Gate]) -> bool:
    """Resynthesize contiguous {CX(c,t), RZ(t)} words.

    Repeated exchange of target rotations across CNOT pairs sorts the
    word into at most [RZ, CX, RZ, CX] (even CNOT parity) or
    [RZ, CX, RZ] (odd parity); applied only when strictly shorter.
    """
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
        e, o = _norm_angle(even), _norm_angle(odd)
        new_run: list[Gate] = []
        if abs(e) > ZERO_ANGLE_TOL:
            new_run.append(RZ(e, t))
        if k % 2 == 0:
            if abs(o) > ZERO_ANGLE_TOL:
                new_run.extend([CX(c, t), RZ(o, t), CX(c, t)])
        else:
            new_run.append(CX(c, t))
            if abs(o) > ZERO_ANGLE_TOL:
                new_run.append(RZ(o, t))
        if len(new_run) < len(run):
            gates[start:end] = new_run
            changed = True
            i = start + len(new_run)
        else:
            i = end
    return changed


@dataclass(frozen=True)
class StageRecord:
    name: str
    counts: dict
    depth: int

    @classmethod
    def of(cls, name: str, circuit: Circuit) -> "StageRecord":
        return cls(name, circuit.gate_counts(), circuit.depth())


@dataclass
class PassReport:
    stages: list[StageRecord] = field(default_factory=list)
    mapping: tuple[int, ...] | None = None
    legal_gate_set: bool | None = None
    legal_coupling: bool | None = None
    sweeps: int | None = None

    @property
    def final_counts(self) -> dict:
        return self.stages[-1].counts

    @property
    def final_depth(self) -> int:
        return self.stages[-1].depth

    @property
    def legal(self) -> bool:
        return bool(self.legal_gate_set) and bool(self.legal_coupling)

    def to_dict(self) -> dict:
        return {
            "stages": [
                {"name": s.name, "counts": s.counts, "depth": s.depth} for s in self.stages
            ],
            "mapping": list(self.mapping) if self.mapping is not None else None,
            "legal_gate_set": self.legal_gate_set,
            "legal_coupling": self.legal_coupling,
            "sweeps": self.sweeps,
        }


def optimize(circuit: Circuit) -> tuple[Circuit, PassReport]:
    """Fixed-point peephole pass; gate count never increases.

    The report carries only the sweep count; its `stages` is empty.
    """
    gates = list(circuit.gates)
    for sweep in range(1, MAX_SWEEPS + 1):
        changed = _cancel_cx(gates)
        changed |= _merge_rz(gates)
        changed |= _canonicalize_runs(gates)
        if not changed:
            break
    else:
        raise RuntimeError(f"peephole pass did not converge in {MAX_SWEEPS} sweeps")
    gates = [RZ(_norm_angle(g.theta), g.qubits[0]) if g.kind == "rz" else g for g in gates]
    return Circuit(circuit.width, gates), PassReport(sweeps=sweep)


def check_legal(circuit: Circuit, graph: CouplingGraph) -> tuple[bool, bool]:
    """(gate set legal, every CX on a coupling edge)."""
    kinds_ok = all(g.kind in DEVICE_GATES for g in circuit.gates)
    edges_ok = all(
        graph.has_edge(g.qubits[0] - 1, g.qubits[1] - 1)
        for g in circuit.gates
        if g.kind == "cx"
    )
    return kinds_ok, edges_ok


def _route_pass(circuit: Circuit, graph: CouplingGraph) -> Circuit:
    gates: list[Gate] = []
    occurrence: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if g.kind != "cx":
            gates.append(g)
            continue
        a, b = g.qubits[0] - 1, g.qubits[1] - 1
        if graph.has_edge(a, b):
            gates.append(g)
            continue
        seen = occurrence.get((a, b), 0)
        occurrence[(a, b)] = seen + 1
        gates.extend(_route_gates(graph.shortest_path(a, b), seen % 2))
    return Circuit(circuit.width, gates)


def _stages(circuit: Circuit, graph: CouplingGraph, mapping: QubitMapping, opt: bool):
    """The (name, circuit) after each pass, and the optimizer's sweep count."""
    mapped = circuit.remap({l: mapping[l] + 1 for l in range(1, circuit.width + 1)}, graph.num_qubits)
    routed = _route_pass(mapped, graph)
    rewritten = rewrite_to_device(routed)
    stages = [("input", circuit), ("map", mapped), ("route", routed), ("rewrite", rewritten)]
    if not opt:
        return stages, None
    final, opt_report = optimize(rewritten)
    return stages + [("optimize", final)], opt_report.sweeps


def _report(stages, sweeps, mapping: QubitMapping, graph: CouplingGraph) -> tuple[Circuit, PassReport]:
    final = stages[-1][1]
    records = [StageRecord.of(name, c) for name, c in stages]
    return final, PassReport(records, mapping.physical, *check_legal(final, graph), sweeps)


def transpile(
    circuit: Circuit,
    graph: CouplingGraph,
    mapping: QubitMapping | None = None,
    opt: bool = True,
) -> tuple[Circuit, PassReport]:
    """Map, route, rewrite and optimize a circuit onto the device.

    With no mapping given, every injective assignment is compiled (at
    most AUTO_MAP_LIMIT of them) and the one with the lowest final CX
    count wins; ties break by depth, then lexicographically.  Stage
    records are built for the winner only.
    """
    if circuit.width > graph.num_qubits:
        raise ValueError(
            f"circuit width {circuit.width} exceeds device size {graph.num_qubits}"
        )
    if mapping is not None:
        if mapping.width != circuit.width:
            raise ValueError("mapping width does not match circuit width")
        if any(p >= graph.num_qubits for p in mapping.physical):
            raise ValueError("mapping targets nonexistent physical qubits")
        return _report(*_stages(circuit, graph, mapping, opt), mapping, graph)
    tries = math.perm(graph.num_qubits, circuit.width)
    if tries > AUTO_MAP_LIMIT:
        raise ValueError(
            f"auto-mapping would compile {tries} mappings, over the limit of "
            f"{AUTO_MAP_LIMIT}; pass an explicit mapping"
        )

    def score(candidate):
        mapping, (stages, _) = candidate
        final = stages[-1][1]
        return final.gate_counts()["cx"], final.depth(), mapping.physical

    perms = itertools.permutations(range(graph.num_qubits), circuit.width)
    candidates = ((m, _stages(circuit, graph, m, opt)) for m in map(QubitMapping, perms))
    best, (stages, sweeps) = min(candidates, key=score)
    return _report(stages, sweeps, best, graph)
