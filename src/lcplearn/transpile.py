"""Device-constrained compilation.

Pipeline: map logical qubits onto the coupling graph, route each
non-adjacent CNOT as a CNOT ladder along a shortest path (4(d-1) CNOTs
at distance d), rewrite into the device gate set {CX, RZ, SX, X}, then
peephole-optimize to a fixed point.  Every pass preserves the unitary
up to global phase and never increases the gate count.  `transpile`
runs the whole pipeline on each of a list of candidate mappings, the
given mapping alone or every injective one, and returns the best
candidate's compile.  A search keys every injective mapping by where
routing places its gates, in one array pass whose memory grows as
mappings times key length, and compiles only the first mapping of each
key.  The report counts the gates of the input and final circuits only:
routing changes only CXs and rewriting only H and Z, so the route and
rewrite counts follow by arithmetic (their depths still scan the stage
circuits).

Physical qubits are 0-based (Q0, Q1, ...); a physical circuit of width P
uses internal qubit p+1 for Qp, so the serialized q[p] is exactly Qp.
"""

import itertools
import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuit import _KIND, CX, RZ, SX, Circuit, Gate

DEVICE_GATES = frozenset({"cx", "rz", "sx", "x"})

ZERO_ANGLE_TOL = 1e-12

MAX_SWEEPS = 50

AUTO_MAP_LIMIT = 2520  # candidate mappings an exhaustive search may compile: P(7, 5); keys fit 16 bits under it


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CouplingGraph:
    num_qubits: int
    edges: frozenset

    def __post_init__(self):
        norm = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        adjacent = {v: [] for v in range(self.num_qubits)}
        for a, b in norm:
            if a == b or not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"bad edge ({a}, {b}) for {self.num_qubits} qubits")
            adjacent[a].append(b)
            adjacent[b].append(a)
        # each vertex's neighbours in sorted order, outside the compared fields
        object.__setattr__(self, "_adjacent", {v: sorted(ws) for v, ws in adjacent.items()})
        if self.num_qubits > 1 and len(self._bfs(0)) != self.num_qubits:
            raise ValueError("coupling graph must be connected")

    def _bfs(self, root: int) -> dict:
        """Each vertex reachable from `root` -> its predecessor on a
        breadth-first search that visits neighbours in sorted order."""
        prev = {root: None}
        frontier = deque([root])
        while frontier:
            v = frontier.popleft()
            for w in self._adjacent[v]:
                if w not in prev:
                    prev[w] = v
                    frontier.append(w)
        return prev

    def has_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def shortest_path(self, a: int, b: int) -> list[int]:
        for v in (a, b):
            if not 0 <= v < self.num_qubits:
                raise ValueError(f"qubit {v} is not on this {self.num_qubits}-qubit graph")
        if a == b:
            raise ValueError("endpoints must differ")
        prev = self._bfs(a)
        path = [b]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return path[::-1]

    @cached_property
    def routes(self) -> "_RouteTable":
        """(control, target) -> the two ladders realizing that CX, each
        pair's built on its first lookup (see `_RouteTable`)."""
        return _RouteTable(self)

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
        if qubits > len(edges) + 1:  # refused before any per-qubit allocation
            raise ValueError(f"{qubits} qubits cannot be connected by {len(edges)} edges")
        return cls(qubits, frozenset(tuple(e) for e in edges))

    @classmethod
    def from_json(cls, path: str) -> "CouplingGraph":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class _RouteTable(dict):
    """(control, target) -> two coupling-legal realizations of that CX,
    built on the pair's first lookup; a pair off the graph raises
    ValueError.

    A shortest path v0..vd becomes a ladder of CX(v_i, v_{i+1}) over four
    runs: i = 0..d-1, d-2..0, 1..d-1, d-2..1, which is 4(d-1) CNOTs for
    d >= 2 (the four-CNOT identity at d = 2) and one CNOT at d = 1.  The
    second realization is the ladder reversed, the same CX since every
    gate is a self-inverse CX.  Routing reuses these gates as they are.
    """

    def __init__(self, graph: CouplingGraph):
        super().__init__()
        self.graph = graph
        self.paths: dict[tuple[int, int], tuple[int, ...]] = {}  # pair -> its ladders' path

    def __missing__(self, pair: tuple[int, int]) -> tuple:
        hops = [CX(a + 1, b + 1) for a, b in itertools.pairwise(self.path(pair))]
        ladder = tuple(hops + hops[-2::-1] + hops[1:] + hops[-2:0:-1])
        self[pair] = ladder, ladder[::-1]
        return self[pair]

    def path(self, pair: tuple[int, int]) -> tuple[int, ...]:
        if pair not in self.paths:
            self.paths[pair] = tuple(self.graph.shortest_path(*pair))
        return self.paths[pair]


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


def rewrite_to_device(circuit: Circuit) -> Circuit:
    """Rewrite into {CX, RZ, SX, X}: H -> RZ.SX.RZ, Z -> RZ(pi)."""
    gates: list[Gate] = []
    expansions: dict[int, tuple[Gate, Gate, Gate]] = {}  # qubit -> its H's shared expansion
    for g in circuit.gates:
        if g.kind in DEVICE_GATES:
            gates.append(g)
        elif g.kind == "h":
            q = g.qubits[0]
            if q not in expansions:
                rz = RZ(math.pi / 2, q)
                expansions[q] = rz, SX(q), rz
            gates.extend(expansions[q])
        elif g.kind == "z":
            gates.append(RZ(math.pi, g.qubits[0]))
        else:
            raise ValueError(f"cannot rewrite gate kind {g.kind!r}")
    return Circuit(circuit.width, gates)


def _norm_angle(theta: float) -> float:
    """Wrap into (-pi, pi]; changes at most the global phase of RZ."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    elif theta > math.pi:
        theta -= 2.0 * math.pi
    return theta


def _edit(gates: list[Gate], marks: list[int] | None, start: int, end: int, new: list[Gate], types: int) -> int:
    """gates[start:end] = new; returns len(gates).  Given `marks`, one per gate and a slot before gate 0,
    the new gates and the one before them gain `types` (scans, as in `_roles`) and the marks dropped."""
    gates[start:end] = new
    if marks is not None:
        for old in marks[start:end]:
            types |= old
        marks[start:end] = [types] * len(new)
        marks[start - 1] |= types
    return len(gates)


def _merge_rz(gates: list[Gate], marks: list[int] | None = None) -> bool:
    """Merge rotation pairs through commuting intermediates; drop zeros.

    An RZ on q commutes with a Z on q and with a CX whose control is q;
    any other gate on q (H included) blocks it.  Like the other passes, it keeps `marks` (see `_edit`).
    """
    changed = False
    i = 0
    n = len(gates)
    while i < n:
        g = gates[i]
        if g.kind != "rz":
            i += 1
            continue
        q = g.qubits[0]
        if abs(_norm_angle(g.theta)) <= ZERO_ANGLE_TOL:
            n = _edit(gates, marks, i, i + 1, [], 2 << 2 * q)
            changed = True
            continue
        merged = False
        for j in range(i + 1, n):
            other = gates[j]
            qubits = other.qubits
            if q not in qubits:
                continue
            kind = other.kind
            if kind == "rz":
                gates[i] = RZ(_norm_angle(g.theta + other.theta), q)
                del gates[j]
                if marks:  # unmarked: the RZ left at i stops every scan that reached the one dropped
                    marks[j - 1] |= marks.pop(j)
                n -= 1
                changed = merged = True
                break
            if kind != "z" and not (kind == "cx" and qubits[0] == q):
                break
        if not merged:
            i += 1
    return changed


def _cancel_cx(gates: list[Gate], marks: list[int] | None = None) -> bool:
    """Cancel identical CNOT pairs through commuting intermediates.

    A gate commutes with CX(c, t) when it acts diagonally on c (Z, RZ, a
    CX's control) and as a function of X on t (X, SX, a CX's target);
    any other gate on c or t (H included) blocks it.  A cancellation steps
    back to the last CX before the pair, which the pair may have blocked,
    so a word followed by its mirror image cancels in one sweep.
    """
    changed = False
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind != "cx":
            i += 1
            continue
        c, t = g.qubits
        cancelled = False
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if other.kind == "cx":
                c2, t2 = other.qubits
                if c2 == c and t2 == t:
                    _edit(gates, marks, j, j + 1, [], 2 << 2 * c | 3 << 2 * t)
                    _edit(gates, marks, i, i + 1, [], 2 << 2 * c | 3 << 2 * t)
                    changed = cancelled = True
                    i = next((k for k in range(i - 1, -1, -1) if gates[k].kind == "cx"), 0)
                    break
                if c2 == t or t2 == c:
                    break
                continue
            q = other.qubits[0]
            if q == c:
                if other.kind not in ("z", "rz"):
                    break
            elif q == t and other.kind not in ("x", "sx"):
                break
        if not cancelled:
            i += 1
    return changed


def _canonicalize_runs(gates: list[Gate], marks: list[int] | None = None) -> bool:
    """Resynthesize contiguous {CX(c,t), RZ(t)} words.

    Repeated exchange of target rotations across CNOT pairs sorts the
    word into at most [RZ, CX, RZ, CX] (even CNOT parity) or
    [RZ, CX, RZ] (odd parity); applied only when strictly shorter.
    """
    changed = False
    i = 0
    n = len(gates)
    while i < n:
        g = gates[i]
        if g.kind != "cx":
            i += 1
            continue
        pair = g.qubits
        c, t = pair
        k = 1
        end = i + 1
        while end < n:
            nxt = gates[end]
            qubits = nxt.qubits
            if qubits == pair:  # only a CX has two qubits
                k += 1
            elif qubits[0] != t or nxt.kind != "rz":
                break
            end += 1
        if k < 2:
            i = end
            continue
        start = i
        while start > 0 and gates[start - 1].kind == "rz" and gates[start - 1].qubits[0] == t:
            start -= 1
        even = odd = 0.0
        seen = 0
        for h in gates[start:end]:
            if h.kind == "cx":
                seen += 1
            elif seen % 2 == 0:
                even += h.theta
            else:
                odd += h.theta
        e, o = _norm_angle(even), _norm_angle(odd)
        keep_e, keep_o = abs(e) > ZERO_ANGLE_TOL, abs(o) > ZERO_ANGLE_TOL
        if keep_e + (3 * keep_o if k % 2 == 0 else 1 + keep_o) >= end - start:
            i = end  # not shorter: its gates are never built
            continue
        new_run = [RZ(e, t)] if keep_e else []
        if k % 2 == 0:
            if keep_o:
                new_run += [CX(c, t), RZ(o, t), CX(c, t)]
        else:
            new_run.append(CX(c, t))
            if keep_o:
                new_run.append(RZ(o, t))
        n = _edit(gates, marks, start, end, new_run, 2 << 2 * c | 3 << 2 * t)
        changed = True
        i = start + len(new_run)
    return changed


def _roles(g: Gate) -> tuple[int, int]:
    """(the scans an anchor at `g` needs open, the scans `g` stops): bit 2w for scans needing
    wire w diagonal (from an RZ on w or a CX controlled on w), 2w + 1 for those needing it X-like."""
    if g.kind == "cx":
        c, t = g.qubits
        return 1 << 2 * c | 2 << 2 * t, 2 << 2 * c | 1 << 2 * t
    w = 2 * g.qubits[0]
    return (g.kind == "rz") << w, (2 if g.kind in ("z", "rz") else 1 if g.kind in ("x", "sx") else 3) << w


def _settled(gates: list[Gate], marks: list[int], resynthesized: bool) -> bool:
    """Whether a sweep would leave `gates`, as the sweep that wrote `marks` left them, unchanged: a pass
    rewrites at an anchor it passed in that sweep only if a gate its scan reads has changed since, so the
    passes run on spans around the marks, from each anchor whose scan of a marked type reaches a mark to
    where those scans stop, widened to whole `_canonicalize_runs` words.  `_merge_rz` leaves nothing to
    merge, so it and `_canonicalize_runs` can only rewrite again after `_canonicalize_runs` edits."""
    joins = lambda a, b: {a.kind, b.kind} <= {"cx", "rz"} and a.qubits[-1] == b.qubits[-1]  # may share a word
    held = bytearray(len(gates))
    for k in itertools.compress(range(len(gates)), marks):
        lo, want, stopped, pending = k, marks[k], 0, set()
        for q in range(k, -1, -1):
            needs, stops = _roles(gates[q])
            if needs & want and not needs & stopped:
                lo = q
                pending.add(needs)
            stopped |= stops
            if not want & ~stopped:
                break
        hi, stopped = k + 1, 0
        while pending and hi < len(gates):
            stopped |= _roles(gates[hi])[1]
            pending = {needs for needs in pending if not needs & stopped}
            hi += 1
        held[lo:hi] = b"\1" * (hi - lo)
    for lo, hi in (m.span() for m in re.finditer(b"\1+", held)):
        while lo > 0 and joins(gates[lo - 1], gates[lo]):
            lo -= 1
        while hi < len(gates) and joins(gates[hi - 1], gates[hi]):
            hi += 1
        if _cancel_cx(span := gates[lo:hi]) or resynthesized and (_merge_rz(span) or _canonicalize_runs(span)):
            return False
    return True


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
    sweeps: int = 0

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

    The report carries only the sweep count; its `stages` is empty.  A
    circuit still changing after MAX_SWEEPS sweeps is refused with
    ValueError, which bounds the work an adversarial input can cause.
    """
    gates = list(circuit.gates)
    for sweep in range(1, MAX_SWEEPS + 1):
        marks = [0] * (len(gates) + 1)
        changed = _cancel_cx(gates, marks) | _merge_rz(gates, marks)
        resynthesized = _canonicalize_runs(gates, marks)
        changed |= resynthesized
        if not changed or sweep < MAX_SWEEPS and _settled(gates, marks, resynthesized):
            sweep += changed  # a settled sweep also counts the confirming sweep it makes needless
            break
    else:
        raise ValueError(f"peephole pass needs more than MAX_SWEEPS = {MAX_SWEEPS} sweeps")
    gates = [
        g if g.kind != "rz" or _norm_angle(g.theta) == g.theta else RZ(_norm_angle(g.theta), g.qubits[0])
        for g in gates
    ]
    return Circuit(circuit.width, gates), PassReport(sweeps=sweep)


def check_legal(circuit: Circuit, graph: CouplingGraph) -> tuple[bool, bool]:
    """(gate set legal, every CX on a coupling edge)."""
    return DEVICE_GATES.issuperset(map(_KIND, circuit.gates)), _on_edges(circuit, graph)


def _on_edges(circuit: Circuit, graph: CouplingGraph) -> bool:
    pairs = {g.qubits for g in circuit.gates if g.kind == "cx"}
    return all(graph.has_edge(c - 1, t - 1) for c, t in pairs)


def _route(circuit: Circuit, physical: tuple[int, ...], graph: CouplingGraph, mapped: dict) -> list[Gate]:
    """`circuit`'s gates with logical qubit l placed on physical qubit
    physical[l-1], each CX replaced by its pair's ladder from
    `graph.routes`, reversed on every other repeat occurrence of the pair
    to expose pair cancellations to the optimizer.  Ladder gates are
    reused, and so is a single-qubit gate whose qubit does not move; one
    that moves is built once per (gate index, physical qubit) and kept in
    `mapped` for the other candidates."""
    routes = graph.routes
    gates: list[Gate] = []
    occurrence: dict[tuple[int, int], int] = {}
    for i, g in enumerate(circuit.gates):
        if g.kind == "cx":
            pair = (physical[g.qubits[0] - 1], physical[g.qubits[1] - 1])
            seen = occurrence.get(pair, 0)
            occurrence[pair] = seen + 1
            gates.extend(routes[pair][seen % 2])
            continue
        q = g.qubits[0]
        p = physical[q - 1]
        gate = g if p + 1 == q else mapped.get((i, p))
        if gate is None:
            gate = mapped[i, p] = Gate(g.kind, (p + 1,), g.theta)
        gates.append(gate)
    return gates


def _path_table(graph: CouplingGraph) -> np.ndarray:
    """Row a*P + b: the shortest path from a to b of the P-vertex `graph`
    (none for a = b), padded with P to the longest path's vertex count."""
    size = graph.num_qubits
    paths = [graph.routes.path((a, b)) if a != b else () for a in range(size) for b in range(size)]
    lengths = np.fromiter(map(len, paths), np.intp, len(paths))
    table = np.full((len(paths), lengths.max()), size, np.uint16)
    vertices = itertools.chain.from_iterable(paths)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.fromiter(vertices, np.uint16, lengths.sum())
    return table


def _first_columns(rows: np.ndarray, pad: int) -> None:
    """Replace, in place, each value of each uint16 row by the column of
    its first occurrence in that row, and each `pad` by the row length.
    Two rows end equal exactly when they have pads in the same columns
    and equal other values in the same pairs of columns."""
    span = rows.shape[1]
    pads = rows == pad
    # value * span + column: sorting a row puts each value's columns together, its first column first
    rows *= span
    rows += np.arange(span, dtype=np.uint16)
    rows.sort(axis=1)
    first = rows // span
    starts = np.ones(rows.shape, bool)
    np.not_equal(first[:, 1:], first[:, :-1], out=starts[:, 1:])
    # a group's first code rises along the row, so a running maximum carries it across the group
    np.multiply(rows, starts, out=first)
    np.maximum.accumulate(first, axis=1, out=first)
    first %= span
    # column * span + its value's first column: sorting a row restores column order
    rows %= span
    rows *= span
    rows += first
    rows.sort(axis=1)
    rows %= span
    rows[pads] = span


def _first_of_each_key(circuit: Circuit, graph: CouplingGraph) -> list[tuple[int, ...]]:
    """The first injective mapping, in lexicographic order, of each
    distinct placement key, in that order.

    A mapping's key places each distinct qubit of a one-qubit gate, then
    each distinct (control, target) pair of a CX, each in order of first
    appearance, on the vertices it occupies: one vertex, or the pair's
    shortest path padded to a fixed length.  Each vertex is then replaced
    by the column of its first occurrence in the key, and each pad by the
    key's length (`_first_columns`).  Routing reads nothing else.  Every
    mapping is one row of a single array, so memory grows as mappings
    times key length, not with the device size.  Every value fits 16
    unsigned bits: with P vertices and K key columns, `_first_columns`
    stays under (P + 1) * K and K * K, and within AUTO_MAP_LIMIT these
    are at most 5202 (width 2 on a 50-line) and 186 ** 2 (6 qubits and
    their 30 CX pairs on a 6-line).
    """
    size, width = graph.num_qubits, circuit.width
    items = list(dict.fromkeys(tuple(q - 1 for q in g.qubits) for g in circuit.gates))
    if not items:  # every mapping routes to the same empty circuit
        return [tuple(range(width))]
    flat = itertools.chain.from_iterable(itertools.permutations(range(size), width))
    mappings = np.fromiter(flat, np.uint16).reshape(-1, width)
    wires = [item[0] for item in items if len(item) == 1]
    pairs = [item for item in items if len(item) == 2]
    key = [mappings.take(wires, axis=1)]
    if pairs:  # the table is freed here, before the relabelling allocates buffers as large as the keys
        controls, targets = zip(*pairs)
        pair_rows = mappings.take(controls, axis=1) * size + mappings.take(targets, axis=1)
        key.append(_path_table(graph)[pair_rows].reshape(len(mappings), -1))
    key = np.concatenate(key, axis=1)  # C order, as the row view below needs
    _first_columns(key, size)
    _, index = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel(), return_index=True)
    return list(map(tuple, mappings[np.sort(index)].tolist()))


def transpile(
    circuit: Circuit,
    graph: CouplingGraph,
    mapping: QubitMapping | None = None,
) -> tuple[Circuit, PassReport]:
    """Map, route, rewrite and optimize a circuit onto the device.

    The candidates are the given mapping alone or, with none given,
    every injective mapping (at most AUTO_MAP_LIMIT) in lexicographic
    order.  A search keys all candidates at once before routing, as rows
    of one array whose memory grows as mappings times key length
    (`_first_of_each_key`), and routes, rewrites and optimizes only the
    first of each key.  The lowest final CX count wins, then depth, then
    the lexicographically first, which is always the first of its key, so
    its compile is the one returned.  A candidate is scored by its final
    stage record, and the winner's goes into the report.  A lone
    candidate is not keyed.
    """
    if circuit.width > graph.num_qubits:
        raise ValueError(f"circuit width {circuit.width} exceeds device size {graph.num_qubits}")
    if mapping is not None:
        if mapping.width != circuit.width:
            raise ValueError("mapping width does not match circuit width")
        if any(not 0 <= p < graph.num_qubits for p in mapping.physical):
            raise ValueError("mapping targets nonexistent physical qubits")
        candidates = [mapping.physical]
    else:
        tries = math.perm(graph.num_qubits, circuit.width)
        if tries > AUTO_MAP_LIMIT:
            raise ValueError(
                f"auto-mapping would compile {tries} mappings, over the limit of "
                f"{AUTO_MAP_LIMIT}; pass an explicit mapping"
            )
        candidates = _first_of_each_key(circuit, graph)

    mapped: dict = {}
    best = None
    for physical in candidates:
        routed = Circuit(graph.num_qubits, _route(circuit, physical, graph, mapped))
        rewritten = rewrite_to_device(routed)
        final, opt_report = optimize(rewritten)
        record = StageRecord.of("optimize", final)
        score = record.counts["cx"], record.depth
        if best is None or score < best[0]:
            best = score, physical, opt_report.sweeps, routed, rewritten, final, record

    _, physical, sweeps, routed, rewritten, final, record = best
    # placing relabels qubits injectively, which keeps gate counts and depth; routing changes only the
    # CXs and rewriting only H (to RZ.SX.RZ) and Z (to RZ), so their counts follow from the input's
    given = StageRecord.of("input", circuit)
    counts = given.counts
    route = dict(counts, cx=len(routed) - (len(circuit) - counts["cx"]))
    h = counts["h"]
    rewrite = dict(route, h=0, z=0, sx=counts["sx"] + h, rz=counts["rz"] + 2 * h + counts["z"])
    records = [given, StageRecord("map", dict(counts), given.depth), StageRecord("route", route, routed.depth())]
    records += [StageRecord("rewrite", rewrite, rewritten.depth()), record]
    legal_gate_set = not any(n for kind, n in record.counts.items() if kind not in DEVICE_GATES)
    return final, PassReport(records, physical, legal_gate_set, _on_edges(final, graph), sweeps)
