"""Gate-list circuit IR over the gate set {X, Z, H, SX, RZ(theta), CX}.

Qubits are numbered 1..width with qubit 1 the most significant bit of a
basis index; that convention is fixed repo-wide.  The text serialization
(a QASM 2.0 subset) uses 0-based register offsets, so q[0] is qubit 1;
the conversion is confined to :func:`serialize` and :func:`parse`.

Circuits are immutable values; build gate lists with the factory helpers
X/Z/H/SX/RZ/CX and wrap them in a Circuit.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from . import kernels

GATE_KINDS = ("x", "z", "h", "sx", "rz", "cx")

ANGLE_TOL = 1e-12  # structural equality tolerance for RZ angles

_TWO_PI = 2.0 * math.pi

_KIND = attrgetter("kind")
_QUBITS = attrgetter("qubits")


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cx":
            if len(self.qubits) != 2:
                raise ValueError("cx takes exactly 2 qubits")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("cx control and target must differ")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} takes exactly 1 qubit")
        if self.kind == "rz":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("rz requires a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if min(self.qubits) < 1:
            raise ValueError("qubit indices are 1-based")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.kind != other.kind or self.qubits != other.qubits:
            return False
        if self.kind == "rz":
            # the RZ matrix has period 4*pi in the angle
            delta = math.fmod(self.theta - other.theta, 4.0 * math.pi)
            return min(abs(delta), abs(abs(delta) - 4.0 * math.pi)) <= ANGLE_TOL
        return True

    def __repr__(self):
        if self.kind == "rz":
            return f"RZ({self.theta:.6g}, {self.qubits[0]})"
        args = ", ".join(str(q) for q in self.qubits)
        return f"{self.kind.upper()}({args})"


def X(q: int) -> Gate:
    return Gate("x", (q,))


def Z(q: int) -> Gate:
    return Gate("z", (q,))


def H(q: int) -> Gate:
    return Gate("h", (q,))


def SX(q: int) -> Gate:
    return Gate("sx", (q,))


def RZ(theta: float, q: int) -> Gate:
    return Gate("rz", (q,), float(theta))


def CX(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


@dataclass(frozen=True, eq=False)
class Circuit:
    width: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be >= 1")
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.gates and max(chain.from_iterable(set(map(_QUBITS, self.gates)))) > self.width:
            for g in self.gates:  # name the first gate out of range
                if any(q > self.width for q in g.qubits):
                    raise ValueError(f"gate {g} out of range for width {self.width}")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.width == other.width and self.gates == other.gates

    def __len__(self):
        return len(self.gates)

    def depth(self) -> int:
        """Longest dependency chain; gates on disjoint qubits co-schedule."""
        level = [0] * (self.width + 1)
        for g in self.gates:
            if g.kind == "cx":
                a, b = g.qubits
                da, db = level[a], level[b]
                level[a] = level[b] = (da if da > db else db) + 1
            else:
                level[g.qubits[0]] += 1
        return max(level)

    def gate_counts(self) -> dict[str, int]:
        counts = Counter(map(_KIND, self.gates))
        return {k: counts[k] for k in GATE_KINDS}

    def unitary(self) -> np.ndarray:
        """The circuit's 2^width x 2^width unitary; column j is U|j>.

        Each gate is applied through the statevector kernels to every row
        of the identity, so row j ends as U|j> and the result is the
        transpose.  Refused above width 12 (a 2^12 x 2^12 matrix is 256 MiB).
        """
        if self.width > 12:
            raise ValueError("unitary extraction limited to width <= 12")
        rows = np.eye(1 << self.width, dtype=complex)
        for g in self.gates:
            apply_gate(rows, self.width, g)
        return rows.T


_SQRT1_2 = 1.0 / math.sqrt(2.0)

_MAT_X = np.array([[0, 1], [1, 0]], dtype=complex)
_MAT_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MAT_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_MAT_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_MAT_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's own 2x2 or 4x4 unitary (control is the high matrix bit)."""
    if gate.kind == "x":
        return _MAT_X
    if gate.kind == "z":
        return _MAT_Z
    if gate.kind == "h":
        return _MAT_H
    if gate.kind == "sx":
        return _MAT_SX
    if gate.kind == "rz":
        return rz_matrix(gate.theta)
    return _MAT_CX


# The gates that permute amplitudes: their matrices hold only 0s and 1s.
PERMUTATION_KINDS = ("x", "cx")


def apply_gate(amps: np.ndarray, width: int, gate: Gate) -> None:
    """Apply `gate` to every 2^width-amplitude row of `amps`, in place: X
    and CX as the swap `kernels.apply_flip`, every other gate as its
    matrix through `kernels.apply_unitary`."""
    if gate.kind in PERMUTATION_KINDS:
        kernels.apply_flip(amps, width, gate.qubits)
    else:
        kernels.apply_unitary(amps, width, gate.qubits, gate_matrix(gate))


class ParseError(ValueError):
    """Malformed circuit text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _canonical_angle(theta: float) -> float:
    """Wrap into (-2*pi, 2*pi] without changing the RZ matrix (period 4*pi)."""
    theta = math.fmod(theta, 2.0 * _TWO_PI)
    if theta <= -_TWO_PI:
        theta += 2.0 * _TWO_PI
    elif theta > _TWO_PI:
        theta -= 2.0 * _TWO_PI
    return theta


def serialize(circuit: Circuit) -> str:
    """Emit the QASM 2.0 subset; q[i] is internal qubit i+1."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.width}];",
    ]
    for g in circuit.gates:
        if g.kind == "cx":
            lines.append(f"cx q[{g.qubits[0] - 1}],q[{g.qubits[1] - 1}];")
        elif g.kind == "rz":
            lines.append(f"rz({_canonical_angle(g.theta):.17g}) q[{g.qubits[0] - 1}];")
        else:
            lines.append(f"{g.kind} q[{g.qubits[0] - 1}];")
    return "\n".join(lines) + "\n"


_QREG_RE = re.compile(r"qreg\s+q\[(\d+)\]\s*;\s*$")
_GATE1_RE = re.compile(r"(x|z|h|sx)\s+q\[(\d+)\]\s*;\s*$")
_RZ_RE = re.compile(r"rz\(([^)]+)\)\s+q\[(\d+)\]\s*;\s*$")
_CX_RE = re.compile(r"cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;\s*$")
_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str) -> Circuit:
    """Parse circuit text produced by :func:`serialize`."""
    width = None
    gates: list[Gate] = []
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    seen_header = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if seen_header < 2:
            if line != header[seen_header]:
                raise ParseError(f"expected {header[seen_header]!r}", lineno)
            seen_header += 1
            continue
        if width is None:
            m = _QREG_RE.match(line)
            if not m:
                raise ParseError("expected qreg declaration", lineno)
            width = int(m.group(1))
            if width < 1:
                raise ParseError("register must hold at least one qubit", lineno)
            continue
        m = _GATE1_RE.match(line)
        if m:
            q = _check_index(int(m.group(2)), width, lineno, line)
            gates.append(Gate(m.group(1), (q,)))
            continue
        m = _RZ_RE.match(line)
        if m:
            try:
                theta = float(m.group(1))
            except ValueError:
                raise ParseError(f"bad angle {m.group(1)!r}", lineno, line.index("(") + 2)
            q = _check_index(int(m.group(2)), width, lineno, line)
            try:
                gates.append(Gate("rz", (q,), theta))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, line.index("(") + 2)
            continue
        m = _CX_RE.match(line)
        if m:
            c = _check_index(int(m.group(1)), width, lineno, line)
            t = _check_index(int(m.group(2)), width, lineno, line)
            if c == t:
                raise ParseError("cx control and target must differ", lineno)
            gates.append(Gate("cx", (c, t)))
            continue
        name = _NAME_RE.match(line)
        if name and name.group(1) not in GATE_KINDS:
            raise ParseError(f"unknown gate {name.group(1)!r}", lineno)
        raise ParseError(f"cannot parse {line!r}", lineno)
    if seen_header < 2:
        raise ParseError("missing OPENQASM header", 1)
    if width is None:
        raise ParseError("missing qreg declaration", 1)
    return Circuit(width, gates)


def _check_index(offset: int, width: int, lineno: int, line: str) -> int:
    if offset >= width:
        raise ParseError(f"qubit q[{offset}] out of range for qreg q[{width}]", lineno)
    return offset + 1
