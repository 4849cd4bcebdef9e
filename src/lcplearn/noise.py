"""Simplified noisy replay of the hardware runs.

Error model: after each CNOT, with the edge's error probability, a
uniformly random non-identity two-qubit Pauli hits its qubits; after
each single-qubit gate, likewise a random X/Y/Z; at measurement each
bit flips with its readout probability.  No decay or coherent errors
are modeled, so hardware success probabilities are qualitative anchors
only, not targets.

Every shot draws the same fixed-length randomness stream from
default_rng((*seed, shot)): one uniform per gate deciding whether its
error fires, one per gate choosing the Pauli, one for the measurement,
one per readout bit.  Scaling an error rate under a common seed
therefore only grows the set of fired errors; the monotonicity checks
rely on this common-random-numbers property.

The replay never runs a circuit per shot.  It caches the noiseless
state after every gate once per call; a shot in which no error fired
samples the clean distribution.  A shot with errors is keyed by its
fault pattern, the Pauli chosen at each fired gate: the first shot with
a pattern resimulates it once from the cached state at its first fault,
with the same float operations in the same order as a run from
|0...0>, and later shots reuse that distribution.  Streams are drawn a
block of shots at a time, and the fired gates, clean outcomes and
readout flips of a block are found with array operations, so the
histograms are bit-identical to a per-shot loop.

`exact_distribution` and `exact_asp` evolve the density matrix through
the same channels and give the value the Monte-Carlo estimates sample.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, gate_matrix
from .oracle import SecretString
from .statevector import Statevector, check_dense_width, init_basis, simulate
from .synth import build_full_circuit
from .transpile import CouplingGraph, transpile

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# the 15 non-identity two-qubit Paulis, choice c = 4 * a + b acting as
# _PAULIS[a] on the control and _PAULIS[b] on the target
_CX_ERRORS = tuple(np.kron(_PAULIS[c >> 2], _PAULIS[c & 3]) for c in range(1, 16))

# Shots whose random streams are held at once.  Whole 8192-shot streams
# would add about 7 MB to a replay's peak memory; 512 rows of a 5-qubit
# quito circuit's stream take 0.25 MB and still amortize the array work.
_BLOCK_SHOTS = 512


@dataclass
class NoiseProfile:
    cx_error: dict
    readout_error: tuple
    single_qubit_error: tuple
    cx_default: float = 0.0

    def __post_init__(self):
        self.cx_error = {tuple(sorted(k)): float(v) for k, v in self.cx_error.items()}
        self.readout_error = tuple(float(p) for p in self.readout_error)
        self.single_qubit_error = tuple(float(p) for p in self.single_qubit_error)
        for p in (
            *self.cx_error.values(),
            self.cx_default,
            *self.readout_error,
            *self.single_qubit_error,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")

    @property
    def num_qubits(self) -> int:
        return len(self.readout_error)

    def cx_for(self, a: int, b: int) -> float:
        return self.cx_error.get(tuple(sorted((a, b))), self.cx_default)

    def scaled(self, cx: float = 1.0, readout: float = 1.0, sq: float = 1.0) -> "NoiseProfile":
        """Scale each error family (clipped to 1); used by the rate grids."""
        clip = lambda p: min(1.0, p)
        return NoiseProfile(
            cx_error={k: clip(v * cx) for k, v in self.cx_error.items()},
            readout_error=tuple(clip(p * readout) for p in self.readout_error),
            single_qubit_error=tuple(clip(p * sq) for p in self.single_qubit_error),
            cx_default=clip(self.cx_default * cx),
        )

    @classmethod
    def zero(cls, num_qubits: int) -> "NoiseProfile":
        return cls({}, (0.0,) * num_qubits, (0.0,) * num_qubits)

    @classmethod
    def uniform(cls, num_qubits: int, cx: float, readout: float, sq: float) -> "NoiseProfile":
        return cls({}, (readout,) * num_qubits, (sq,) * num_qubits, cx_default=cx)

    @classmethod
    def quito(cls) -> "NoiseProfile":
        """Published calibration snapshot of the 5-qubit T-shape device."""
        return cls(
            cx_error={
                (0, 1): 7.401e-3,
                (1, 2): 6.435e-3,
                (1, 3): 1.044e-2,
                (3, 4): 1.890e-2,
            },
            readout_error=(3.81e-2, 4.11e-2, 7.17e-2, 3.41e-2, 3.62e-2),
            single_qubit_error=(3.23e-4, 2.90e-4, 2.74e-4, 3.44e-4, 4.57e-4),
        )

    @classmethod
    def quito_average(cls) -> "NoiseProfile":
        """Device-wide averages: CNOT 1.080e-2, readout 4.424e-2."""
        sq = sum(cls.quito().single_qubit_error) / 5
        return cls.uniform(5, cx=1.080e-2, readout=4.424e-2, sq=sq)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseProfile":
        cx = {}
        for key, value in data.get("cx_error", {}).items():
            a, b = key.split("-")
            cx[(int(a), int(b))] = float(value)
        return cls(
            cx_error=cx,
            readout_error=tuple(data["readout_error"]),
            single_qubit_error=tuple(data.get("sq_error", [0.0] * len(data["readout_error"]))),
            cx_default=float(data.get("cx_default", 0.0)),
        )

    @classmethod
    def from_json(cls, path: str) -> "NoiseProfile":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        out = {
            "cx_error": {f"{a}-{b}": p for (a, b), p in sorted(self.cx_error.items())},
            "readout_error": list(self.readout_error),
            "sq_error": list(self.single_qubit_error),
        }
        if self.cx_default:
            out["cx_default"] = self.cx_default
        return out


def _seed_tuple(seed) -> tuple:
    if seed is None:
        seed = 0
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _site_probabilities(circuit: Circuit, profile: NoiseProfile) -> np.ndarray:
    """Error probability after each gate of `circuit` under `profile`."""
    if circuit.width > profile.num_qubits:
        raise ValueError(
            f"profile covers {profile.num_qubits} qubits, circuit needs {circuit.width}"
        )
    return np.array(
        [
            profile.cx_for(g.qubits[0] - 1, g.qubits[1] - 1)
            if g.kind == "cx"
            else profile.single_qubit_error[g.qubits[0] - 1]
            for g in circuit.gates
        ],
        dtype=float,
    )


def _cdf(state: Statevector) -> np.ndarray:
    cum = np.cumsum(state.probabilities())
    cum[-1] = 1.0
    return cum


def _clean_prefixes(circuit: Circuit) -> list[Statevector]:
    """prefixes[k] is the noiseless state after the first k gates."""
    prefixes = [simulate(Circuit(circuit.width))]
    for gate in circuit.gates:
        prefixes.append(simulate(Circuit(circuit.width, (gate,)), prefixes[-1]))
    return prefixes


def _apply_fault(state: Statevector, gate: Gate, choice: int) -> None:
    """Pauli `choice` after `gate`: 1..15 indexes the CX pair (control, target)
    as divmod(choice, 4), 1..3 is X, Y, Z on a single-qubit gate."""
    if gate.kind == "cx":
        p1, p2 = divmod(choice, 4)
        if p1:
            state.apply_unitary1(gate.qubits[0], _PAULIS[p1])
        if p2:
            state.apply_unitary1(gate.qubits[1], _PAULIS[p2])
    else:
        state.apply_unitary1(gate.qubits[0], _PAULIS[choice])


def _faulty_cdf(circuit: Circuit, prefixes: list[Statevector], faults: np.ndarray) -> np.ndarray:
    """Outcome CDF of the fault pattern `faults`: Pauli choice faults[k]
    after gate k, 0 where no error fired.

    Starts from the cached clean state at the first fault and applies the
    same gate-by-gate float operations as a run from |0...0> would.
    """
    first = int(np.flatnonzero(faults)[0])
    state = init_basis(circuit.width, 0)
    state.amps[:] = prefixes[first + 1].amps
    _apply_fault(state, circuit.gates[first], int(faults[first]))
    for k in range(first + 1, len(circuit.gates)):
        state.apply_gate(circuit.gates[k])
        if faults[k]:
            _apply_fault(state, circuit.gates[k], int(faults[k]))
    return _cdf(state)


def run_noisy(circuit: Circuit, profile: NoiseProfile, shots: int, seed=0) -> dict[str, int]:
    """Shot histogram under stochastic Pauli injection and readout flips.

    Shot k draws from default_rng((*seed, k)), so results do not depend
    on how shots are batched or parallelized.  Keys are the outcomes
    read, in ascending order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    site_prob = _site_probabilities(circuit, profile)
    width = circuit.width
    base = _seed_tuple(seed)
    n_sites = len(circuit.gates)
    pauli_count = np.array([15 if g.kind == "cx" else 3 for g in circuit.gates])
    readout = np.array(profile.readout_error[:width])
    bit_value = 1 << np.arange(width - 1, -1, -1)

    prefixes = _clean_prefixes(circuit)
    clean_cum = _cdf(prefixes[-1])
    faulty_cums: dict[bytes, np.ndarray] = {}

    # one row per shot: fire draw per gate, Pauli draw per gate, the
    # measurement draw, then one readout draw per qubit
    streams = np.empty((min(shots, _BLOCK_SHOTS), 2 * n_sites + 1 + width))
    totals = np.zeros(1 << width, dtype=np.int64)
    for start in range(0, shots, len(streams)):
        block = streams[: min(len(streams), shots - start)]
        for i, row in enumerate(block):
            np.random.default_rng(base + (start + i,)).random(out=row)
        fire_u = block[:, :n_sites]
        pick_u = block[:, n_sites : 2 * n_sites]
        meas_u = block[:, 2 * n_sites]
        read_u = block[:, 2 * n_sites + 1 :]

        faults = np.where(fire_u < site_prob, (pick_u * pauli_count).astype(np.uint8) + 1, 0)
        outcomes = np.searchsorted(clean_cum, meas_u, side="right")
        for i in np.flatnonzero(faults.any(axis=1)):
            key = faults[i].tobytes()
            cum = faulty_cums.get(key)
            if cum is None:
                cum = faulty_cums[key] = _faulty_cdf(circuit, prefixes, faults[i])
            outcomes[i] = np.searchsorted(cum, meas_u[i], side="right")
        outcomes ^= (read_u < readout) @ bit_value
        totals += np.bincount(outcomes, minlength=1 << width)
    return {format(b, f"0{width}b"): int(c) for b, c in enumerate(totals) if c}


@dataclass
class AspReport:
    secret: str
    trials: int
    shots: int
    per_trial: tuple
    mean: float
    stddev: float

    def to_dict(self) -> dict:
        return {
            "secret": self.secret,
            "trials": self.trials,
            "shots": self.shots,
            "per_trial": list(self.per_trial),
            "mean": self.mean,
            "stddev": self.stddev,
        }


@lru_cache(maxsize=64)
def _transpiled(secret: str, graph: CouplingGraph):
    circuit = build_full_circuit(SecretString.from_string(secret))
    return transpile(circuit, graph)


def _asp_task(s: SecretString, profile: NoiseProfile | None, graph: CouplingGraph | None):
    """The transpiled circuit, the profile (zero noise when None) and a mask
    over readout indices marking the successes `estimate_asp` counts."""
    graph = CouplingGraph.quito() if graph is None else graph
    profile = NoiseProfile.zero(graph.num_qubits) if profile is None else profile
    circuit, report = _transpiled(str(s), graph)
    width = circuit.width
    readouts = np.arange(1 << width)
    success = np.ones(1 << width, dtype=bool)
    for j in range(s.n if s.n % 2 == 0 else s.n - 1):
        success &= ((readouts >> (width - 1 - report.mapping[j])) & 1) == s.bits[j]
    return circuit, profile, success


def estimate_asp(
    s: SecretString,
    profile: NoiseProfile | None = None,
    trials: int = 5,
    shots: int = 8192,
    seed: int = 0,
    graph: CouplingGraph | None = None,
) -> AspReport:
    """Monte-Carlo algorithm success probability on the transpiled circuit.

    Success means the measured x bits identify the secret: an exact match
    for even n; for odd n a match on the first n-1 bits, since the final
    classical query corrects the last bit either way.
    """
    if trials < 1 or shots < 1:
        raise ValueError("trials and shots must be >= 1")
    circuit, profile, success = _asp_task(s, profile, graph)
    rates = []
    for trial in range(trials):
        hist = run_noisy(circuit, profile, shots, seed=(seed, trial))
        good = sum(c for key, c in hist.items() if success[int(key, 2)])
        rates.append(good / shots)
    mean = sum(rates) / trials
    var = sum((r - mean) ** 2 for r in rates) / trials
    return AspReport(
        secret=str(s),
        trials=trials,
        shots=shots,
        per_trial=tuple(rates),
        mean=mean,
        stddev=math.sqrt(var),
    )


def _conjugate(rho: np.ndarray, width: int, qubits: tuple, u: np.ndarray) -> np.ndarray:
    """rho -> u rho u^dagger, in place, on a row-major vectorized density matrix.

    The vector is a 2*width-qubit register whose high half indexes rows
    and low half columns, so u acts on the row qubits and conj(u) on the
    column qubits.
    """
    for offset, m in ((width, u), (0, u.conj())):
        bits = [offset + width - q for q in qubits]
        if len(bits) == 1:
            kernels.apply_single(rho, bits[0], m)
        else:
            kernels.apply_two(rho, bits[0], bits[1], m)
    return rho


def exact_distribution(circuit: Circuit, profile: NoiseProfile) -> np.ndarray:
    """Exact readout distribution of `circuit` under the replay's error model.

    Evolves the 2^width density matrix through each gate and its Pauli
    channel, (1 - p) rho + p/15 * sum over the 15 non-identity Paulis after
    a CX and (1 - p) rho + p/3 * (X rho X + Y rho Y + Z rho Z) after a
    single-qubit gate (Nielsen & Chuang ch. 8), then passes the diagonal
    through each qubit's readout confusion.  Entry b is the probability
    of reading basis index b.
    """
    site_prob = _site_probabilities(circuit, profile)
    width = circuit.width
    check_dense_width(2 * width)
    rho = np.zeros(1 << (2 * width), dtype=np.complex128)
    rho[0] = 1.0
    for gate, p in zip(circuit.gates, site_prob):
        _conjugate(rho, width, gate.qubits, gate_matrix(gate))
        if p:
            errors = _CX_ERRORS if gate.kind == "cx" else _PAULIS[1:]
            mixed = sum(_conjugate(rho.copy(), width, gate.qubits, e) for e in errors)
            rho = (1.0 - p) * rho + (p / len(errors)) * mixed
    probs = rho[:: (1 << width) + 1].real.copy()
    for q, r in enumerate(profile.readout_error[:width]):
        pairs = probs.reshape(1 << q, 2, -1)
        pairs[:] = (1.0 - r) * pairs + r * pairs[:, ::-1]
    return probs


def exact_asp(
    s: SecretString,
    profile: NoiseProfile | None = None,
    graph: CouplingGraph | None = None,
) -> float:
    """The success probability `estimate_asp` samples, computed exactly
    (to float rounding, a few 1e-16)."""
    circuit, profile, success = _asp_task(s, profile, graph)
    return float(exact_distribution(circuit, profile)[success].sum())
