"""Simplified noisy replay of the hardware runs.

Error model: after each CNOT, with the edge's error probability, a
uniformly random non-identity two-qubit Pauli hits its qubits; after
each single-qubit gate, likewise a random X/Y/Z; at measurement each
bit flips with its readout probability.  No decay or coherent errors
are modeled, so hardware success probabilities are qualitative anchors
only, not targets.

Every shot has the same fixed-length randomness stream, by definition
the first doubles of default_rng((*seed, shot)): one uniform per gate
deciding whether its error fires, one per gate choosing the Pauli, one
for the measurement, one per readout bit.  Scaling an error rate under a
common seed therefore only grows the set of fired errors; the
monotonicity checks rely on this common-random-numbers property.  The
streams of a block of 8192 shots are computed in one vectorized pass
that reproduces numpy's SeedSequence, PCG64 and Generator.random bit for
bit (`_streams.Block`), so no generator is constructed per shot, and a
shot index is one 32-bit seed word, which caps a call at 2^32 shots.  A
block draws only the stream values that can change an outcome, jumping
the generator across the rest: the measurement draw, the fire draws of
gates with a nonzero error rate, the readout draws of qubits with a
nonzero flip rate, and, in the rows where an error fired, the Pauli
draws of the gates that fired.  The block is seeded once and each column
is consumed as it is drawn.  A fire or readout draw is tested as an
integer, its 53 bits k against K = ceil(p 2^53), and k < K holds exactly
when the double k 2^-53 is below p.  A fire column keeps the states of
the lanes it fired in, and after the pass one jump of a stream's
n_sites gates takes all of them to their Pauli draws.  Only the
measurement draw and those Pauli draws become floats.
At zero noise that is one value a shot, and an 8192-shot trial of a
quito demo circuit takes 0.9–1.3 ms (2-core Xeon VM, median over the
12 demo secrets, three runs); under the quito profile it takes
6.5–9.7 ms.

The replay never runs a circuit per shot, and it has one simulator.  A
shot is keyed by its fault pattern, the Pauli chosen at each fired gate;
the noiseless circuit is the all-zero pattern, run once per call, and
each other pattern is resimulated once per block: one sort of the
block's pattern rows finds the distinct ones, which are resimulated
together as one (2^width, 2^m) state array whose columns are the
patterns, padded to a power of two as the m low qubits of one register.
It starts as |0...0> in every column, each gate is one kernel call over
long contiguous blocks (X and CX a slice swap, every other gate a 2x2
product), and the columns that fault at a gate get their Paulis as one
gather, an index XOR and a unit phase per amplitude, skipped where none
does.  Every amplitude takes the same values as in a run of its pattern
on its own (up to the signs of zeros, which no probability sees), and
every shot of the block with that pattern samples its distribution.
The fired gates, clean and faulty outcomes and readout flips of a block
are found with array operations, so the histograms are bit-identical to
a per-shot loop.

`exact_distribution` and `exact_asp` evolve the density matrix through
the same channels and give the value the Monte-Carlo estimates sample.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _streams, kernels
from .circuit import PERMUTATION_KINDS, Circuit, Gate, apply_gate, gate_matrix
from .oracle import SecretString
# simulate: read only by perfbench's tracer, which patches noise.simulate;
# drop it with the next change to the benchmark.
from .statevector import check_dense_width, init_basis, simulate  # noqa: F401
from .synth import build_full_circuit
from .transpile import CouplingGraph, transpile

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Each of _PAULIS moves amplitude b ^ flip of its qubit to b and
# multiplies it by phase[b], a unit 1, -1, i or -i.
_PAULI_FLIPS = np.array([int(p[0, 0] == 0) for p in _PAULIS])
_PAULI_PHASES = np.array([[p[b, b ^ f] for b in (0, 1)] for p, f in zip(_PAULIS, _PAULI_FLIPS)])

# Shots whose random streams are computed at once: one block per 8192-shot
# trial.  Each block pays a fixed number of numpy calls per drawn column
# and one gate pass of `_faulty_cdfs`, whatever its row count.  A block
# never holds its draws as a matrix: of the 33 drawn columns of a quito
# demo circuit under the quito profile it keeps the measurement draw, a
# flip mask and the fired lanes' states, about 0.15 MB beside the stream's
# work array, where its draws as floats would take 2.2 MB.
_BLOCK_SHOTS = 8192

# Amplitudes resimulated at once: a block's distinct fault patterns are split
# into chunks of a power of two rows, the largest that, padding included,
# holds at most this many amplitudes (and at least one row), so a wide
# circuit cannot allocate without bound.  At quito's width a chunk is
# 2048 patterns; an 8192-row block of a demo circuit brings about 220
# under the quito profile and up to about 1500 with its CX rates scaled
# by 5 and single-qubit rates by 50.
_BATCH_AMPLITUDES = 1 << 16

# The device every ASP is replayed on: the demo circuits are compiled onto it.
_QUITO = CouplingGraph.quito()


def _number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {type(value).__name__}")
    return float(value)


def _numbers(field: str, value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of numbers, got {type(value).__name__}")
    return tuple(_number(f"{field}[{i}]", v) for i, v in enumerate(value))


@dataclass
class NoiseProfile:
    cx_error: dict
    readout_error: tuple
    single_qubit_error: tuple
    cx_default: float = 0.0

    def __post_init__(self):
        self.readout_error = tuple(float(p) for p in self.readout_error)
        cx_error = {}
        for key, value in self.cx_error.items():
            a, b = sorted(key)
            if a == b or a < 0 or b >= self.num_qubits:
                raise ValueError(
                    f"cx_error pair {a}-{b} is not two distinct qubits of 0..{self.num_qubits - 1}"
                )
            if (a, b) in cx_error:
                raise ValueError(f"cx_error gives the pair {a}-{b} twice")
            cx_error[a, b] = float(value)
        self.cx_error = cx_error
        self.single_qubit_error = tuple(float(p) for p in self.single_qubit_error)
        if len(self.single_qubit_error) != len(self.readout_error):
            raise ValueError(
                f"{len(self.single_qubit_error)} single-qubit error rates for "
                f"{len(self.readout_error)} qubits"
            )
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
        """Load the document `to_dict` writes; raise ValueError for anything
        but a JSON object whose fields have the right types.  The readout
        and sq lists need no bound of their own: the parsed JSON already
        holds them, and the replay and `exact_distribution` read only a
        circuit's first `width` entries."""
        if not isinstance(data, dict):
            raise ValueError(f"noise profile must be a JSON object, got {type(data).__name__}")
        cx_error = data.get("cx_error", {})
        if not isinstance(cx_error, dict):
            raise ValueError(f"cx_error must be an object, got {type(cx_error).__name__}")
        cx = {}
        for key, value in cx_error.items():
            try:
                a, b = key.split("-")
                pair = (int(a), int(b))
            except ValueError:
                raise ValueError(f"cx_error key {key!r} is not 'a-b'") from None
            cx[pair] = _number(f"cx_error[{key!r}]", value)
        if "readout_error" not in data:
            raise ValueError("missing field 'readout_error'")
        readout = _numbers("readout_error", data["readout_error"])
        return cls(
            cx_error=cx,
            readout_error=readout,
            single_qubit_error=_numbers("sq_error", data.get("sq_error", [0.0] * len(readout))),
            cx_default=_number("cx_default", data.get("cx_default", 0.0)),
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


@lru_cache(maxsize=4)
def _indices(width: int) -> np.ndarray:
    return np.arange(1 << width)


@lru_cache(maxsize=64)
def _pauli_gather(width: int, qubits: tuple) -> tuple:
    """The Pauli choices after a gate on `qubits` of a `width`-qubit
    register as one gather: choice c moves amplitude i ^ flip[c] to i and
    multiplies it by phase[c, code[i]], where code[i] holds i's bits on
    `qubits`, the first qubit highest.  A CX's choice 4a + b is _PAULIS[a]
    on the control and _PAULIS[b] on the target; its phase is their
    product, exact for units.  An entry holds a byte per amplitude, a
    sixteenth of one state, and the cache is bounded because a wide
    circuit has many gate positions."""
    index = _indices(width)
    flip, phase = np.zeros(1, dtype=np.intp), np.ones((1, 1))
    code = np.zeros(1 << width, dtype=np.uint8)
    for q in qubits:
        bit = width - q
        flip = (flip[:, None] | (_PAULI_FLIPS << bit)).ravel()
        phase = np.einsum("cx,dy->cdxy", phase, _PAULI_PHASES).reshape(len(flip), -1)
        code = 2 * code + ((index >> bit) & 1).astype(np.uint8)
    return flip, phase, code


def _hit(rows: np.ndarray, width: int, qubits: tuple, choice: np.ndarray) -> np.ndarray:
    """`rows` after the Pauli choice[i] on `qubits` hits row i.  The
    amplitudes equal those of the kernels applying `_PAULIS`, control
    before target, up to the signs of zeros."""
    flip, phase, code = _pauli_gather(width, qubits)
    perm = np.bitwise_xor.outer(flip[choice], _indices(width))
    return np.take_along_axis(rows, perm, axis=1) * phase[choice[:, None], code]


def _faulty_cdfs(circuit: Circuit, patterns: np.ndarray) -> np.ndarray:
    """Outcome CDFs of the fault patterns `patterns`, one per row: Pauli
    choice patterns[i, k] after gate k, 0 where no error fired.  Choices
    1..15 at a CX index the pair (control, target) as divmod(choice, 4),
    1..3 X, Y, Z at a single-qubit gate.  The all-zero row is the
    noiseless circuit; its CDF is, bit for bit, the cumulative sum of
    `simulate(circuit)`'s probabilities with the last entry set to 1.

    All rows are resimulated together as one (2^width, 2^m) array whose
    columns are the rows padded to a power of two, so they are the m low
    qubits of one (width + m)-qubit register.  It starts as |0...0> in
    every column: gate k is one kernel call over long contiguous blocks,
    and the columns a fault hits at gate k get their Paulis as one gather
    (`_hit`), skipped at a gate no row faults at; each amplitude takes the
    same value as in a run of its pattern on its own, up to the signs of
    zeros.
    """
    width = circuit.width
    chunk = 1 << max(0, (_BATCH_AMPLITUDES >> width).bit_length() - 1)
    if len(patterns) > chunk:
        return np.concatenate(
            [_faulty_cdfs(circuit, patterns[i : i + chunk]) for i in range(0, len(patterns), chunk)]
        )
    m = (len(patterns) - 1).bit_length()
    states = np.repeat(init_basis(width, 0).amps[:, None], 1 << m, axis=1)
    faulted = patterns.any(axis=0).tolist()
    for k, gate in enumerate(circuit.gates):
        apply_gate(states, width + m, gate)
        if faulted[k]:
            at = np.flatnonzero(patterns[:, k])
            states[:, at] = _hit(states[:, at].T, width, gate.qubits, patterns[at, k]).T
    cums = np.cumsum(np.abs(states[:, : len(patterns)].T) ** 2, axis=1)
    cums[:, -1] = 1.0
    return cums


def run_noisy(circuit: Circuit, profile: NoiseProfile, shots: int, seed=0) -> dict[str, int]:
    """Shot histogram under stochastic Pauli injection and readout flips.

    Shot k's stream is by definition the first doubles of
    default_rng((*seed, k)), computed for a block of shots in one
    vectorized pass, so results do not depend on how shots are batched.
    A block draws only the values that can change a count: the
    measurement draw, the fire and readout draws of nonzero rates, and,
    in each row where an error fired, the Pauli draws of the gates that
    fired in it.  The block is seeded once; the Pauli draws are jumped to
    from the states its fire columns held for the rows they fired in.
    `shots` may be at most 2^32, since a shot index is one 32-bit seed
    word; seed elements must be non-negative.  Keys are the outcomes
    read, in ascending order.

    `_faulty_cdfs` is the only simulator: it runs the noiseless circuit
    once per call as the all-zero pattern, and each block's distinct
    fault patterns, each once, in one batched pass; a shot samples its
    pattern's CDF, or the noiseless one when nothing fired.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > _streams.MAX_SHOTS:
        raise ValueError(
            f"shots must be <= 2**32 = {_streams.MAX_SHOTS}: a shot index is one 32-bit seed word"
        )
    site_prob = _site_probabilities(circuit, profile)
    width = circuit.width
    base = _seed_tuple(seed)
    n_sites = len(circuit.gates)
    pauli_count = np.array([15 if g.kind == "cx" else 3 for g in circuit.gates])
    readout = np.array(profile.readout_error[:width])
    bit_value = 1 << np.arange(width - 1, -1, -1)

    # A shot's stream holds a fire draw per gate, a Pauli draw per gate, the
    # measurement draw, then a readout draw per qubit.  `u < 0` never holds,
    # so only the measurement draw, the fire and readout draws of nonzero
    # rates, and the Pauli draws of fired gates can change a count.  Fire
    # and readout draws are tested on their 53 bits (`_streams.threshold`).
    live = np.flatnonzero(site_prob > 0)
    clean_cum = _faulty_cdfs(circuit, np.zeros((1, n_sites), np.uint8))[0]
    flips = np.flatnonzero(readout > 0)
    live_k = [_streams.threshold(p) for p in site_prob[live]]
    flip_k = [_streams.threshold(p) for p in readout[flips]]

    totals = np.zeros(1 << width, dtype=np.int64)
    for start in range(0, shots, _BLOCK_SHOTS):
        rows = min(_BLOCK_SHOTS, shots - start)
        # one pass over the drawn columns in stream order; each fire column
        # keeps the states of the lanes it fired in, whose Pauli draw is the
        # same stream n_sites columns on
        with _streams.Block(base, np.arange(start, start + rows)) as block:
            hit = []
            for site, k in zip(live, live_k):
                lanes = np.flatnonzero(block.step(site) < k)
                block.hold(lanes)
                hit.append(lanes)
            meas_u = block.step(2 * n_sites) * 2.0**-53
            flip_mask = np.zeros(rows, dtype=np.int64)
            for q, k in zip(flips, flip_k):
                flip_mask[block.step(2 * n_sites + 1 + q) < k] ^= bit_value[q]
            pick_u = block.ahead(n_sites) * 2.0**-53

        outcomes = np.searchsorted(clean_cum, meas_u, side="right")
        lanes = np.concatenate([np.empty(0, dtype=np.intp), *hit])
        if len(lanes):
            sites = np.repeat(live, [len(h) for h in hit])
            choice = (pick_u * pauli_count[sites]).astype(np.uint8) + 1
            fired, at = np.unique(lanes, return_inverse=True)
            faults = np.zeros((len(fired), n_sites), dtype=np.uint8)
            faults[at, sites] = choice
            # each row's bytes as one opaque key, so equal rows are equal
            # keys; `first` picks one row of each distinct pattern
            keys = faults.view(np.dtype((np.void, n_sites))).ravel()
            _, first, which = np.unique(keys, return_index=True, return_inverse=True)
            cdfs = _faulty_cdfs(circuit, faults[first])
            # searchsorted(side="right") on each row: a CDF is
            # non-decreasing and ends at 1.0, above every draw
            outcomes[fired] = (cdfs[which] <= meas_u[fired, None]).sum(axis=1)
        outcomes ^= flip_mask
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

    def z(self, exact: float) -> float | None:
        """The mean's distance from `exact` in binomial standard errors over
        all trials x shots: 0.0 when that error is 0 and the mean equals
        `exact`, None when it is 0 and they differ."""
        error = math.sqrt(max(exact * (1.0 - exact), 0.0) / (self.trials * self.shots))
        if error == 0.0:
            return 0.0 if self.mean == exact else None
        return (self.mean - exact) / error


@lru_cache(maxsize=64)
def _transpiled(secret: str):
    """The learner circuit of `secret` compiled onto quito."""
    return transpile(build_full_circuit(SecretString.from_string(secret)), _QUITO)


def _asp_task(s: SecretString, profile: NoiseProfile | None):
    """The transpiled circuit, the profile (zero noise when None) and a mask
    over readout indices marking the successes `estimate_asp` counts."""
    profile = NoiseProfile.zero(_QUITO.num_qubits) if profile is None else profile
    circuit, report = _transpiled(str(s))
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
) -> AspReport:
    """Monte-Carlo algorithm success probability on the circuit transpiled
    onto quito.

    Success means the measured x bits identify the secret: an exact match
    for even n; for odd n a match on the first n-1 bits, since the final
    classical query corrects the last bit either way.
    """
    if trials < 1 or shots < 1:
        raise ValueError("trials and shots must be >= 1")
    circuit, profile, success = _asp_task(s, profile)
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
    kernels.apply_unitary(rho, 2 * width, qubits, u)
    kernels.apply_unitary(rho, 2 * width, tuple(q + width for q in qubits), u.conj())
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
        if gate.kind in PERMUTATION_KINDS:
            # a real permutation: conj(u) = u, the same swap on the column qubits
            apply_gate(rho, 2 * width, gate)
            apply_gate(rho, 2 * width, Gate(gate.kind, tuple(q + width for q in gate.qubits)))
        else:
            _conjugate(rho, width, gate.qubits, gate_matrix(gate))
        if p:
            # a CX's fault c is _PAULIS[c >> 2] on the control then _PAULIS[c & 3] on
            # the target; an identity digit (0) leaves rho as it is
            faults = [(c >> 2, c & 3) for c in range(1, 16)] if gate.kind == "cx" else [(1,), (2,), (3,)]
            mixed = 0
            for fault in faults:
                faulty = rho.copy()
                for q, c in zip(gate.qubits, fault):
                    if c:
                        _conjugate(faulty, width, (q,), _PAULIS[c])
                mixed = mixed + faulty
            rho = (1.0 - p) * rho + (p / len(faults)) * mixed
    probs = rho[:: (1 << width) + 1].real.copy()
    for q, r in enumerate(profile.readout_error[:width]):
        pairs = probs.reshape(1 << q, 2, -1)
        pairs[:] = (1.0 - r) * pairs + r * pairs[:, ::-1]
    return probs


def exact_asp(s: SecretString, profile: NoiseProfile | None = None) -> float:
    """The success probability `estimate_asp` samples, computed exactly
    (to float rounding, a few 1e-16)."""
    circuit, profile, success = _asp_task(s, profile)
    return float(exact_distribution(circuit, profile)[success].sum())
