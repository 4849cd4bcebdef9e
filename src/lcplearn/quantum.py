"""Exact quantum learner: two secret bits per oracle query.

Each round i spreads qubits 2i-1, 2i into a four-way superposition over
candidate strings, moves the q register to 2i-1, applies the phase
oracle (flipping the sign of exactly one candidate), then collapses the
pair back to a basis state with the reflection operator R.  Even n needs
n/2 rounds; odd n runs (n-1)/2 rounds and finishes with one classical
query for the last bit; n=1 is a single classical query.

The state entering every round is a basis state, so a round only ever
moves four amplitudes.  run_quantum_learn therefore computes each round
as R . diag(signs) . (H x H)|00> on those four numbers and carries the
recovered prefix as an int: O(n) work per round at any n.  The dense
(n+t)-qubit statevector stays the reference for the traced run and
certify_round, whose RoundTraces hold full states.  _traced_round applies
a round to the only axes it touches, the pair and the q register: 2x2
and 4x4 products and one index gather.  A traced run is bounded by
MAX_DENSE_QUBITS, for one state and for all its snapshots together.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, H, X, gate_matrix
from .oracle import PhaseOracle, Query, QueryLedger, SecretString, f
from .statevector import MAX_DENSE_QUBITS, Statevector, check_dense_width, init_basis

AMP_TOL = 1e-9


@dataclass(frozen=True)
class AlgorithmLayout:
    n: int
    t: int
    rounds: int
    uses_classical_tail: bool

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"

    @property
    def total_queries(self) -> int:
        return self.rounds + (1 if self.uses_classical_tail else 0)

    @classmethod
    def for_n(cls, n: int) -> "AlgorithmLayout":
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return cls(n=1, t=0, rounds=0, uses_classical_tail=True)
        if n % 2 == 0:
            return cls(n=n, t=math.ceil(math.log2(n)), rounds=n // 2, uses_classical_tail=False)
        return cls(
            n=n,
            t=math.ceil(math.log2(n - 1)),
            rounds=(n - 1) // 2,
            uses_classical_tail=True,
        )


def r_operator() -> np.ndarray:
    """The 4x4 reflection with -1/2 on the diagonal and +1/2 elsewhere."""
    return (np.ones((4, 4)) - 2.0 * np.eye(4)) / 2.0


# Built once for the per-round applications and read-only: _R for the
# four real amplitudes of _pair_round; _R_COMPLEX and H's own matrix for
# the products _traced_round takes on the dense state's pair axis.
_R = r_operator()
_R.flags.writeable = False
_R_COMPLEX = _R.astype(np.complex128)
_R_COMPLEX.flags.writeable = False
_H_COMPLEX = gate_matrix(H(1))


def q_value(i: int) -> int:
    """Threshold queried in round i: 0 before the first round, else 2i-1."""
    return 0 if i == 0 else 2 * i - 1


def q_shift(i: int, t: int) -> Circuit:
    """X gates flipping the q register from its round-(i-1) to round-i value."""
    if i < 1:
        raise ValueError("rounds are numbered from 1")
    prev, cur = q_value(i - 1), q_value(i)
    if cur >= (1 << t):
        raise ValueError(f"round {i} does not fit a {t}-qubit q register")
    mask = prev ^ cur
    gates = [X(j) for j in range(1, t + 1) if (mask >> (t - j)) & 1]
    return Circuit(t, gates)


@dataclass(frozen=True)
class RoundCircuit:
    """One learner round: H pair, q-register shift, oracle, reflection."""

    index: int
    h_qubits: tuple[int, int]
    x_qubits: tuple[int, ...]  # absolute indices in the (n+t)-qubit register
    r_qubits: tuple[int, int]
    oracle: PhaseOracle


def build_round_circuit(i: int, layout: AlgorithmLayout, oracle: PhaseOracle) -> RoundCircuit:
    if not 1 <= i <= layout.rounds:
        raise ValueError(f"round {i} out of range 1..{layout.rounds}")
    n, t = layout.n, layout.t
    shift = q_shift(i, t)
    return RoundCircuit(
        index=i,
        h_qubits=(2 * i - 1, 2 * i),
        x_qubits=tuple(n + g.qubits[0] for g in shift.gates),
        r_qubits=(2 * i - 1, 2 * i),
        oracle=oracle,
    )


@dataclass
class RoundTrace:
    round_index: int
    q_prev: int
    q_cur: int
    prefix: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    alphas: dict[tuple[int, int], float]
    superposed: np.ndarray
    phased: np.ndarray
    collapsed: np.ndarray


@dataclass
class QuantumRunResult:
    recovered: tuple[int, ...]
    quantum_uses: int
    classical_queries: int
    traces: list[RoundTrace] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return self.quantum_uses + self.classical_queries


class CertificationError(AssertionError):
    """A round snapshot deviated from the predicted evolution."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


_K_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _bits_to_int(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def _candidate_indices(s: SecretString, i: int, t: int) -> tuple[list[int], tuple]:
    """Basis indices of the four candidates prefix + k + zeros, with q = 2i-1."""
    n = s.n
    prefix = s.bits[: 2 * i - 2]
    q_cur = q_value(i)
    idxs, cands = [], []
    for k1, k2 in _K_PAIRS:
        bits = prefix + (k1, k2) + (0,) * (n - 2 * i)
        idxs.append((_bits_to_int(bits) << t) | q_cur)
        cands.append(bits)
    return idxs, tuple(cands)


def _traced_round(
    state: Statevector, rc: RoundCircuit, s: SecretString, layout: AlgorithmLayout
) -> RoundTrace:
    """Apply one round while snapshotting the three intermediate states.

    Each stage writes a new array, its snapshot; R acts on the pair as
    adjacent qubits.  state.amps ends bound to the collapsed array.
    """
    i, t = rc.index, layout.t
    amps = state.amps
    for q in rc.h_qubits:
        amps = np.matmul(_H_COMPLEX, amps.reshape(1 << (q - 1), 2, -1))
    mask = sum(1 << (state.num_qubits - q) for q in rc.x_qubits)
    psi_superposed = np.take(amps.reshape(-1, 1 << t), np.arange(1 << t) ^ mask, axis=1).reshape(-1)

    state.amps = psi_superposed.copy()
    rc.oracle.apply(state)
    psi_phased = state.amps

    psi_collapsed = np.matmul(_R_COMPLEX, psi_phased.reshape(1 << (rc.r_qubits[0] - 1), 4, -1)).reshape(-1)
    state.amps = psi_collapsed

    idxs, cands = _candidate_indices(s, i, t)
    alphas = {k: float(psi_phased[idx].real) for k, idx in zip(_K_PAIRS, idxs)}
    return RoundTrace(
        round_index=i,
        q_prev=q_value(i - 1),
        q_cur=q_value(i),
        prefix=s.bits[: 2 * i - 2],
        candidates=cands,
        alphas=alphas,
        superposed=psi_superposed,
        phased=psi_phased,
        collapsed=psi_collapsed,
    )


def _max_deviation(vec: np.ndarray, idxs, values) -> float:
    """max |vec - expected|, where expected holds `values` at idxs and 0 elsewhere."""
    dev = np.abs(vec)
    dev[idxs] = np.abs(vec[idxs] - values)
    return float(dev.max())


def _check_round_trace(trace: RoundTrace, s: SecretString, layout: AlgorithmLayout) -> None:
    i = trace.round_index
    idxs, _ = _candidate_indices(s, i, layout.t)

    if _max_deviation(trace.superposed, idxs, 0.5) > AMP_TOL:
        raise CertificationError(
            "superposition", f"round {i} state is not uniform over the candidate set"
        )

    hit = (s.bits[2 * i - 2], s.bits[2 * i - 1])
    phases = [-0.5 if k == hit else 0.5 for k in _K_PAIRS]
    if _max_deviation(trace.phased, idxs, phases) > AMP_TOL:
        raise CertificationError(
            "phase-pattern", f"round {i} oracle did not flip exactly the matching candidate"
        )

    n, t = layout.n, layout.t
    bits = s.bits[: 2 * i] + (0,) * (n - 2 * i)
    target = (_bits_to_int(bits) << t) | q_value(i)
    if _max_deviation(trace.collapsed, [target], 1.0) > AMP_TOL:
        raise CertificationError(
            "basis-collapse", f"round {i} reflection did not land on a basis state"
        )


def _pair_round(rc: RoundCircuit, prefix: int, n: int) -> int:
    """Run round rc.index on the four amplitudes of its pair.

    `prefix` holds the 2i-2 bits recovered so far.  Amplitude k stands for
    the candidate x = prefix . k . 0...; the q register sits at q_value(i)
    for the whole round, so it is passed as a number.  Every amplitude is
    a sum of +-1/4 terms, so an exact round collapses to exactly 1.0 at
    one k.  Returns that k in 0..3.
    """
    shift = n - 2 * rc.index
    candidates = [((prefix << 2) | k) << shift for k in range(4)]
    amps = np.full(4, 0.5)  # (H x H)|00>
    rc.oracle.apply_pair(amps, candidates, q_value(rc.index))
    amps = _R @ amps
    k = int(np.argmax(np.abs(amps)))
    if amps[k] * amps[k] < 1.0 - AMP_TOL:
        raise RuntimeError(f"round {rc.index} did not collapse to a basis state; learner not exact")
    return k


def _classical_tail(
    s: SecretString, x_bits: tuple[int, ...], ledger: QueryLedger | None = None
) -> tuple[int, ...]:
    """The odd-n fix-up: x_bits with its last bit settled by one classical
    query (x, n-1), which answers 1 iff x also agrees with s on bit n;
    a 0 answer flips that bit."""
    if f(s, Query(x_bits, s.n - 1), ledger):
        return x_bits
    return x_bits[:-1] + (x_bits[-1] ^ 1,)


def run_quantum_learn(s: SecretString, trace: bool = False) -> QuantumRunResult:
    """Recover the secret with ceil(n/2) total oracle interactions.

    With trace=True the rounds run on the dense statevector and return
    each round's intermediate states; that needs n + t <= MAX_DENSE_QUBITS
    and the 3 * rounds snapshots to fit one such state's amplitudes, and
    raises ValueError beyond either before allocating.
    """
    n = s.n
    layout = AlgorithmLayout.for_n(n)
    ledger = QueryLedger()
    traces: list[RoundTrace] = []
    x_bits = (0,) * n

    if layout.rounds > 0:
        oracle = PhaseOracle(s, layout.t, ledger)
        if trace:
            width = n + layout.t
            check_dense_width(width)
            if 3 * layout.rounds << width > 1 << MAX_DENSE_QUBITS:
                raise ValueError(f"{3 * layout.rounds} snapshots of 2^{width} amplitudes exceed "
                                 f"the trace budget of 2^{MAX_DENSE_QUBITS} amplitudes")
            state = init_basis(width, 0)
            for i in range(1, layout.rounds + 1):
                traces.append(_traced_round(state, build_round_circuit(i, layout, oracle), s, layout))
            outcome = state.dominant_outcome(tol=AMP_TOL)
            if outcome is None:
                raise RuntimeError("final state is not a basis state; learner not exact")
            x_bits = tuple(int(c) for c in outcome[:n])
        else:
            prefix = 0
            for i in range(1, layout.rounds + 1):
                prefix = (prefix << 2) | _pair_round(build_round_circuit(i, layout, oracle), prefix, n)
            width = 2 * layout.rounds
            x_bits = tuple(int(c) for c in format(prefix, f"0{width}b")) + x_bits[width:]

    if layout.uses_classical_tail:
        x_bits = _classical_tail(s, x_bits, ledger)

    return QuantumRunResult(
        recovered=x_bits,
        quantum_uses=ledger.quantum_oracle_uses,
        classical_queries=ledger.classical_queries,
        traces=traces,
    )


def certify_round(s: SecretString, i: int) -> RoundTrace:
    """Run round i from its predicted input state and certify each stage.

    Raises CertificationError naming the failing stage (superposition,
    phase-pattern, or basis-collapse).
    """
    layout = AlgorithmLayout.for_n(s.n)
    if not 1 <= i <= layout.rounds:
        raise ValueError(f"round {i} out of range 1..{layout.rounds}")
    n, t = s.n, layout.t
    prefix_bits = s.bits[: 2 * i - 2] + (0,) * (n - (2 * i - 2))
    state = init_basis(n + t, (_bits_to_int(prefix_bits) << t) | q_value(i - 1))
    rc = build_round_circuit(i, layout, PhaseOracle(s, t))
    trace = _traced_round(state, rc, s, layout)
    _check_round_trace(trace, s, layout)
    return trace
