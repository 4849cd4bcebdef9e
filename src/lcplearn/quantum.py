"""Exact quantum learner: two secret bits per oracle query.

Each round i spreads qubits 2i-1, 2i into a four-way superposition over
candidate strings, moves the q register to 2i-1, applies the phase
oracle (flipping the sign of exactly one candidate), then collapses the
pair back to a basis state with the reflection operator R.  Even n needs
n/2 rounds; odd n runs (n-1)/2 rounds and finishes with one classical
query for the last bit; n=1 is a single classical query.  The learner
and synth's circuit both place a round's gates from build_round_circuit.

The state entering every round is a basis state, so a round only ever
moves four amplitudes.  run_quantum_learn therefore computes each round
as R . diag(signs) . (H x H)|00> on those four numbers and carries the
recovered prefix as an int: O(n) work per round at any n.  The traced
run and certify_round keep each round's three intermediate states, and
run the round on the state's support: a dict from basis index
(x << t) | q to amplitude.  Each H splits an entry in two, the q shift
XORs the indices, the oracle signs every entry and R mixes each pair
block, dropping exact zeros, so an amplitude that leaks shows up as an
extra entry.  A RoundTrace builds a dense 2^(n+t) view of a stage only
when it is read.  A traced run is limited to MAX_TRACE_N bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuit import H, gate_matrix
from .oracle import PhaseOracle, Query, QueryLedger, SecretString, f
# init_basis: read only by perfbench's tracer, which patches
# quantum.init_basis; drop it with the next change to the benchmark.
from .statevector import check_dense_width, init_basis  # noqa: F401

AMP_TOL = 1e-9
# A traced run keeps about 3n/2 snapshots with (n+t)-bit indices, so its
# trace grows as n^2: about 7 MB of CLI JSON at this bound.
MAX_TRACE_N = 1024

# A state's nonzero amplitudes, keyed by basis index in ascending order.
Support = dict[int, complex]


@dataclass(frozen=True)
class AlgorithmLayout:
    n: int
    t: int
    rounds: int
    uses_classical_tail: bool

    @classmethod
    def for_n(cls, n: int) -> "AlgorithmLayout":
        """n // 2 rounds, a q register just wide enough for the last round's
        threshold (none without a round), and a classical query for odd n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rounds = n // 2
        return cls(n=n, t=q_value(rounds).bit_length(), rounds=rounds, uses_classical_tail=n % 2 == 1)


def r_operator() -> np.ndarray:
    """The 4x4 reflection with -1/2 on the diagonal and +1/2 elsewhere."""
    return (np.ones((4, 4)) - 2.0 * np.eye(4)) / 2.0


# Built once and read-only: the reflection of every round, on the four
# amplitudes of _pair_round and on the supports of _traced_round.
_R = r_operator()
_R.flags.writeable = False


def q_value(i: int) -> int:
    """Threshold queried in round i: 0 before the first round, else 2i-1."""
    return 0 if i == 0 else 2 * i - 1


@dataclass(frozen=True)
class RoundCircuit:
    """Where round `index`'s gates sit in the (n+t)-qubit register: H on each
    qubit of `pair`, X on `x_qubits` (the q register from q_value(index - 1)
    to q_value(index)), the oracle, then R on `pair` with its high bit first."""

    index: int
    pair: tuple[int, int]
    x_qubits: tuple[int, ...]


def build_round_circuit(i: int, layout: AlgorithmLayout) -> RoundCircuit:
    if not 1 <= i <= layout.rounds:
        raise ValueError(f"round {i} out of range 1..{layout.rounds}")
    n, t = layout.n, layout.t
    flips = q_value(i - 1) ^ q_value(i)
    x_qubits = tuple(n + j for j in range(1, t + 1) if (flips >> (t - j)) & 1)
    return RoundCircuit(index=i, pair=(2 * i - 1, 2 * i), x_qubits=x_qubits)


@dataclass
class RoundTrace:
    round_index: int
    q_prev: int
    q_cur: int
    prefix: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    alphas: dict[tuple[int, int], float]
    width: int  # n + t qubits
    supports: dict[str, Support]  # "superposed", "phased", "collapsed"

    def dense(self, stage: str) -> np.ndarray:
        """The stage's full 2^width amplitude vector, built on each read."""
        check_dense_width(self.width)
        amps = np.zeros(1 << self.width, dtype=np.complex128)
        support = self.supports[stage]
        amps[list(support)] = list(support.values())
        return amps

    superposed = property(lambda self: self.dense("superposed"))
    phased = property(lambda self: self.dense("phased"))
    collapsed = property(lambda self: self.dense("collapsed"))


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
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_to_int(bits) -> int:
    """The bit tuple read MSB first, through its ASCII digits."""
    return int(bytes(bits).translate(_BIT_CHARS) or b"0", 2)


def _candidate_indices(s: SecretString, i: int, t: int) -> tuple[list[int], tuple]:
    """Basis indices of the four candidates prefix + k + zeros, with q = 2i-1."""
    cands = tuple(s.bits[: 2 * i - 2] + k + (0,) * (s.n - 2 * i) for k in _K_PAIRS)
    return [(_bits_to_int(bits) << t) | q_value(i) for bits in cands], cands


def _apply(support: Support, width: int, qubits: tuple, u: list) -> Support:
    """Apply the 2x2 or 4x4 matrix u (nested lists) on `qubits` of a
    width-qubit support.  The first qubit is u's high bit and the more
    significant one, so entries read in ascending index order feed each
    output in u's column order, the order of the dense kernels' sums.
    Exact zeros are dropped."""
    bits = [width - q for q in qubits]
    offsets = [sum(((row >> (len(bits) - 1 - j)) & 1) << b for j, b in enumerate(bits)) for row in range(len(u))]
    block = sum(1 << b for b in bits)
    out: Support = {}
    for idx, amp in support.items():
        col = offsets.index(idx & block)
        base = idx & ~block
        for row, offset in enumerate(offsets):
            out[base | offset] = out.get(base | offset, 0) + u[row][col] * amp
    return {idx: amp for idx, amp in sorted(out.items()) if amp != 0}


def _traced_round(
    support: Support, rc: RoundCircuit, oracle: PhaseOracle, s: SecretString, layout: AlgorithmLayout
) -> RoundTrace:
    """Apply one round to a support, keeping the support after each stage.

    Only the q shift touches the q register, so it holds one basis value
    all round and the oracle signs every entry at that q.  The input
    support is left as it is; the next round starts from the collapsed one.
    """
    i, t = rc.index, layout.t
    width = s.n + t
    for q in rc.pair:
        support = _apply(support, width, (q,), gate_matrix(H(q)).tolist())
    mask = sum(1 << (width - q) for q in rc.x_qubits)
    superposed = dict(sorted((idx ^ mask, amp) for idx, amp in support.items()))

    (q_reg,) = {idx & ((1 << t) - 1) for idx in superposed}
    amps = np.array(list(superposed.values()), dtype=np.complex128)
    oracle.apply_pair(amps, [idx >> t for idx in superposed], q_reg)
    phased = dict(zip(superposed, amps.tolist()))

    collapsed = _apply(phased, width, rc.pair, _R.tolist())

    idxs, cands = _candidate_indices(s, i, t)
    return RoundTrace(
        round_index=i,
        q_prev=q_value(i - 1),
        q_cur=q_value(i),
        prefix=s.bits[: 2 * i - 2],
        candidates=cands,
        alphas={k: phased.get(idx, 0j).real for k, idx in zip(_K_PAIRS, idxs)},
        width=width,
        supports={"superposed": superposed, "phased": phased, "collapsed": collapsed},
    )


def _check_round_trace(trace: RoundTrace, s: SecretString, layout: AlgorithmLayout) -> None:
    """Compare each stage's support with the predicted one, entry by entry:
    a missing or extra entry counts as its whole amplitude."""
    i, t = trace.round_index, layout.t
    idxs, _ = _candidate_indices(s, i, t)
    hit = (s.bits[2 * i - 2], s.bits[2 * i - 1])
    target = (_bits_to_int(s.bits[: 2 * i] + (0,) * (layout.n - 2 * i)) << t) | q_value(i)
    for stage, snapshot, expected, failure in (
        ("superposition", "superposed", dict.fromkeys(idxs, 0.5), "state is not uniform over the candidate set"),
        ("phase-pattern", "phased", {idx: -0.5 if k == hit else 0.5 for k, idx in zip(_K_PAIRS, idxs)},
         "oracle did not flip exactly the matching candidate"),
        ("basis-collapse", "collapsed", {target: 1.0}, "reflection did not land on a basis state"),
    ):
        support = trace.supports[snapshot]
        if max(abs(support.get(idx, 0) - expected.get(idx, 0)) for idx in support.keys() | expected.keys()) > AMP_TOL:
            raise CertificationError(stage, f"round {i} {failure}")


def _pair_round(rc: RoundCircuit, oracle: PhaseOracle, prefix: int, n: int) -> int:
    """Run round rc.index on the four amplitudes of its pair.

    `prefix` holds the 2i-2 bits recovered so far.  Amplitude k stands for
    the candidate x = prefix . k . 0...; the q register sits at q_value(i)
    for the whole round, so it is passed as a number.  Every amplitude is
    a sum of +-1/4 terms, so an exact round collapses to exactly 1.0 at
    one k.  Returns that k in 0..3.
    """
    shift = n - 2 * rc.index
    candidates = [((prefix << 2) | k) << shift for k in range(4)]
    amps = np.array((0.5, 0.5, 0.5, 0.5))  # (H x H)|00>
    oracle.apply_pair(amps, candidates, q_value(rc.index))
    amps = (_R @ amps).tolist()
    k = max(range(4), key=lambda j: abs(amps[j]))
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

    With trace=True the rounds run on the state's support and return each
    round's intermediate states; that needs n <= MAX_TRACE_N, and raises
    ValueError beyond it before any round.
    """
    n = s.n
    if trace and n > MAX_TRACE_N:
        raise ValueError(f"a traced run is limited to {MAX_TRACE_N} bits, got {n}")
    layout = AlgorithmLayout.for_n(n)
    ledger = QueryLedger()
    traces: list[RoundTrace] = []
    x_bits = (0,) * n

    if layout.rounds > 0:
        oracle = PhaseOracle(s, ledger)
        if trace:
            support: Support = {0: 1 + 0j}
            for i in range(1, layout.rounds + 1):
                traces.append(_traced_round(support, build_round_circuit(i, layout), oracle, s, layout))
                support = traces[-1].supports["collapsed"]
            idx, amp = max(support.items(), key=lambda entry: abs(entry[1]), default=(0, 0j))
            if abs(amp) ** 2 < 1.0 - AMP_TOL:
                raise RuntimeError("final state is not a basis state; learner not exact")
            x_bits = tuple(int(c) for c in format(idx >> layout.t, f"0{n}b"))
        else:
            prefix = 0
            for i in range(1, layout.rounds + 1):
                prefix = (prefix << 2) | _pair_round(build_round_circuit(i, layout), oracle, prefix, n)
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
    rc = build_round_circuit(i, layout)  # refuses i outside 1..rounds
    prefix_bits = s.bits[: 2 * i - 2] + (0,) * (s.n - (2 * i - 2))
    start = {(_bits_to_int(prefix_bits) << layout.t) | q_value(i - 1): 1 + 0j}
    trace = _traced_round(start, rc, PhaseOracle(s), s, layout)
    _check_round_trace(trace, s, layout)
    return trace
