"""The teacher: longest-common-prefix oracle over a hidden bit string.

A query is a pair (x, q); the answer is 1 iff the longest common prefix
of the secret and x is longer than q.  The quantum form is a +-1 phase
diagonal over the (x, q) register, indexed with x as the high n bits and
q as the low t bits; synthesis reads that diagonal.  The learner's
rounds touch only a few (x, q) entries each, which PhaseOracle.apply_pair
signs on an amplitude array of those entries without building the
diagonal.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .statevector import check_dense_width


def _as_bits(value) -> tuple[int, ...]:
    if isinstance(value, str):
        bits = tuple(int(c) for c in value)
    else:
        bits = tuple(int(b) for b in value)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"not a bit string: {value!r}")
    return bits


@dataclass(frozen=True)
class SecretString:
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", _as_bits(self.bits))
        if len(self.bits) < 1:
            raise ValueError("secret must have at least one bit")

    @classmethod
    def from_string(cls, text: str) -> "SecretString":
        return cls(_as_bits(text))

    @property
    def n(self) -> int:
        return len(self.bits)

    def as_int(self) -> int:
        return int(str(self), 2)

    def __str__(self):
        return "".join(map(str, self.bits))


@dataclass(frozen=True)
class Query:
    x: tuple[int, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "x", _as_bits(self.x))
        if not 0 <= self.q <= len(self.x) - 1:
            raise ValueError(f"q={self.q} out of range 0..{len(self.x) - 1}")


class QueryLedger:
    """Counts of classical queries and quantum oracle uses for one learner run."""

    def __init__(self):
        self.classical_queries = 0
        self.quantum_oracle_uses = 0

    def count_classical(self) -> None:
        self.classical_queries += 1

    def count_quantum(self) -> None:
        self.quantum_oracle_uses += 1

    @property
    def total(self) -> int:
        return self.classical_queries + self.quantum_oracle_uses


def lcp(s: SecretString, x) -> int:
    """Length of the longest common prefix of s and x."""
    x = _as_bits(x)
    if len(x) != s.n:
        raise ValueError(f"x has length {len(x)}, expected {s.n}")
    for i, (a, b) in enumerate(zip(s.bits, x)):
        if a != b:
            return i
    return s.n


def f(s: SecretString, query: Query, ledger: QueryLedger | None = None) -> int:
    """The teacher's answer bit: 1 iff lcp(s, x) > q."""
    if len(query.x) != s.n:
        raise ValueError(f"query x has length {len(query.x)}, expected {s.n}")
    if ledger is not None:
        ledger.count_classical()
    return 1 if lcp(s, query.x) > query.q else 0


def make_teacher(s: SecretString, ledger: QueryLedger):
    """A ledger-counted teacher callable (x, q) -> bit."""

    def teacher(x, q: int) -> int:
        return f(s, Query(_as_bits(x), q), ledger)

    return teacher


def lcp_table(s: SecretString) -> np.ndarray:
    """lcp(s, x) for every x in 0..2^n-1 (x read MSB-first)."""
    n = s.n
    xor = np.arange(1 << n, dtype=np.int64) ^ s.as_int()
    # bit_length via frexp: exact for integers below 2^53
    _, exponents = np.frexp(xor.astype(np.float64))
    return n - np.where(xor > 0, exponents, 0)


def oracle_diagonal(s: SecretString, t: int) -> np.ndarray:
    """The +-1 phase diagonal over (x, q), length 2^(n+t).

    Entry (x << t) | q is -1 iff lcp(s, x) > q.  Padding values q >= n
    (representable in t bits but never queried) get +1 since lcp <= n.
    """
    if t < 1:
        raise ValueError("q register needs at least one qubit")
    check_dense_width(s.n + t)
    lcps = lcp_table(s)
    q_vals = np.arange(1 << t, dtype=np.int64)
    hit = lcps[:, None] > q_vals[None, :]
    return np.where(hit, -1.0, 1.0).reshape(-1)


class PhaseOracle:
    """Phase-kickback form of the teacher, applied to the learner's entries.

    The oracle ancilla is never materialized; each application counts as
    one quantum oracle use on the ledger.
    """

    def __init__(self, s: SecretString, t: int, ledger: QueryLedger | None = None):
        self.secret = s
        self.t = t
        self.ledger = ledger
        self._secret_int = s.as_int()

    def apply_pair(self, amps: np.ndarray, candidates, q: int) -> None:
        """One oracle use on the amplitudes of a learner round, in place.

        amps[k] is the amplitude of the n-bit candidate x = candidates[k]
        (an int, MSB first), with the q register fixed at `q`.  Its sign
        is -1 iff lcp(s, x) > q, i.e. iff the top q+1 bits of x and s agree.
        """
        if self.ledger is not None:
            self.ledger.count_quantum()
        n = self.secret.n
        signs = np.array([
            -1.0 if q < n and (x ^ self._secret_int) >> (n - 1 - q) == 0 else 1.0
            for x in candidates
        ])
        kernels.apply_signs(amps, signs)
