"""Optimal classical learner and the decision-tree lower bounds.

The learner pins one secret bit per query: starting from the all-zero
guess, querying (x, q) reveals whether the prefix match extends past
position q, and a 0 answer means bit q+1 of the guess is wrong.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .oracle import QueryLedger, SecretString, make_teacher

Teacher = Callable[[tuple[int, ...], int], int]

MAX_EXHAUSTIVE_N = 12  # verify_optimality walks all 2^n secrets


class ProtocolError(RuntimeError):
    """Teacher returned something other than a bit."""


def learn_classical(teacher: Teacher, n: int) -> tuple[tuple[int, ...], int]:
    """Recover the secret with exactly n queries to the teacher."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = [0] * n
    queries = 0
    for q in range(n):
        answer = teacher(tuple(x), q)
        queries += 1
        if answer not in (0, 1):
            raise ProtocolError(f"teacher returned {answer!r}, expected a bit")
        if answer == 0:
            x[q] ^= 1
    return tuple(x), queries


@dataclass(frozen=True)
class LowerBoundReport:
    num_leaves: int
    gamma: float
    min_epl: float
    min_avg_queries: float


def min_external_path_length(num_leaves: int) -> LowerBoundReport:
    """Minimum external path length of a binary tree with the given leaves.

    N * (log2 N + 1 + gamma - 2^gamma) with gamma = ceil(log2 N) - log2 N.
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    log_n = math.log2(num_leaves)
    gamma = math.ceil(log_n) - log_n
    epl = num_leaves * (log_n + 1.0 + gamma - 2.0**gamma)
    return LowerBoundReport(num_leaves, gamma, epl, epl / num_leaves)


@dataclass(frozen=True)
class OptimalityReport:
    n: int
    secrets_checked: int
    all_recovered: bool
    queries_each: int
    avg_queries: float
    lower_bound: float

    @property
    def optimal(self) -> bool:
        return self.all_recovered and abs(self.avg_queries - self.lower_bound) < 1e-9


def verify_optimality(n: int) -> OptimalityReport:
    """Exhaustively check the learner against every n-bit secret."""
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive verification supports 1 <= n <= {MAX_EXHAUSTIVE_N}")
    total_queries = 0
    all_ok = True
    for value in range(1 << n):
        bits = tuple((value >> (n - 1 - j)) & 1 for j in range(n))
        secret = SecretString(bits)
        ledger = QueryLedger()
        recovered, queries = learn_classical(make_teacher(secret, ledger), n)
        if recovered != secret.bits or queries != n or ledger.classical_queries != n:
            all_ok = False
        total_queries += queries
    bound = min_external_path_length(1 << n).min_avg_queries
    return OptimalityReport(
        n=n,
        secrets_checked=1 << n,
        all_recovered=all_ok,
        queries_each=n,
        avg_queries=total_queries / (1 << n),
        lower_bound=bound,
    )
