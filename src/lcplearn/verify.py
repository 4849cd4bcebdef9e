"""End-to-end verification suites behind the CLI verify command.

Each suite returns CheckResult rows; a row fails rather than raises so a
full report always prints.  The published per-secret oracle diagonals
are frozen here as literals and double as regression vectors.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate
from .classical import min_external_path_length, verify_optimality
from .noise import NoiseProfile, estimate_asp, exact_asp
from .oracle import Query, SecretString, f, oracle_diagonal
from .quantum import CertificationError, certify_round, run_quantum_learn
from .statevector import simulate
from .synth import build_full_circuit, synth_diagonal
from .transpile import (
    CouplingGraph,
    check_legal,
    optimize,
    rewrite_to_device,
    transpile,
)

SUITES = ("classical", "quantum", "synth", "transpile", "noise")

# Published oracle diagonals, indexed (x << t) | q with t = 1.
PUBLISHED_DIAGONALS = {
    "00": (-1, -1, -1, 1, 1, 1, 1, 1),
    "01": (-1, 1, -1, -1, 1, 1, 1, 1),
    "10": (1, 1, 1, 1, -1, -1, -1, 1),
    "11": (1, 1, 1, 1, -1, 1, -1, -1),
    "000": (-1, -1, -1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "010": (-1, 1, -1, 1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1),
    "100": (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 1, -1, 1),
    "110": (1, 1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1),
}

DEMO_SECRETS = ("00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}" + (f"  [{self.detail}]" if self.detail else "")


def _all_secrets(n: int):
    for value in range(1 << n):
        yield SecretString(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))


def _min_epl_recurrence(n_leaves: int) -> int:
    """Independent check: DP over leaf splits, each split adds one level."""

    @lru_cache(maxsize=None)
    def best(leaves: int) -> int:
        if leaves == 1:
            return 0
        return min(best(l) + best(leaves - l) for l in range(1, leaves // 2 + 1)) + leaves

    return best(n_leaves)


def suite_classical(max_n: int = 10) -> list[CheckResult]:
    rows = []
    start = time.perf_counter()
    for n in range(1, max_n + 1):
        report = verify_optimality(n)
        ok = report.optimal and report.avg_queries == float(n)
        rows.append(
            CheckResult(
                f"classical n={n} exhaustive",
                ok,
                f"{report.secrets_checked} secrets, avg {report.avg_queries:g} (bound {report.lower_bound:g})",
            )
        )
    elapsed = time.perf_counter() - start
    rows.append(CheckResult("classical runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"))

    ok = all(
        abs(min_external_path_length(n_leaves).min_epl - _min_epl_recurrence(n_leaves)) < 1e-9
        for n_leaves in range(1, 11)
    )
    rows.append(CheckResult("min EPL formula vs recurrence, N <= 10", ok))
    ok = all(
        abs(min_external_path_length(1 << n).min_epl - n * (1 << n)) < 1e-9
        for n in range(1, 21)
    )
    rows.append(CheckResult("min EPL closed form N = 2^n, n <= 20", ok))
    return rows


def _quantum_run_ok(s: SecretString) -> bool:
    n = s.n
    result = run_quantum_learn(s)
    return (
        result.recovered == s.bits
        and result.quantum_uses == n // 2
        and result.classical_queries == (0 if n % 2 == 0 else 1)
    )


def suite_quantum(max_n: int = 8, random_secrets: int = 256, seed: int = 2024) -> list[CheckResult]:
    rows = []
    start = time.perf_counter()
    for n in range(2, max_n + 1):
        ok = all(_quantum_run_ok(s) for s in _all_secrets(n))
        rows.append(CheckResult(f"quantum n={n} exhaustive", ok, f"{1 << n} secrets"))

    rng = np.random.default_rng(seed)
    sizes = range(9, 17)
    per_n = max(1, random_secrets // len(sizes))
    ok = True
    for n in sizes:
        for _ in range(per_n):
            s = SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
            result = run_quantum_learn(s)
            if result.recovered != s.bits or result.total_queries != math.ceil(n / 2):
                ok = False
    rows.append(
        CheckResult(
            f"quantum n=9..16 random x{per_n} each", ok, f"{per_n * len(sizes)} secrets"
        )
    )
    elapsed = time.perf_counter() - start
    rows.append(CheckResult("quantum runtime < 2 min", elapsed < 120.0, f"{elapsed:.2f} s"))

    ok = True
    detail = ""
    for n in range(2, 7):
        for s in _all_secrets(n):
            for i in range(1, n // 2 + 1):
                try:
                    certify_round(s, i)
                except CertificationError as exc:
                    ok = False
                    detail = f"s={s} round {i}: {exc.stage}"
    rows.append(CheckResult("round certification n <= 6 exhaustive", ok, detail))
    return rows


def _matrix_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    k = int(np.argmax(np.abs(a)))
    ref = b.flat[k]
    if abs(ref) <= tol:
        return False
    lam = a.flat[k] / ref
    lam /= abs(lam)
    return float(np.max(np.abs(a - lam * b))) <= tol


def suite_synth() -> list[CheckResult]:
    rows = []
    ok = True
    for text, expected in PUBLISHED_DIAGONALS.items():
        got = oracle_diagonal(SecretString.from_string(text), 1)
        if not np.array_equal(got, np.array(expected, dtype=float)):
            ok = False
    rows.append(CheckResult("published diagonals bit-exact", ok, f"{len(PUBLISHED_DIAGONALS)} printed"))

    ok = all(
        np.array_equal(
            oracle_diagonal(SecretString.from_string(p + "0"), 1),
            oracle_diagonal(SecretString.from_string(p + "1"), 1),
        )
        for p in ("00", "01", "10", "11")
    )
    rows.append(CheckResult("n=3 oracle sharing for shared two-bit prefixes", ok))

    ok = True
    budget_ok = True
    for text in DEMO_SECRETS:
        signs = oracle_diagonal(SecretString.from_string(text), 1)
        circuit = synth_diagonal(signs)
        if not _matrix_equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary(), 1e-9):
            ok = False
        counts = circuit.gate_counts()
        if circuit.width == 3 and (counts["cx"] > 6 or counts["rz"] > 7):
            budget_ok = False
    rows.append(CheckResult("published oracles synthesize equivalently", ok, "12 instances"))
    rows.append(CheckResult("3-qubit oracle budget cx<=6 rz<=7", budget_ok))

    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 6))
        signs = rng.choice([-1.0, 1.0], size=1 << m)
        circuit = synth_diagonal(signs)
        if not _matrix_equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary(), 1e-9):
            ok = False
        counts = circuit.gate_counts()
        if counts["cx"] > (1 << m) - 2 or counts["rz"] > (1 << m) - 1:
            ok = False
    rows.append(CheckResult("random diagonals m<=5: equivalence and gray budget", ok, "100 cases"))
    return rows


def _recovers_secret(circuit: Circuit, mapping, s: SecretString) -> bool:
    """Simulate the physical circuit and apply the odd-n classical fix-up."""
    state = simulate(circuit)
    outcome = state.dominant_outcome(tol=1e-9)
    if outcome is None:
        return False
    x_bits = tuple(int(outcome[mapping[j]]) for j in range(s.n))
    if s.n % 2 == 0:
        return x_bits == s.bits
    answer = f(s, Query(x_bits, s.n - 1))
    last = x_bits[-1] if answer == 1 else x_bits[-1] ^ 1
    return x_bits[: s.n - 1] + (last,) == s.bits


def suite_transpile() -> list[CheckResult]:
    rows = []
    linear3 = CouplingGraph.linear(3)
    quito = CouplingGraph.quito()

    ok = True
    budget_row = None
    for text in DEMO_SECRETS:
        s = SecretString.from_string(text)
        graph = linear3 if s.n == 2 else quito
        circuit = build_full_circuit(s)
        final, report = transpile(circuit, graph)
        legal_gates, legal_edges = check_legal(final, graph)
        if not (legal_gates and legal_edges and _recovers_secret(final, report.mapping, s)):
            ok = False
        if text == "00":
            counts = report.final_counts
            depth = report.final_depth
            budget_row = CheckResult(
                "n=2 s=00 budget cx<=11 depth<=20",
                counts["cx"] <= 11 and depth <= 20,
                f"cx {counts['cx']} (published 9, delta {counts['cx'] - 9:+d}), "
                f"depth {depth} (published 15, delta {depth - 15:+d}), "
                f"rz {counts['rz']}, sx {counts['sx']}, x {counts['x']}",
            )
    rows.append(CheckResult("demo instances transpile legal and recover", ok, "12 instances"))
    rows.append(budget_row)

    rng = np.random.default_rng(5)
    sound = idempotent = shrinking = True
    for _ in range(200):
        circuit = _random_circuit(rng, width=4, max_gates=80)
        ref = circuit.unitary()
        rewritten = rewrite_to_device(circuit)
        if not _matrix_equal_up_to_phase(ref, rewritten.unitary(), 1e-9):
            sound = False
        optimized, _ = optimize(rewritten)
        if not _matrix_equal_up_to_phase(ref, optimized.unitary(), 1e-9):
            sound = False
        if len(optimized) > len(rewritten):
            shrinking = False
        again, _ = optimize(optimized)
        if again != optimized:
            idempotent = False
    rows.append(CheckResult("passes preserve unitary up to phase (200 random)", sound))
    rows.append(CheckResult("optimize never increases gate count", shrinking))
    rows.append(CheckResult("optimize is idempotent", idempotent))
    return rows


def _random_circuit(rng, width: int, max_gates: int) -> Circuit:
    gates = []
    n_gates = int(rng.integers(1, max_gates + 1))
    for _ in range(n_gates):
        kind = str(rng.choice(["x", "z", "h", "sx", "rz", "cx"]))
        if kind == "cx":
            a, b = rng.choice(width, size=2, replace=False) + 1
            gates.append(Gate("cx", (int(a), int(b))))
        elif kind == "rz":
            gates.append(Gate("rz", (int(rng.integers(1, width + 1)),), float(rng.uniform(-math.pi, math.pi))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, width + 1)),)))
    return Circuit(width, gates)


def suite_noise() -> list[CheckResult]:
    rows = []
    start = time.perf_counter()

    ok = True
    for text in DEMO_SECRETS:
        report = estimate_asp(SecretString.from_string(text), trials=1, shots=512, seed=3)
        if report.mean != 1.0:
            ok = False
    rows.append(CheckResult("zero-noise asp = 1.0", ok, "12 instances"))

    base = NoiseProfile.quito()
    worst = 0.0
    for text in DEMO_SECRETS:
        demo = SecretString.from_string(text)
        exact = exact_asp(demo, base)
        estimate = estimate_asp(demo, base, trials=1, shots=2048, seed=21).mean
        worst = max(worst, abs(estimate - exact) / math.sqrt(exact * (1.0 - exact) / 2048))
    rows.append(
        CheckResult(
            "quito asp within 5 SE of exact density matrix (2048 shots)",
            worst <= 5.0,
            f"12 instances, worst {worst:.2f} SE",
        )
    )

    s = SecretString.from_string("00")
    steps = []
    for family in ("cx", "readout", "sq"):
        exact = [exact_asp(s, base.scaled(**{family: scale})) for scale in (0.5, 1.0, 2.0)]
        steps += [exact[0] - exact[1], exact[1] - exact[2]]
    rows.append(
        CheckResult(
            "exact asp strictly decreasing in each error family",
            min(steps) > 0.0,
            f"smallest step {min(steps):.2e}",
        )
    )

    mono = True
    for family in ("cx", "readout", "sq"):
        means = []
        for scale in (0.5, 1.0, 2.0):
            profile = base.scaled(**{family: scale})
            means.append(estimate_asp(s, profile, trials=1, shots=4096, seed=17).mean)
        if not (means[0] + 5e-3 >= means[1] >= means[2] - 5e-3):
            mono = False
    rows.append(CheckResult("asp monotone in each error family (3-point grids)", mono))

    a = estimate_asp(s, base, trials=5, shots=8192, seed=99)
    b = estimate_asp(s, base, trials=5, shots=8192, seed=99)
    rows.append(
        CheckResult(
            "seeded 5x8192 runs bit-reproducible",
            a.per_trial == b.per_trial,
            f"mean asp {a.mean:.4f}",
        )
    )
    elapsed = time.perf_counter() - start
    rows.append(CheckResult("noise runtime < 2 min", elapsed < 120.0, f"{elapsed:.2f} s"))
    return rows


def run_suites(names, max_n: int | None = None) -> list[CheckResult]:
    rows: list[CheckResult] = []
    if "classical" in names:
        rows.extend(suite_classical(10 if max_n is None else max_n))
    if "quantum" in names:
        rows.extend(suite_quantum(8 if max_n is None else max_n))
    if "synth" in names:
        rows.extend(suite_synth())
    if "transpile" in names:
        rows.extend(suite_transpile())
    if "noise" in names:
        rows.extend(suite_noise())
    return rows
