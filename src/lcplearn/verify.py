"""End-to-end verification suites behind the CLI verify command.

Each suite returns CheckResult rows; a row fails rather than raises so a
full report always prints.  The published per-secret oracle diagonals
are frozen here as literals and double as regression vectors.
"""

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._streams import Block
from .circuit import CX, Circuit, Gate, serialize
from .classical import min_external_path_length, verify_optimality
from .noise import NoiseProfile, estimate_asp, exact_asp
from .oracle import SecretString, oracle_diagonal
from .quantum import CertificationError, _classical_tail, certify_round, run_quantum_learn
from .statevector import _equal_up_to_phase, simulate
from .synth import build_full_circuit, synth_diagonal
from .transpile import CouplingGraph, QubitMapping, _route, check_legal, optimize, rewrite_to_device, transpile

SUITES = ("classical", "quantum", "synth", "transpile", "noise")

# The quantum suite's random rows: how many secrets in all, and their seed.
QUANTUM_RANDOM_SECRETS = 256
QUANTUM_RANDOM_SEED = 2024
# Round certification past the exhaustive sizes: secrets per size, the sizes.
CERTIFY_RANDOM_SECRETS = 3
CERTIFY_SIZES = (64, 256, 1024)

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


def suite_quantum(max_n: int = 8) -> list[CheckResult]:
    rows = []
    start = time.perf_counter()
    for n in range(2, max_n + 1):
        ok = all(_quantum_run_ok(s) for s in _all_secrets(n))
        rows.append(CheckResult(f"quantum n={n} exhaustive", ok, f"{1 << n} secrets"))

    rng = np.random.default_rng(QUANTUM_RANDOM_SEED)
    sizes = range(9, 17)
    per_n = max(1, QUANTUM_RANDOM_SECRETS // len(sizes))
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

    detail = _certification_failure(s for n in range(2, 7) for s in _all_secrets(n))
    rows.append(CheckResult("round certification n <= 6 exhaustive", not detail, detail))

    rng = np.random.default_rng(QUANTUM_RANDOM_SEED)
    start = time.perf_counter()
    detail = _certification_failure(
        SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
        for n in CERTIFY_SIZES for _ in range(CERTIFY_RANDOM_SECRETS)
    )
    elapsed = time.perf_counter() - start
    summary = f"{CERTIFY_RANDOM_SECRETS} each at n={', '.join(map(str, CERTIFY_SIZES))}, {elapsed:.2f} s"
    rows.append(
        CheckResult("round certification random secrets", not detail, "; ".join(filter(None, (summary, detail))))
    )
    return rows


def _certification_failure(secrets) -> str:
    """Certify every round of each secret: '' if all pass, else the last failure."""
    detail = ""
    for s in secrets:
        for i in range(1, s.n // 2 + 1):
            try:
                certify_round(s, i)
            except CertificationError as exc:
                detail = f"s={s} round {i}: {exc.stage}"
    return detail


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
        if not _equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary(), 1e-9):
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
        if not _equal_up_to_phase(np.diag(signs).astype(complex), circuit.unitary(), 1e-9):
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
    if s.n % 2:
        x_bits = _classical_tail(s, x_bits)
    return x_bits == s.bits


def suite_transpile() -> list[CheckResult]:
    rows = []
    linear3 = CouplingGraph.linear(3)
    quito = CouplingGraph.quito()

    ok = True
    budget_row = None
    compiles = []
    for text in DEMO_SECRETS:
        s = SecretString.from_string(text)
        graph = linear3 if s.n == 2 else quito
        circuit = build_full_circuit(s)
        final, report = transpile(circuit, graph)
        compiles.append((circuit, graph, final, report))
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
    chain = build_full_circuit(SecretString.from_string("0110"))
    line = CouplingGraph.linear(chain.width)
    compiles.append((chain, line, *transpile(chain, line, QubitMapping.identity(chain.width))))
    matched = True
    for circuit, graph, final, report in compiles:  # each record against its stage rebuilt from the mapping
        routed = Circuit(graph.num_qubits, _route(circuit, report.mapping, graph, {}))
        stages = (circuit, circuit, routed, rewrite_to_device(routed), final)
        matched &= [(r.counts, r.depth) for r in report.stages] == [(c.gate_counts(), c.depth()) for c in stages]
    rows.append(CheckResult("stage records match the stage circuits", matched, f"{len(compiles)} compiles"))
    rows.append(_routing_row())
    rows.append(_keyed_search_row())

    rng = np.random.default_rng(5)
    sound = idempotent = shrinking = True
    for _ in range(200):
        circuit = _random_circuit(rng, width=4, max_gates=80)
        ref = circuit.unitary()
        rewritten = rewrite_to_device(circuit)
        if not _equal_up_to_phase(ref, rewritten.unitary(), 1e-9):
            sound = False
        optimized, _ = optimize(rewritten)
        if not _equal_up_to_phase(ref, optimized.unitary(), 1e-9):
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


def _routing_row() -> CheckResult:
    """Both expansion orders of every ordered pair's routed CX: coupled
    CNOTs only, the exact CX unitary, and 4(d-1) CNOTs at distance d >= 2."""
    ok = True
    pairs = 0
    for graph in (CouplingGraph.quito(), CouplingGraph.linear(7)):
        width = graph.num_qubits
        for a, b in itertools.permutations(range(width), 2):
            ladders = graph.routes[a, b]
            d = len(graph.shortest_path(a, b)) - 1
            expected = Circuit(width, [CX(a + 1, b + 1)]).unitary()
            for ladder in ladders:
                fragment = Circuit(width, ladder)
                ok &= check_legal(fragment, graph) == (True, True)
                ok &= len(fragment) == (1 if d == 1 else 4 * (d - 1))
                ok &= bool(np.allclose(fragment.unitary(), expected))
            pairs += 1
    return CheckResult(
        "routed CX on every pair of quito and a 7-line: legal, equal to CX, 4(d-1) CNOTs",
        ok,
        f"{pairs} ordered pairs, both expansion orders",
    )


def _keyed_search_row() -> CheckResult:
    """The auto-map search compiles one mapping per placement key;
    compiling every mapping on its own must pick the same mapping, final
    circuit and report."""
    quito = CouplingGraph.quito()
    ok = True
    for text in ("01", "101"):
        circuit = build_full_circuit(SecretString.from_string(text))
        compiles = {
            physical: transpile(circuit, quito, mapping=QubitMapping(physical))
            for physical in itertools.permutations(range(quito.num_qubits), circuit.width)
        }
        best = min(compiles, key=lambda p: (compiles[p][1].final_counts["cx"], compiles[p][1].final_depth, p))
        want_final, want_report = compiles[best]
        final, report = transpile(circuit, quito)
        ok &= report.mapping == best
        ok &= serialize(final) == serialize(want_final)
        ok &= report.to_dict() == want_report.to_dict()
    return CheckResult(
        "auto-map keyed search equals exhaustive search",
        ok,
        "s=01 and s=101 onto quito, 60 and 120 mappings",
    )


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


def _stream_columns(base: tuple, shots, columns) -> np.ndarray:
    """Row i, column j: double columns[j] of default_rng((*base, shots[i])),
    stepped to by one `Block`."""
    with Block(base, shots) as block:
        return np.column_stack([block.step(c) * 2.0**-53 for c in columns])


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
    worst = worst_z = 0.0
    for text in DEMO_SECRETS:
        demo = SecretString.from_string(text)
        exact = exact_asp(demo, base)
        estimate = estimate_asp(demo, base, trials=1, shots=2048, seed=21).mean
        worst = max(worst, abs(estimate - exact) / math.sqrt(exact * (1.0 - exact) / 2048))
        worst_z = max(worst_z, abs(estimate_asp(demo, base, trials=5, shots=8192, seed=0).z(exact)))
    rows.append(
        CheckResult(
            "quito asp within 5 SE of exact density matrix (2048 shots)",
            worst <= 5.0,
            f"12 instances, worst {worst:.2f} SE",
        )
    )
    # `lcplearn asp --noise quito` at its defaults, against the `exact` it
    # reports.  By Bonferroni, a replay that samples exact_asp's distribution
    # exceeds |z| = 4.0 on any of the 12 secrets with probability at most
    # 12 * 2 * (1 - Phi(4.0)) = 7.6e-4, however the runs correlate.
    rows.append(
        CheckResult(
            "quito asp 5x8192 (seed 0) within |z| <= 4.0 of exact_asp",
            worst_z <= 4.0,
            f"12 instances, worst |z| {worst_z:.2f}",
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

    # the replay's vectorized streams against the installed numpy, whose
    # SeedSequence, PCG64 and Generator.random define them
    same = np.array_equal(
        _stream_columns((99, 0), np.arange(64), range(61)),
        [np.random.default_rng((99, 0, k)).random(61) for k in range(64)],
    )
    rows.append(
        CheckResult(
            "shot streams equal numpy default_rng", same, f"64 shots x 61 draws, numpy {np.__version__}"
        )
    )
    # the replay draws only some columns, jumping the LCG across the gaps:
    # the first column alone, a lone far one, gaps of 1 and of more than 64
    shots = np.array([2**32 - 1, 0, 2**31, 7, 51_000])
    column_sets = ([0], [5000], [0, 2, 3], [0, 1, 2, 70, 71], [3, 5, 6, 7, 140, 141, 300])
    same = all(
        np.array_equal(
            _stream_columns((99, 1), shots, columns),
            [np.random.default_rng((99, 1, int(k))).random(columns[-1] + 1)[columns] for k in shots],
        )
        for columns in column_sets
    )
    rows.append(
        CheckResult(
            "gapped stream columns equal numpy default_rng",
            same,
            f"{len(column_sets)} column sets x {len(shots)} scattered shots, numpy {np.__version__}",
        )
    )

    # the replay's Pauli draws: states held at fire columns, then jumped
    # n_sites (27 on a demo circuit) or more than 64 columns at once
    same = True
    for m in (1, 27, 70):
        block, expected = Block((99, 2), shots), []
        for column, lanes in ((0, [0, 2]), (4, []), (5, [4, 1, 0]), (26, [3])):
            block.step(column)
            block.hold(np.array(lanes, dtype=np.intp))
            expected += [np.random.default_rng((99, 2, int(shots[i]))).random(column + m + 1)[-1] for i in lanes]
        same = same and np.array_equal(block.ahead(m) * 2.0**-53, expected)
    rows.append(
        CheckResult(
            "Pauli draws by jump-ahead equal numpy default_rng",
            same,
            f"3 jumps x 6 held lanes, numpy {np.__version__}",
        )
    )

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
