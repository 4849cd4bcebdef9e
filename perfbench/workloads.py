"""The benchmark's three closed-loop workloads.

Each workload is one client in one process: it sends its next request
only after the previous one returned.  Inputs come from the workload
seed, grouped into cycles.  A cycle holds each input class in a fixed
proportion and order, so medians and tails land in the same class on
every seed and every run length, and the allocator and garbage collector
see the same sequence of sizes; only the secret bits, rounds, choice of
demo secret and Monte-Carlo seeds change with the seed.

Every request calls the public functions the CLI handlers call, through
an `api` namespace: the plain functions for timed runs, spans around
them for the traced run.  Each output is checked against `reference`,
which does not import lcplearn.

Each request is bracketed by the workload's reference loop, and its
latency is also recorded relative to that loop's time, which cancels
the drift in the speed a shared host gives the process.
"""

import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """lcplearn from this checkout's sources, never from an installed copy."""
    if not (SRC / "lcplearn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lcplearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcplearn

    if Path(lcplearn.__file__).resolve().parent != (SRC / "lcplearn").resolve():
        raise SystemExit(f"perfbench: imported lcplearn from {lcplearn.__file__}, not {SRC}")
    return lcplearn


lcplearn = _import_package()
from lcplearn.noise import NoiseProfile  # noqa: E402
from lcplearn.transpile import CouplingGraph, QubitMapping  # noqa: E402

API_NAMES = ("run_quantum_learn", "certify_round", "build_full_circuit", "transpile", "estimate_asp")

DEMO_SECRETS = ("00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111")

SHOTS = 8192  # per trial; the paper's ASP takes 5 trials

CHAIN_SIZES = (4, 5, 5, 6)

LINEAR3 = CouplingGraph.linear(3)
QUITO = CouplingGraph.quito()


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(lcplearn, name) for name in API_NAMES})


@dataclass
class Request:
    kind: str
    secret: str
    round: int = 0
    seed: int = 0

    @property
    def s(self):
        return lcplearn.SecretString.from_string(self.secret)


def _bits(rng, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


# Each workload brackets every request with a fixed reference loop and also
# records the request's time divided by the loop's.  On a shared host the
# speed a core gives this process drifts by up to half within seconds and
# differs from one process to the next; it slows a loop and the requests
# alike when the loop does the same kind of work, so the ratio stays put
# while a change to lcplearn still moves it.  The loops call no lcplearn
# code.


class _Gate:
    __slots__ = ("name", "qubits")

    def __init__(self, name: str, qubits: tuple):
        self.name = name
        self.qubits = qubits


def interpreter_loop() -> float:
    """Seconds a fixed loop of interpreter work takes now, about 2 ms: dicts,
    lists and tuples, small numpy operations and a pass over gate-like
    objects, the work compiling and noise replay do."""
    t0 = perf_counter()
    acc, seen, pairs = 0, {}, []
    for i in range(2000):
        k = i & 63
        seen[k] = seen.get(k, 0) + i
        pairs.append((k, acc))
        acc = (acc + len(pairs)) & 0xFFFF
    vec = np.ones(4096)
    for _ in range(100):
        vec * 1.0001 + vec
    gates = [_Gate("cx", (i % 5, (i * 7 + 1) % 5)) if i % 3 else _Gate("rz", (i % 5,)) for i in range(800)]
    layer, counts = [0] * 5, {}
    for g in gates:
        d = max(layer[q] for q in g.qubits) + 1
        for q in g.qubits:
            layer[q] = d
        counts[g.name] = counts.get(g.name, 0) + 1
    return perf_counter() - t0


class ArrayLoop:
    """Times a fixed loop of numpy work, about 3 ms: in-place complex
    multiplies over a 1 MiB array (L2-resident, as the state is at n = 13)
    and a 16 MiB one (L3, as at n = 16), the work the dense learner does.
    The arrays are allocated once, so page faults stay out of the time."""

    def __init__(self):
        self.mid = np.ones(1 << 16, dtype=complex)
        self.big = np.ones(1 << 20, dtype=complex)

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(8):
            np.multiply(self.mid, 1.0, out=self.mid)
        np.multiply(self.big, 1.0, out=self.big)
        return perf_counter() - t0


class Learn:
    """n uniform in 10..16: run_quantum_learn, then certify_round on one round.

    A cycle holds each n once, in increasing order, so the median lands on
    n = 13 (L2-resident state) and, with at least 11 cycles, the tail on
    n = 16 (16 MiB state and an 8 MiB diagonal).
    """

    name = "learn"
    kinds = ("learn", "certify")
    min_cycles = 11

    def __init__(self, seed: int):
        self.seed = seed
        self.reference_loop = ArrayLoop()

    def prepare_references(self) -> None:
        pass

    def cycle(self, c: int) -> list[Request]:
        rng = np.random.default_rng((self.seed, c))
        return [Request("learn", _bits(rng, n), round=self._round(n, c)) for n in range(10, 17)]

    def _round(self, n: int, c: int) -> int:
        """Each round of an n-bit secret once in every n // 2 cycles, in
        seeded order.  certify_round costs more for a later round, so rounds
        drawn independently made a run's certify median and tail depend on
        which rounds the seed happened to draw."""
        k = n // 2
        return int(np.random.default_rng((self.seed, n, c // k)).permutation(k)[c % k]) + 1

    def warm_up(self, api) -> None:
        s = lcplearn.SecretString.from_string(_bits(np.random.default_rng(self.seed), 10))
        api.run_quantum_learn(s)
        api.certify_round(s, 1)

    def execute(self, req: Request, api):
        s = req.s
        t0 = perf_counter()
        result = api.run_quantum_learn(s)
        t1 = perf_counter()
        trace = api.certify_round(s, req.round)
        t2 = perf_counter()
        return [("learn", t1 - t0), ("certify", t2 - t1)], (result, trace)

    def check(self, req: Request, output) -> None:
        result, trace = output
        n, i = len(req.secret), req.round
        got = "".join(map(str, result.recovered))
        ref.expect(got == req.secret, f"learn recovered {got}")
        ref.expect(result.quantum_uses == n // 2, f"{result.quantum_uses} quantum uses for n={n}")
        ref.expect(result.classical_queries == n % 2, f"{result.classical_queries} classical queries")
        t = ref.q_register_width(n)
        collapsed = np.asarray(trace.collapsed)
        ref.expect(collapsed.shape == (1 << (n + t),), f"certify state has shape {collapsed.shape}")
        target = (int(req.secret[: 2 * i] + "0" * (n - 2 * i), 2) << t) | (2 * i - 1)
        ref.expect(abs(abs(collapsed[target]) - 1.0) < 1e-9, f"round {i} did not collapse onto the prefix")

    def counts(self, req: Request, output) -> tuple:
        result, _ = output
        return ("oracle.quantum_uses", result.quantum_uses), ("oracle.classical_queries", result.classical_queries)


class Compile:
    """build_full_circuit, then transpile, on two request kinds.

    map: a demo secret auto-mapped onto linear3 (n = 2) or quito (n = 3).
    A cycle holds the eight 3-bit secrets and one 2-bit secret, in turn,
    so the median lies near the middle of the quito compiles rather than
    at their fastest quarter, where the run-to-run spread was largest.
    chain: seeded secrets with n = 4, 5, 5 and 6 per cycle, identity-mapped
    onto a linear chain of width n + t; the median is n = 5 and, with at
    least 11 cycles, the tail n = 6.  Chain requests are spread evenly
    among the map requests.
    """

    name = "compile"
    kinds = ("map", "chain")
    min_cycles = 11
    reference_loop = staticmethod(interpreter_loop)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare_references(self) -> None:
        pass

    def cycle(self, c: int) -> list[Request]:
        rng = np.random.default_rng((self.seed, c))
        maps = [DEMO_SECRETS[c % 4], *DEMO_SECRETS[4:]]
        out = []
        for part, n in zip(np.array_split(np.array(maps), len(CHAIN_SIZES)), CHAIN_SIZES):
            out += [Request("map", str(secret)) for secret in part]
            out.append(Request("chain", _bits(rng, n)))
        return out

    @staticmethod
    def target(req: Request):
        n = len(req.secret)
        if req.kind == "map":
            return (LINEAR3, None) if n == 2 else (QUITO, None)
        width = n + ref.q_register_width(n)
        return CouplingGraph.linear(width), QubitMapping.identity(width)

    def warm_up(self, api) -> None:
        for req in (Request("map", "00"), Request("chain", "0110")):
            graph, mapping = self.target(req)
            api.transpile(api.build_full_circuit(req.s), graph, mapping=mapping)

    def execute(self, req: Request, api):
        s = req.s
        graph, mapping = self.target(req)
        t0 = perf_counter()
        circuit = api.build_full_circuit(s)
        out, report = api.transpile(circuit, graph, mapping=mapping)
        t1 = perf_counter()
        return [(req.kind, t1 - t0)], (graph, out, report)

    def check(self, req: Request, output) -> None:
        graph, out, report = output
        width = graph.num_qubits
        edges = ref.QUITO_EDGES if graph == QUITO else ref.linear_edges(width)
        gates = ref.triples(out)
        ref.expect(out.width == width, f"compiled width {out.width}, device has {width}")
        ref.check_legal(gates, edges)
        physical = tuple(report.mapping)
        if req.kind == "chain":
            ref.expect(physical == tuple(range(len(physical))), f"mapping {physical} is not the identity")
        ref.check_compiled_recovers(req.secret, width, gates, physical)

    def counts(self, req: Request, output) -> tuple:
        graph, out, report = output
        gates = ref.triples(out)
        stages = tuple(("transpile.gates." + st.name, sum(st.counts.values())) for st in report.stages)
        return (
            ("transpile.compiled_cx", ref.cx_count(gates)),
            ("transpile.compiled_depth", ref.depth(out.width, gates)),
        ) + stages


class Noise:
    """estimate_asp on the demo secrets, one 8192-shot trial per request.

    A cycle is every demo secret once, each a trial under the quito
    profile followed by one at zero noise (the CLI default), so five cycles
    are the paper's 5 x 8192 shots per secret.  The order of the secrets
    and the Monte-Carlo seeds come from the workload seed.  A trial's cost
    differs by up to half between secrets, so a run covers all of them
    equally: with one secret per cycle, which half of the secrets a 30 s
    run reached moved its median by up to 7 %.
    """

    name = "noise"
    kinds = ("quito", "zero")
    min_cycles = 1
    reference_loop = staticmethod(interpreter_loop)

    def __init__(self, seed: int):
        self.seed = seed
        self.quito = NoiseProfile.quito()
        self.zero = NoiseProfile.zero(QUITO.num_qubits)
        self._exact: dict = {}

    def cycle(self, c: int) -> list[Request]:
        rng = np.random.default_rng((self.seed, c))
        order = [DEMO_SECRETS[i] for i in rng.permutation(len(DEMO_SECRETS))]
        mc_seeds = rng.integers(2**31, size=len(order))
        return [Request(kind, secret, seed=int(mc)) for secret, mc in zip(order, mc_seeds) for kind in self.kinds]

    def warm_up(self, api) -> None:
        # fills the transpiled-circuit cache the replay reads for every secret
        for secret in DEMO_SECRETS:
            api.estimate_asp(lcplearn.SecretString.from_string(secret), self.quito, trials=1, shots=1)

    def execute(self, req: Request, api):
        s = req.s
        profile = self.quito if req.kind == "quito" else None  # None is the CLI's zero-noise default
        t0 = perf_counter()
        report = api.estimate_asp(s, profile, trials=1, shots=SHOTS, seed=req.seed)
        t1 = perf_counter()
        return [(req.kind, t1 - t0)], report

    def prepare_references(self) -> None:
        """Exact ASP for every demo secret and profile, before any timing or tracing.

        The circuit comes from the public synth and transpile functions,
        which give the same circuit the replay's cache holds.
        """
        for secret in DEMO_SECRETS:
            circuit, report = lcplearn.transpile(
                lcplearn.build_full_circuit(lcplearn.SecretString.from_string(secret)), QUITO
            )
            prefix = len(secret) - len(secret) % 2
            required = [(report.mapping[j], int(secret[j])) for j in range(prefix)]
            for kind, p in (("quito", self.quito), ("zero", self.zero)):
                cx = {tuple(sorted(e)): v for e, v in p.cx_error.items()}
                self._exact[secret, kind] = ref.exact_asp(
                    circuit.width,
                    ref.triples(circuit),
                    required,
                    lambda a, b, cx=cx, p=p: cx.get(tuple(sorted((a, b))), p.cx_default),
                    p.single_qubit_error,
                    p.readout_error,
                )

    def check(self, req: Request, output) -> None:
        ref.expect(output.trials == 1 and output.shots == SHOTS, "wrong trial or shot count")
        ref.check_asp(output.mean, self._exact[req.secret, req.kind], SHOTS)

    def counts(self, req: Request, output) -> tuple:
        return ()


WORKLOADS = {w.name: w for w in (Learn, Compile, Noise)}


@dataclass
class PassResult:
    samples: dict  # seconds per request, by kind
    relative: dict  # the same divided by the mean of the reference loops before and after the request
    reference_s: list  # every reference loop's time
    attempted: int
    failed: int
    cycles: int
    first_cycle_counts: dict


def _request(workload, req: Request, api):
    """Run and check one request.  Its output is freed on return, so no
    request runs while the previous one's states are still held."""
    timings, output = workload.execute(req, api)
    workload.check(req, output)
    return timings, workload.counts(req, output)


def run_pass(workload, api, seconds: float = 0.0, min_cycles: int = 1, cycles: int | None = None,
             on_first_cycle=None) -> PassResult:
    """Run whole cycles until `seconds` have passed and `min_cycles` are done.

    With `cycles` given, run exactly that many.  A request that raises or
    fails its check counts as failed and adds no latency sample; the pass
    goes on.  `first_cycle_counts` sums each request's exact counts over
    cycle 0, plus whatever `on_first_cycle()` returns after it.
    """
    samples = {kind: [] for kind in workload.kinds}
    relative = {kind: [] for kind in workload.kinds}
    reference_s = []
    attempted = failed = 0
    counts: dict = {}
    start = perf_counter()
    c = 0
    while (c < cycles) if cycles is not None else (c < min_cycles or perf_counter() - start < seconds):
        for req in workload.cycle(c):
            attempted += 1
            reference_s.append(workload.reference_loop())
            try:
                timings, request_counts = _request(workload, req, api)
            except Exception as exc:  # every failure is counted and reported, none stops the run
                failed += 1
                print(f"perfbench: {workload.name} request {req} failed: {exc!r}", file=sys.stderr)
                traceback.print_exc()
                continue
            reference_s.append(workload.reference_loop())
            around = (reference_s[-2] + reference_s[-1]) / 2
            for kind, dt in timings:
                samples[kind].append(dt)
                relative[kind].append(dt / around)
            if c == 0:
                for key, value in request_counts:
                    counts[key] = counts.get(key, 0) + value
        if c == 0 and on_first_cycle is not None:
            counts.update(on_first_cycle())
        c += 1
    return PassResult(samples, relative, reference_s, attempted, failed, c, counts)
