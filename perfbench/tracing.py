"""Spans around calls into lcplearn, installed only for the traced run.

A span is timed at each layer boundary the benchmark can reach from its
own files: the public functions it calls (through a traced `api`
namespace) and the names the package looks up at call time, patched on
the module or class where the caller finds them.  Spans are aggregated
per name in memory (calls, total time, time inside child spans), so the
trace costs the same on every request however long the run is.  A
span's self time is its total minus its direct children's.
"""

import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from workloads import API_NAMES, lcplearn

kernels = importlib.import_module("lcplearn.kernels")
statevector = importlib.import_module("lcplearn.statevector")
quantum = importlib.import_module("lcplearn.quantum")
oracle = importlib.import_module("lcplearn.oracle")
synth = importlib.import_module("lcplearn.synth")
circuit = importlib.import_module("lcplearn.circuit")
noise = importlib.import_module("lcplearn.noise")
# the package attribute `lcplearn.transpile` is the function, not the module
transpile_mod = importlib.import_module("lcplearn.transpile")

API_SPANS = {
    "run_quantum_learn": "quantum.run_quantum_learn",
    "certify_round": "quantum.certify_round",
    "build_full_circuit": "synth.build_full_circuit",
    "transpile": "transpile.transpile",
    "estimate_asp": "noise.estimate_asp",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.child = Counter()
        self.counters = Counter()
        self._open: list[list[float]] = []  # child time of each span now open
        self._installed: list = []

    def wrap(self, fn, name: str, after=None, before=None):
        def traced(*args, **kwargs):
            token = before(self, args, kwargs) if before else None
            inner = [0.0]
            self._open.append(inner)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += inner[0]
            if after:
                after(self, args, kwargs, result, token)
            return result

        return traced

    def api(self) -> SimpleNamespace:
        hooks = {"build_full_circuit": _gates_out}
        return SimpleNamespace(**{
            name: self.wrap(getattr(lcplearn, name), API_SPANS[name], after=hooks.get(name))
            for name in API_NAMES
        })

    def install(self) -> None:
        for owner, attr, name, after, before in _targets():
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, after, before))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]


# --- counting hooks: (tracer, args, kwargs, result, token) -----------------

def _kernel_bytes(t, args, kwargs, result, token):
    amps = args[0]
    t.counters["kernels.bytes_computed"] += 2 * amps.nbytes  # read and write once
    t.counters["statevector.max_width"] = max(t.counters["statevector.max_width"], amps.size.bit_length() - 1)


def _sign_bytes(t, args, kwargs, result, token):
    _kernel_bytes(t, args, kwargs, result, token)
    t.counters["kernels.bytes_computed"] += args[1].nbytes


def _state_width(t, args, kwargs, result, token):
    t.counters["statevector.max_width"] = max(t.counters["statevector.max_width"], result.num_qubits)


def _fired_shot(t, args, kwargs, result, token):
    # the replay starts a fresh state only for a shot in which an error fired
    _state_width(t, args, kwargs, result, token)
    t.counters["noise.fired_shots"] += 1


def _round(t, args, kwargs, result, token):
    t.counters["quantum.rounds"] += 1


def _diagonal_bytes(t, args, kwargs, result, token):
    t.counters["oracle.diagonal_bytes"] += result.nbytes


def _gates_out(t, args, kwargs, result, token):
    t.counters["synth.gates_out"] += len(result.gates)


def _mapping_tried(t, args, kwargs, result, token):
    # transpile rewrites once per candidate mapping
    t.counters["transpile.mappings_tried"] += 1


def _optimized(t, args, kwargs, result, token):
    out, report = result
    t.counters["transpile.optimize.sweeps"] += report.sweeps
    t.counters["transpile.optimize.gates_in"] += len(args[0].gates)
    t.counters["transpile.optimize.gates_out"] += len(out.gates)


def _cache_miss(t, args, kwargs, result, token):
    t.counters["noise.transpile_cache.misses"] += 1


_RUN_NOISY = inspect.signature(noise.run_noisy)


def _fired_before(t, args, kwargs):
    return t.counters["noise.fired_shots"]


def _replayed(t, args, kwargs, result, token):
    call = _RUN_NOISY.bind(*args, **kwargs)
    fired = t.counters["noise.fired_shots"] - token
    t.counters["noise.shots"] += call.arguments["shots"]
    t.counters["noise.resim_gates_computed"] += fired * len(call.arguments["circuit"].gates)


def _targets() -> list:
    """(owner, attribute, span, after, before) for every name patched in place."""
    return [
        (kernels, "apply_single", "kernels.apply_single", _kernel_bytes, None),
        (kernels, "apply_two", "kernels.apply_two", _kernel_bytes, None),
        (kernels, "apply_signs", "kernels.apply_signs", _sign_bytes, None),
        (statevector.Statevector, "apply_gate", "statevector.apply_gate", None, None),
        (noise, "simulate", "statevector.simulate", None, None),
        (quantum, "init_basis", "statevector.init_basis", _state_width, None),
        (noise, "init_basis", "statevector.init_basis", _fired_shot, None),
        (quantum, "build_round_circuit", "quantum.build_round_circuit", _round, None),
        (oracle, "oracle_diagonal", "oracle.oracle_diagonal", _diagonal_bytes, None),
        (synth, "oracle_diagonal", "oracle.oracle_diagonal", _diagonal_bytes, None),
        (synth, "synth_diagonal", "synth.synth_diagonal", None, None),
        (synth, "walsh_decompose", "synth.walsh_decompose", None, None),
        (noise, "build_full_circuit", "synth.build_full_circuit", _gates_out, None),
        (noise, "transpile", "transpile.transpile", _cache_miss, None),
        (noise, "run_noisy", "noise.run_noisy", _replayed, _fired_before),
        (circuit.Circuit, "depth", "circuit.depth", None, None),
        (circuit.Circuit, "gate_counts", "circuit.gate_counts", None, None),
        (transpile_mod, "rewrite_to_device", "transpile.rewrite_to_device", _mapping_tried, None),
        (transpile_mod, "optimize", "transpile.optimize", _optimized, None),
    ]


def patched_attributes() -> dict:
    """The object each patched name holds now, keyed by (owner, attribute)."""
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in _targets()}


def check_restored(before: dict) -> None:
    """Raise unless every patched name holds the object it held before tracing."""
    now = patched_attributes()
    changed = [f"{getattr(o, '__name__', o)}.{a}" for (o, a), obj in before.items() if now[o, a] is not obj]
    if changed:
        raise RuntimeError(f"traced wrappers left in place: {', '.join(changed)}")


# --- per-layer metrics -------------------------------------------------------

# Counts that must repeat exactly for a seed: taken over the first request
# cycle, computed twice per invocation.
EXACT_COUNTS = (
    "transpile.compiled_cx",
    "transpile.compiled_depth",
    "transpile.mappings_tried",
    "transpile.optimize.sweeps",
    "transpile.gates.input",
    "transpile.gates.map",
    "transpile.gates.route",
    "transpile.gates.rewrite",
    "transpile.gates.optimize",
    "oracle.quantum_uses",
    "oracle.classical_queries",
)

_SPANS_WITH_CALLS = (
    "kernels.apply_single", "kernels.apply_two", "kernels.apply_signs",
    "statevector.apply_gate", "statevector.simulate", "oracle.oracle_diagonal",
    "synth.synth_diagonal", "circuit.depth", "circuit.gate_counts",
    "transpile.optimize", "noise.run_noisy",
)
_SPANS_WITH_TIME = _SPANS_WITH_CALLS + (
    "quantum.run_quantum_learn", "quantum.certify_round", "synth.build_full_circuit",
    "synth.walsh_decompose", "transpile.transpile", "transpile.rewrite_to_device",
    "noise.estimate_asp",
)
_SPANS_WITH_SELF = (
    "statevector.apply_gate", "quantum.run_quantum_learn", "quantum.certify_round",
    "transpile.transpile", "noise.run_noisy",
)
_PER_CYCLE_COUNTERS = {
    "kernels.bytes_computed": "B/cycle",
    "oracle.diagonal_bytes": "B/cycle",
    "quantum.rounds": "rounds/cycle",
    "synth.gates_out": "gates/cycle",
    "noise.shots": "shots/cycle",
    "noise.resim_gates_computed": "gates/cycle",
}
CALIBRATION = tuple(
    (f"calib.{k}.q{m}_ms", "ms", "lower") for k in ("apply_single", "apply_two", "apply_signs") for m in (12, 20)
) + tuple((f"calib.copy.q{m}_gbps", "GB/s", "higher") for m in (12, 20))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for span in _SPANS_WITH_TIME:
        if span in _SPANS_WITH_CALLS:
            spec.append((f"{span}.calls", "calls/cycle", "lower"))
        spec.append((f"{span}.s", "s/cycle", "lower"))
        if span in _SPANS_WITH_SELF:
            spec.append((f"{span}.self_s", "s/cycle", "lower"))
    spec += [(name, unit, "lower") for name, unit in _PER_CYCLE_COUNTERS.items()]
    spec += [(name, "count", "lower") for name in EXACT_COUNTS]
    spec += [
        ("kernels.gbps_computed", "GB/s", "higher"),
        ("statevector.max_width", "qubits", "lower"),
        ("transpile.optimize.removed_ratio", "ratio", "higher"),
        ("noise.fired_frac_computed", "ratio", "lower"),
        ("noise.transpile_cache.hits", "calls/cycle", "higher"),
        ("noise.transpile_cache.misses", "calls/cycle", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "spans/cycle", "lower"),
        ("trace.cycles", "count", "higher"),
    ]
    return spec + list(CALIBRATION)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, cycles: int, exact: dict, overhead: float, calib: dict) -> dict:
    """Every per-layer metric: span and counter totals per traced cycle, exact
    counts over the first cycle, and the calibration rows."""
    c = tracer.counters
    kernel_s = sum(tracer.total[f"kernels.{k}"] for k in ("apply_single", "apply_two", "apply_signs"))
    estimates = tracer.calls["noise.estimate_asp"]
    misses = c["noise.transpile_cache.misses"]
    values = {
        "kernels.gbps_computed": _ratio(c["kernels.bytes_computed"], kernel_s) / 1e9,
        "statevector.max_width": c["statevector.max_width"],
        "transpile.optimize.removed_ratio": 1.0 - _ratio(
            c["transpile.optimize.gates_out"], c["transpile.optimize.gates_in"]
        ) if c["transpile.optimize.gates_in"] else 0.0,
        "noise.fired_frac_computed": _ratio(c["noise.fired_shots"], c["noise.shots"]),
        "noise.transpile_cache.hits": (estimates - misses) / cycles,
        "noise.transpile_cache.misses": misses / cycles,
        "trace.overhead_ratio": overhead,
        "trace.spans": sum(tracer.calls.values()) / cycles,
        "trace.cycles": cycles,
    }
    for span in _SPANS_WITH_TIME:
        values[f"{span}.calls"] = tracer.calls[span] / cycles
        values[f"{span}.s"] = tracer.total[span] / cycles
        values[f"{span}.self_s"] = tracer.self_time(span) / cycles
    for name in _PER_CYCLE_COUNTERS:
        values[name] = c[name] / cycles
    for name in EXACT_COUNTS:
        values[name] = exact.get(name, 0)
    values.update(calib)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


# --- kernel calibration ------------------------------------------------------

def _median_seconds(fn, calls: int, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def calibrate() -> tuple[dict, dict]:
    """Kernel times at 12 qubits (L2-resident) and 20 qubits (16 MiB), and a
    numpy copy bandwidth at the same sizes.

    Returns the numpy rows as metrics and, only when numba imports, the
    jitted rows for the report.
    """
    rng = np.random.default_rng(1)
    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u4, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    backends = {"numpy": "numpy"}
    if kernels.HAVE_NUMBA:
        backends["numba"] = "numba"
    rows: dict = {b: {} for b in backends}
    for m in (12, 20):
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        amps /= np.linalg.norm(amps)
        signs = rng.choice([-1.0, 1.0], size=1 << m)
        calls = 200 if m == 12 else 3
        for backend in backends:
            single = getattr(kernels, f"apply_single_{backend}")
            two = getattr(kernels, f"apply_two_{backend}")
            sign = getattr(kernels, f"apply_signs_{backend}")
            single(amps, m // 2, u2)  # compiles the jitted kernels outside the timing
            two(amps, m - 1, m // 2, u4)
            sign(amps, signs)
            for name, call in (
                ("apply_single", lambda: single(amps, m // 2, u2)),
                ("apply_two", lambda: two(amps, m - 1, m // 2, u4)),
                ("apply_signs", lambda: sign(amps, signs)),
            ):
                rows[backend][f"calib.{name}.q{m}_ms"] = 1e3 * _median_seconds(call, calls)
        dst = np.empty_like(amps)
        copy_s = _median_seconds(lambda: np.copyto(dst, amps), calls)
        rows["numpy"][f"calib.copy.q{m}_gbps"] = 2 * amps.nbytes / copy_s / 1e9
    return rows["numpy"], rows.get("numba", {})
