"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_wrappers_are_restored_before_the_untraced_run():
    before = tracing.patched_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(tracing.patched_attributes()[key] is not obj for key, obj in before.items())
        workloads.lcplearn.run_quantum_learn(workloads.lcplearn.SecretString.from_string("1011"))
    finally:
        tracer.uninstall()
    tracing.check_restored(before)
    assert tracer.calls["kernels.apply_signs"] == 2
    assert tracer.counters["quantum.rounds"] == 2


def test_check_restored_names_a_wrapper_left_in_place():
    before = tracing.patched_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="apply_single"):
            tracing.check_restored(before)
    finally:
        tracer.uninstall()


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(200_000)), "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    outer()
    assert tracer.calls["inner"] == 2
    assert tracer.child["outer"] == pytest.approx(tracer.total["inner"])
    assert 0 <= tracer.self_time("outer") < tracer.total["outer"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.per_layer_spec()
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(range(100)) == (89, 90.0)
    assert run.tail(range(11)) == (0, 100.0 * 1 / 11)
    assert run.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("secret", ["01", "110"])
def test_compiled_circuit_reference_recovers_and_rejects(secret):
    lcp = workloads.lcplearn
    circuit, report = lcp.transpile(lcp.build_full_circuit(lcp.SecretString.from_string(secret)), workloads.QUITO)
    gates = ref.triples(circuit)
    ref.check_legal(gates, ref.QUITO_EDGES)
    ref.check_compiled_recovers(secret, circuit.width, gates, report.mapping)
    with pytest.raises(ref.CheckFailed):
        ref.check_compiled_recovers(secret, circuit.width, gates[:-4], report.mapping)
    with pytest.raises(ref.CheckFailed):
        ref.check_legal(gates + [("cx", (1, 5), None)], ref.QUITO_EDGES)


def test_exact_asp_reference():
    noise = workloads.Noise(seed=0)
    noise.prepare_references()
    assert noise._exact["000", "quito"] == pytest.approx(0.85593, abs=5e-5)
    assert noise._exact["00", "quito"] == pytest.approx(0.86643, abs=5e-5)
    assert noise._exact["000", "zero"] == pytest.approx(1.0, abs=1e-12)
    ref.check_asp(0.8573, 0.85593, 40960)
    with pytest.raises(ref.CheckFailed):
        ref.check_asp(0.8573 + 0.01, 0.85593, 40960)


def test_exact_asp_matches_a_one_qubit_calculation():
    # X then readout: success is (1 - p_sq * 2/3) * (1 - r) + p_sq * 2/3 * r
    p, r = 0.3, 0.1
    value = ref.exact_asp(1, [("x", (1,), None)], [(0, 1)], None, [p], [r])
    flipped = 2 * p / 3
    assert value == pytest.approx((1 - flipped) * (1 - r) + flipped * r)


def test_q_register_width_matches_the_layout():
    for n in range(2, 40):
        assert ref.q_register_width(n) == workloads.lcplearn.AlgorithmLayout.for_n(n).t


def test_same_seed_gives_same_inputs():
    for cls in workloads.WORKLOADS.values():
        assert cls(7).cycle(3) == cls(7).cycle(3)
        assert cls(7).cycle(3) != cls(8).cycle(3)


def test_cycles_hold_each_class_in_fixed_proportion():
    assert [len(r.secret) for r in workloads.Learn(5).cycle(2)] == list(range(10, 17))
    learn = workloads.Learn(5)
    for i, n in enumerate(range(10, 17)):
        rounds = [learn.cycle(c)[i].round for c in range(n // 2, 2 * (n // 2))]
        assert sorted(rounds) == list(range(1, n // 2 + 1))
    kinds = [(r.kind, len(r.secret)) for r in workloads.Compile(5).cycle(2)]
    assert sorted(kinds) == sorted([("map", 2)] + [("map", 3)] * 8 + [("chain", n) for n in (4, 5, 5, 6)])
    two_bit = [r.secret for c in range(4) for r in workloads.Compile(5).cycle(c)
               if r.kind == "map" and len(r.secret) == 2]
    assert two_bit == list(workloads.DEMO_SECRETS[:4])
    noise = workloads.Noise(5)
    assert [r.kind for r in noise.cycle(0)] == ["quito", "zero"] * 12
    for c in range(3):
        quito = [r.secret for r in noise.cycle(c) if r.kind == "quito"]
        assert sorted(quito) == sorted(workloads.DEMO_SECRETS)
    assert noise.cycle(0) != noise.cycle(1)


def test_learn_check_rejects_a_wrong_answer():
    learn = workloads.Learn(1)
    req = learn.cycle(0)[0]
    timings, (result, trace) = learn.execute(req, workloads.plain_api())
    learn.check(req, (result, trace))
    result.recovered = tuple(1 - b for b in result.recovered)
    with pytest.raises(ref.CheckFailed):
        learn.check(req, (result, trace))


def test_calibration_rows_are_the_listed_metrics():
    rows, numba_rows = tracing.calibrate()
    assert sorted(rows) == sorted(name for name, _, _ in tracing.CALIBRATION)
    assert all(np.isfinite(v) and v > 0 for v in rows.values())
    assert bool(numba_rows) == tracing.kernels.HAVE_NUMBA


class _Sleepy:
    """A workload whose one request kind takes a fixed time and calls no lcplearn code."""

    name = "sleepy"
    kinds = ("nap",)
    reference_loop = staticmethod(workloads.interpreter_loop)

    def cycle(self, c):
        return [workloads.Request("nap", "0")] * 3

    def execute(self, req, api):
        t0 = workloads.perf_counter()
        while workloads.perf_counter() - t0 < 0.002:
            pass
        return [("nap", workloads.perf_counter() - t0)], None

    def check(self, req, output):
        pass

    def counts(self, req, output):
        return ()


def test_relative_latency_divides_by_the_reference_loops_around_each_request():
    result = workloads.run_pass(_Sleepy(), api=None, cycles=2)
    assert result.attempted == 6 and result.failed == 0
    assert len(result.reference_s) == 12 and all(s > 0 for s in result.reference_s)
    for i, (dt, rel) in enumerate(zip(result.samples["nap"], result.relative["nap"])):
        around = (result.reference_s[2 * i] + result.reference_s[2 * i + 1]) / 2
        assert rel == pytest.approx(dt / around)
