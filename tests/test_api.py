import importlib
import inspect

import lcplearn
from lcplearn import _streams

REMOVED = ("route_cnot", "decompose_H", "equal_up_to_global_phase")


def test_every_exported_name_resolves():
    for name in lcplearn.__all__:
        assert getattr(lcplearn, name) is not None, name


def test_exports_are_sorted_and_unique():
    assert lcplearn.__all__ == sorted(set(lcplearn.__all__))


def test_second_entry_points_are_gone():
    """Each removed name re-entered code that is still reachable:
    `CouplingGraph.routes`, the H rule of `rewrite_to_device`,
    `statevector._equal_up_to_phase`, `synth._walsh_transform` and
    `has_edge`."""
    for name in REMOVED:
        assert name not in lcplearn.__all__ and not hasattr(lcplearn, name)
    assert not hasattr(lcplearn.WalshSpectrum, "reconstruct")
    assert not hasattr(lcplearn.CouplingGraph, "neighbors")


def test_options_no_workload_sets_are_gone():
    """One configuration per job: the q register comes from the layout,
    every compile is optimized, every ASP replays on quito, a simulation
    starts from |0...0>, and the streams have one entry point."""
    removed = {
        lcplearn.transpile: "opt",
        lcplearn.build_full_circuit: "t",
        lcplearn.estimate_asp: "graph",
        lcplearn.exact_asp: "graph",
        lcplearn.simulate: "initial",
    }
    for function, name in removed.items():
        assert name not in inspect.signature(function).parameters, (function.__name__, name)
    assert list(inspect.signature(lcplearn.transpile).parameters) == ["circuit", "graph", "mapping"]
    assert not hasattr(_streams, "fill_uniform")
    assert not hasattr(lcplearn.Statevector, "copy")


def test_dense_learner_paths_are_gone():
    """The learner's traced and certified rounds run on the state's support:
    the dense oracle application, its cached diagonal, the dense phase
    multiply and the dense round's matrices are deleted."""
    quantum = importlib.import_module("lcplearn.quantum")
    oracle = lcplearn.PhaseOracle(lcplearn.SecretString.from_string("01"), 1)
    for name in ("apply", "signs", "_signs"):
        assert not hasattr(oracle, name), name
    assert not hasattr(lcplearn.Statevector, "apply_phase_diagonal")
    for name in ("_H_COMPLEX", "_R_COMPLEX", "_max_deviation", "Statevector"):
        assert not hasattr(quantum, name), name
