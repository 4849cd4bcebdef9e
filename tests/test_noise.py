import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lcplearn import (
    CX,
    H,
    RZ,
    X,
    AspReport,
    Circuit,
    Gate,
    NoiseProfile,
    SecretString,
    estimate_asp,
    exact_asp,
    init_basis,
    run_noisy,
    simulate,
)
from lcplearn import _streams, kernels, noise
from lcplearn._streams import MAX_SHOTS, Block, threshold
from lcplearn.circuit import gate_matrix
from lcplearn.noise import _BLOCK_SHOTS, _seed_tuple, _transpiled, exact_distribution

DEMO_SECRETS = ("00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111")

_REF_PAULIS = (
    None,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _reference_run_noisy(circuit, profile, shots, seed=0):
    """The per-shot replay loop: every shot with a fired error reruns the
    whole circuit from |0...0>.  `run_noisy` must match it bit for bit."""
    width = circuit.width
    base = _seed_tuple(seed)
    site_prob = np.empty(len(circuit.gates))
    for k, g in enumerate(circuit.gates):
        if g.kind == "cx":
            site_prob[k] = profile.cx_for(g.qubits[0] - 1, g.qubits[1] - 1)
        else:
            site_prob[k] = profile.single_qubit_error[g.qubits[0] - 1]
    readout = np.array(profile.readout_error[:width])

    clean_cum = np.cumsum(simulate(circuit).probabilities())
    clean_cum[-1] = 1.0

    counts = {}
    n_sites = len(circuit.gates)
    for shot in range(shots):
        rng = np.random.default_rng(base + (shot,))
        fire_u = rng.random(n_sites)
        pick_u = rng.random(n_sites)
        meas_u = rng.random()
        read_u = rng.random(width)

        fired = fire_u < site_prob
        if fired.any():
            state = init_basis(width, 0)
            for k, g in enumerate(circuit.gates):
                state.apply_gate(g)
                if not fired[k]:
                    continue
                if g.kind == "cx":
                    choice = int(pick_u[k] * 15) + 1  # skip identity-identity
                    p1, p2 = divmod(choice, 4)
                    if p1:
                        kernels.apply_unitary(state.amps, state.num_qubits, (g.qubits[0],), _REF_PAULIS[p1])
                    if p2:
                        kernels.apply_unitary(state.amps, state.num_qubits, (g.qubits[1],), _REF_PAULIS[p2])
                else:
                    choice = int(pick_u[k] * 3) + 1
                    kernels.apply_unitary(state.amps, state.num_qubits, (g.qubits[0],), _REF_PAULIS[choice])
            cum = np.cumsum(state.probabilities())
            cum[-1] = 1.0
        else:
            cum = clean_cum

        outcome = int(np.searchsorted(cum, meas_u, side="right"))
        for q in range(width):
            if read_u[q] < readout[q]:
                outcome ^= 1 << (width - 1 - q)
        key = format(outcome, f"0{width}b")
        counts[key] = counts.get(key, 0) + 1
    return counts


def _reference_faulty_cdf(circuit, faults):
    """One fault pattern resimulated on its own from |0...0>, gate by
    gate, each fired gate followed by its Pauli(s), control before
    target.  `_faulty_cdfs` must match it row for row, bit for bit."""

    def apply_fault(state, gate, choice):
        if gate.kind == "cx":
            p1, p2 = divmod(choice, 4)
            if p1:
                kernels.apply_unitary(state.amps, state.num_qubits, (gate.qubits[0],), _REF_PAULIS[p1])
            if p2:
                kernels.apply_unitary(state.amps, state.num_qubits, (gate.qubits[1],), _REF_PAULIS[p2])
        else:
            kernels.apply_unitary(state.amps, state.num_qubits, (gate.qubits[0],), _REF_PAULIS[choice])

    state = init_basis(circuit.width, 0)
    for k, gate in enumerate(circuit.gates):
        state.apply_gate(gate)
        if faults[k]:
            apply_fault(state, gate, int(faults[k]))
    cum = np.cumsum(state.probabilities())
    cum[-1] = 1.0
    return cum


class TestNoiseProfile:
    def test_zero_profile(self):
        profile = NoiseProfile.zero(3)
        assert profile.num_qubits == 3
        assert profile.cx_for(0, 1) == 0.0

    def test_quito_calibration_values(self):
        profile = NoiseProfile.quito()
        assert profile.readout_error == (3.81e-2, 4.11e-2, 7.17e-2, 3.41e-2, 3.62e-2)
        assert profile.cx_for(1, 3) == profile.cx_for(3, 1) == 1.044e-2

    def test_published_averages(self):
        profile = NoiseProfile.quito_average()
        assert profile.cx_for(0, 1) == pytest.approx(1.080e-2)
        assert profile.readout_error[0] == pytest.approx(4.424e-2)
        # the averages match the per-edge/per-qubit table to rounding
        table = NoiseProfile.quito()
        assert np.mean(list(table.cx_error.values())) == pytest.approx(1.080e-2, abs=1e-4)
        assert np.mean(table.readout_error) == pytest.approx(4.424e-2, abs=1e-5)

    def test_json_round_trip(self, tmp_path):
        profile = NoiseProfile.quito()
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(profile.to_dict()))
        recovered = NoiseProfile.from_json(str(path))
        assert recovered.cx_error == profile.cx_error
        assert recovered.readout_error == profile.readout_error
        assert recovered.single_qubit_error == profile.single_qubit_error

    def test_relaxation_times_in_a_document_are_ignored(self):
        data = NoiseProfile.quito().to_dict()
        with_times = dict(data, t1_us=[79.19, 117.96, 95.79, 107.55, 92.27], t2_us=[126.78] * 5)
        assert NoiseProfile.from_dict(with_times) == NoiseProfile.from_dict(data)

    def test_to_dict_emits_no_relaxation_times(self):
        data = NoiseProfile.quito().to_dict()
        assert "t1_us" not in data and "t2_us" not in data
        assert not hasattr(NoiseProfile.quito(), "t1_us")

    def test_spec_document_shape(self):
        data = {
            "cx_error": {"0-1": 0.007401},
            "readout_error": [0.0381, 0.0411, 0.0717, 0.0341, 0.0362],
            "sq_error": [3.23e-4, 2.90e-4, 2.74e-4, 3.44e-4, 4.57e-4],
        }
        profile = NoiseProfile.from_dict(data)
        assert profile.cx_for(0, 1) == 0.007401

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"readout_error": 5},
            {"readout_error": [0.1, None]},
            {"readout_error": [0.1, True]},
            {"cx_error": {"0-1": None}, "readout_error": [0.1, 0.1]},
            {"cx_error": {"0-1": "0.1"}, "readout_error": [0.1, 0.1]},
            {"cx_error": {"01": 0.1}, "readout_error": [0.1, 0.1]},
            {"cx_error": [[0, 1]], "readout_error": [0.1, 0.1]},
            {"readout_error": [0.1, 0.1], "sq_error": 0.1},
            {"readout_error": [0.1, 0.1], "sq_error": [0.1]},
            {"readout_error": [0.1, 0.1], "cx_default": None},
            {"cx_error": {}},
            {"cx_error": {"0-9": 0.5}, "readout_error": [0.1] * 5},
            {"cx_error": {"2-2": 0.5}, "readout_error": [0.1] * 5},
            {"cx_error": {"1-0": 0.5, "0-1": 0.1}, "readout_error": [0.1] * 5},
        ],
    )
    def test_from_dict_rejects_wrong_types(self, data):
        with pytest.raises(ValueError):
            NoiseProfile.from_dict(data)

    def test_probability_range_validated(self):
        with pytest.raises(ValueError):
            NoiseProfile({}, (1.5,), (0.0,))

    def test_scaling_clips_at_one(self):
        profile = NoiseProfile.uniform(2, cx=0.6, readout=0.2, sq=0.0)
        scaled = profile.scaled(cx=3.0)
        assert scaled.cx_default == 1.0


def bell_circuit():
    return Circuit(2, [H(1), CX(1, 2)])


class TestRunNoisy:
    def test_zero_noise_matches_noiseless(self):
        circuit = bell_circuit()
        hist = run_noisy(circuit, NoiseProfile.zero(2), shots=4000, seed=1)
        assert set(hist) == {"00", "11"}
        assert abs(hist["00"] - 2000) < 200

    @pytest.mark.parametrize(
        "profile", [NoiseProfile.zero(2), NoiseProfile({}, (0.0, 1.0), (0.0, 0.0))], ids=["zero", "readout-only"]
    )
    def test_no_live_site_resimulates_nothing(self, monkeypatch, profile):
        """With no gate that can fault, no fault pattern is resimulated: the
        one row `_faulty_cdfs` gets is the fault-free one, once per call
        however many blocks the shots span."""
        calls = []
        faulty_cdfs = noise._faulty_cdfs

        def spy(circuit, patterns):
            calls.append(patterns.tolist())
            return faulty_cdfs(circuit, patterns)

        monkeypatch.setattr(noise, "_faulty_cdfs", spy)
        shots = 2 * _BLOCK_SHOTS + 5
        for seed in (1, 2):
            assert sum(run_noisy(bell_circuit(), profile, shots, seed=seed).values()) == shots
        assert calls == [[[0, 0]], [[0, 0]]]

    def test_one_simulate_call_per_run(self, monkeypatch):
        """Under noise the clean distribution is one run of the circuit: the
        all-zero row of exactly one `_faulty_cdfs` call, and `simulate` is
        never called."""

        def fail(circuit):
            raise AssertionError("simulate called")

        clean = []
        faulty_cdfs = noise._faulty_cdfs

        def spy(circ, patterns):
            if not patterns.any(axis=1).all():
                clean.append((circ, patterns.tolist()))
            return faulty_cdfs(circ, patterns)

        monkeypatch.setattr(noise, "simulate", fail)
        monkeypatch.setattr(noise, "_faulty_cdfs", spy)
        circuit, _ = _transpiled("010")
        hist = run_noisy(circuit, NoiseProfile.quito(), shots=8192, seed=3)
        assert sum(hist.values()) == 8192
        assert clean == [(circuit, [[0] * len(circuit.gates)])]

    def test_certain_readout_flip(self):
        circuit = Circuit(2, [X(1)])
        profile = NoiseProfile({}, (0.0, 1.0), (0.0, 0.0))
        hist = run_noisy(circuit, profile, shots=100, seed=2)
        assert hist == {"11": 100}  # second bit always inverted

    def test_seeded_histograms_identical(self):
        circuit = bell_circuit()
        profile = NoiseProfile.uniform(2, cx=0.05, readout=0.03, sq=0.001)
        a = run_noisy(circuit, profile, shots=2000, seed=9)
        b = run_noisy(circuit, profile, shots=2000, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        circuit = bell_circuit()
        profile = NoiseProfile.uniform(2, cx=0.05, readout=0.03, sq=0.001)
        assert run_noisy(circuit, profile, 2000, seed=1) != run_noisy(circuit, profile, 2000, seed=2)

    def test_total_counts_equal_shots(self):
        hist = run_noisy(bell_circuit(), NoiseProfile.uniform(2, 0.1, 0.1, 0.01), 1234, seed=5)
        assert sum(hist.values()) == 1234

    def test_keys_in_ascending_order(self):
        hist = run_noisy(bell_circuit(), NoiseProfile.uniform(2, 0.3, 0.2, 0.1), 500, seed=4)
        assert list(hist) == sorted(hist)

    def test_profile_too_small(self):
        with pytest.raises(ValueError):
            run_noisy(bell_circuit(), NoiseProfile.zero(1), 10, seed=0)

    def test_average_profile_band_on_transpiled_circuit(self):
        """Depolarizing CNOTs + readout flips keep success below 1, above 1/2."""
        from lcplearn.transpile import CouplingGraph, transpile
        from lcplearn import build_full_circuit

        s = SecretString.from_string("00")
        circuit, report = transpile(build_full_circuit(s), CouplingGraph.quito())
        hist = run_noisy(circuit, NoiseProfile.quito_average(), shots=40960, seed=123)
        target_positions = [(report.mapping[j], s.bits[j]) for j in range(2)]
        good = sum(
            c
            for key, c in hist.items()
            if all(key[pos] == str(bit) for pos, bit in target_positions)
        )
        assert 0.5 < good / 40960 < 1.0


class TestBitIdentity:
    """The block-batched replay against the per-shot loop."""

    @pytest.mark.parametrize("secret", DEMO_SECRETS)
    def test_demo_secrets_match_reference(self, secret):
        circuit, _ = _transpiled(secret)
        quito = NoiseProfile.quito()
        for profile in (NoiseProfile.zero(5), quito, quito.scaled(cx=5, sq=50)):
            expected = _reference_run_noisy(circuit, profile, 2048, seed=(3, 1))
            assert run_noisy(circuit, profile, 2048, seed=(3, 1)) == expected

    def test_bell_under_certain_cx_errors_matches_reference(self):
        profile = NoiseProfile.uniform(2, cx=1.0, readout=0.3, sq=0.5)
        expected = _reference_run_noisy(bell_circuit(), profile, 3000, seed=12)
        assert run_noisy(bell_circuit(), profile, 3000, seed=12) == expected

    def test_multi_word_seed_matches_reference(self):
        profile = NoiseProfile.uniform(2, cx=0.2, readout=0.05, sq=0.02)
        expected = _reference_run_noisy(bell_circuit(), profile, 1500, seed=(2**40 + 5, 1))
        assert run_noisy(bell_circuit(), profile, 1500, seed=(2**40 + 5, 1)) == expected

    def test_shots_span_several_blocks(self):
        shots = 2 * _BLOCK_SHOTS + 7
        profile = NoiseProfile.uniform(2, cx=0.2, readout=0.05, sq=0.02)
        expected = _reference_run_noisy(bell_circuit(), profile, shots, seed=0)
        assert run_noisy(bell_circuit(), profile, shots, seed=0) == expected

    @staticmethod
    def _mixed_profiles(circuit):
        """Profiles that zero some error families and keep others, and one
        with a certain error on an edge the circuit uses."""
        quito = NoiseProfile.quito()
        zeros = (0.0,) * 5
        cx = next(g for g in circuit.gates if g.kind == "cx")
        edge = (cx.qubits[0] - 1, cx.qubits[1] - 1)
        return {
            "cx-only": NoiseProfile(quito.cx_error, zeros, zeros),
            "readout-only": NoiseProfile({}, (0.2, 0.0, 0.3, 0.0, 0.1), zeros),
            "sq-only": NoiseProfile({}, zeros, quito.scaled(sq=50).single_qubit_error),
            "one-certain-edge": NoiseProfile({edge: 1.0}, quito.readout_error, zeros),
        }

    @pytest.mark.parametrize("kind", ["cx-only", "readout-only", "sq-only", "one-certain-edge"])
    @pytest.mark.parametrize("secret", ["01", "110"])
    def test_profiles_mixing_zero_and_nonzero_rates_match_reference(self, secret, kind):
        circuit, _ = _transpiled(secret)
        profile = self._mixed_profiles(circuit)[kind]
        expected = _reference_run_noisy(circuit, profile, 1031, seed=(5, 2))
        assert run_noisy(circuit, profile, 1031, seed=(5, 2)) == expected

    def test_zero_noise_draws_only_the_measurement_column(self, monkeypatch):
        circuit, _ = _transpiled("101")
        calls = []
        step = Block.step

        def spy(block, column):
            calls.append((len(block._lo), column))
            return step(block, column)

        monkeypatch.setattr(Block, "step", spy)
        shots = 2 * _BLOCK_SHOTS + 5
        run_noisy(circuit, NoiseProfile.zero(5), shots, seed=4)
        assert {column for _, column in calls} == {2 * len(circuit.gates)}
        assert sum(rows for rows, _ in calls) == shots

    def test_quito_run_seeds_each_block_once(self, monkeypatch):
        """The Pauli draws of fired rows come from the block's own pass,
        not from seeding those rows' streams again."""
        circuit, _ = _transpiled("101")
        seeded = []
        seed = _streams._seed

        def spy(entropy, *work):
            seeded.append(len(entropy[-1]))
            return seed(entropy, *work)

        monkeypatch.setattr(_streams, "_seed", spy)
        shots = 2 * _BLOCK_SHOTS + 5
        hist = run_noisy(circuit, NoiseProfile.quito(), shots, seed=4)
        assert seeded == [_BLOCK_SHOTS, _BLOCK_SHOTS, 5]
        assert hist != run_noisy(circuit, NoiseProfile.zero(5), shots, seed=4)

    def test_each_block_resimulates_its_distinct_fault_rows_once(self, monkeypatch):
        """Every `_faulty_cdfs` call but the fault-free row's gets the
        distinct fault patterns of one block, each once: the rows
        default_rng's streams fire in it."""
        circuit, _ = _transpiled("101")
        profile = NoiseProfile.quito().scaled(cx=5, sq=50)
        site_prob = noise._site_probabilities(circuit, profile)
        pauli_count = np.array([15 if g.kind == "cx" else 3 for g in circuit.gates])
        n_sites = len(site_prob)
        calls = []
        faulty_cdfs = noise._faulty_cdfs

        def spy(circ, patterns):
            calls.append([tuple(int(c) for c in row) for row in patterns])
            return faulty_cdfs(circ, patterns)

        monkeypatch.setattr(noise, "_faulty_cdfs", spy)
        shots = 2 * _BLOCK_SHOTS + 5
        run_noisy(circuit, profile, shots, seed=4)
        calls.remove([(0,) * n_sites])
        expected = []
        for start in range(0, shots, _BLOCK_SHOTS):
            rows = set()
            for shot in range(start, min(start + _BLOCK_SHOTS, shots)):
                draws = np.random.default_rng((4, shot)).random(2 * n_sites)
                fired = draws[:n_sites] < site_prob
                if fired.any():
                    choice = (draws[n_sites:] * pauli_count).astype(int) + 1
                    rows.add(tuple(int(c) for c in np.where(fired, choice, 0)))
            expected.append(rows)
        assert len(calls) == len(expected) == 3
        for got, rows in zip(calls, expected):
            assert len(set(got)) == len(got)
            assert set(got) == rows

    def test_one_quito_trial_stays_under_its_memory_bound(self):
        """A block holds the measurement draw, a flip mask and the fired
        lanes' states beside the stream's work array, not its draws as
        floats: the 33 drawn columns of this circuit as an 8192-row float64
        matrix alone are 2.2 MB."""
        circuit, _ = _transpiled("011")
        quito = NoiseProfile.quito()
        run_noisy(circuit, quito, 8192, seed=(0, 1))  # fills the module caches
        tracemalloc.start()
        try:
            run_noisy(circuit, quito, 8192, seed=(0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_a_multi_block_call_releases_each_block(self):
        """Each block's 0.7 MB work array is freed once its draws are
        taken, before its fault patterns are resimulated and before the
        next block allocates: three blocks peak at about 1.43 MB, and
        about 2.17 MB if a block lived until the next one replaced it."""
        circuit, _ = _transpiled("011")
        quito = NoiseProfile.quito()
        run_noisy(circuit, quito, 3 * _BLOCK_SHOTS, seed=(0, 1))  # fills the module caches
        tracemalloc.start()
        try:
            run_noisy(circuit, quito, 3 * _BLOCK_SHOTS, seed=(0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_seeded_asp_trials_unchanged(self):
        """Counts of the per-shot replay, recorded before the rewrite."""
        report = estimate_asp(
            SecretString.from_string("010"), NoiseProfile.quito(), trials=5, shots=2048, seed=7
        )
        assert report.per_trial == tuple(c / 2048 for c in (1763, 1745, 1752, 1758, 1745))


class TestBatchedReplay:
    """`_faulty_cdfs` resimulates many fault patterns as one state array."""

    @pytest.fixture(scope="class")
    def circuit(self):
        circuit, _ = _transpiled("000")
        return circuit

    @staticmethod
    def _assert_rows_match(circuit, patterns):
        patterns = np.array(patterns, dtype=np.uint8)
        batched = noise._faulty_cdfs(circuit, patterns)
        assert batched.shape == (len(patterns), 1 << circuit.width)
        for row, faults in zip(batched, patterns):
            assert np.array_equal(row, _reference_faulty_cdf(circuit, faults))

    @staticmethod
    def _pattern(circuit, faults):
        row = [0] * len(circuit.gates)
        for k, choice in faults.items():
            row[k] = choice
        return row

    @staticmethod
    def _choices(gate):
        return range(1, 16 if gate.kind == "cx" else 4)

    def test_fault_only_at_gate_zero(self, circuit):
        self._assert_rows_match(circuit, [self._pattern(circuit, {0: c}) for c in (1, 2, 3)])

    def test_fault_only_at_last_gate(self, circuit):
        """A fault at the final gate is the last operation on its row."""
        last = len(circuit.gates) - 1
        rows = [self._pattern(circuit, {last: c}) for c in self._choices(circuit.gates[last])]
        self._assert_rows_match(circuit, rows)

    def test_fault_at_every_gate(self, circuit):
        row = [k % len(self._choices(g)) + 1 for k, g in enumerate(circuit.gates)]
        self._assert_rows_match(circuit, [row])

    def test_rows_sharing_a_first_fault_with_different_choices(self, circuit):
        cx = [k for k, g in enumerate(circuit.gates) if g.kind == "cx"]
        first, later = cx[0], cx[3]
        rows = [
            self._pattern(circuit, {first: 5}),
            self._pattern(circuit, {first: 6}),
            self._pattern(circuit, {first: 5, later: 1}),
            self._pattern(circuit, {first: 5, later: 15}),
            self._pattern(circuit, {first: 12, later: 15}),
        ]
        self._assert_rows_match(circuit, rows)

    def test_every_choice_at_one_gate(self, circuit):
        cx = next(k for k, g in enumerate(circuit.gates) if g.kind == "cx")
        sq = next(k for k, g in enumerate(circuit.gates) if g.kind != "cx" and k > cx)
        self._assert_rows_match(circuit, [self._pattern(circuit, {cx: c}) for c in range(1, 16)])
        self._assert_rows_match(circuit, [self._pattern(circuit, {sq: c}) for c in range(1, 4)])

    def test_mixed_batch_comes_back_in_input_order(self, circuit):
        """Unsorted first faults, shared prefixes and lone rows in one call."""
        last = len(circuit.gates) - 1
        cx = [k for k, g in enumerate(circuit.gates) if g.kind == "cx"]
        rows = [
            self._pattern(circuit, {last: 2}),
            self._pattern(circuit, {cx[2]: 7, cx[5]: 3}),
            self._pattern(circuit, {0: 1}),
            self._pattern(circuit, {cx[2]: 7}),
            [k % len(self._choices(g)) + 1 for k, g in enumerate(circuit.gates)],
            self._pattern(circuit, {0: 3, last: 1}),
        ]
        self._assert_rows_match(circuit, rows)

    def test_more_new_patterns_than_one_chunk_match_reference(self, circuit):
        """An 8192-row block can bring more new patterns than the 2048 rows
        of width 5 that _BATCH_AMPLITUDES allows at once."""
        rows = (noise._BATCH_AMPLITUDES >> circuit.width) + 50
        rng = np.random.default_rng(5)
        counts = [len(self._choices(g)) for g in circuit.gates]
        choices = rng.integers(0, counts, (rows, len(counts))) + 1
        patterns = np.where(rng.random((rows, len(counts))) < 0.05, choices, 0)
        patterns[np.arange(rows), rng.integers(len(counts), size=rows)] = 1
        self._assert_rows_match(circuit, patterns)

    @staticmethod
    def _random_circuit(rng):
        """1 to 6 qubits and up to 30 gates of every kind, CX from width 2."""
        width = int(rng.integers(1, 7))
        kinds = ["x", "z", "h", "sx", "rz"] + (["cx"] if width > 1 else [])
        gates = []
        for _ in range(int(rng.integers(1, 31))):
            kind = str(rng.choice(kinds))
            if kind == "cx":
                gates.append(CX(*(int(q) for q in rng.choice(width, size=2, replace=False) + 1)))
            elif kind == "rz":
                gates.append(RZ(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(1, width + 1))))
            else:
                gates.append(Gate(kind, (int(rng.integers(1, width + 1)),)))
        return Circuit(width, gates)

    def test_fault_free_row_equals_the_statevector_cdf(self):
        """The all-zero row, which `run_noisy` samples for every shot in
        which nothing fired, is byte-equal to the cumulative probabilities
        of one `simulate` run, on the demo circuits and on random ones."""
        rng = np.random.default_rng(27)
        circuits = [_transpiled(text)[0] for text in DEMO_SECRETS]
        circuits += [self._random_circuit(rng) for _ in range(200)]
        for circuit in circuits:
            expected = np.cumsum(simulate(circuit).probabilities())
            expected[-1] = 1.0
            (row,) = noise._faulty_cdfs(circuit, np.zeros((1, len(circuit.gates)), np.uint8))
            assert row.tobytes() == expected.tobytes(), circuit

    def test_paulis_gathered_only_at_faulted_gates(self, monkeypatch, circuit):
        """`_hit` runs once at each gate some row faults at, on exactly the
        rows faulting there, and never for the fault-free row."""
        calls = []
        hit = noise._hit

        def spy(rows, width, qubits, choice):
            calls.append((qubits, choice.tolist()))
            return hit(rows, width, qubits, choice)

        monkeypatch.setattr(noise, "_hit", spy)
        noise._faulty_cdfs(circuit, np.zeros((1, len(circuit.gates)), np.uint8))
        assert calls == []
        cx = [k for k, g in enumerate(circuit.gates) if g.kind == "cx"]
        patterns = np.array(
            [
                self._pattern(circuit, {}),
                self._pattern(circuit, {cx[1]: 4, 0: 2}),
                self._pattern(circuit, {cx[1]: 9}),
                self._pattern(circuit, {cx[4]: 15}),
            ],
            dtype=np.uint8,
        )
        noise._faulty_cdfs(circuit, patterns)
        expected = [
            (circuit.gates[k].qubits, patterns[patterns[:, k] > 0, k].tolist())
            for k in sorted({0, cx[1], cx[4]})
        ]
        assert calls == expected

    def test_pauli_gather_equals_the_kernels(self):
        """Every choice on every qubit and every ordered qubit pair of a
        random 3-qubit state, control above and below target."""
        rng = np.random.default_rng(8)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        cases = [((q,), range(4)) for q in (1, 2, 3)]
        cases += [((a, b), range(16)) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
        for qubits, choices in cases:
            rows = np.repeat(state[None], len(choices), axis=0)
            hit = noise._hit(rows, 3, qubits, np.array(choices, dtype=np.uint8))
            for row, choice in zip(hit, choices):
                expected = state.copy()
                paulis = divmod(choice, 4) if len(qubits) == 2 else (choice,)
                for q, pauli in zip(qubits, paulis):
                    kernels.apply_unitary(expected, 3, (q,), noise._PAULIS[pauli])
                assert np.array_equal(row, expected), (qubits, choice)

    @pytest.mark.parametrize("amplitudes", [32, 96])
    @pytest.mark.parametrize("rows", [5, 2048 + 50])
    def test_padded_chunks_stay_within_the_amplitude_budget(self, monkeypatch, circuit, amplitudes, rows):
        """Chunks of 1 and 2 rows at width 5, the largest powers of two the
        budget holds: no array a gate is applied to, padding included,
        holds more amplitudes than the budget, and every row matches its
        pattern run on its own."""
        monkeypatch.setattr(noise, "_BATCH_AMPLITUDES", amplitudes)
        sizes = []
        for name in ("apply_flip", "apply_unitary"):
            original = getattr(kernels, name)

            def recorded(amps, *args, original=original):
                sizes.append(amps.size)
                return original(amps, *args)

            monkeypatch.setattr(kernels, name, recorded)
        rng = np.random.default_rng(rows)
        counts = [len(self._choices(g)) for g in circuit.gates]
        choices = rng.integers(0, counts, (rows, len(counts))) + 1
        patterns = np.where(rng.random((rows, len(counts))) < 0.05, choices, 0)
        patterns[np.arange(rows), rng.integers(len(counts), size=rows)] = 1
        self._assert_rows_match(circuit, patterns)
        assert max(sizes) == {32: 32, 96: 64}[amplitudes]

    @pytest.mark.parametrize("amplitudes", [32, 96])
    def test_small_batches_match_reference(self, monkeypatch, amplitudes):
        """1 and 2 rows per chunk at width 5."""
        monkeypatch.setattr(noise, "_BATCH_AMPLITUDES", amplitudes)
        circuit, _ = _transpiled("010")
        profile = NoiseProfile.quito().scaled(cx=5, sq=50)
        expected = _reference_run_noisy(circuit, profile, 2048, seed=(3, 1))
        assert run_noisy(circuit, profile, 2048, seed=(3, 1)) == expected


def stream_matrix(base, shots, columns):
    """Row i, column j: double columns[j] of shot i's stream, stepped to by
    one `Block`."""
    block = Block(base, np.asarray(shots))
    return np.column_stack([block.step(c) * 2.0**-53 for c in columns])


class TestStreams:
    """The vectorized stream pass against numpy's per-shot generators."""

    @pytest.mark.parametrize("m", [1, 7, 61])
    @pytest.mark.parametrize("shot", [0, 1, 1023, 1024, _BLOCK_SHOTS - 1, _BLOCK_SHOTS, 2**31, 2**32 - 1])
    @pytest.mark.parametrize("base", [(0,), (3, 0), (2**31 - 1, 4), (2**40 + 5, 7), (1, 2, 3)])
    def test_rows_equal_default_rng(self, base, shot, m):
        rows = min(3, MAX_SHOTS - shot)
        out = stream_matrix(base, np.arange(shot, shot + rows), range(m))
        for i in range(rows):
            assert np.array_equal(out[i], np.random.default_rng((*base, shot + i)).random(m))

    def test_shot_index_past_32_bits_rejected(self):
        with pytest.raises(ValueError):
            Block((0,), np.array([MAX_SHOTS - 1, MAX_SHOTS]))

    @pytest.mark.parametrize(
        "columns",
        [[0], [59], [5000], [0, 2, 3], [0, 1, 2, 70, 71], [3, 5, 6, 7, 140, 141, 300]],
        ids=["first", "last-of-61", "lone-far", "gap-1", "gap-over-64", "mixed"],
    )
    @pytest.mark.parametrize(
        "shots",
        [[0], [2**31], [2**32 - 1], [2**32 - 1, 0, 2**31, 7], [900, 3, 3, 51_000, 1]],
        ids=["0", "2^31", "2^32-1", "scattered", "unsorted-repeated"],
    )
    @pytest.mark.parametrize("base", [(0,), (2**40 + 5, 7)])
    def test_gapped_columns_equal_default_rng(self, base, shots, columns):
        out = stream_matrix(base, shots, columns)
        for row, shot in zip(out, shots):
            stream = np.random.default_rng((*base, shot)).random(columns[-1] + 1)
            assert np.array_equal(row, stream[columns])

    @pytest.mark.parametrize(
        "columns",
        [[0], [5000], [0, 2, 3], [0, 1, 2, 70, 71], [3, 5, 6, 7, 140, 141, 300]],
        ids=["first", "lone-far", "gap-1", "gap-over-64", "mixed"],
    )
    @pytest.mark.parametrize("base", [(0,), (2**40 + 5, 7)])
    def test_column_iterator_equals_default_rng(self, base, columns):
        """Each step's bits, read before the next step overwrites them."""
        shots = [0, 2**31, 2**32 - 1]
        block = Block(base, np.array(shots))
        for c in columns:
            column = block.step(c)
            assert column.shape == (len(shots),) and column.dtype == np.uint64
            for shot, value in zip(shots, column * 2.0**-53):
                assert value == np.random.default_rng((*base, shot)).random(c + 1)[-1]

    @pytest.mark.parametrize(
        "base, shots, columns",
        [
            ((0,), [0, 1], [3, 2]),
            ((0,), [0, 1], [2, 2]),
            ((0,), [0, 1], [-1]),
            ((0,), [0, MAX_SHOTS], None),
            ((0,), [-1, 0], None),
            ((0,), [[0, 1]], None),
            ((0,), [0.0, 1.0], None),
            ((3, -1), [0, 1], None),
        ],
        ids=[
            "unsorted-column", "repeated-column", "negative-column", "shot-2^32", "negative-shot",
            "2-d-shots", "float-shots", "negative-seed-word",
        ],
    )
    def test_malformed_request_rejected_before_any_seeding(self, monkeypatch, base, shots, columns):
        """Every malformed block, bad seed words included, is refused
        before any seeding; a malformed column (the last of `columns`)
        is refused by `step` before any lane moves."""

        def no_work(*args):
            raise AssertionError("worked on a refused request")

        if columns is None:
            monkeypatch.setattr(_streams, "_pool", no_work)
            with pytest.raises(ValueError):
                Block(base, np.array(shots))
            return
        *valid, malformed = columns
        block = Block(base, np.array(shots))
        for column in valid:
            block.step(column)
        monkeypatch.setattr(_streams, "_advance", no_work)
        with pytest.raises(ValueError):
            block.step(malformed)

    @staticmethod
    def _assert_ahead_equals_default_rng(base, shots, holds, m):
        """Hold `lanes` at each (column, lanes) of `holds`, then draw m
        columns ahead of every held state."""
        block, expected = Block(base, np.array(shots)), []
        for column, lanes in holds:
            block.step(column)
            block.hold(np.array(lanes, dtype=np.intp))
            for i in lanes:
                expected.append(np.random.default_rng((*base, shots[i])).random(column + m + 1)[column + m])
        drawn = block.ahead(m)
        assert drawn.dtype == np.uint64 and drawn.shape == (len(expected),)
        assert np.array_equal(drawn * 2.0**-53, expected)

    @pytest.mark.parametrize(
        "m",
        [1, *sorted({len(_transpiled(s)[0].gates) for s in DEMO_SECRETS}), 65, 300],
    )
    @pytest.mark.parametrize("base", [(0,), (2**40 + 5, 7)])
    def test_ahead_of_held_lanes_equals_default_rng(self, base, m):
        shots = [2**32 - 1, 0, 2**31, 7, 51_000, 3]
        holds = [(0, [0, 2]), (1, []), (2, [5, 0]), (9, [1, 2, 3, 4]), (70, [0])]
        self._assert_ahead_equals_default_rng(base, shots, holds, m)

    def test_ahead_of_no_held_lane_is_empty(self):
        self._assert_ahead_equals_default_rng((3,), [2**32 - 1, 1], [(0, []), (4, [])], 27)
        block = Block((3,), np.array([2**32 - 1, 1]))
        block.step(5)
        assert block.ahead(27).shape == (0,)

    def test_hold_before_any_step_rejected(self):
        with pytest.raises(ValueError):
            Block((0,), np.arange(4)).hold(np.array([0]))

    @pytest.mark.parametrize("columns", [[3, 3], [4, 2], [-1]], ids=["repeated", "backwards", "negative"])
    def test_block_steps_only_forward(self, columns):
        block = Block((0,), np.arange(4))
        with pytest.raises(ValueError):
            for column in columns:
                block.step(column)

    def test_interleaved_blocks_do_not_share_work_arrays(self):
        """Two streams drawn in turn, and a block seeded and dropped while
        another is in use, each equal default_rng: no block seeds into
        arrays in use."""
        base = (5,)
        small, large = np.arange(3), np.array([2**32 - 1, 9, 400, 2**31])
        a, b = Block(base, small), Block(base, large)
        for c in range(4):
            for shots, block in ((small, a), (large, b)):
                column = block.step(c) * 2.0**-53
                assert np.array_equal(column, [np.random.default_rng((*base, k)).random(c + 1)[-1] for k in shots])
        outer = Block(base, large)
        outer.step(3)
        Block(base, small).step(3)
        assert np.array_equal(outer.step(4) * 2.0**-53, stream_matrix(base, large, [4])[:, 0])

    def test_threads_drawing_blocks_at_once_draw_their_own_streams(self):
        """More threads than cores seed and step blocks at once with a
        short switch interval; every draw stays its own."""
        shot_sets = [np.arange(k, k + 40 + 9 * k) for k in range(6)]
        expected = [stream_matrix((8,), shots, [0, 3, 70]) for shots in shot_sets]
        results = [[] for _ in shot_sets]

        def draw(i):
            for _ in range(30):
                results[i].append(stream_matrix((8,), shot_sets[i], [0, 3, 70]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(shot_sets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == 30 and all(np.array_equal(g, want) for g in got)

    @staticmethod
    def _threshold_probabilities():
        tiny = np.nextafter(0.0, 1.0)
        grid = [j * 2.0**-53 for j in (1, 2, 3, 2**20 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1)]
        neighbours = [np.nextafter(p, t) for p in grid for t in (0.0, 2.0)]
        return [1.0, 0.5, tiny, *grid, *neighbours, 0.0, 7.401e-3, 4.57e-4]

    @pytest.mark.parametrize("p", _threshold_probabilities())
    def test_integer_threshold_agrees_with_the_double(self, p):
        """k < K holds exactly when the double drawn, k 2^-53, is below p,
        at K - 1, K and K + 1 and wherever those are 53-bit draws."""
        k_max = int(threshold(p))
        assert k_max == math.ceil(float(p) * 2.0**53) <= 2**53
        ks = np.array([k for k in (k_max - 1, k_max, k_max + 1) if 0 <= k < 2**53], dtype=np.uint64)
        assert len(ks)
        assert np.array_equal(ks < threshold(p), ks * 2.0**-53 < p)

    @pytest.mark.parametrize("m", [1, 2, 63, 64, 10**5])
    def test_jump_constants_equal_plain_steps(self, m):
        rng = np.random.default_rng(m)
        state, inc = (int(rng.integers(2**62)) << 66 | int(rng.integers(2**62)) for _ in range(2))
        inc |= 1
        stepped = state
        for _ in range(m):
            stepped = (stepped * _streams._PCG_MULT + inc) % 2**128
        mult, plus = _streams._jump(m)
        assert (mult * state + plus * inc) % 2**128 == stepped

    def test_more_than_two_to_the_32_shots_rejected_before_any_work(self, monkeypatch):
        def no_work(circuit, patterns):
            raise AssertionError("simulated a circuit for a refused shot count")

        monkeypatch.setattr(noise, "_faulty_cdfs", no_work)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            run_noisy(bell_circuit(), NoiseProfile.zero(2), MAX_SHOTS + 1)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            estimate_asp(SecretString.from_string("01"), trials=1, shots=MAX_SHOTS + 1)

    @pytest.mark.parametrize("seed", [-1, (3, -1), (-(2**40), 0)])
    def test_negative_seed_element_rejected_as_numpy_does(self, seed):
        base = _seed_tuple(seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng(base + (0,))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_noisy(bell_circuit(), NoiseProfile.zero(2), 10, seed=seed)


class TestAspZ:
    @staticmethod
    def report(mean):
        return AspReport("01", trials=2, shots=50, per_trial=(mean, mean), mean=mean, stddev=0.0)

    def test_binomial_standard_errors_over_all_shots(self):
        assert self.report(0.6).z(0.5) == pytest.approx(0.1 / math.sqrt(0.25 / 100))
        assert self.report(0.4).z(0.5) == pytest.approx(-0.1 / math.sqrt(0.25 / 100))

    def test_certain_outcomes_have_no_error(self):
        assert self.report(1.0).z(1.0) == 0.0
        assert self.report(0.0).z(0.0) == 0.0
        assert self.report(0.99).z(1.0) is None


class TestExactAsp:
    def test_zero_noise_is_one(self):
        for text in DEMO_SECRETS:
            assert exact_asp(SecretString.from_string(text)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.09, 0.3, 1.0])
    def test_one_cx_on_zero_state(self, p):
        """3 of the 15 Paulis (IZ, ZI, ZZ) leave |00> in place."""
        profile = NoiseProfile.uniform(2, cx=p, readout=0.0, sq=0.0)
        probs = exact_distribution(Circuit(2, [CX(1, 2)]), profile)
        assert probs[0] == pytest.approx(1 - 12 * p / 15, abs=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_noise_matches_the_statevector(self):
        """Pins the row and column qubits of the vectorized density matrix."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            width = int(rng.integers(2, 5))
            gates = []
            for _ in range(int(rng.integers(1, 16))):
                a, b = (int(q) for q in rng.choice(width, size=2, replace=False) + 1)
                kind = str(rng.choice(["x", "z", "h", "sx", "rz", "cx"]))
                if kind == "cx":
                    gates.append(CX(a, b))
                elif kind == "rz":
                    gates.append(RZ(float(rng.uniform(-math.pi, math.pi)), a))
                else:
                    gates.append(Gate(kind, (a,)))
            circuit = Circuit(width, gates)
            probs = exact_distribution(circuit, NoiseProfile.zero(width))
            assert np.max(np.abs(probs - simulate(circuit).probabilities())) < 1e-12

    @pytest.mark.parametrize(
        "profile",
        [
            NoiseProfile.quito(),
            NoiseProfile.zero(5),
            NoiseProfile.quito().scaled(5, 3, 50),
            NoiseProfile.uniform(5, 1.0, 0.0, 1.0),
        ],
        ids=["quito", "zero", "scaled", "certain"],
    )
    def test_skipping_identity_digits_changes_nothing(self, profile):
        """The density matrix conjugated by every digit of each fault,
        identities included, and every gate as its matrix, gives the same
        distribution bit for bit on the 12 demo circuits."""

        def reference(circuit):
            width = circuit.width
            rho = np.zeros(1 << (2 * width), dtype=complex)
            rho[0] = 1.0
            for gate, p in zip(circuit.gates, noise._site_probabilities(circuit, profile)):
                noise._conjugate(rho, width, gate.qubits, gate_matrix(gate))
                if p:
                    faults = [divmod(c, 4) for c in range(1, 16)] if gate.kind == "cx" else [(1,), (2,), (3,)]
                    mixed = 0
                    for fault in faults:
                        faulty = rho.copy()
                        for q, c in zip(gate.qubits, fault):
                            noise._conjugate(faulty, width, (q,), noise._PAULIS[c])
                        mixed = mixed + faulty
                    rho = (1.0 - p) * rho + (p / len(faults)) * mixed
            probs = rho[:: (1 << width) + 1].real.copy()
            for q, r in enumerate(profile.readout_error[:width]):
                pairs = probs.reshape(1 << q, 2, -1)
                pairs[:] = (1.0 - r) * pairs + r * pairs[:, ::-1]
            return probs

        for text in DEMO_SECRETS:
            circuit, _ = _transpiled(text)
            assert np.array_equal(exact_distribution(circuit, profile), reference(circuit)), text

    def test_readout_confusion_on_the_diagonal(self):
        profile = NoiseProfile({}, (0.1, 0.25), (0.0, 0.0))
        probs = exact_distribution(Circuit(2, [X(1)]), profile)  # clean readout 10
        expected = [0.1 * 0.75, 0.1 * 0.25, 0.9 * 0.75, 0.9 * 0.25]
        assert probs == pytest.approx(expected, abs=1e-15)

    def test_monte_carlo_within_five_standard_errors(self):
        """One 8192-shot trial per demo secret under the quito calibration."""
        profile = NoiseProfile.quito()
        for text in DEMO_SECRETS:
            s = SecretString.from_string(text)
            exact = exact_asp(s, profile)
            estimate = estimate_asp(s, profile, trials=1, shots=8192, seed=0).mean
            se = math.sqrt(exact * (1 - exact) / 8192)
            assert abs(estimate - exact) <= 5 * se, text

    def test_profile_too_small(self):
        with pytest.raises(ValueError):
            exact_distribution(bell_circuit(), NoiseProfile.zero(1))

    @pytest.mark.parametrize("n, expected", [(2, 0.8664), (3, 0.8559)])
    def test_quito_asp_depends_only_on_secret_length(self, n, expected):
        """The modelled value of claim (iii) that README sets next to the
        paper's device figures (85.3 % for n = 2, 82.5 % for n = 3)."""
        profile = NoiseProfile.quito()
        values = [exact_asp(SecretString.from_string(t), profile) for t in DEMO_SECRETS if len(t) == n]
        assert max(values) - min(values) <= 1e-12
        assert {round(v, 4) for v in values} == {expected}

    @pytest.mark.parametrize("text", ["00", "000"])
    @pytest.mark.parametrize("family", ["cx", "readout", "sq"])
    def test_strictly_decreasing_in_each_error_family(self, text, family):
        s = SecretString.from_string(text)
        base = NoiseProfile.quito()
        exact = [exact_asp(s, base.scaled(**{family: k})) for k in (0.5, 1.0, 2.0)]
        assert exact[0] > exact[1] > exact[2]


class TestEstimateAsp:
    def test_noiseless_probability_is_exactly_one(self):
        for text in ("00", "11", "010"):
            report = estimate_asp(SecretString.from_string(text), trials=2, shots=256, seed=3)
            assert report.per_trial == (1.0, 1.0)
            assert report.mean == 1.0 and report.stddev == 0.0

    def test_protocol_shape(self):
        report = estimate_asp(SecretString.from_string("01"), trials=5, shots=64, seed=0)
        assert report.trials == 5 and report.shots == 64
        assert len(report.per_trial) == 5

    def test_seeded_runs_reproduce(self):
        profile = NoiseProfile.quito()
        a = estimate_asp(SecretString.from_string("10"), profile, trials=2, shots=512, seed=4)
        b = estimate_asp(SecretString.from_string("10"), profile, trials=2, shots=512, seed=4)
        assert a.per_trial == b.per_trial

    def test_monotone_under_common_random_numbers(self):
        """Scaling every error rate with a shared seed never helps the learner."""
        base = NoiseProfile.quito()
        s = SecretString.from_string("00")
        means = [
            estimate_asp(s, base.scaled(cx=k, readout=k, sq=k), trials=1, shots=2048, seed=6).mean
            for k in (0.5, 1.0, 2.0)
        ]
        assert means[0] + 5e-3 >= means[1] >= means[2] - 5e-3

    def test_odd_n_counts_either_last_bit(self):
        """Only the learned prefix matters: the tail query corrects bit 3."""
        s = SecretString.from_string("110")
        _, report = _transpiled(str(s))
        readout = [0.0] * 5
        readout[report.mapping[2]] = 1.0  # always flip the measured third bit
        profile = NoiseProfile({}, tuple(readout), (0.0,) * 5)
        asp = estimate_asp(s, profile, trials=1, shots=256, seed=8)
        assert asp.mean == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_asp(SecretString.from_string("01"), trials=0, shots=1)


def test_error_injection_changes_distribution():
    """With certainty-one CX depolarizing, outcomes leave the clean support."""
    circuit = Circuit(2, [CX(1, 2)])  # identity on |00>
    profile = NoiseProfile.uniform(2, cx=1.0, readout=0.0, sq=0.0)
    hist = run_noisy(circuit, profile, shots=3000, seed=11)
    clean = simulate(circuit).dominant_outcome()
    assert clean == "00"
    assert set(hist) != {"00"}
    # 12 of the 15 two-qubit flips move probability off |00>
    assert hist.get("00", 0) / 3000 < 0.5
