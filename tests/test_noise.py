import json
import math

import numpy as np
import pytest

from lcplearn import (
    CX,
    H,
    X,
    Circuit,
    NoiseProfile,
    SecretString,
    estimate_asp,
    exact_asp,
    init_basis,
    run_noisy,
    simulate,
)
from lcplearn.noise import _seed_tuple, _transpiled, exact_distribution
from lcplearn.transpile import CouplingGraph

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
                        state.apply_unitary1(g.qubits[0], _REF_PAULIS[p1])
                    if p2:
                        state.apply_unitary1(g.qubits[1], _REF_PAULIS[p2])
                else:
                    choice = int(pick_u[k] * 3) + 1
                    state.apply_unitary1(g.qubits[0], _REF_PAULIS[choice])
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
    """The cached-prefix, pattern-memo replay against the per-shot loop."""

    @pytest.mark.parametrize("secret", DEMO_SECRETS)
    def test_demo_secrets_match_reference(self, secret):
        circuit, _ = _transpiled(secret, CouplingGraph.quito())
        quito = NoiseProfile.quito()
        for profile in (NoiseProfile.zero(5), quito, quito.scaled(cx=5, sq=50)):
            expected = _reference_run_noisy(circuit, profile, 2048, seed=(3, 1))
            assert run_noisy(circuit, profile, 2048, seed=(3, 1)) == expected

    def test_bell_under_certain_cx_errors_matches_reference(self):
        profile = NoiseProfile.uniform(2, cx=1.0, readout=0.3, sq=0.5)
        expected = _reference_run_noisy(bell_circuit(), profile, 3000, seed=12)
        assert run_noisy(bell_circuit(), profile, 3000, seed=12) == expected

    def test_shots_span_several_blocks(self):
        from lcplearn.noise import _BLOCK_SHOTS

        shots = 2 * _BLOCK_SHOTS + 7
        profile = NoiseProfile.uniform(2, cx=0.2, readout=0.05, sq=0.02)
        expected = _reference_run_noisy(bell_circuit(), profile, shots, seed=0)
        assert run_noisy(bell_circuit(), profile, shots, seed=0) == expected

    def test_seeded_asp_trials_unchanged(self):
        """Counts of the per-shot replay, recorded before the rewrite."""
        report = estimate_asp(
            SecretString.from_string("010"), NoiseProfile.quito(), trials=5, shots=2048, seed=7
        )
        assert report.per_trial == tuple(c / 2048 for c in (1763, 1745, 1752, 1758, 1745))


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
        from lcplearn.noise import _transpiled
        from lcplearn.transpile import CouplingGraph

        s = SecretString.from_string("110")
        _, report = _transpiled(str(s), CouplingGraph.quito())
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
