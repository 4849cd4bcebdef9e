import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lcplearn import (
    AlgorithmLayout,
    CertificationError,
    PhaseOracle,
    SecretString,
    build_round_circuit,
    certify_round,
    init_basis,
    oracle_diagonal,
    q_shift,
    r_operator,
    run_quantum_learn,
)
from lcplearn import kernels, quantum, statevector
from lcplearn.circuit import H, X, gate_matrix
from lcplearn.quantum import (
    MAX_TRACE_N,
    _bits_to_int,
    _candidate_indices,
    _check_round_trace,
    _pair_round,
    _traced_round,
    q_value,
)

STAGES = ("superposed", "phased", "collapsed")


def all_secrets(n):
    for value in range(1 << n):
        yield SecretString(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))


def _reference_round(state, rc, s, layout):
    """One round gate by gate on the dense state: H and X through
    Statevector.apply_gate, the oracle as its whole diagonal through
    kernels.apply_signs (one use on the oracle's ledger) and R through
    kernels.apply_unitary, each in place, with a copy of the state after
    every stage."""
    for q in rc.h_qubits:
        state.apply_gate(H(q))
    for q in rc.x_qubits:
        state.apply_gate(X(q))
    superposed = state.amps.copy()
    if rc.oracle.ledger is not None:
        rc.oracle.ledger.count_quantum()
    kernels.apply_signs(state.amps, oracle_diagonal(rc.oracle.secret, rc.oracle.t))
    phased = state.amps.copy()
    kernels.apply_unitary(state.amps, state.num_qubits, rc.r_qubits, r_operator().astype(complex))
    i = rc.index
    idxs, cands = _candidate_indices(s, i, layout.t)
    return SimpleNamespace(
        round_index=i,
        q_prev=q_value(i - 1),
        q_cur=q_value(i),
        prefix=s.bits[: 2 * i - 2],
        candidates=cands,
        alphas={k: float(phased[idx].real) for k, idx in zip(quantum._K_PAIRS, idxs)},
        superposed=superposed,
        phased=phased,
        collapsed=state.amps.copy(),
    )


def _reference_secrets():
    """Every secret with n = 2..8 and three random ones at each n = 9..14."""
    rng = np.random.default_rng(20)
    yield from (s for n in range(2, 9) for s in all_secrets(n))
    for n in range(9, 15):
        for _ in range(3):
            yield SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))


def _assert_same_round(got, want):
    assert got.round_index == want.round_index
    assert (got.q_prev, got.q_cur, got.prefix, got.candidates) == (want.q_prev, want.q_cur, want.prefix, want.candidates)
    assert got.alphas == want.alphas
    for stage in STAGES:
        assert np.array_equal(getattr(got, stage), getattr(want, stage)), stage


class TestReflection:
    def test_matrix_entries(self):
        r = r_operator()
        assert np.array_equal(2 * r, np.ones((4, 4)) - 2 * np.eye(4))

    def test_unitary_and_self_inverse(self):
        r = r_operator()
        assert np.allclose(r @ r.conj().T, np.eye(4))
        assert np.allclose(r @ r, np.eye(4))

    def test_maps_flagged_superposition_to_11(self):
        amps = 0.5 * np.array([1, 1, 1, -1])
        assert np.allclose(r_operator() @ amps, [0, 0, 0, 1])

    def test_maps_flagged_superposition_to_00(self):
        amps = 0.5 * np.array([-1, 1, 1, 1])
        assert np.allclose(r_operator() @ amps, [1, 0, 0, 0])

    def test_every_flag_position(self):
        for k in range(4):
            amps = np.full(4, 0.5)
            amps[k] = -0.5
            out = r_operator() @ amps
            assert np.allclose(out, np.eye(4)[k])


class TestQShift:
    def test_first_round_single_x(self):
        assert q_shift(1, 1).gates == (X(1),)

    def test_second_round_flips_high_bit(self):
        # 01 -> 11: only the most significant q bit changes
        assert q_shift(2, 2).gates == (X(1),)

    def test_third_round_mask(self):
        # 3 ^ 5 = 0b110: the two most significant bits of a 3-bit register
        gates = q_shift(3, 3).gates
        assert gates == (X(1), X(2))

    def test_shift_values_chain_to_odd_thresholds(self):
        assert [q_value(i) for i in range(5)] == [0, 1, 3, 5, 7]

    def test_round_too_wide(self):
        with pytest.raises(ValueError):
            q_shift(2, 1)


class TestLayout:
    @pytest.mark.parametrize(
        "n,t,rounds,tail",
        [
            (1, 0, 0, True),
            (2, 1, 1, False),
            (3, 1, 1, True),
            (4, 2, 2, False),
            (5, 2, 2, True),
            (6, 3, 3, False),
            (7, 3, 3, True),
            (8, 3, 4, False),
            (9, 3, 4, True),
        ],
    )
    def test_register_and_round_table(self, n, t, rounds, tail):
        layout = AlgorithmLayout.for_n(n)
        assert (layout.t, layout.rounds, layout.uses_classical_tail) == (t, rounds, tail)
        assert layout.total_queries == math.ceil(n / 2)

    def test_thresholds_fit_register(self):
        for n in range(2, 40):
            layout = AlgorithmLayout.for_n(n)
            if layout.rounds:
                assert q_value(layout.rounds) < (1 << layout.t)

    def test_parity_label(self):
        assert AlgorithmLayout.for_n(4).parity == "even"
        assert AlgorithmLayout.for_n(5).parity == "odd"

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            AlgorithmLayout.for_n(0)


class TestRoundCircuit:
    def test_structure_for_two_bits(self):
        s = SecretString.from_string("00")
        layout = AlgorithmLayout.for_n(2)
        rc = build_round_circuit(1, layout, PhaseOracle(s, layout.t))
        assert rc.h_qubits == (1, 2)
        assert rc.x_qubits == (3,)  # q register qubit, 0 -> 1
        assert rc.r_qubits == (1, 2)

    def test_one_round_writes_first_two_bits(self):
        layout = AlgorithmLayout.for_n(2)
        for s in all_secrets(2):
            rt = _traced_round({0: 1 + 0j}, build_round_circuit(1, layout, PhaseOracle(s, 1)), s, layout)
            [(idx, amp)] = rt.supports["collapsed"].items()
            assert format(idx, "03b") == f"{s}1"
            assert abs(amp) == pytest.approx(1.0)

    def test_one_oracle_use_per_round(self):
        from lcplearn import QueryLedger

        s = SecretString.from_string("0110")
        layout = AlgorithmLayout.for_n(4)
        ledger = QueryLedger()
        oracle = PhaseOracle(s, layout.t, ledger)
        support = {0: 1 + 0j}
        for i in (1, 2):
            support = _traced_round(support, build_round_circuit(i, layout, oracle), s, layout).supports["collapsed"]
        assert ledger.quantum_oracle_uses == 2

    def test_round_index_validation(self):
        layout = AlgorithmLayout.for_n(4)
        with pytest.raises(ValueError):
            build_round_circuit(3, layout, PhaseOracle(SecretString.from_string("0000"), 2))


class TestAxisProducts:
    """The round on the state's support against the same round gate by
    gate on the dense state: every dense view array-equal."""

    def test_traced_runs_equal_the_gate_by_gate_rounds(self):
        for s in _reference_secrets():
            layout = AlgorithmLayout.for_n(s.n)
            traces = run_quantum_learn(s, trace=True).traces
            assert len(traces) == layout.rounds
            state, oracle = init_basis(s.n + layout.t, 0), PhaseOracle(s, layout.t)
            for i, got in enumerate(traces, start=1):
                _assert_same_round(got, _reference_round(state, build_round_circuit(i, layout, oracle), s, layout))

    def test_certified_rounds_equal_the_gate_by_gate_rounds(self):
        for s in _reference_secrets():
            n, layout = s.n, AlgorithmLayout.for_n(s.n)
            oracle = PhaseOracle(s, layout.t)
            for i in range(1, layout.rounds + 1):
                prefix = _bits_to_int(s.bits[: 2 * i - 2] + (0,) * (n - 2 * i + 2))
                state = init_basis(n + layout.t, (prefix << layout.t) | q_value(i - 1))
                want = _reference_round(state, build_round_circuit(i, layout, oracle), s, layout)
                _assert_same_round(certify_round(s, i), want)

    def test_stages_write_new_arrays_and_the_state_moves_on(self):
        """Each stage keeps its own support, the input support is left as it
        is, and every dense view is a fresh array."""
        s = SecretString.from_string("011010")
        layout = AlgorithmLayout.for_n(6)
        start = {0: 1 + 0j}
        rt = _traced_round(start, build_round_circuit(1, layout, PhaseOracle(s, layout.t)), s, layout)
        assert start == {0: 1 + 0j}
        assert [len(rt.supports[stage]) for stage in STAGES] == [4, 4, 1]
        assert all(list(rt.supports[stage]) == sorted(rt.supports[stage]) for stage in STAGES)
        views = (rt.superposed, rt.phased, rt.collapsed, rt.collapsed)
        assert all(not np.shares_memory(a, b) for j, a in enumerate(views) for b in views[j + 1:])
        assert all(v.shape == (1 << (6 + layout.t),) for v in views)


class TestTraceBound:
    """A traced run is limited to MAX_TRACE_N bits, checked before any round."""

    def test_over_the_bound_refused_before_any_round(self, monkeypatch):
        def no_round(*args):
            raise AssertionError("built a round for a refused trace")

        monkeypatch.setattr(quantum, "build_round_circuit", no_round)
        with pytest.raises(ValueError, match=rf"^a traced run is limited to {MAX_TRACE_N} bits, got {MAX_TRACE_N + 1}$"):
            run_quantum_learn(SecretString.from_string("1" * (MAX_TRACE_N + 1)), trace=True)

    @pytest.mark.parametrize("n", [16, 19])
    def test_a_trace_past_the_old_dense_budget_succeeds(self, monkeypatch, n):
        # 16 and 19 bits once exceeded a 2^24-amplitude snapshot budget;
        # traced on supports, they need no dense state at all
        def no_state(*args):
            raise AssertionError("allocated a dense state for a traced run")

        monkeypatch.setattr(statevector, "init_basis", no_state)
        monkeypatch.setattr(quantum, "init_basis", no_state)
        s = SecretString.from_string("1" * n)
        result = run_quantum_learn(s, trace=True)
        assert result.recovered == s.bits
        assert len(result.traces) == result.quantum_uses == n // 2

    def test_a_secret_at_the_bound_is_traced_on_four_amplitudes(self):
        rng = np.random.default_rng(MAX_TRACE_N)
        s = SecretString(tuple(int(b) for b in rng.integers(0, 2, MAX_TRACE_N)))
        result = run_quantum_learn(s, trace=True)
        assert result.recovered == s.bits
        assert len(result.traces) == result.quantum_uses == MAX_TRACE_N // 2
        assert all([len(rt.supports[stage]) for stage in STAGES] == [4, 4, 1] for rt in result.traces)

    def test_a_dense_view_over_the_dense_limit_is_refused(self):
        rt = run_quantum_learn(SecretString.from_string("10" * 11), trace=True).traces[0]
        assert rt.width == 22 + 5
        with pytest.raises(ValueError, match="dense simulation limit"):
            rt.collapsed


class TestRunQuantumLearn:
    def test_two_bit_secret_single_use(self):
        result = run_quantum_learn(SecretString.from_string("10"))
        assert result.recovered == (1, 0)
        assert result.quantum_uses == 1
        assert result.classical_queries == 0

    def test_odd_n_tail_flips_last_bit(self):
        # quantum part measures x = 010; lcp(011, 010) = 2 is not > 2, so
        # the answer 0 flips the guessed last bit to 1
        result = run_quantum_learn(SecretString.from_string("011"))
        assert result.recovered == (0, 1, 1)
        assert result.quantum_uses == 1
        assert result.classical_queries == 1

    def test_single_bit_is_classical_only(self):
        result = run_quantum_learn(SecretString.from_string("0"))
        assert result.recovered == (0,)
        assert result.quantum_uses == 0
        assert result.classical_queries == 1
        result = run_quantum_learn(SecretString.from_string("1"))
        assert result.recovered == (1,)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_budget(self, n):
        for s in all_secrets(n):
            result = run_quantum_learn(s)
            assert result.recovered == s.bits
            assert result.total_queries == math.ceil(n / 2)
            assert result.quantum_uses == n // 2

    def test_trace_round_chain(self):
        """Each round appends two secret bits and moves q to the next odd value."""
        s = SecretString.from_string("110100")
        result = run_quantum_learn(s, trace=True)
        assert result.recovered == s.bits
        layout = AlgorithmLayout.for_n(6)
        for i, rt in enumerate(result.traces, start=1):
            bits = s.bits[: 2 * i] + (0,) * (6 - 2 * i)
            x_int = int("".join(map(str, bits)), 2)
            target = (x_int << layout.t) | (2 * i - 1)
            collapsed = np.zeros(1 << (6 + layout.t))
            collapsed[target] = 1.0
            assert np.max(np.abs(rt.collapsed - collapsed)) < 1e-9

    def test_trace_alpha_pattern(self):
        """Exactly one candidate coefficient is -1/2, the rest +1/2."""
        s = SecretString.from_string("0111")
        for rt in run_quantum_learn(s, trace=True).traces:
            values = sorted(rt.alphas.values())
            assert np.allclose(values, [-0.5, 0.5, 0.5, 0.5])
            hit = s.bits[2 * rt.round_index - 2], s.bits[2 * rt.round_index - 1]
            assert rt.alphas[hit] == pytest.approx(-0.5)
            off_support = np.sort(np.abs(rt.phased))[:-4]
            assert np.max(off_support) < 1e-9


class TestPairPath:
    """The untraced learner runs each round on its pair; the traced run is its reference."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_reference_exhaustively(self, n):
        layout = AlgorithmLayout.for_n(n)
        for s in all_secrets(n):
            pair = run_quantum_learn(s)
            dense = run_quantum_learn(s, trace=True)
            assert pair.recovered == dense.recovered == s.bits
            assert (pair.quantum_uses, pair.classical_queries) == (dense.quantum_uses, dense.classical_queries)
            oracle = PhaseOracle(s, layout.t)
            prefix = 0
            for rt in dense.traces:
                i = rt.round_index
                prefix = (prefix << 2) | _pair_round(build_round_circuit(i, layout, oracle), prefix, n)
                dense_x = int(np.argmax(np.abs(rt.collapsed))) >> layout.t
                assert dense_x == prefix << (n - 2 * i)

    def test_rounds_touch_no_statevector_and_one_sign_kernel_each(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the pair path used the dense simulator")

        for owner, name in (
            (quantum, "init_basis"),
            (kernels, "apply_single"),
            (kernels, "apply_two"),
            (statevector.Statevector, "__init__"),
        ):
            monkeypatch.setattr(owner, name, fail)
        sign_calls = []
        apply_signs = kernels.apply_signs

        def counted_signs(amps, signs):
            sign_calls.append(1)
            apply_signs(amps, signs)

        monkeypatch.setattr(kernels, "apply_signs", counted_signs)

        rng = np.random.default_rng(7)
        secrets = [s for n in range(1, 9) for s in all_secrets(n)]
        secrets.append(SecretString(tuple(int(b) for b in rng.integers(0, 2, 10_001))))
        for s in secrets:
            sign_calls.clear()
            result = run_quantum_learn(s)
            assert result.recovered == s.bits
            assert len(sign_calls) == result.quantum_uses == s.n // 2

    def test_round_that_does_not_collapse_is_refused(self, monkeypatch):
        def flip_two(self, amps, candidates, q):
            amps[:2] *= -1.0

        monkeypatch.setattr(PhaseOracle, "apply_pair", flip_two)
        s = SecretString.from_string("0110")
        layout = AlgorithmLayout.for_n(4)
        rc = build_round_circuit(1, layout, PhaseOracle(s, layout.t))
        with pytest.raises(RuntimeError, match="not exact"):
            _pair_round(rc, 0, 4)

    @pytest.mark.parametrize("n", [1000, 1001, 10_001])
    def test_learns_secrets_far_past_the_dense_limit(self, n):
        rng = np.random.default_rng(n)
        s = SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
        result = run_quantum_learn(s)
        assert result.recovered == s.bits
        assert (result.quantum_uses, result.classical_queries) == (n // 2, n % 2)


class TestCertifyRound:
    def test_spec_case_n4_round2(self):
        s = SecretString.from_string("1101")
        rt = certify_round(s, 2)
        assert rt.prefix == (1, 1)
        assert rt.q_prev == 1 and rt.q_cur == 3
        assert rt.candidates == ((1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1))
        assert rt.alphas[(0, 1)] == pytest.approx(-0.5)

    def test_first_round_has_empty_prefix(self):
        rt = certify_round(SecretString.from_string("1010"), 1)
        assert rt.prefix == ()
        assert len(rt.candidates) == 4

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_certification(self, n):
        for s in all_secrets(n):
            for i in range(1, n // 2 + 1):
                certify_round(s, i)  # raises CertificationError on any mismatch

    def test_wrong_oracle_fails_certification(self):
        """Certifying against a different secret's oracle must fail loudly."""
        s = SecretString.from_string("0000")
        layout = AlgorithmLayout.for_n(4)
        rogue = PhaseOracle(SecretString.from_string("1111"), layout.t)
        trace = _traced_round({0: 1 + 0j}, build_round_circuit(1, layout, rogue), s, layout)
        with pytest.raises(CertificationError) as err:
            _check_round_trace(trace, s, layout)
        assert err.value.stage == "phase-pattern"

    def test_h_with_a_flipped_sign_fails_the_superposition(self, monkeypatch):
        flipped = gate_matrix(H(1)) * np.array([[1, 1], [-1, 1]])
        monkeypatch.setattr(quantum, "gate_matrix", lambda gate: flipped)
        with pytest.raises(CertificationError) as err:
            certify_round(SecretString.from_string("0110"), 2)
        assert err.value.stage == "superposition"

    def test_r_with_a_flipped_sign_leaks_an_entry_and_fails_the_collapse(self, monkeypatch):
        s = SecretString.from_string("0110")
        layout = AlgorithmLayout.for_n(4)
        flipped = r_operator()
        flipped[0, 0] = 0.5
        monkeypatch.setattr(quantum, "_R", flipped)
        trace = _traced_round({0: 1 + 0j}, build_round_circuit(1, layout, PhaseOracle(s, layout.t)), s, layout)
        assert len(trace.supports["collapsed"]) == 2
        with pytest.raises(CertificationError) as err:
            _check_round_trace(trace, s, layout)
        assert err.value.stage == "basis-collapse"

    def test_certifies_every_round_at_1024_bits_without_a_dense_state(self):
        """At n = 16 one dense state is 16 MiB; at n = 1024 none could exist."""
        rng = np.random.default_rng(1024)
        for n in (16, 1024):
            s = SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
            tracemalloc.start()
            try:
                for i in range(1, n // 2 + 1):
                    trace = certify_round(s, i)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak
            assert len(trace.supports["collapsed"]) == 1
        with pytest.raises(ValueError, match="dense simulation limit"):
            trace.superposed

    def test_round_out_of_range(self):
        with pytest.raises(ValueError):
            certify_round(SecretString.from_string("01"), 2)


def test_random_large_secrets():
    rng = np.random.default_rng(99)
    for n in (9, 11, 12, 14):
        for _ in range(5):
            s = SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
            result = run_quantum_learn(s)
            assert result.recovered == s.bits
            assert result.total_queries == math.ceil(n / 2)
