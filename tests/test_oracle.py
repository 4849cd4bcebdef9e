import numpy as np
import pytest

import lcplearn.oracle as oracle_module
from lcplearn import (
    PhaseOracle,
    Query,
    QueryLedger,
    SecretString,
    f,
    lcp,
    oracle_diagonal,
)

# All eight diagonals printed for the hardware demonstrations, t = 1.
PUBLISHED = {
    "00": [-1, -1, -1, 1, 1, 1, 1, 1],
    "01": [-1, 1, -1, -1, 1, 1, 1, 1],
    "10": [1, 1, 1, 1, -1, -1, -1, 1],
    "11": [1, 1, 1, 1, -1, 1, -1, -1],
    "000": [-1, -1, -1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    "010": [-1, 1, -1, 1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1],
    "100": [1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 1, -1, 1],
    "110": [1, 1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1],
}


def all_secrets(n):
    for value in range(1 << n):
        yield SecretString(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))


class TestLcp:
    def test_partial_prefix(self):
        assert lcp(SecretString.from_string("0101"), "0110") == 2

    def test_identical_strings(self):
        s = SecretString.from_string("10110")
        assert lcp(s, "10110") == 5

    def test_first_bits_differ(self):
        assert lcp(SecretString.from_string("110"), "000") == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lcp(SecretString.from_string("01"), "011")


class TestAnswerBit:
    def test_full_match_beats_any_threshold(self):
        s = SecretString.from_string("00")
        assert f(s, Query((0, 0), 0)) == 1

    def test_threshold_at_prefix_length(self):
        s = SecretString.from_string("00")
        assert f(s, Query((0, 1), 1)) == 0  # lcp = 1, not > 1

    def test_three_bit_exact(self):
        s = SecretString.from_string("110")
        assert f(s, Query((1, 1, 0), 2)) == 1

    def test_ledger_counts_classical_queries(self):
        s = SecretString.from_string("101")
        ledger = QueryLedger()
        f(s, Query((1, 0, 1), 0), ledger)
        f(s, Query((0, 0, 1), 1), ledger)
        assert ledger.classical_queries == 2
        assert ledger.quantum_oracle_uses == 0

    def test_answer_non_increasing_in_q(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            s = SecretString(tuple(int(b) for b in rng.integers(0, 2, n)))
            x = tuple(int(b) for b in rng.integers(0, 2, n))
            answers = [f(s, Query(x, q)) for q in range(n)]
            assert all(a >= b for a, b in zip(answers, answers[1:]))

    def test_secret_queried_against_itself(self):
        for s in all_secrets(4):
            assert all(f(s, Query(s.bits, q)) == 1 for q in range(4))


class TestOracleDiagonal:
    @pytest.mark.parametrize("secret,expected", sorted(PUBLISHED.items()))
    def test_published_diagonals_bit_exact(self, secret, expected):
        got = oracle_diagonal(SecretString.from_string(secret), 1)
        assert np.array_equal(got, np.array(expected, dtype=float))

    def test_three_bit_instances_share_oracles(self):
        """With t=1 only q in {0,1} exists, so the last secret bit is invisible."""
        for prefix in ("00", "01", "10", "11"):
            a = oracle_diagonal(SecretString.from_string(prefix + "0"), 1)
            b = oracle_diagonal(SecretString.from_string(prefix + "1"), 1)
            assert np.array_equal(a, b)

    def test_matches_answer_bit_pointwise(self):
        for s in all_secrets(3):
            signs = oracle_diagonal(s, 2)
            for x_val in range(8):
                x = tuple((x_val >> (2 - j)) & 1 for j in range(3))
                for q in range(3):
                    expected = -1.0 if f(s, Query(x, q)) else 1.0
                    assert signs[(x_val << 2) | q] == expected

    def test_padding_thresholds_get_plus_one(self):
        # t=2 for n=2: q in {2, 3} is padding, the answer bit is 0 there
        signs = oracle_diagonal(SecretString.from_string("11"), 2)
        for x_val in range(4):
            assert signs[(x_val << 2) | 2] == 1.0
            assert signs[(x_val << 2) | 3] == 1.0

    def test_applying_twice_is_identity(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        signs = oracle_diagonal(SecretString.from_string("110"), 1)
        assert np.array_equal(amps * signs * signs, amps)


def test_phase_oracle_counts_uses_per_application():
    ledger = QueryLedger()
    oracle = PhaseOracle(SecretString.from_string("01"), 1, ledger)
    assert ledger.quantum_oracle_uses == 0  # construction is free
    amps = np.full(4, 0.5)
    oracle.apply_pair(amps, [0b00, 0b01, 0b10, 0b11], 1)
    assert np.array_equal(amps, [0.5, -0.5, 0.5, 0.5])
    oracle.apply_pair(amps, [0b00, 0b01, 0b10, 0b11], 1)
    assert ledger.quantum_oracle_uses == 2
    assert ledger.total == 2


def test_oracle_diagonal_refuses_a_register_over_the_dense_limit():
    with pytest.raises(ValueError, match="dense simulation limit"):
        oracle_diagonal(SecretString((1,) * 40), 6)


@pytest.mark.parametrize("secret", ["0110", "1111", "10010"])
def test_apply_pair_flips_exactly_the_matching_candidates(secret, monkeypatch):
    def no_diagonal(*args):
        raise AssertionError("apply_pair built the dense diagonal")

    monkeypatch.setattr(oracle_module, "oracle_diagonal", no_diagonal)
    s = SecretString.from_string(secret)
    n = s.n
    ledger = QueryLedger()
    oracle = PhaseOracle(s, 3, ledger)
    uses = 0
    for q in range(n):
        for start in range(0, 1 << n, 4):
            candidates = range(start, start + 4)
            amps = np.full(4, 0.5)
            oracle.apply_pair(amps, candidates, q)
            uses += 1
            assert ledger.quantum_oracle_uses == uses
            for x, amp in zip(candidates, amps):
                bits = tuple((x >> (n - 1 - j)) & 1 for j in range(n))
                assert amp == (-0.5 if f(s, Query(bits, q)) else 0.5)
    # thresholds at or past n are padding: lcp <= n never exceeds them
    amps = np.full(4, 0.5)
    oracle.apply_pair(amps, range(4), n)
    assert np.array_equal(amps, np.full(4, 0.5))


def test_secret_string_validation():
    with pytest.raises(ValueError):
        SecretString.from_string("")
    with pytest.raises(ValueError):
        SecretString.from_string("01a")
    with pytest.raises(ValueError):
        Query((0, 1), 2)
