"""The noise replay's per-shot random streams, a block of shots at once.

A `Block` is the streams default_rng((*base, shot)) of a block of shots,
one lane each, seeded once and stepped forward through chosen columns:
`step(c)` gives every lane's double number c (from 0), `hold(lanes)`
keeps some lanes' states at the current column and `ahead(m)` gives the
doubles m columns past every held state.  A double is returned as the
53 bits Generator.random keeps, so it is exactly their value times
2^-53, and `threshold(p)` turns a probability into the integer those
bits are compared with.  So ``block.step(c)[i] * 2.0**-53`` is, bit for
bit, ``np.random.default_rng((*base, shots[i])).random(c + 1)[-1]``.

numpy's SeedSequence (O'Neill's seed_seq_fe with a pool of four 32-bit
words) turns the entropy words into a PCG64 seed and increment, PCG64
steps a 128-bit LCG and emits XSL-RR outputs, and Generator.random keeps
the top 53 bits of each.  The same wrapping uint32/uint64 arithmetic
runs here on arrays whose lanes are the shots, so a block costs a fixed
number of numpy calls per column instead of one generator per shot.
(M. E. O'Neill, PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation,
HMC-CS-2014-0905.)

Only the requested columns are computed.  The LCG state m steps ahead is
A^m s + C_m inc mod 2^128 with C_m = 1 + A + ... + A^(m-1), and both
constants come from square-and-multiply on Python ints (F. B. Brown,
"Random Number Generation with Arbitrary Strides", Trans. Am. Nucl. Soc.
71, 1994).  Adjacent columns cost one step each and a gap between columns
costs two 128-bit multiplies, however long it is; held states taken at
different columns all move m columns on in one jump, since the jump's
constants are the same for every lane and each state takes its own
lane's increment.  The steps run in place on the rows of one uint64
work array that each block allocates for itself.  On a 2-core Xeon VM
(three runs) an 8192-shot block of one column takes 0.4–0.6 ms; the
one pass of a quito demo circuit, 27 fire columns at a 1 % rate with
their fired lanes held, the measurement column, 5 readout columns and
the jump to the held lanes' Pauli draws, 3.8–5.2 ms; and all 60 columns
of its stream 7.5–9.7 ms.
"""

import math
from functools import lru_cache

import numpy as np

# The shot index is one 32-bit entropy word; a larger index would take two
# words and a different stream.
MAX_SHOTS = 1 << 32

_U32, _U64 = np.uint32, np.uint64
_INIT_A, _MULT_A = _U32(0x43B0D7E5), _U32(0x931E8875)
_INIT_B, _MULT_B = _U32(0x8B51F9DD), _U32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_LOW32 = _U64(0xFFFFFFFF)
_ONE, _S11, _S32, _S58, _S63, _S64 = (_U64(k) for k in (1, 11, 32, 58, 63, 64))


def _entropy_words(n: int) -> list:
    """SeedSequence's little-endian 32-bit words of one seed int; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [_U32(n & 0xFFFFFFFF)]
    while n >> 32:
        n >>= 32
        words.append(_U32(n & 0xFFFFFFFF))
    return words


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy into a pool of four words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else _U32(0)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, words: list) -> None:
    """SeedSequence.generate_state(4, np.uint64) into words[:4]: eight
    32-bit values, paired little-endian; words[4] is scratch."""
    hash_const = _INIT_B
    scratch = words[_POOL_SIZE]
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B
        value = value * hash_const
        value = value ^ (value >> _XSHIFT)
        word = words[i // 2]
        if i % 2:
            np.copyto(scratch, value)
            np.left_shift(scratch, _S32, scratch)
            np.bitwise_or(word, scratch, word)
        else:
            np.copyto(word, value)


@lru_cache(maxsize=256)
def _jump(m: int) -> tuple:
    """(A^m, C_m) mod 2^128 for PCG64's multiplier A, so that m LCG steps
    take a state s to A^m s + C_m inc; square-and-multiply over m's bits."""
    mult, plus = 1, 0
    square, square_plus = _PCG_MULT, 1
    while m:
        if m & 1:
            mult, plus = mult * square % _MOD, (plus * square + square_plus) % _MOD
        square, square_plus = square * square % _MOD, (square + 1) * square_plus % _MOD
        m >>= 1
    return mult, plus


@lru_cache(maxsize=256)
def _limbs(c: int) -> tuple:
    """A 128-bit constant as the uint64 words _mul takes: high, low, and
    the low word's two 32-bit halves."""
    lo = c & 0xFFFFFFFFFFFFFFFF
    return _U64(c >> 64), _U64(lo), _U64(lo & 0xFFFFFFFF), _U64(lo >> 32)


def _add128(hi, lo, b_hi, b_lo, carry) -> None:
    """(hi, lo) += (b_hi, b_lo) mod 2^128 in place; `carry` is uint64
    scratch, so every add is a uint64 loop."""
    np.add(lo, b_lo, lo)
    np.less(lo, b_lo, carry)
    np.add(hi, b_hi, hi)
    np.add(hi, carry, hi)


def _mul(hi, lo, c: int, scratch: list) -> None:
    """(hi, lo) *= c mod 2^128 in place, with four uint64 scratch arrays.

    The high word of lo * c_lo comes from 32-bit limbs: with a = lo and
    b = c_lo split into halves, t = (a0 b0 >> 32) + a1 b0 and
    u = (t mod 2^32) + a0 b1 cannot overflow, and the high word is
    a1 b1 + (t >> 32) + (u >> 32).
    """
    c_hi, c_lo, b0, b1 = _limbs(c)
    a0, a1, t, u = scratch[:4]
    np.bitwise_and(lo, _LOW32, a0)
    np.right_shift(lo, _S32, a1)
    np.multiply(a0, b0, t)
    np.right_shift(t, _S32, t)
    np.multiply(a1, b0, u)
    np.add(t, u, t)
    np.bitwise_and(t, _LOW32, u)
    np.multiply(a0, b1, a0)
    np.add(u, a0, u)
    np.right_shift(u, _S32, u)
    np.right_shift(t, _S32, t)
    np.add(t, u, t)
    np.multiply(a1, b1, a1)
    np.add(t, a1, t)  # the high word of lo * c_lo
    np.multiply(hi, c_lo, hi)
    np.multiply(lo, c_hi, u)
    np.add(hi, u, hi)
    np.add(hi, t, hi)
    np.multiply(lo, c_lo, lo)


def _bits(hi, lo, scratch: list) -> np.ndarray:
    """XSL-RR of the states, then the top 53 bits Generator.random keeps,
    as uint64 in scratch[0]: the double drawn is exactly their value
    times 2^-53."""
    x, rot, left = scratch[:3]
    np.bitwise_xor(hi, lo, x)
    np.right_shift(hi, _S58, rot)
    np.subtract(_S64, rot, left)
    np.bitwise_and(left, _S63, left)
    np.left_shift(x, left, left)
    np.right_shift(x, rot, x)
    np.bitwise_or(x, left, x)
    np.right_shift(x, _S11, x)
    return x


def threshold(p: float) -> np.uint64:
    """K = ceil(p 2^53), so that a draw's bits k pass k < K exactly when
    its double u = k 2^-53 passes u < p: scaling by 2^53 is exact for
    p in [0, 1], and an integer is below a real exactly when it is below
    the real's ceiling.  K is at most 2^53, so K << 11, the comparison on
    the unshifted output, would overflow at p = 1."""
    return _U64(math.ceil(float(p) * 2.0**53))


def _check_shots(shots) -> np.ndarray:
    shots = np.asarray(shots)
    if shots.ndim != 1 or (shots.size and shots.dtype.kind not in "iu"):
        raise ValueError("shot indices must be a 1-D integer array")
    if shots.size and (shots.min() < 0 or shots.max() >= MAX_SHOTS):
        raise ValueError(f"shot indices must lie in 0..{MAX_SHOTS - 1}")
    return shots


class Block:
    """The streams of a block of shots, one lane each, seeded once and
    stepped forward column by column.

    `step(c)` moves every lane to column c and returns its draws there;
    `hold(lanes)` keeps copies of some lanes' states at the current
    column; `ahead(m)` returns the draws m columns past every held
    state.  Lane i is shot shots[i] of the stream default_rng((*base,
    shot)); shots are 0..2^32-1 in any order, and base's words are
    non-negative.  Both are checked before any seeding.  A block owns its
    work array, which goes when the block does.
    """

    def __init__(self, base: tuple, shots):
        shots = _check_shots(shots)
        entropy = [w for n in base for w in _entropy_words(n)]
        entropy.append(shots.astype(_U32))
        # every step works in place: with a fresh array per operation the 33
        # columns of an 8192-shot quito block took 11-13 ms instead of 5-6 ms
        rows = list(np.empty((_WORK_ROWS, len(shots)), dtype=_U64))
        self._hi, self._lo, self._inc_hi, self._inc_lo, *self._scratch = rows
        _seed(entropy, rows)
        self._position = -2
        self._held = []

    def step(self, column: int) -> np.ndarray:
        """The top 53 bits of every lane's double number `column` (from
        0), as uint64; the double is exactly their value times 2^-53.
        Columns must strictly increase from call to call: adjacent ones
        cost one LCG step, a gap two 128-bit multiplies however long it
        is.  The array is overwritten by the next step."""
        column = int(column)
        if column < max(0, self._position + 1):
            raise ValueError(
                f"stream columns must be non-negative and strictly increasing, got {column} "
                f"after {self._position}"
            )
        mult, plus = _jump(column - self._position)
        self._position = column
        _advance(self._hi, self._lo, self._inc_hi, self._inc_lo, mult, plus, self._scratch)
        return _bits(self._hi, self._lo, self._scratch)

    def hold(self, lanes: np.ndarray) -> None:
        """Keep the states of `lanes` (indices into the shots) at the
        current column, for `ahead`."""
        if self._position < 0:
            raise ValueError("no column to hold: step to one first")
        lanes = np.asarray(lanes, dtype=np.intp)
        self._held.append((lanes, self._hi[lanes], self._lo[lanes]))

    def ahead(self, m: int) -> np.ndarray:
        """The top 53 bits of the double m columns past each held state,
        in the order held, as a new uint64 array: one jump for all of
        them, however many columns apart they were held."""
        if m < 0:
            raise ValueError(f"cannot draw {m} columns ahead")
        held = [part for part in self._held if len(part[0])]
        if not held:
            return np.empty(0, dtype=_U64)
        lanes, hi, lo = (np.concatenate(part) for part in zip(*held))
        scratch = list(np.empty((_WORK_ROWS - 4, len(lo)), dtype=_U64))
        _advance(hi, lo, self._inc_hi[lanes], self._inc_lo[lanes], *_jump(m), scratch)
        return _bits(hi, lo, scratch).copy()


def _advance(hi, lo, inc_hi, inc_lo, mult: int, plus: int, scratch: list) -> None:
    """(hi, lo) = mult (hi, lo) + plus inc, mod 2^128, in place, with seven
    uint64 scratch arrays, the last `_add128`'s carry."""
    step_hi, step_lo, carry = scratch[4:]
    _mul(hi, lo, mult, scratch)
    if plus == 1:
        _add128(hi, lo, inc_hi, inc_lo, carry)
    else:
        np.copyto(step_hi, inc_hi)
        np.copyto(step_lo, inc_lo)
        _mul(step_hi, step_lo, plus, scratch)
        _add128(hi, lo, step_hi, step_lo, carry)


# A block's work array: its state and increment words, six scratch rows
# and `_add128`'s carry, one uint64 row each, 88 bytes a lane.
_WORK_ROWS = 11


def _seed(entropy: list, words: list) -> None:
    """pcg64_set_seed into a block's work rows, words = [hi, lo, inc_hi,
    inc_lo, scratch, ..., carry]: initstate = (w0, w1), inc = (w2, w3)
    << 1 | 1, then state = 0; step; state += initstate; step.  That
    leaves the state inc + initstate, whose column j is output j + 2
    steps on.  Array arithmetic wraps without a warning; the scalar
    words would warn."""
    w0, w1, w2, w3, scratch = words[:5]
    with np.errstate(over="ignore"):
        _generate_state(_pool(entropy), words[:5])
    np.right_shift(w3, _S63, scratch)
    np.left_shift(w2, _ONE, w2)
    np.bitwise_or(w2, scratch, w2)
    np.left_shift(w3, _ONE, w3)
    np.bitwise_or(w3, _ONE, w3)
    _add128(w0, w1, w2, w3, words[-1])

