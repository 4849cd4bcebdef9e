"""The noise replay's per-shot random streams, chosen columns of a block
of shots at once.

Item j of `iter_uniform(base, shots, columns)` is the column whose entry
i is, bit for bit,
``np.random.default_rng((*base, shots[i])).random(columns[j] + 1)[-1]``;
it is the module's one entry point.  numpy's SeedSequence (O'Neill's
seed_seq_fe with a pool of four 32-bit words) turns the entropy words
into a PCG64 seed and increment, PCG64 steps a 128-bit LCG and emits
XSL-RR outputs, and Generator.random keeps the top 53 bits of each.  The
same wrapping uint32/uint64 arithmetic runs here on arrays whose lanes
are the shots, so a block costs a fixed number of numpy calls per
column instead of one generator per shot.  (M. E. O'Neill, PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation, HMC-CS-2014-0905.)

Only the requested columns are computed.  The LCG state m steps ahead is
A^m s + C_m inc mod 2^128 with C_m = 1 + A + ... + A^(m-1), and both
constants come from square-and-multiply on Python ints (F. B. Brown,
"Random Number Generation with Arbitrary Strides", Trans. Am. Nucl. Soc.
71, 1994).  Adjacent columns cost one step each and a gap between columns
costs two 128-bit multiplies, however long it is.  The steps run in
place on a fixed set of arrays; only each column's output is a new
array.  On a 2-core Xeon VM an 8192-shot block of one column takes
0.5–1.1 ms, the 33 columns of a quito demo circuit under the quito
profile 4.0–6.0 ms, and all 60 columns of its stream 6.9–10.8 ms.
"""

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


def _generate_state(pool: list) -> list:
    """SeedSequence.generate_state(4, np.uint64): eight words, paired little-endian."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B
        value = value * hash_const
        words.append((value ^ (value >> _XSHIFT)).astype(_U64))
    return [words[2 * j] | (words[2 * j + 1] << _S32) for j in range(_POOL_SIZE)]


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
    """(hi, lo) += (b_hi, b_lo) mod 2^128 in place; `carry` is bool scratch."""
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
    a0, a1, t, u = scratch
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


def _output(hi, lo, scratch: list) -> np.ndarray:
    """XSL-RR of the states, then Generator.random's top 53 bits as a new
    float64 array."""
    x, rot, left, _ = scratch
    np.bitwise_xor(hi, lo, x)
    np.right_shift(hi, _S58, rot)
    np.subtract(_S64, rot, left)
    np.bitwise_and(left, _S63, left)
    np.left_shift(x, left, left)
    np.right_shift(x, rot, x)
    np.bitwise_or(x, left, x)
    np.right_shift(x, _S11, x)
    return x * 2.0**-53


def iter_uniform(base: tuple, shots, columns):
    """An iterator over the requested columns of the streams of `shots`:
    item j is the (len(shots),) float64 array of double number columns[j]
    (from 0) of default_rng((*base, shot)) for each shot.

    `shots` is a 1-D integer array of shot indices in 0..2^32-1, in any
    order; `columns` is a strictly increasing sequence of non-negative
    ints.  Both are checked here, before any seeding; the shots are seeded
    once, on the first item.  Adjacent columns are stepped to and gaps are
    jumped across, so a gap-free set from 0 is the sequential stream.
    """
    shots = np.asarray(shots)
    columns = [int(c) for c in columns]
    if columns and columns[0] < 0:
        raise ValueError(f"stream columns must be non-negative, got {columns[0]}")
    for a, b in zip(columns, columns[1:]):
        if b <= a:
            raise ValueError(f"stream columns must be strictly increasing, got {a} then {b}")
    if shots.ndim != 1 or (shots.size and shots.dtype.kind not in "iu"):
        raise ValueError("shot indices must be a 1-D integer array")
    if shots.size and (shots.min() < 0 or shots.max() >= MAX_SHOTS):
        raise ValueError(f"shot indices must lie in 0..{MAX_SHOTS - 1}")
    entropy = [w for n in base for w in _entropy_words(n)]
    entropy.append(shots.astype(_U32))
    return _columns(entropy, columns)


def _columns(entropy: list, columns: list):
    hi, lo, inc_hi, inc_lo = _seed(entropy)
    # every step works in place: with a fresh array per operation the 33
    # columns of an 8192-shot quito block took 11-13 ms instead of 5-6 ms
    scratch = [np.empty_like(lo) for _ in range(4)]
    step_hi, step_lo = np.empty_like(lo), np.empty_like(lo)
    carry = np.empty(lo.shape, dtype=bool)
    position = -2
    for column in columns:
        mult, plus = _jump(column - position)
        position = column
        _mul(hi, lo, mult, scratch)
        if plus == 1:
            _add128(hi, lo, inc_hi, inc_lo, carry)
        else:
            np.copyto(step_hi, inc_hi)
            np.copyto(step_lo, inc_lo)
            _mul(step_hi, step_lo, plus, scratch)
            _add128(hi, lo, step_hi, step_lo, carry)
        yield _output(hi, lo, scratch)


def _seed(entropy: list) -> tuple:
    """pcg64_set_seed: initstate = (w0, w1), inc = (w2, w3) << 1 | 1, then
    state = 0; step; state += initstate; step.  Returns the state
    inc + initstate, whose column j is output j + 2 steps on, and inc.
    Array arithmetic wraps without a warning; the scalar words would warn."""
    with np.errstate(over="ignore"):
        w0, w1, w2, w3 = _generate_state(_pool(entropy))
    inc_hi, inc_lo = (w2 << _ONE) | (w3 >> _S63), (w3 << _ONE) | _ONE
    _add128(w0, w1, inc_hi, inc_lo, np.empty(w1.shape, dtype=bool))
    return w0, w1, inc_hi, inc_lo

