"""The noise replay's per-shot random streams, chosen columns of a block
of shots at once.

Entry (i, j) of `fill_uniform(out, base, shots, columns)` is, bit for bit,
``np.random.default_rng((*base, shots[i])).random(columns[j] + 1)[-1]``.
numpy's SeedSequence (O'Neill's seed_seq_fe with a pool of four 32-bit
words) turns the entropy words into a PCG64 seed and increment, PCG64
steps a 128-bit LCG and emits XSL-RR outputs, and Generator.random keeps
the top 53 bits of each.  The same wrapping uint32/uint64 arithmetic runs
here on arrays whose lanes are the shots, so a block costs a fixed number
of numpy calls per column instead of one generator per shot.  (M. E.
O'Neill, PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation, HMC-CS-2014-0905.)

Only the requested columns are computed.  The LCG state m steps ahead is
A^m s + C_m inc mod 2^128 with C_m = 1 + A + ... + A^(m-1), and both
constants come from square-and-multiply on Python ints (F. B. Brown,
"Random Number Generation with Arbitrary Strides", Trans. Am. Nucl. Soc.
71, 1994).  Adjacent columns cost one step each and a gap between columns
costs two 128-bit multiplies, however long it is.  On a 2-core Xeon VM a
1024-shot block of one column takes 0.34–0.41 ms, the 33 columns of a
quito demo circuit under the quito profile 2.3–2.9 ms, and all 60 columns
of its stream 4.4–4.8 ms.
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


def _add128(hi, lo, b_hi, b_lo):
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo), lo


def _mul(hi, lo, c: int):
    """(hi, lo) * c mod 2^128; the high half of lo * c's low word comes
    from 32-bit limbs."""
    c_hi, c_lo, c_lo_0, c_lo_1 = _limbs(c)
    a0, a1 = lo & _LOW32, lo >> _S32
    p00, p01 = a0 * c_lo_0, a0 * c_lo_1
    p10, p11 = a1 * c_lo_0, a1 * c_lo_1
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return hi * c_lo + lo * c_hi + carry, lo * c_lo


def _check_columns(columns) -> list:
    columns = [int(c) for c in columns]
    if columns and columns[0] < 0:
        raise ValueError(f"stream columns must be non-negative, got {columns[0]}")
    for a, b in zip(columns, columns[1:]):
        if b <= a:
            raise ValueError(f"stream columns must be strictly increasing, got {a} then {b}")
    return columns


def fill_uniform(out: np.ndarray, base: tuple, shots, columns) -> np.ndarray:
    """Fill `out[i, j]` with double number columns[j] (from 0) of
    default_rng((*base, shots[i])); return `out`.

    `shots` is a 1-D integer array of shot indices in 0..2^32-1, in any
    order; `columns` is a strictly increasing sequence of non-negative
    ints.  Adjacent columns are stepped to and gaps are jumped across, so
    a gap-free set from 0 is the sequential stream.
    """
    shots = np.asarray(shots)
    columns = _check_columns(columns)
    if shots.ndim != 1 or (shots.size and shots.dtype.kind not in "iu"):
        raise ValueError("shot indices must be a 1-D integer array")
    if shots.size and (shots.min() < 0 or shots.max() >= MAX_SHOTS):
        raise ValueError(f"shot indices must lie in 0..{MAX_SHOTS - 1}")
    if out.shape != (len(shots), len(columns)):
        raise ValueError(f"out has shape {out.shape}, expected {(len(shots), len(columns))}")
    entropy = [w for n in base for w in _entropy_words(n)]
    entropy.append(shots.astype(_U32))
    with np.errstate(over="ignore"):
        w0, w1, w2, w3 = _generate_state(_pool(entropy))
        # pcg64_set_seed: initstate = (w0, w1), inc = (w2, w3) << 1 | 1, then
        # state = 0; step; state += initstate; step.  Column j is output by
        # the state j + 1 steps after that, j + 2 steps after inc + initstate.
        inc_hi, inc_lo = (w2 << _ONE) | (w3 >> _S63), (w3 << _ONE) | _ONE
        hi, lo = _add128(inc_hi, inc_lo, w0, w1)
        position = -2
        for j, column in enumerate(columns):
            mult, plus = _jump(column - position)
            position = column
            step_hi, step_lo = (inc_hi, inc_lo) if plus == 1 else _mul(inc_hi, inc_lo, plus)
            hi, lo = _add128(*_mul(hi, lo, mult), step_hi, step_lo)
            x, rot = hi ^ lo, hi >> _S58
            x = (x >> rot) | (x << ((_S64 - rot) & _S63))
            out[:, j] = x >> _S11
    out *= 2.0**-53
    return out
