"""The noise replay's per-shot random streams, all shots of a block at once.

Row i of `fill_uniform(out, base, start)` is, bit for bit,
``np.random.default_rng((*base, start + i)).random(out.shape[1])``.
numpy's SeedSequence (O'Neill's seed_seq_fe with a pool of four 32-bit
words) turns the entropy words into a PCG64 seed and increment, PCG64
steps a 128-bit LCG and emits XSL-RR outputs, and Generator.random keeps
the top 53 bits of each.  The same wrapping uint32/uint64 arithmetic runs
here on arrays whose lanes are the shots, so a block costs a fixed number
of numpy calls instead of one generator per shot.  (M. E. O'Neill, PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation, HMC-CS-2014-0905.)
"""

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
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_0, _MULT_LO_1 = _U64(_PCG_MULT & 0xFFFFFFFF), _U64((_PCG_MULT >> 32) & 0xFFFFFFFF)
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


def _add128(hi, lo, b_hi, b_lo):
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """state * _PCG_MULT + inc mod 2^128; the high half of lo * _MULT_LO
    comes from 32-bit limbs."""
    a0, a1 = lo & _LOW32, lo >> _S32
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return _add128(hi * _MULT_LO + lo * _MULT_HI + carry, lo * _MULT_LO, inc_hi, inc_lo)


def fill_uniform(out: np.ndarray, base: tuple, start: int) -> np.ndarray:
    """Fill row i of the float64 array `out` with the first out.shape[1]
    doubles of default_rng((*base, start + i)); return `out`."""
    rows, draws = out.shape
    if start < 0 or start + rows > MAX_SHOTS:
        raise ValueError(f"shot indices must lie in 0..{MAX_SHOTS - 1}")
    entropy = [w for n in base for w in _entropy_words(n)]
    entropy.append(np.arange(start, start + rows, dtype=_U64).astype(_U32))
    with np.errstate(over="ignore"):
        w0, w1, w2, w3 = _generate_state(_pool(entropy))
        # pcg64_set_seed: initstate = (w0, w1), inc = (w2, w3) << 1 | 1, then
        # state = 0; step; state += initstate; step
        inc_hi, inc_lo = (w2 << _ONE) | (w3 >> _S63), (w3 << _ONE) | _ONE
        hi, lo = _add128(inc_hi, inc_lo, w0, w1)
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        for j in range(draws):
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> _S58
            x = (x >> rot) | (x << ((_S64 - rot) & _S63))
            out[:, j] = x >> _S11
    out *= 2.0**-53
    return out
