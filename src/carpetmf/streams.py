"""Per-path uniform streams, derived for a whole range of paths at once.

Path ``i`` of a run with master seed ``s`` draws its uniforms from
``default_rng(SeedSequence(s, spawn_key=(i,))).random(n)``.  Building one
``SeedSequence`` and one generator per path costs about 22 us, so
:func:`path_uniforms` derives the same doubles for an index range in numpy:

* the ``SeedSequence`` pool hash and ``generate_state(4, uint64)`` in uint32
  arithmetic (the hash constants do not depend on the data);
* PCG64's seeding and its 128-bit LCG on (high, low) uint64 pairs, every
  draw's state reached at once by a jump of j steps;
* the XSL-RR output, mapped to a double as ``(x >> 11) * 2**-53``.

Every value is bit-identical to numpy's own generator.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_U32 = np.uint32
_U64 = np.uint64

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: each call xors in and multiplies by the
    next constant of the sequence ``init * mult**k``."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ _U32(const)
        const = (const * mult) & _M32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
    return r ^ (r >> _U32(16))


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int (``[0]`` for 0)."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _seed_pools(master_seed: int, indices: np.ndarray) -> list[np.ndarray]:
    """The four uint32 pool words of ``SeedSequence(master_seed,
    spawn_key=(i,))`` for every index ``i``."""
    n = indices.size
    run = _int_words(master_seed)
    # A spawned sequence pads short run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(n, w, dtype=np.uint32) for w in run]
    entropy.append((indices & _U64(_M32)).astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # An index of 2**32 or more is a two-word spawn key; the second word
    # mixes in after the first, with the next constants of the hash.
    high = (indices >> _U64(32)).astype(np.uint32)
    wide = high != 0
    if wide.any():
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(wide, _mix(pool[dst], hashmix(high)), pool[dst])
    return pool


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs."""
    m32, s32 = _U64(_M32), _U64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``a * b`` mod 2**128 on (high, low) uint64 halves."""
    return _mulhi(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo), low


@functools.lru_cache(maxsize=32)
def _jump_table(n: int) -> np.ndarray:
    """Read-only ``(4, n)`` uint64 rows: the high and low halves of
    ``MULT**j`` and of ``MULT**(j-1) + ... + MULT + 1`` mod 2**128, for
    j = 1 .. n.  j LCG steps map state s to ``MULT**j * s + (MULT**(j-1) +
    ... + 1) * inc``."""
    mult, total, low = _PCG_MULT_HI << 64 | _PCG_MULT_LO, 1 << 128, 2**64 - 1
    power, partial = 1, 0
    rows = []
    for _ in range(n):
        power, partial = power * mult % total, (partial * mult + 1) % total
        rows.append((power >> 64, power & low, partial >> 64, partial & low))
    table = np.array(rows, dtype=np.uint64).reshape(n, 4).T
    table.flags.writeable = False
    return table


def path_uniforms(master_seed: int, lo: int, hi: int, n_draws: int) -> np.ndarray:
    """``(hi - lo, n_draws)`` uniforms; row ``i - lo`` equals
    ``default_rng(SeedSequence(master_seed, spawn_key=(i,))).random(n_draws)``."""
    if master_seed < 0:
        raise ValueError("master seed must be >= 0")
    pool = _seed_pools(master_seed, np.arange(lo, hi, dtype=np.uint64))
    # generate_state(4, uint64): eight hashed words cycling over the pool,
    # paired little-endian.
    gen = _hasher(_INIT_B, _MULT_B)
    words = [gen(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        words[2 * j] | (words[2 * j + 1] << _U64(32)) for j in range(4)
    )
    # pcg64_srandom: inc = seq << 1 | 1; state = (inc + seed) * MULT + inc.
    inc = ((seq_hi << _U64(1)) | (seq_lo >> _U64(63)), (seq_lo << _U64(1)) | _U64(1))
    mult = (_U64(_PCG_MULT_HI), _U64(_PCG_MULT_LO))
    state = _add128(*_mul128(*_add128(*inc, seed_hi, seed_lo), *mult), *inc)
    # Draw j reads the state after j + 1 further steps, all at once.
    power_hi, power_lo, partial_hi, partial_lo = _jump_table(n_draws)
    s_hi, s_lo = _add128(
        *_mul128(state[0][:, None], state[1][:, None], power_hi, power_lo),
        *_mul128(inc[0][:, None], inc[1][:, None], partial_hi, partial_lo),
    )
    # XSL-RR output, then the top 53 bits as a double in [0, 1).
    rot = s_hi >> _U64(58)
    x = s_hi ^ s_lo
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (x >> _U64(11)) * (1.0 / 9007199254740992.0)
