"""Seeding of many random streams in one pass, bit for bit as numpy seeds
them one at a time.

Every stream a study draws from is ``numpy.random.default_rng(entropy)``
for some row of nonnegative integers, or words of
``numpy.random.SeedSequence(entropy).generate_state`` (:func:`seed_words`).
Built one row at a time, each costs a ``SeedSequence`` and a ``PCG64``.
Here the ``SeedSequence`` hashing (entropy pool and ``generate_state``) runs
for all the rows at once in numpy ``uint32`` arithmetic, which wraps modulo
2^32 as numpy's C code does; the results are the same bits (numpy's
``bit_generator.pyx`` and ``pcg64.h``).

Every uniform double, of white noise and of static disorder alike, skips
the Generator (:func:`random_rows`): PCG64 is a 128-bit LCG, so its k-th
state is an affine map of the seeded one (Brown, Trans. Am. Nucl. Soc. 71,
202 (1994)), and every draw of a block of rows comes out of one pass of
``uint64`` arithmetic followed by the XSL-RR output (O'Neill,
HMC-CS-2014-0905).  Every constant is a ``np.uint64``, so the arithmetic is
the same under numpy 1's value-based casting and numpy 2's rules.  The
ziggurat draws (normal, exponential, Cauchy) re-seed one Generator row by
row (:func:`streams`).
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import PhysicsError

MASK32 = 0xFFFF_FFFF
#: SeedSequence's default pool size, in uint32 words.
POOL_SIZE = 4
#: SeedSequence's hash constants.
INIT_A, MULT_A = 0x43B0_D7E5, 0x931E_8875
INIT_B, MULT_B = 0x8B51_F9DD, 0x58F3_8DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
XSHIFT = np.uint32(16)
#: PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
MASK128 = (1 << 128) - 1
MASK64 = (1 << 64) - 1
U32_MASK, U32_SHIFT = np.uint64(MASK32), np.uint64(32)


def check_int(value, name: str, least: int) -> int:
    """``value`` as an int if it is an integer (a numpy one included, a
    bool not) of at least ``least``; PhysicsError naming ``name`` if not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise PhysicsError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise PhysicsError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number (a numpy one
    included, a bool not); PhysicsError naming ``name`` if not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PhysicsError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the largest double
        value = math.inf
    if not math.isfinite(value):
        raise PhysicsError(f"{name} must be finite")
    return value


def check_bool(value, name: str) -> bool:
    """``value`` as a bool if it is one (a numpy one included, an int not);
    PhysicsError naming ``name`` if not."""
    if not isinstance(value, (bool, np.bool_)):
        raise PhysicsError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def check_seed(seed) -> int:
    """``seed`` as an int if it is a nonnegative integer; PhysicsError if not.

    A negative seed is rejected rather than wrapped into another stream.
    """
    return check_int(seed, "seed", 0)


def entropy_words(entropy) -> list:
    """The uint32 words ``SeedSequence(entropy)`` hashes: an int is split
    into 32-bit words, least significant first (0 is one word), and the
    words of a sequence's items are concatenated."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & MASK32]
        while n > MASK32:
            n >>= 32
            words.append(n & MASK32)
        return words
    return [w for item in entropy for w in entropy_words(item)]


def _constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) uint32: a SeedSequence hash constant before its first
    call and after each call, which multiplies it by ``mult``."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(values, const):
    """SeedSequence's hashmix of ``values`` at consecutive calls: call i
    takes row i of ``values`` (or all of a 1-D ``values``), xors in
    ``const[i]`` and multiplies by ``const[i + 1]``."""
    v = (values ^ const[:-1]) * const[1:]
    return v ^ (v >> XSHIFT)


def _mix(x, y):
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ (result >> XSHIFT)


def seed_words(rows, n_words: int) -> np.ndarray:
    """(len(rows), n_words) uint64: row i is
    ``SeedSequence(rows[i]).generate_state(n_words, np.uint64)``, where
    each row is a list of uint32 words (:func:`entropy_words`).

    The pool (POOL_SIZE words) is held as one array with a column per row.
    Rows shorter than the pool are zero-padded to it, as the pool's own
    fill does; the words past the pool of a longer row are mixed in by
    SeedSequence's extra loop, applied to the rows that have them.  The
    hash constant advances the same way for every row, so each step is
    one array operation over all the rows.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    width = max(POOL_SIZE, int(lengths.max(initial=0)))
    words = np.zeros((width, len(rows)), dtype=np.uint32)
    for length in set(lengths.tolist()):
        # rows of one length fill their columns in one assignment
        idx = np.flatnonzero(lengths == length)
        words[:length, idx] = np.array([rows[i] for i in idx],
                                       dtype=np.uint32).T
    # hashmix calls: POOL_SIZE to fill the pool, POOL_SIZE - 1 per pool word
    # to mix it, POOL_SIZE per word past the pool
    const = _constants(INIT_A, MULT_A, POOL_SIZE * width)
    pool = _hash(words[:POOL_SIZE], const[:POOL_SIZE + 1])
    k = POOL_SIZE
    for src in range(POOL_SIZE):
        # word src stays fixed while it is mixed into the others
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], const[k:k + POOL_SIZE]))
        k += POOL_SIZE - 1
    for src in range(POOL_SIZE, width):
        mixed = _mix(pool, _hash(words[src], const[k:k + POOL_SIZE + 1]))
        pool = np.where(lengths > src, mixed, pool)
        k += POOL_SIZE
    # generate_state: 2 n_words uint32 words, paired low half first
    state = _hash(pool[np.arange(2 * n_words) % POOL_SIZE],
                  _constants(INIT_B, MULT_B, 2 * n_words)).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


#: Rows that :func:`streams` and :func:`random_rows` seed in one pass at
#: most.  While a row is seeded, its entropy words, its seed words and
#: their Python ints take about 0.7 kB, so a pass holds about 0.35 MB
#: however many rows follow.
SEED_BLOCK = 512


def streams(rows):
    """For each row of uint32 words, ``numpy.random.default_rng(row)`` in
    the state it starts in, for the ziggurat draws (uniform doubles come
    from :func:`random_rows`).  One Generator is built per call and
    re-seeded for each row, so the same object is yielded every time:
    draw from it before taking the next row.  ``rows`` may be any
    iterable; it is read and seeded ``SEED_BLOCK`` rows at a time.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # one state document for every row: the setter copies what it reads
    doc = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
           "has_uint32": 0, "uinteger": 0}
    rows = iter(rows)
    while block := list(islice(rows, SEED_BLOCK)):
        for s_hi, s_lo, i_hi, i_lo in seed_words(block, 4).tolist():
            # pcg_setseq_128_srandom_r: state 0, one step, add the seed,
            # one step
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & MASK128
            doc["state"]["inc"] = inc
            doc["state"]["state"] = ((inc + (s_hi << 64 | s_lo)) * PCG_MULT
                                     + inc) & MASK128
            bit_generator.state = doc
            yield rng


@lru_cache(maxsize=16)
def _jumps(n: int) -> np.ndarray:
    """(4, n) uint64: the high and low 64-bit halves of M^(j+2) and of
    G_(j+2) = M^0 + ... + M^(j+1), for j < n, where M is PCG_MULT.

    From x = inc + seed, seeding takes one LCG step and each draw one
    more, so draw j reads the state M^(j+2) x + G_(j+2) inc mod 2^128.
    """
    table, m, g = [], PCG_MULT * PCG_MULT & MASK128, PCG_MULT + 1
    for _ in range(n):
        table.append((m >> 64, m & MASK64, g >> 64, g & MASK64))
        m, g = m * PCG_MULT & MASK128, (g * PCG_MULT + 1) & MASK128
    out = np.array(table, dtype=np.uint64).T.copy()
    out.setflags(write=False)
    return out


def _mul128(a_hi, a_lo, x_hi, x_lo):
    """(high, low) 64-bit halves of a x mod 2^128, from those of a and x.

    ``uint64`` products wrap modulo 2^64, which gives the low half and the
    cross terms; the carry of a_lo x_lo into the high half is summed from
    its 32-bit limbs, whose products cannot overflow.
    """
    u0, u1 = a_lo & U32_MASK, a_lo >> U32_SHIFT
    v0, v1 = x_lo & U32_MASK, x_lo >> U32_SHIFT
    mid = u1 * v0 + ((u0 * v0) >> U32_SHIFT)
    low_mid = u0 * v1 + (mid & U32_MASK)
    hi = u1 * v1 + (mid >> U32_SHIFT) + (low_mid >> U32_SHIFT)
    return hi + a_lo * x_hi + a_hi * x_lo, a_lo * x_lo


#: Draws times rows that :func:`random_rows` works on at once.  Its
#: arithmetic holds about nine uint64 arrays of that size, so a block
#: bounds the memory it takes beyond its output to about 5 MB.
DRAW_BLOCK = 1 << 16


def random_rows(rows, out: np.ndarray) -> None:
    """Fill the (R, n) float64 ``out``: row i is bit for bit
    ``numpy.random.default_rng(row_i).random(n)``, for the R rows of uint32
    words (:func:`entropy_words`) that ``rows`` yields.  ``rows`` may be
    any iterable; it is read ``SEED_BLOCK`` rows at a time, and each block
    is drawn straight into its rows of ``out``.

    The PCG64 seeding and all n LCG steps of every row of a block run as a
    few ``uint64`` array operations over (rows, draws) (see
    :func:`_jumps`), a block of draws at a time; each state then gives
    numpy's XSL-RR output and its double, ``(x >> 11) * 2**-53``.
    """
    rows, n = iter(rows), out.shape[1]
    jumps, one = _jumps(n), np.uint64(1)
    for first in range(0, len(out), SEED_BLOCK):
        block = out[first:first + SEED_BLOCK]
        s_hi, s_lo, i_hi, i_lo = seed_words(list(islice(rows, len(block))),
                                            4).T[:, :, None]
        inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
        inc_lo = (i_lo << one) | one
        x_lo = inc_lo + s_lo
        x_hi = inc_hi + s_hi + (x_lo < s_lo)
        draws = max(1, DRAW_BLOCK // len(block))
        for start in range(0, n, draws):
            m_hi, m_lo, g_hi, g_lo = jumps[:, start:start + draws]
            hi, lo = _mul128(m_hi, m_lo, x_hi, x_lo)
            step_hi, step_lo = _mul128(g_hi, g_lo, inc_hi, inc_lo)
            lo = lo + step_lo
            hi = hi + step_hi + (lo < step_lo)
            # XSL-RR: the xor of the halves, rotated right by the top 6 bits
            rot = hi >> np.uint64(58)
            bits = hi ^ lo
            bits = (bits >> rot) | (bits << ((np.uint64(64) - rot) & np.uint64(63)))
            block[:, start:start + draws] = (bits >> np.uint64(11)) * 2.0 ** -53
