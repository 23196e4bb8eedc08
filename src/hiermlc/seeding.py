"""Deterministic stream derivation for every random draw in the package.

All randomness flows through numpy's PCG64 seeded by a ``SeedSequence``
whose entropy is ``(purpose, user_seed, *key)``.  Purposes keep streams
for unrelated jobs (target smoothing, batch shuffling, weight init, ...)
disjoint even when the integer keys coincide.  The scheme is stable
across runs and numpy versions: both PCG64 and SeedSequence are frozen
algorithms.

Per-cell draws are keyed by row: stream ``(purpose, seed, row)`` yields
one uniform per column, so the value at cell (row, col) depends only on
(purpose, seed, row, col) and never on iteration order or matrix height.
``rows_uniforms`` computes these draws for many rows at once: it
reimplements ``SeedSequence`` entropy mixing and ``generate_state``,
PCG64 seeding and ``next_double`` as vectorized numpy over the rows, the
128-bit LCG on two uint64 words.  Its output is bit-equal to building
``stream(purpose, seed, row)`` and calling ``.random(n_cols)`` per row.
"""

import numpy as np

from .csvio import _mulhi

# Stream purposes.  Values are arbitrary but frozen; changing them
# changes every derived draw.
PURPOSE_LSR = 1
PURPOSE_UNC_INJECT = 2
PURPOSE_SYNTH_LABELS = 3
PURPOSE_SYNTH_FEATURES = 4
PURPOSE_SYNTH_MIXING = 5
PURPOSE_INIT = 6
PURPOSE_SHUFFLE = 7
PURPOSE_MEMBER = 8


def stream(purpose: int, seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the stream identified by (purpose, seed, key)."""
    return np.random.default_rng(np.random.SeedSequence((purpose, seed) + key))


# numpy's SeedSequence constants (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier as high and low uint64 words, and the
# low word's 32-bit halves, as ``_mulhi`` takes them.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & ((1 << 64) - 1))
_MULT_LO_HALVES = (_MULT_LO >> 32, _MULT_LO & _MASK32)
# Rows per vectorized pass, which bounds the temporaries at any height.
_BLOCK_ROWS = 2048


def _words(value: int) -> list[int]:
    """A non-negative integer as SeedSequence's 32-bit words, low first."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence entropy mixing over uint32 arrays, one per word."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence.generate_state as (n_words, N) uint32 words in uint64."""
    hash_const = _INIT_B
    state = np.empty((n_words, pool[0].size), dtype=np.uint64)
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[i] = value ^ (value >> _XSHIFT)
    return state


def _add(a, b):
    """a + b mod 2**128, on (high, low) uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _lcg_step(state, inc):
    """state * multiplier + inc mod 2**128, on (high, low) uint64 words;
    numpy's uint64 multiply keeps the low 64 bits of each product."""
    high, low = state
    cross = _mulhi(low >> 32, low & _MASK32, *_MULT_LO_HALVES) + low * _MULT_HI
    return _add((cross + high * _MULT_LO, low * _MULT_LO), inc)


def _pcg64_uniforms(entropy: list[np.ndarray], n_cols: int) -> np.ndarray:
    """``default_rng(SeedSequence(entropy)).random(n_cols)`` for each key."""
    words = _generate_state(_seed_pool(entropy), 8)
    # generate_state(4, uint64) is (initstate, initseq), each high word
    # first; PCG64 sets inc = initseq << 1 | 1, then state = inc (one step
    # from 0), adds initstate and steps once more.
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = words[0::2] | (words[1::2] << 32)
    inc = (initseq_hi << 1) | (initseq_lo >> 63), (initseq_lo << 1) | 1
    state = _lcg_step(_add(inc, (initstate_hi, initstate_lo)), inc)
    out = np.empty((words.shape[1], n_cols), dtype=np.float64)
    for k in range(n_cols):
        high, low = state = _lcg_step(state, inc)
        # the XSL-RR output, as next_double's 53-bit uniform
        x, rot = high ^ low, high >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, k] = (x >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
    return out


def rows_uniforms(purpose: int, seed: int, rows, n_cols: int) -> np.ndarray:
    """The (len(rows), n_cols) uniforms of the streams (purpose, seed, row).

    Row i of the result is bit-equal to
    ``stream(purpose, seed, rows[i]).random(n_cols)``.  Negative keys
    raise ``ValueError`` as ``SeedSequence`` does.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and rows.min() < 0:
        raise ValueError("expected non-negative integer")
    prefix = _words(purpose) + _words(seed)
    out = np.empty((rows.size, n_cols), dtype=np.float64)
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        wide = block > _MASK32  # keys of two SeedSequence words
        for sel, n_words in ((~wide, 1), (wide, 2)):
            if sel.any():
                keys = block[sel].astype(np.uint64)
                entropy = [np.full(keys.size, w, dtype=np.uint32) for w in prefix]
                entropy += [
                    ((keys >> (32 * j)) & _MASK32).astype(np.uint32)
                    for j in range(n_words)
                ]
                out[start + np.flatnonzero(sel)] = _pcg64_uniforms(entropy, n_cols)
    return out
