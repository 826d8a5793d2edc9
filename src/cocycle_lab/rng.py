"""Deterministic counter-based randomness.

Every random draw in the package flows from one seed (a non-negative
integer of any size) through the derivation (seed, module tag, stream
index) -> Philox stream.  A Philox stream is fully defined by its key and
a zero counter, and the key comes by two routes:

- the reference, `stream`: SeedSequence(entropy=seed, spawn_key=(tag,
  index)) seeds a fresh Philox, one index at a time;
- `keys`: the same SeedSequence hash ported to uint32 array arithmetic,
  one key per index for a whole vector of indices.  `normal_block`
  re-keys one Philox with them, so a block of samples costs one
  SeedSequence instead of one per sample, with bitwise the same draws.

Streams for distinct (tag, index) pairs are independent; regenerating a
stream from the same triple is bitwise reproducible, so Monte-Carlo
samples never need to be stored.
"""
from __future__ import annotations

import numpy as np

from .linalg import is_integer, require

TAG_SCENARIO = 1        # primary Brownian increments, index = sample
TAG_SCENARIO_COPY = 2   # independent decoupling copy, index = sample
TAG_POINCARE = 3        # optimizer starts, index = start
TAG_BATTERY = 4         # random-element test batteries, index = instance

# numpy's SeedSequence constants (bit_generator.pyx): pool size, the entropy
# hash (hashmix), the pool mix and the generate_state output hash
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def check_seed(seed: int) -> int:
    return require(seed, "seed", lambda v: is_integer(v) and v >= 0, "a non-negative integer")


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(tag, index))
    return np.random.Generator(np.random.Philox(ss))


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits an int ([0] for 0)."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _mix(x, y):
    r = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def _hash(v, const: int, mult: int) -> tuple:
    """One SeedSequence hash step on a uint32 word, and the next hash constant."""
    nxt = const * mult & _MASK32
    v = (v ^ const) * nxt & _MASK32
    return v ^ v >> 16, nxt


def _seed_keys(entropy: list) -> np.ndarray:
    """SeedSequence pool hash and generate_state(2, uint64) on columns of uint32 words.

    entropy holds one word per entropy position: an int where every column shares it, or a
    (k,) uint32 array; the result is (k, 2) uint64.  The words that all columns share are
    hashed once, as ints, and only the rest as arrays: the same arithmetic mod 2^32.
    """
    const, pool = _INIT_A, []
    for word in entropy[:_POOL]:
        v, const = _hash(word, const, _MULT_A)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            v, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    const, out = _INIT_B, []
    for word in pool:
        v, const = _hash(word, const, _MULT_B)
        out.append(v.astype(np.uint64))
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


def keys(seed: int, tag: int, indices) -> np.ndarray:
    """(k, 2) uint64 Philox keys, row i = the key `stream(seed, tag, indices[i])` gets.

    Row i equals SeedSequence(entropy=seed, spawn_key=(tag, i)).generate_state(2,
    np.uint64): the seed's words, zero-padded to the pool size, then the tag's
    word, then one word for an index below 2^32 or two above it.
    """
    run = _words(check_seed(seed))
    run += [0] * (_POOL - len(run)) + _words(tag)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":      # ints past 2^63 among small ones read as float64
        idx = np.asarray(indices, dtype=object)
    idx = idx.reshape(-1)
    if idx.size and not 0 <= idx.min() <= idx.max() < 2 ** 64:
        raise ValueError(f"stream indices must lie in [0, 2^64), got {idx.min()} to {idx.max()}")
    idx = idx.astype(np.uint64)
    out = np.empty((idx.size, 2), dtype=np.uint64)
    wide = idx > np.uint64(_MASK32)
    for sel, n_words in ((~wide, 1), (wide, 2)):
        if sel.any():
            part = idx[sel]
            out[sel] = _seed_keys(run + [(part >> np.uint64(32 * j) & np.uint64(_MASK32))
                                         .astype(np.uint32) for j in range(n_words)])
    return out


def normal_block(seed: int, tag: int, lo: int, hi: int, sd: float,
                 shape: tuple) -> np.ndarray:
    """(hi - lo, *shape) draws; row i - lo is stream(seed, tag, i).normal(0, sd, shape).

    The first row comes from `stream`; every later row re-keys that same Philox
    to counter 0 and an empty buffer, its state right after seeding.  The state
    setter reads the key, counter and buffer word by word, so they go in as lists
    of Python ints, which it reads faster than numpy scalars, to the same bits.
    Each call builds its own Generator, so no block's draws depend on another's.
    The block is scaled by sd once: numpy's normal(0, sd) is 0.0 + sd * z, the
    same bits.
    """
    out = np.empty((hi - lo,) + tuple(shape))
    if hi == lo:
        return out
    gen = stream(seed, tag, lo)
    gen.standard_normal(out=out[0])
    bitgen = gen.bit_generator
    fresh = {"counter": [0] * 4, "key": None}
    state = {"bit_generator": "Philox", "state": fresh, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in enumerate(keys(seed, tag, np.arange(lo + 1, hi)).tolist(), 1):
        fresh["key"] = key
        bitgen.state = state
        gen.standard_normal(out=out[row])
    out *= sd
    return out
