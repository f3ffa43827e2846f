"""Shared plumbing: named random substreams, simplex helpers and row sums
over flat per-chain arrays."""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_SEP = "\x1f"


def _address_digest(seed: int, tags: Sequence[object]) -> bytes:
    """The first 16 bytes of the SHA-256 of a (seed, *tags) address: the
    UTF-8 bytes of the stringified seed and tags, joined by 0x1f."""
    material = _SEP.join(map(str, (int(seed), *tags))).encode("utf-8")
    return hashlib.sha256(material).digest()[:16]


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for a (seed, *tags) address.

    Tags are stringified and hashed with SHA-256, so the stream depends only
    on the seed and the tag values -- never on call order, platform, or
    PYTHONHASHSEED. Any two distinct addresses give statistically independent
    streams.
    """
    digest = _address_digest(seed, tags)
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


# SeedSequence and PCG64 seeding constants (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_states(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row of an
    [n, 4] uint32 entropy matrix, with numpy's hashmix/mix run column-wise."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    state = np.empty((len(words), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def substream_random(seed: int, addresses: Sequence[Sequence[object]], count: int) -> np.ndarray:
    """Uniform draws for many stream addresses at once: row r equals
    `substream(seed, *addresses[r]).random(count)` bit for bit.

    Each address is hashed as `substream` hashes it; numpy's SeedSequence
    mixing then runs over all rows in one vectorized pass, each row's PCG64
    state is seeded as `PCG64(SeedSequence)` seeds it, and one reused
    generator fills the row.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty((len(addresses), count))
    digests = b"".join(_address_digest(seed, tags) for tags in addresses)
    words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).astype(np.uint32)
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, _seed_sequence_states(words).tolist()):
        # PCG64's srandom step: state = ((inc + seed) * MULT + inc) mod 2**128.
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = (((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT) + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.random(out=row)
    return out


# Probabilities below this are flushed to zero during normalization to keep
# the denormal range out of downstream arithmetic.
TINY_PROB = 1e-300


def normalize_simplex(raw: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Scale a nonnegative vector to sum 1, flushing sub-TINY_PROB entries.

    When the input already sums to 1 within `tol` and needs no flushing, it
    is returned unchanged (as a copy), keeping checkpoint round-trips and
    carried-over distributions bit-exact.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("probability vector must be 1-D and nonempty")
    if not np.all(np.isfinite(raw)) or np.any(raw < 0):
        raise ValueError("probabilities must be finite and nonnegative")
    total = raw.sum()
    if total <= 0:
        raise ValueError("probability vector has zero mass")
    out = raw.copy() if abs(total - 1.0) <= tol else raw / total
    small = (out < TINY_PROB) & (out > 0)
    if small.any():
        out[small] = 0.0
        out = out / out.sum()
    return out


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two distributions on the same support."""
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def length_groups(offsets: np.ndarray):
    """Rows of a flat array grouped by length: for every row length n, the
    rows of that length and the [rows, n] flat indices of their entries.

    Row r of the flat array is [offsets[r], offsets[r + 1]).
    """
    lens = np.diff(offsets)
    for n in sorted(set(lens.tolist())):
        rows = np.flatnonzero(lens == n)
        yield rows, offsets[rows][:, None] + np.arange(n)


def row_sums(values: np.ndarray, offsets: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Sum of every row of a flat array, bit for bit as `np.sum` adds the row.

    Rows of one length are summed as one [rows, n] block along axis 1, which
    adds each row in the order a 1-D `np.sum` does (`np.add.reduceat` adds
    in another order). With a mask, row r sums only its entries where the
    mask holds, as `np.sum(row[row_mask])` does; an empty row sums to 0.0.
    """
    if mask is not None:
        values = values[mask]
        offsets = np.concatenate(([0], np.cumsum(mask)))[offsets]
    out = np.zeros(len(offsets) - 1)
    for rows, at in length_groups(offsets):
        out[rows] = values[at].sum(axis=1)
    return out
