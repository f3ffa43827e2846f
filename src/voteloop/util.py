"""Shared plumbing: named random substreams, row sums and normalization
over flat per-chain arrays, and atomic file replacement."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from operator import is_
from typing import Sequence

import numpy as np

_SEP = "\x1f"


@contextmanager
def _atomic_write(path):
    """Binary file handle whose bytes replace `path` in one step.

    The bytes go to `<path>.tmp` in the same directory, which `os.replace`
    moves onto `path` once the block exits cleanly. If the block raises,
    the temp file is removed and `path` keeps its previous contents. This
    guards against an interrupted process, not a power cut: nothing is
    fsync'ed.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


# SeedSequence and PCG64 constants (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rows of one substream_random block hold at most this many draws.
_BLOCK = 1 << 15


def _seed_sequence_states(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(8, np.uint32)` for every row of an
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
    return state


@lru_cache(maxsize=8)
def _jump_tables(count: int) -> tuple[np.ndarray, np.ndarray]:
    """[4, count] 32-bit limbs (least significant first) of M**(t+1) and of
    sum_{i<=t+1} M**i mod 2**128, t = 1..count, M the PCG64 multiplier.
    PCG64 seeds its state as (seed + inc) * M + inc and steps state * M + inc
    before each output, so output t reads the state M**(t+1) * seed +
    (sum_{i<=t+1} M**i) * inc: an LCG jumps ahead in closed form (Brown 1994)."""
    powers = [pow(_PCG_MULT, t + 1, 1 << 128) for t in range(1, count + 1)]
    totals = list(accumulate(powers, lambda a, b: (a + b) & _MASK128, initial=1 + _PCG_MULT))[1:]
    tables = [
        np.array([[v >> s & _MASK32 for v in t] for s in (0, 32, 64, 96)], np.uint64)
        for t in (powers, totals)
    ]
    for table in tables:
        table.flags.writeable = False  # shared by every caller through the cache
    return tuple(tables)


def _mul_add_128(acc: list, a: np.ndarray, b: np.ndarray) -> None:
    """Add the limbs of a * b mod 2**128 (broadcasting [4, ...] limb arrays)
    to the four accumulators (arrays, or 0), carries left unpropagated."""
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * b[j]
            if i + j == 3:
                acc[3] += product  # only the low 32 bits of limb 3 are read
            else:
                acc[i + j] += product & np.uint64(_MASK32)
                acc[i + j + 1] += product >> np.uint64(32)


def _address_digests(seed: int, addresses: Sequence[Sequence[object]]) -> bytes:
    """The full SHA-256 digest of every address's bytes (as
    `_address_digest` builds them), concatenated. The hash of an address's
    prefix (all tags but the last) is copied for each following address
    whose prefix tags are the same objects."""
    seed_text = str(int(seed))
    digests = []
    append = digests.append
    head, width, prefix = (), -1, None
    for tags in addresses:
        if len(tags) != width or not all(map(is_, tags, head)):
            if not tags:
                append(hashlib.sha256(seed_text.encode()).digest())
                continue
            head, width = tuple(tags[:-1]), len(tags)
            prefix = hashlib.sha256(_SEP.join((seed_text, *map(str, head), "")).encode())
        digest = prefix.copy()
        digest.update(str(tags[-1]).encode())
        append(digest.digest())
    return b"".join(digests)


def substream_random(seed: int, addresses: Sequence[Sequence[object]], count: int) -> np.ndarray:
    """Uniform draws for many stream addresses at once: row r equals
    `substream(seed, *addresses[r]).random(count)` bit for bit.

    Addresses are hashed as `substream` hashes them, and SeedSequence
    mixing and PCG64 (a 128-bit LCG with an XSL-RR output, O'Neill 2014)
    run as arrays of 32-bit limbs over blocks of at most `_BLOCK` draws:
    output t's state comes from the jump-ahead tables, and the draw is
    `(xsl_rr(state) >> 11) * 2**-53`, as `Generator.random` makes it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty((len(addresses), count))
    powers, totals = _jump_tables(count)
    mask = np.uint64(_MASK32)
    step = max(1, _BLOCK // count)
    for lo in range(0, len(addresses), step):
        digests = _address_digests(seed, addresses[lo : lo + step])
        words = np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4].astype(np.uint32)
        w = _seed_sequence_states(words).astype(np.uint64).T
        # seed = (w0 + w1 2**32) 2**64 + w2 + w3 2**32; the increment is
        # (w4 + w5 2**32) 2**65 + (w6 + w7 2**32) 2**1 + 1, mod 2**128.
        seed_limbs = w[[2, 3, 0, 1]]
        inc = w[[6, 7, 4, 5]] << np.uint64(1)
        inc[1:] |= w[[6, 7, 4]] >> np.uint64(31)
        inc[0] |= np.uint64(1)
        inc &= mask
        # The longer of rows and draws goes on the last axis (numpy's inner loop).
        wide = count >= len(words)
        rows_at, draws_at = np.s_[:, :, None], np.s_[:, None, :]
        if not wide:
            rows_at, draws_at = draws_at, rows_at
        acc = [0] * 4
        _mul_add_128(acc, seed_limbs[rows_at], powers[draws_at])
        _mul_add_128(acc, inc[rows_at], totals[draws_at])
        for i in range(3):
            acc[i + 1] += acc[i] >> np.uint64(32)
            acc[i] &= mask
        # XSL-RR: rotate (high 64 bits ^ low 64 bits) right by the top 6
        # bits; the shifts drop the bits of acc[3] above 32.
        x = (acc[1] ^ acc[3]) << np.uint64(32) | (acc[0] ^ acc[2])
        rot = (acc[3] >> np.uint64(26)) & np.uint64(63)
        x = (x >> rot) | (x << (-rot & np.uint64(63)))
        x >>= np.uint64(11)
        np.multiply(x if wide else x.T, 1.0 / 9007199254740992.0, out=out[lo : lo + step])
    return out


# Probabilities below this are flushed to zero during normalization to keep
# the denormal range out of downstream arithmetic.
TINY_PROB = 1e-300


def length_groups(offsets: np.ndarray):
    """Rows of a flat array grouped by length: for every row length n, the
    rows of that length and the [rows, n] flat indices of their entries.

    Row r of the flat array is [offsets[r], offsets[r + 1]).
    """
    lens = np.diff(offsets)
    for n in sorted(set(lens.tolist())):
        rows = np.flatnonzero(lens == n)
        yield rows, offsets[rows][:, None] + np.arange(n)


def row_sums(
    values: np.ndarray,
    offsets: np.ndarray,
    mask: np.ndarray | None = None,
    groups=None,
) -> np.ndarray:
    """Sum of every row of a flat array, bit for bit as `np.sum` adds the row.

    Rows of one length are summed as one [rows, n] block along axis 1, which
    adds each row in the order a 1-D `np.sum` does (`np.add.reduceat` adds
    in another order). With a mask, row r sums only its entries where the
    mask holds, as `np.sum(row[row_mask])` does; an empty row sums to 0.0.
    An unmasked caller may pass `groups`, the `length_groups(offsets)` it
    keeps (`PromptSpace._length_groups`), to skip regrouping the rows.
    """
    if mask is not None:
        values = values[mask]
        offsets = np.concatenate(([0], np.cumsum(mask)))[offsets]
        groups = None
    out = np.zeros(len(offsets) - 1)
    for rows, at in length_groups(offsets) if groups is None else groups:
        out[rows] = values[at].sum(axis=1)
    return out


def normalize_rows(
    raw: np.ndarray, offsets: np.ndarray, tol: float = 0.0, groups=None
) -> np.ndarray:
    """Every row of a flat nonnegative array scaled to sum 1, with entries
    below TINY_PROB flushed to zero and their row scaled again.

    Rows are divided by their `row_sums` (`groups` as there). With `tol`, a
    row whose sum is within `tol` of 1 is divided by 1.0 instead, which
    leaves its bits unchanged, so checkpoint round-trips and carried-over
    distributions stay bit-exact. Each row's bits equal the same steps on
    that row alone.
    """
    lens = np.diff(offsets)
    sums = row_sums(raw, offsets, groups=groups)
    if tol:
        sums[np.abs(sums - 1.0) <= tol] = 1.0
    out = raw / np.repeat(sums, lens)
    small = (out < TINY_PROB) & (out > 0)
    if small.any():
        flush = np.repeat(np.logical_or.reduceat(small, offsets[:-1]), lens)
        out[small] = 0.0
        out[flush] /= np.repeat(row_sums(out, offsets, groups=groups), lens)[flush]
    return out
