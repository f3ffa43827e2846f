"""Shared plumbing: named random substreams, counter-based per-round
draws, row sums and normalization over flat per-chain arrays, and atomic
file replacement."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
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


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for a (seed, *tags) address.

    The seed and tags are stringified, joined by 0x1f and hashed with
    SHA-256, so the stream depends only on the seed and the tag values --
    never on call order, platform, or PYTHONHASHSEED. Any two distinct
    addresses give statistically independent streams.
    """
    digest = hashlib.sha256(_SEP.join(map(str, (int(seed), *tags))).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-ratio
# increment and the finalizer's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def digest64(text: str) -> int:
    """The first 8 bytes, read little-endian, of the SHA-256 of the text's
    UTF-8 bytes."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on every entry of a uint64 array, in place
    (numpy's uint64 array arithmetic wraps mod 2**64)."""
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    return z


def counter_random(
    seed: int, prefixes: Sequence[Sequence[object]], digests: np.ndarray, count: int
) -> np.ndarray:
    """Uniform draws in [0, 1) from a counter-based stream for every
    (prefix, prompt) pair: a [len(prefixes) * len(digests), count] array
    whose row i * len(digests) + j is the stream of prefixes[i] and the
    prompt whose `digest64` is digests[j].

    A prefix is (purpose, round[, repeat]); its text is the seed and its
    tags stringified and joined by 0x1f, as `substream` builds an address.
    Row r's key is `mix64(digest64(prefix text) ^ prompt digest)`, and its
    draw t (t = 0..count-1) is `(mix64(key + (t + 1) * gamma) >> 11) *
    2**-53`, with SplitMix64's finalizer `mix64` and increment gamma, mod
    2**64 (a counter-based stream: Salmon et al., SC'11). A draw reads
    nothing but its key and counter, so rows are independent of the other
    rows of a call and of their order. numpy's `Philox` is not used because
    it needs 64 x 64 -> 128-bit products, which numpy has no ufunc for; the
    SplitMix finalizer needs only wrapping uint64 multiply, xor and shift.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    heads = [digest64(_SEP.join(map(str, (int(seed), *tags)))) for tags in prefixes]
    keys = np.array(heads, dtype=np.uint64)[:, None] ^ np.asarray(digests, dtype=np.uint64)
    counters = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    z = _mix64(np.add.outer(_mix64(keys.ravel()), counters))
    z >>= np.uint64(11)
    return z * (1.0 / 9007199254740992.0)


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
