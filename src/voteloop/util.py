"""Shared plumbing: named random substreams, counter-based per-round
draws, row sums and normalization over flat per-chain arrays, atomic
file replacement, and checked JSON-lines records.

Every row reduction adds the row left to right, first entry first
(`row_cumsums`): an order that reads nothing but the row, so a batched
result equals the same steps on each row alone, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

# numpy loads numpy.random lazily. Load it with this module, so that its
# import is paid at start-up and not by the first tie-break of a round.
from numpy.random import SeedSequence, default_rng

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


# JSON value kinds of record fields, (name, check). Types are compared
# exactly: a bool is an int to Python, and no field takes one.
INTEGER = ("an integer", lambda v: type(v) is int)
STRING = ("a string", lambda v: type(v) is str)
NUMBER_OR_NULL = ("a number or null", lambda v: v is None or type(v) in (int, float))
STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v))
NUMBERS = ("a list of numbers", lambda v: type(v) is list and all(type(x) in (int, float) for x in v))
STRING_MAP = ("an object of strings", lambda v: type(v) is dict and all(type(x) is str for x in v.values()))


def _json_records(path, fields: Mapping[str, tuple[str, Callable]]) -> Iterator[tuple[int, dict]]:
    """(line number, record) of every nonblank line of a JSON-lines file.
    A line that is not a JSON object holding each field of `fields` with a
    value of its kind raises ValueError naming the path and line number."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {number}"
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{where}: not JSON ({exc})") from None
            if type(rec) is not dict:
                raise ValueError(f"{where}: not a JSON object")
            for name, (kind, check) in fields.items():
                if name not in rec:
                    raise ValueError(f"{where}: no {name!r} field")
                if not check(rec[name]):
                    raise ValueError(f"{where}: {name!r} must be {kind}, got {rec[name]!r}")
            yield number, rec


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for a (seed, *tags) address.

    The seed and tags are stringified, joined by 0x1f and hashed with
    SHA-256, so the stream depends only on the seed and the tag values --
    never on call order, platform, or PYTHONHASHSEED. Any two distinct
    addresses give statistically independent streams.
    """
    digest = hashlib.sha256(_SEP.join(map(str, (int(seed), *tags))).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return default_rng(SeedSequence(words))


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


def row_cumsums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Running sum of every row of a flat array (row r is [offsets[r],
    offsets[r + 1])), each row added left to right from its first entry as
    a 1-D `np.cumsum` adds it. `np.add.accumulate` runs along the rows of
    one zero-padded [rows, widest] array; the padding sits right of every
    entry, so no row's bits depend on another row."""
    lens = np.diff(offsets)
    mask = np.arange(lens.max(initial=0)) < lens[:, None]
    padded = np.zeros(mask.shape)
    padded[mask] = values
    return np.add.accumulate(padded, axis=1)[mask]


def row_sums(values: np.ndarray, offsets: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Sum of every nonempty row of a flat array: the last entry of its
    `row_cumsums`. `np.sum` adds rows of under 8 entries in this order too,
    but goes pairwise from 8. With a mask, entries outside it count as 0.0."""
    if mask is not None:
        values = np.where(mask, values, 0.0)
    return row_cumsums(values, offsets)[offsets[1:] - 1]


def normalize_rows(raw: np.ndarray, offsets: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Every row of a flat nonnegative array scaled to sum 1, with entries
    below TINY_PROB flushed to zero and their row scaled again.

    Rows are divided by their `row_sums`. With `tol`, a row whose sum is
    within `tol` of 1 is divided by 1.0 instead, which leaves its bits
    unchanged, so checkpoint round-trips and carried-over distributions
    stay bit-exact. Each row's bits equal the same steps on that row alone.
    """
    lens = np.diff(offsets)
    sums = row_sums(raw, offsets)
    if tol:
        sums[np.abs(sums - 1.0) <= tol] = 1.0
    out = raw / np.repeat(sums, lens)
    small = (out < TINY_PROB) & (out > 0)
    if small.any():
        flush = np.repeat(np.logical_or.reduceat(small, offsets[:-1]), lens)
        out[small] = 0.0
        out[flush] /= np.repeat(row_sums(out, offsets), lens)[flush]
    return out
