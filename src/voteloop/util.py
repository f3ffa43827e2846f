"""Shared plumbing: named random substreams and simplex helpers."""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_SEP = b"\x1f"


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for a (seed, *tags) address.

    Tags are stringified and hashed with SHA-256, so the stream depends only
    on the seed and the tag values -- never on call order, platform, or
    PYTHONHASHSEED. Any two distinct addresses give statistically independent
    streams.
    """
    material = _SEP.join(str(t).encode("utf-8") for t in (int(seed),) + tags)
    digest = hashlib.sha256(material).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


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


def entropy_nats(p: np.ndarray) -> float:
    """Shannon entropy of a probability vector, in nats (0 * log 0 = 0)."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two distributions on the same support."""
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
