"""Conditional distributions over (chain, answer) pairs for finite prompt sets.

A PromptSpace fixes, per prompt, an ordered chain alphabet and the answer
string each chain deterministically yields. Policies assign each prompt a
distribution over its chains, either as an explicit probability table
(TabularPolicy) or as logits through a temperature softmax (SoftmaxPolicy).

Each chain's answer is fixed, so the space also holds the answer classes:
one class id per chain, computed for the whole space in one pass over the
chains' `answer_key`s on first use and cached. Votes count these ids instead
of comparing answer strings.

Every per-chain table is one flat float array laid out by the space's chain
offsets: the chains of the prompt in row r sit at [offsets[r], offsets[r+1]).
A policy stores its probabilities that way, and `distribution(prompt)` is a
read-only slice. Row reductions over these arrays (`util.row_sums`, the
sampling CDFs) read one running sum that adds each row left to right, so
batched results equal per-prompt ones bit for bit.

Policies are immutable snapshots: every update constructs a new object, so
concurrent reads are safe and sampling with per-prompt streams is
deterministic under any scheduling. Sampling draws by inverse CDF with the
arithmetic of `Generator.choice`, so a chain-index draw equals
`rng.choice(len(p), count, p=p)` bit for bit and leaves the stream in the
same state. `sample_batch` draws for a whole prompt list from given
uniforms; each policy builds its CDFs once, as one flat array.

Checkpoints are text with one `prompt<TAB>chain<TAB>float.hex` record per
chain. `save_policy` builds the hex text of all values at once from their
IEEE-754 fields and writes the records as one byte matrix, beside keys
cached on the space; the file is replaced atomically.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .answers import answer_key
from .rewards import vote_classes
from .util import _atomic_write, digest64, normalize_rows, row_cumsums, row_sums

__all__ = [
    "PromptSpace",
    "TabularPolicy",
    "SoftmaxPolicy",
    "save_policy",
    "load_policy",
]

TABULAR_SUM_TOL = 1e-12
SOFTMAX_SUM_TOL = 1e-9
# Generator.choice's tolerance on the sum of p.
CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def _check_id(kind: str, value: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{kind} identifier must be a nonempty string, got {value!r}")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{kind} identifier {value!r} contains tab/newline")
    return value


class PromptSpace:
    """Finite universe of prompts, per-prompt chain alphabets, and answers.

    Parameters
    ----------
    chains:
        Mapping prompt-id -> ordered sequence of chain-ids (order defines the
        index layout of every policy vector).
    answers:
        Mapping prompt-id -> {chain-id: answer string}; must be total on the
        chain alphabet of each prompt.
    """

    def __init__(
        self,
        chains: Mapping[str, Sequence[str]],
        answers: Mapping[str, Mapping[str, str]],
    ):
        if len(chains) == 0:
            raise ValueError("a PromptSpace needs at least one prompt")
        self._chains: dict[str, tuple[str, ...]] = {}
        self._answers: dict[str, tuple[str, ...]] = {}
        self._index: dict[str, dict[str, int]] = {}
        for prompt, chain_ids in chains.items():
            _check_id("prompt", prompt)
            chain_ids = tuple(_check_id("chain", c) for c in chain_ids)
            if not chain_ids:
                raise ValueError(f"prompt {prompt!r} has no chains")
            if len(set(chain_ids)) != len(chain_ids):
                raise ValueError(f"prompt {prompt!r} has duplicate chain ids")
            amap = answers.get(prompt)
            if amap is None:
                raise KeyError(f"no answers given for prompt {prompt!r}")
            missing = [c for c in chain_ids if c not in amap]
            if missing:
                raise KeyError(f"prompt {prompt!r}: answers missing for chains {missing}")
            self._chains[prompt] = chain_ids
            self._answers[prompt] = tuple(str(amap[c]) for c in chain_ids)
            self._index[prompt] = {c: i for i, c in enumerate(chain_ids)}
        self.prompts: tuple[str, ...] = tuple(self._chains)
        self._row = {prompt: i for i, prompt in enumerate(self.prompts)}
        # Chains of the prompt in row r sit at [offsets[r], offsets[r + 1])
        # of any flat per-chain array.
        self._offsets = np.cumsum([0] + [len(c) for c in self._chains.values()])
        self._bounds = self._offsets.tolist()
        # (chain, answer) of every chain, flat.
        self._pairs = tuple(
            pair for x in self.prompts for pair in zip(self._chains[x], self._answers[x])
        )
        # Flat answer-class ids (_flat_classes), their read-only view per
        # row, and each row's answer_key -> class id table; built on first use.
        self._flat: np.ndarray | None = None
        self._class_views: list[np.ndarray] = []
        self._class_keys: list[dict[tuple[int, int] | str, int]] = []
        # Text pieces of the round-dataset writer (engine._dataset_text) and
        # the padded `prompt\tchain\t` keys of the checkpoint writer
        # (_checkpoint_keys), built on first use.
        self._dataset_text: tuple | None = None
        self._checkpoint_keys: tuple[np.ndarray, np.ndarray] | None = None
        # util.digest64 of every prompt id (_prompt_digests), built on the
        # first draw.
        self._digests: np.ndarray | None = None

    def __contains__(self, prompt: str) -> bool:
        return prompt in self._chains

    def __iter__(self) -> Iterator[str]:
        return iter(self.prompts)

    def chains(self, prompt: str) -> tuple[str, ...]:
        self._require(prompt)
        return self._chains[prompt]

    def answer_of(self, prompt: str, chain: str) -> str:
        return self._answers[prompt][self.chain_index(prompt, chain)]

    def answers(self, prompt: str) -> tuple[str, ...]:
        """Answer strings in chain order."""
        self._require(prompt)
        return self._answers[prompt]

    def answer_classes(self, prompt: str) -> np.ndarray:
        """Answer-class id of every chain, in chain order (read-only).

        Chains whose answers are `equivalent` share an id, numbered by
        first appearance. Built for the whole space on first use, so a space
        that is never voted on pays nothing.
        """
        self._require(prompt)
        self._flat_classes()
        return self._class_views[self._row[prompt]]

    def class_of(self, prompt: str, answer: str) -> int:
        """Class id of the chains whose answers are equivalent to `answer`,
        or -1 when no chain's answer is."""
        self._require(prompt)
        self._flat_classes()
        return self._class_keys[self._row[prompt]].get(answer_key(answer), -1)

    def _prompt_digests(self) -> np.ndarray:
        """`util.digest64` of every prompt id, in row order (read-only uint64):
        the prompt half of each round's `util.counter_random` keys."""
        if self._digests is None:
            self._digests = np.array([digest64(x) for x in self.prompts], dtype=np.uint64)
            self._digests.flags.writeable = False
        return self._digests

    def _flat_classes(self) -> np.ndarray:
        """Answer-class id of every chain, flat in the chain offsets: each
        row numbers its answers' `answer_key`s by first appearance. Each
        distinct answer string is keyed once, so building the classes does
        not lean on the bounded parse cache for repeats."""
        if self._flat is None:
            answers = [answer for _, answer in self._pairs]
            key_of = {answer: answer_key(answer) for answer in dict.fromkeys(answers)}
            keys = [key_of[answer] for answer in answers]
            ids: list[int] = []
            spans = list(zip(self._bounds, self._bounds[1:]))
            for start, end in spans:
                table: dict[tuple[int, int] | str, int] = {}
                ids += [table.setdefault(key, len(table)) for key in keys[start:end]]
                self._class_keys.append(table)
            flat = np.array(ids, dtype=np.intp)
            flat.flags.writeable = False
            self._class_views = [flat[start:end] for start, end in spans]
            self._flat = flat
        return self._flat

    def _vote(
        self, picks: np.ndarray, tie_stream: Callable[[int], Callable[..., np.random.Generator]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Majority vote of every row of `picks`, an [rows, k] array of flat
        chain indices (each row within one prompt's chains).

        Returns the class ids of the picks and the winning class of each
        row. Votes are counted for all rows in one bincount over
        row * width + class id; only a row whose top count ties calls
        `vote_classes`, with `tie_stream(row)` as its tie stream.
        """
        classes = self._flat_classes()[picks]
        rows = np.arange(len(picks))
        width = int(np.diff(self._offsets).max())
        counts = np.bincount(
            (rows[:, None] * width + classes).ravel(), minlength=len(picks) * width
        ).reshape(len(picks), width)
        top = counts.max(axis=1, initial=0)
        winner = counts.argmax(axis=1)
        for r in np.flatnonzero((counts == top[:, None]).sum(axis=1) > 1).tolist():
            answers = [self._pairs[i][1] for i in picks[r].tolist()]
            winner[r] = vote_classes(classes[r], answers, tie_stream(r))[0]
        return classes, winner

    def _flat_table(self, table: Mapping[str, Sequence[float]], what: str) -> np.ndarray:
        """The prompts' vectors in `table` as one flat float array in the
        chain offsets. A missing prompt raises KeyError, a vector of another
        shape ValueError, each naming the prompt."""
        rows = []
        for prompt, n in zip(self.prompts, np.diff(self._offsets).tolist()):
            if prompt not in table:
                raise KeyError(f"no {what} for prompt {prompt!r}")
            rows.append(np.asarray(table[prompt], dtype=float))
            if rows[-1].shape != (n,):
                raise ValueError(
                    f"prompt {prompt!r}: expected {n} {what}, got shape {rows[-1].shape}"
                )
        return np.concatenate(rows)

    def _reject(self, bad: np.ndarray, problem: str) -> None:
        """ValueError naming the first prompt whose row `bad` flags."""
        if bad.any():
            raise ValueError(f"prompt {self.prompts[int(np.argmax(bad))]!r}: {problem}")

    def _span(self, prompt: str) -> tuple[int, int]:
        """[start, end) of the prompt's chains in any flat per-chain array."""
        row = self._row.get(prompt)
        if row is None:
            raise KeyError(f"unknown prompt {prompt!r}")
        return self._bounds[row], self._bounds[row + 1]

    def _rows(self, prompts: Sequence[str]) -> np.ndarray:
        """Row index of every prompt, in the order given."""
        try:
            return np.array([self._row[x] for x in prompts], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown prompt {exc.args[0]!r}") from None

    def chain_index(self, prompt: str, chain: str) -> int:
        self._require(prompt)
        try:
            return self._index[prompt][chain]
        except KeyError:
            raise KeyError(f"unknown chain {chain!r} for prompt {prompt!r}") from None

    def _require(self, prompt: str) -> None:
        if prompt not in self._chains:
            raise KeyError(f"unknown prompt {prompt!r}")


class _PolicyBase:
    """Shared read-side operations over the flat probability table."""

    space: PromptSpace
    # Probabilities of every prompt, flat in the space's chain offsets
    # (read-only).
    _probs: np.ndarray
    # Normalized CDF of every prompt, in the same layout; built on first
    # draw (rows that fail the p check hold NaN).
    _cdf: np.ndarray | None = None
    # Entropy of every prompt, built on first use.
    _entropies: np.ndarray | None = None

    def _set_table(self, space: PromptSpace, probs: np.ndarray) -> None:
        probs.flags.writeable = False
        self.space = space
        self._probs = probs

    def distribution(self, prompt: str) -> np.ndarray:
        start, end = self.space._span(prompt)
        return self._probs[start:end]

    def prob(self, prompt: str, chain: str) -> float:
        i = self.space.chain_index(prompt, chain)
        return float(self.distribution(prompt)[i])

    def sample(self, prompt: str, count: int, rng: np.random.Generator) -> list[str]:
        """Draw `count` chain-ids i.i.d. from this prompt's distribution, the
        chains of `rng.choice(len(p), count, p=p)` (see sample_batch)."""
        chains = self.space.chains(prompt)
        if count < 1:
            raise ValueError("count must be >= 1")
        picks = self.sample_batch([prompt], rng.random((1, count)))[0]
        return [chains[i] for i in picks.tolist()]

    def sample_batch(self, prompts: Sequence[str], uniforms: np.ndarray) -> np.ndarray:
        """Chain indices drawn by inverse CDF: row r draws from prompts[r]
        at the uniforms of row r.

        Each row keeps the input check and arithmetic of
        `Generator.choice(len(p), count, p=p)` (p >= 0 and sum within
        sqrt(eps) of 1; `cdf = p.cumsum(); cdf /= cdf[-1]`; searchsorted
        with side="right"), so row r equals that call on a generator whose
        next draws are uniforms[r]. Memory is linear in the uniforms plus
        the space's chains.
        """
        uniforms = np.asarray(uniforms, dtype=float)
        if uniforms.ndim != 2 or len(uniforms) != len(prompts):
            raise ValueError("uniforms must have one row per prompt")
        cdf = self._cdf_table()
        rows = self.space._rows(prompts)
        start, end = self.space._offsets[rows], self.space._offsets[rows + 1]
        bad = np.flatnonzero(np.isnan(cdf[start]))
        if bad.size:
            raise ValueError(
                f"prompt {prompts[bad[0]]!r}: probabilities must be >= 0 and sum to 1"
            )
        # Vectorized searchsorted(side="right"): binary search for the count
        # of CDF entries <= u within each row's [start, end).
        lo = np.repeat(start[:, None], uniforms.shape[1], axis=1)
        hi = np.repeat(end[:, None], uniforms.shape[1], axis=1)
        for _ in range(int((end - start).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            go = (lo < hi) & (cdf.take(mid, mode="clip") <= uniforms)
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go, hi, mid)
        return lo - start[:, None]

    def _cdf_table(self) -> np.ndarray:
        if self._cdf is None:
            # Generator.choice's check and arithmetic (p >= 0 and sum near 1;
            # cdf = p.cumsum(); cdf /= cdf[-1]) on every row at once: a row's
            # running sum is its cumsum, and the last entry its sum.
            offsets, lens = self.space._offsets, np.diff(self.space._offsets)
            cdf = row_cumsums(self._probs, offsets)
            total = np.repeat(cdf[offsets[1:] - 1], lens)
            bad = np.repeat(np.logical_or.reduceat(self._probs < 0, offsets[:-1]), lens)
            with np.errstate(divide="ignore", invalid="ignore"):
                cdf /= total
            cdf[bad | (np.abs(total - 1.0) > CHOICE_SUM_TOL)] = np.nan
            cdf.flags.writeable = False
            self._cdf = cdf
        return self._cdf

    def _entropy_table(self) -> np.ndarray:
        """Shannon entropy of every prompt, in nats (0 * log 0 = 0)."""
        if self._entropies is None:
            p = self._probs
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = p * np.log(p)
            self._entropies = -row_sums(terms, self.space._offsets, p > 0)
        return self._entropies

    def entropy(self, prompt: str) -> float:
        """Shannon entropy of the chain distribution, in nats."""
        self.space._require(prompt)
        return float(self._entropy_table()[self.space._row[prompt]])

    def mean_entropy(self, prompts: Sequence[str] | None = None) -> float:
        prompts = self.space.prompts if prompts is None else prompts
        return float(np.mean(self._entropy_table()[self.space._rows(prompts)]))

    def answer_marginal(self, prompt: str) -> dict[str, float]:
        """Total probability per answer string (chains grouped by answer)."""
        p = self.distribution(prompt)
        out: dict[str, float] = {}
        for answer, mass in zip(self.space.answers(prompt), p):
            out[answer] = out.get(answer, 0.0) + float(mass)
        return out


class TabularPolicy(_PolicyBase):
    """Explicit per-prompt probability table over chains.

    Input vectors are checked (finite, nonnegative, some mass, a finite
    sum; an error names the prompt), normalized on construction by
    `util.normalize_rows` (sub-1e-300 entries flushed to zero) and stored
    as one read-only flat array.
    """

    kind = "tabular"

    def __init__(self, space: PromptSpace, probs: Mapping[str, Sequence[float]]):
        raw, starts = space._flat_table(probs, "probabilities"), space._offsets[:-1]
        space._reject(
            np.logical_or.reduceat(~np.isfinite(raw) | (raw < 0), starts),
            "probabilities must be finite and nonnegative",
        )
        space._reject(~np.logical_or.reduceat(raw > 0, starts), "probability vector has zero mass")
        with np.errstate(over="ignore"):
            sums = row_sums(raw, space._offsets)
        space._reject(np.isinf(sums), "probabilities must sum to a finite value")
        self._set_table(space, normalize_rows(raw, space._offsets, TABULAR_SUM_TOL))

    @classmethod
    def _trusted(cls, space: PromptSpace, probs: np.ndarray) -> "TabularPolicy":
        """Policy over a flat table its caller has just normalized row by
        row (no checks; the array is taken over and made read-only)."""
        policy = cls.__new__(cls)
        policy._set_table(space, probs)
        return policy

    @classmethod
    def uniform(cls, space: PromptSpace) -> "TabularPolicy":
        return cls(space, {x: np.ones(len(space.chains(x))) for x in space.prompts})


class SoftmaxPolicy(_PolicyBase):
    """Per-prompt logit table; distribution = softmax(logits / temperature)."""

    kind = "softmax"

    def __init__(
        self,
        space: PromptSpace,
        logits: Mapping[str, Sequence[float]],
        temperature: float = 1.0,
    ):
        if not (temperature > 0):
            raise ValueError("temperature must be positive")
        flat = space._flat_table(logits, "logits")
        space._reject(
            np.logical_or.reduceat(~np.isfinite(flat), space._offsets[:-1]), "logits must be finite"
        )
        self._set_logits(space, flat, temperature)
        sums = row_sums(self._probs, space._offsets)
        space._reject(np.abs(sums - 1.0) > SOFTMAX_SUM_TOL, "softmax normalization failed")

    @classmethod
    def _trusted(cls, space: PromptSpace, logits: np.ndarray, temperature: float) -> "SoftmaxPolicy":
        """Policy over flat finite logits its caller has just computed (no
        checks; the array is taken over and made read-only). Its
        probabilities are the public constructor's, bit for bit."""
        policy = cls.__new__(cls)
        policy._set_logits(space, logits, temperature)
        return policy

    def _set_logits(self, space: PromptSpace, logits: np.ndarray, temperature: float) -> None:
        """Take over flat logits and set the probabilities: every row is
        softmax(z / T) computed as z - max(z), exp, then a division by the
        row's sum, each row's bits as the same steps on that row alone."""
        self.temperature = float(temperature)
        offsets = space._offsets
        lens = np.diff(offsets)
        z = logits / self.temperature
        z = z - np.repeat(np.maximum.reduceat(z, offsets[:-1]), lens)
        p = np.exp(z)
        p /= np.repeat(row_sums(p, offsets), lens)
        logits.flags.writeable = False
        self._logits = logits
        self._set_table(space, p)

    @classmethod
    def zeros(cls, space: PromptSpace, temperature: float = 1.0) -> "SoftmaxPolicy":
        return cls(space, {x: np.zeros(len(space.chains(x))) for x in space.prompts}, temperature)

    def logits(self, prompt: str) -> np.ndarray:
        start, end = self.space._span(prompt)
        return self._logits[start:end]


Policy = TabularPolicy | SoftmaxPolicy

_HEADER = "# voteloop policy v1"


def _padded(pieces: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Byte strings as the rows of a zero-padded uint8 matrix, plus the mask
    of each row's own bytes: `matrix[mask]` is the pieces joined."""
    lengths = np.array([len(piece) for piece in pieces])
    width = int(lengths.max(initial=0))
    padded = b"".join(piece.ljust(width, b"\0") for piece in pieces)
    mask = np.arange(width) < lengths[:, None]
    mask.flags.writeable = False
    return np.frombuffer(padded, np.uint8).reshape(len(pieces), width), mask


def _checkpoint_keys(space: PromptSpace) -> tuple[np.ndarray, np.ndarray]:
    """The `prompt\\tchain\\t` key of every chain, flat in the chain
    offsets, as `_padded` rows; built once per space."""
    if space._checkpoint_keys is None:
        space._checkpoint_keys = _padded(
            [f"{x}\t{c}\t".encode("utf-8") for x in space.prompts for c in space._chains[x]]
        )
    return space._checkpoint_keys


@cache
def _hex_tables() -> tuple:
    """Pieces of `float.hex`, built on first use:

    - heads by sign * 4 + kind (0 normal, 1 zero or subnormal, 2 infinity,
      3 NaN, which prints without its sign);
    - the two hex digits of every byte value, as one uint16;
    - exponent tails by the biased exponent field (`p-1022` for
      subnormals, `p-1022` ... `p+1023` for normals, nothing for infinities
      and NaN) plus row 2048, `p+0`, for zeros, and the tails' lengths;
    - the mask of the text columns (head, 13 digits, tail, newline) by head
      and tail length: 13 digits, or 1 for a zero (head `0x0.`, tail `p+0`;
      a subnormal's tail is `p-1022`), or none for an infinity or NaN.
    """
    heads, head_mask = _padded([b"0x1.", b"0x0.", b"inf", b"nan", b"-0x1.", b"-0x0.", b"-inf", b"nan"])
    digits = np.frombuffer(b"".join(b"%02x" % byte for byte in range(256)), np.uint16)
    exponents = [b"p%+d" % e for e in range(-1022, 1024)]
    tails, tail_mask = _padded([b"p-1022", *exponents, b"", b"p+0"])
    kind, length, column = np.arange(8)[:, None, None] % 4, np.arange(7)[:, None], np.arange(25)
    count = np.where(kind >= 2, 0, np.where((kind == 1) & (length == 3), 1, 13))
    masks = (
        (column < head_mask.sum(axis=1)[:, None, None])
        | ((column >= 5) & (column < 5 + count))
        | ((column >= 18) & (column < 18 + length))
        | (column == 24)
    )
    return heads, digits, tails, tail_mask.sum(axis=1), masks


def _hex_lines(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`float.hex(v) + "\\n"` for every value, as a padded uint8 matrix and
    its mask (see `_padded`), assembled from the IEEE-754 fields."""
    heads, digits, tails, tail_length, masks = _hex_tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    top = (bits >> np.uint64(52)).astype(np.intp)  # sign and exponent field
    field = top & 0x7FF
    fraction = (bits & np.uint64((1 << 52) - 1)) != 0
    head = (top >> 11) * 4 + np.where(field == 0x7FF, 2 + fraction, field == 0)
    tail = np.where((field == 0) & ~fraction, 2048, field)
    matrix = np.empty((len(bits), 25), np.uint8)
    matrix[:, :5] = heads[head]
    # Big-endian bytes 1..7 hold 4 exponent bits, then the 52 mantissa
    # bits: their 14 hex digits but the first are the 13 mantissa digits.
    mantissa = bits.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 1:]
    matrix[:, 5:18] = digits[mantissa].view(np.uint8)[:, 1:]
    matrix[:, 18:24] = tails[tail]
    matrix[:, 24] = ord("\n")
    return matrix, masks[head, tail_length[tail]]


def save_policy(policy: Policy, path) -> None:
    """Checkpoint a policy as flat text, one (prompt, chain, value) per line.

    Values are written as hexadecimal floats (`float.hex`), so load_policy
    restores them bit-for-bit. The records are one padded byte matrix, the
    space's cached `prompt\\tchain\\t` keys beside each value's hex text,
    written through its mask. The file is replaced atomically
    (`util._atomic_write`): an interrupted write leaves the previous file.
    """
    if isinstance(policy, SoftmaxPolicy):
        kind, values = f"softmax temperature {policy.temperature.hex()}", policy._logits
    else:
        kind, values = "tabular", policy._probs
    with _atomic_write(path) as fh:
        fh.write(f"{_HEADER}\n# kind {kind}\n".encode())
        keys, key_mask = _checkpoint_keys(policy.space)
        text, text_mask = _hex_lines(values)
        fh.write(np.hstack([keys, text])[np.hstack([key_mask, text_mask])].tobytes())


def load_policy(path, space: PromptSpace) -> Policy:
    """Inverse of save_policy; the PromptSpace supplies the chain layout.

    A file that is not a complete checkpoint of this space raises
    ValueError naming the path: a missing or malformed kind header, a
    malformed record, a record for a prompt or chain outside the space, a
    duplicate record, or a prompt some of whose chains have no record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError(f"{path}: not a voteloop policy checkpoint")
    meta = lines[1].split() if len(lines) > 1 else []
    kind = meta[2] if len(meta) >= 3 and meta[:2] == ["#", "kind"] else None
    if kind not in ("tabular", "softmax"):
        raise ValueError(f"{path}: missing or unknown kind header")
    if kind == "softmax" and (len(meta) != 5 or meta[3] != "temperature"):
        raise ValueError(f"{path}: softmax kind header needs a temperature")
    values = np.empty(space._bounds[-1])
    seen = np.zeros(len(values), dtype=bool)
    for ln in lines[2:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed record {ln!r}")
        prompt, chain, hexval = parts
        row = space._row.get(prompt)
        col = space._index[prompt].get(chain) if row is not None else None
        if col is None:
            raise ValueError(f"{path}: record {ln!r} is outside the prompt space")
        at = space._bounds[row] + col
        if seen[at]:
            raise ValueError(f"{path}: duplicate record for prompt {prompt!r} chain {chain!r}")
        try:
            values[at] = float.fromhex(hexval)
        except ValueError:
            raise ValueError(f"{path}: malformed value in record {ln!r}") from None
        seen[at] = True
    if not seen.all():
        row = int(np.searchsorted(space._offsets, np.argmin(seen), side="right")) - 1
        raise ValueError(f"{path}: records do not cover prompt {space.prompts[row]!r}")
    table = {x: values[a:b] for x, a, b in zip(space.prompts, space._bounds, space._bounds[1:])}
    try:
        if kind == "tabular":
            return TabularPolicy(space, table)
        return SoftmaxPolicy(space, table, float.fromhex(meta[4]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
