"""Synthetic reasoning tasks with hidden ground truth.

Each task is a prompt whose chains are opaque ids carrying answer strings:
one answer class is the (withheld) truth with controllable base mass p, the
rest are distractor classes splitting 1-p. The class-probability layout is
the only thing the vote-driven training loop can see, so self-improvement
and its failure mode (a wrong population majority) are both constructible
on demand.

Answers are rendered as exact rationals in mixed surface forms (decimal,
\\frac, plain a/b), so label checks go through real equivalence decisions
rather than string matches. Truth labels are written to a separate file;
the training path has no code path that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from json.encoder import encode_basestring_ascii as _json_str
from typing import Mapping

import numpy as np

from .policy import PromptSpace, TabularPolicy
from .util import _SEP, NUMBERS, STRING, STRING_MAP, STRINGS, _json_records, counter_random
from .util import digest64

__all__ = [
    "CorpusSpec",
    "SyntheticTask",
    "Corpus",
    "render_rational",
    "make_corpus",
    "save_corpus",
    "load_corpus",
    "load_labels",
]


def render_rational(value: Fraction, form: str) -> str:
    """Render an exact rational as 'plain' (a/b), 'frac' (\\frac{a}{b}), or
    'decimal' (exact digits; falls back to plain for non-terminating values)."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    if form == "decimal":
        # den divides 10**digits exactly when it is 2**twos * 5**fives.
        twos = (den & -den).bit_length() - 1
        rest, fives = den >> twos, 0
        while rest % 5 == 0:
            rest, fives = rest // 5, fives + 1
        if rest == 1:
            digits = max(twos, fives)
            text = str(abs(num) * (10**digits // den)).rjust(digits + 1, "0")
            return f"{'-' if num < 0 else ''}{text[:-digits]}.{text[-digits:]}"
    if form == "frac":
        return f"\\frac{{{num}}}{{{den}}}"
    return f"{num}/{den}"


_FORMS = ("plain", "frac", "decimal")


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int = 400
    n_test: int = 100
    p_range: tuple[float, float] = (0.35, 0.95)
    max_distractors: int = 3
    surface_forms: int = 1
    # Reject class layouts whose truth-vs-top-distractor gap is below this,
    # so population majorities are decisively right or decisively wrong.
    margin: float = 0.1
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.p_range
        if not (0 < lo <= hi < 1):
            raise ValueError("p_range must lie strictly inside (0, 1)")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("need at least one train and one test task")
        if self.max_distractors < 1:
            raise ValueError("need at least one distractor class")
        if self.surface_forms < 1:
            raise ValueError("surface_forms must be >= 1")
        if not (0 <= self.margin < 0.5):
            raise ValueError("margin must be in [0, 0.5)")


@dataclass(frozen=True)
class SyntheticTask:
    prompt: str
    chains: tuple[str, ...]
    answers: dict[str, str]
    probs: np.ndarray
    truth: str
    correct_mass: float
    distractor_masses: tuple[float, ...]

    @property
    def majority_is_correct(self) -> bool:
        return self.correct_mass > max(self.distractor_masses)


# Layout attempts per draw block; make_corpus stops after 10,000 per task.
_ATTEMPTS = 4
_PERMUTATIONS = tuple(permutations(_FORMS))


def _draw_block(spec: CorpusSpec, digests: np.ndarray, block: int):
    """One draw block for the tasks with these (split, index) `digest64`s:
    the rows it settles (a layout attempt meets the margin, enough values
    are distinct) and, per row, that attempt's p, distractor count and
    Dirichlet(1, ..., 1) masses, the distinct reduced (num, den) values in
    draw order (truth first), the truth's form permutation, distractor
    forms and order keys."""
    m, a = spec.max_distractors, _ATTEMPTS
    sizes = (a, a, a * m, m + 3, m + 3, 1, m, m + 3)
    u = counter_random(spec.seed, [("task", block) if block else ("task",)], digests, sum(sizes))
    p_u, n_u, e_u, num_u, den_u, perm_u, form_u, keys = np.split(u, np.cumsum(sizes)[:-1], axis=1)
    p = spec.p_range[0] + (spec.p_range[1] - spec.p_range[0]) * p_u
    n = 1 + (n_u * m).astype(np.int64)
    e = -np.log1p(-e_u.reshape(-1, a, m))
    e[np.arange(m) >= n[..., None]] = 0.0
    masses = (1.0 - p)[..., None] * (e / e.sum(axis=2, keepdims=True))
    fits = np.abs(p - masses.max(axis=2)) >= spec.margin
    rows, pick = np.arange(len(digests)), fits.argmax(axis=1)
    p, n, masses = p[rows, pick], n[rows, pick], masses[rows, pick]
    num, den = (num_u * 250).astype(np.int64) - 50, (den_u * 12).astype(np.int64) + 1
    g = np.gcd(num, den)
    num, den = num // g, den // g
    # One key per (row, reduced value); np.unique finds each key's first draw.
    key = (num + 50) * 16 + den + np.arange(len(num))[:, None] * 4096
    repeat = np.ones(num.shape, bool)
    repeat.flat[np.unique(key, return_index=True)[1]] = False
    first = np.argsort(repeat, axis=1, kind="stable")[:, : m + 1]
    settled = fits.any(axis=1) & ((~repeat).sum(axis=1) > n)
    values = [np.take_along_axis(num, first, 1), np.take_along_axis(den, first, 1)]
    perm = (perm_u[:, 0] * len(_PERMUTATIONS)).astype(np.int64)
    return settled, [p, n, masses, *values, perm, (form_u * len(_FORMS)).astype(np.int64), keys]


@dataclass
class Corpus:
    space: PromptSpace
    base: TabularPolicy
    splits: dict[str, tuple[str, ...]]
    truth: dict[str, str]
    tasks: dict[str, SyntheticTask]
    spec: CorpusSpec

    def ceiling(self, split: str) -> float:
        """Fraction of the split whose population majority is the truth."""
        tasks = [self.tasks[x] for x in self.splits[split]]
        return sum(t.majority_is_correct for t in tasks) / len(tasks)

    def wrong_majority_fraction(self, split: str) -> float:
        return 1.0 - self.ceiling(split)


def make_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate train/test tasks and the base policy.

    All tasks come from one `util.counter_random` call: row r is keyed by
    the ("task",) prefix and the `digest64` of its (split, index) address,
    so a task depends on the seed, its split and index and the spec alone.
    The prompt id is not the key: its zero padding widens with the split's
    size. Rows a block does not settle draw the next block, under ("task",
    block).
    """
    sizes = (("train", spec.n_train), ("test", spec.n_test))
    prompts = {s: tuple(f"{s}-{i:0{max(3, len(str(n - 1)))}d}" for i in range(n)) for s, n in sizes}
    ids = prompts["train"] + prompts["test"]
    digests = np.array([digest64(f"{s}{_SEP}{i}") for s, n in sizes for i in range(n)], dtype=np.uint64)
    settled, fields = _draw_block(spec, digests, 0)
    todo = np.flatnonzero(~settled)
    for block in range(1, 10_000 // _ATTEMPTS):
        if not todo.size:
            break
        settled, drawn = _draw_block(spec, digests[todo], block)
        for out, values in zip(fields, drawn):
            out[todo[settled]] = values[settled]
        todo = todo[~settled]
    if todo.size:
        raise RuntimeError("could not draw a class layout satisfying the margin")

    tasks, fields = {}, [f.tolist() for f in fields]
    # render_rational per reduced (num, den, form); a corpus has at most 3,000 pairs.
    rendered = cache(lambda num, den, form: render_rational(Fraction(num, den), form))
    for prompt, p, n, masses, nums, dens, perm, forms, keys in zip(ids, *fields):
        texts = [rendered(nums[0], dens[0], f) for f in _PERMUTATIONS[perm]]
        # The chain's rendering and an equivalent, different one for the label.
        label = next((text for text in texts[1:] if text != texts[0]), texts[0])
        # With several surface forms, the truth mass is spread over them.
        answers = texts[:1] if spec.surface_forms == 1 else sorted(set(texts))[: spec.surface_forms]
        probs = [p / len(answers)] * len(answers) + masses[:n]
        answers += [rendered(nums[j], dens[j], _FORMS[forms[j - 1]]) for j in range(1, n + 1)]
        order = sorted(range(len(answers)), key=keys.__getitem__)
        chains = tuple(f"c{i}" for i in range(len(answers)))
        amap = {chains[j]: answers[i] for j, i in enumerate(order)}
        probs = np.array([probs[i] for i in order])
        tasks[prompt] = SyntheticTask(prompt, chains, amap, probs, label, p, tuple(masses[:n]))

    space = PromptSpace({x: tasks[x].chains for x in ids}, {x: tasks[x].answers for x in ids})
    base = TabularPolicy(space, {x: tasks[x].probs for x in ids})
    return Corpus(space, base, prompts, {x: tasks[x].truth for x in ids}, tasks, spec)


def save_corpus(corpus: Corpus, tasks_path, labels_path) -> None:
    """Write task records and truth labels as separate JSON-lines files.

    Each line is the bytes `json.dumps` writes for the record (ASCII
    escapes, ", " and ": " separators, `repr` floats), built from the
    encoded strings and written in one call per file.
    """
    tasks, labels = [], []
    for split, prompts in corpus.splits.items():
        for prompt in prompts:
            task, key = corpus.tasks[prompt], _json_str(prompt)
            answers = ", ".join(f"{_json_str(c)}: {_json_str(a)}" for c, a in task.answers.items())
            tasks.append(
                f'{{"prompt": {key}, "split": {_json_str(split)}, '
                f'"chains": [{", ".join(map(_json_str, task.chains))}], "answers": {{{answers}}}, '
                f'"probs": [{", ".join(map(repr, task.probs.tolist()))}]}}\n'
            )
            labels.append(f'{{"prompt": {key}, "truth": {_json_str(corpus.truth[prompt])}}}\n')
    for path, lines in ((tasks_path, tasks), (labels_path, labels)):
        with open(path, "wb") as fh:
            fh.write("".join(lines).encode("ascii"))


_TASK_FIELDS = dict(prompt=STRING, split=STRING, chains=STRINGS, answers=STRING_MAP, probs=NUMBERS)


def load_corpus(tasks_path) -> tuple[PromptSpace, TabularPolicy, dict[str, tuple[str, ...]]]:
    """Rebuild the prompt space, base policy, and splits from a tasks file.

    Labels are deliberately not here; see load_labels. A line without a
    string prompt and split, a list of string chains, an object of string
    answers and a list of number probs, or whose prompt an earlier line
    has, raises ValueError naming the path and line.
    """
    chains: dict[str, list[str]] = {}
    answers: dict[str, Mapping[str, str]] = {}
    probs: dict[str, list[float]] = {}
    split_lists: dict[str, list[str]] = {}
    for number, rec in _json_records(tasks_path, _TASK_FIELDS):
        prompt = rec["prompt"]
        if prompt in chains:
            raise ValueError(f"{tasks_path}: line {number}: prompt {prompt!r} repeats")
        chains[prompt] = rec["chains"]
        answers[prompt] = rec["answers"]
        probs[prompt] = [float(v) for v in rec["probs"]]
        split_lists.setdefault(rec["split"], []).append(prompt)
    space = PromptSpace(chains, answers)
    base = TabularPolicy(space, probs)
    return space, base, {s: tuple(v) for s, v in split_lists.items()}


def load_labels(labels_path) -> dict[str, str]:
    """Truth label of every prompt in a labels file. A line without a
    string prompt and truth, or whose prompt an earlier line has, raises
    ValueError naming the path and line."""
    labels: dict[str, str] = {}
    for number, rec in _json_records(labels_path, {"prompt": STRING, "truth": STRING}):
        if rec["prompt"] in labels:
            raise ValueError(f"{labels_path}: line {number}: prompt {rec['prompt']!r} repeats")
        labels[rec["prompt"]] = rec["truth"]
    return labels
