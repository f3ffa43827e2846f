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

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .policy import PromptSpace, TabularPolicy
from .util import substream

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


def _draw_value(rng: np.random.Generator, taken: set[Fraction]) -> Fraction:
    while True:
        num = int(rng.integers(-50, 200))
        den = int(rng.integers(1, 13))
        value = Fraction(num, den)
        if value not in taken:
            taken.add(value)
            return value


def _two_forms(value: Fraction, rng: np.random.Generator) -> tuple[str, str]:
    """A rendering for the chain and an equivalent one for the label."""
    forms = list(rng.permutation(_FORMS))
    first = render_rational(value, forms[0])
    for other in forms[1:]:
        alt = render_rational(value, other)
        if alt != first:
            return first, alt
    return first, first


def _make_task(prompt: str, spec: CorpusSpec, rng: np.random.Generator) -> SyntheticTask:
    lo, hi = spec.p_range
    for _ in range(10_000):
        p = float(rng.uniform(lo, hi))
        n_distract = int(rng.integers(1, spec.max_distractors + 1))
        rel = rng.dirichlet(np.ones(n_distract))
        masses = (1.0 - p) * rel
        if abs(p - float(masses.max())) >= spec.margin:
            break
    else:
        raise RuntimeError("could not draw a class layout satisfying the margin")

    taken: set[Fraction] = set()
    truth_value = _draw_value(rng, taken)
    truth_chain_text, truth_label = _two_forms(truth_value, rng)
    answers: list[str] = []
    probs: list[float] = []
    if spec.surface_forms == 1:
        answers.append(truth_chain_text)
        probs.append(p)
    else:
        # Spread the truth mass over several equivalent surface forms.
        texts = {render_rational(truth_value, f) for f in _FORMS}
        texts = sorted(texts)[: spec.surface_forms]
        for text in texts:
            answers.append(text)
            probs.append(p / len(texts))
    for mass in masses:
        value = _draw_value(rng, taken)
        answers.append(render_rational(value, _FORMS[int(rng.integers(len(_FORMS)))]))
        probs.append(float(mass))

    order = rng.permutation(len(answers))
    chains = tuple(f"c{i}" for i in range(len(answers)))
    answer_map = {chains[j]: answers[i] for j, i in enumerate(order)}
    prob_vec = np.array([probs[i] for i in order], dtype=float)
    return SyntheticTask(
        prompt=prompt,
        chains=chains,
        answers=answer_map,
        probs=prob_vec,
        truth=truth_label,
        correct_mass=p,
        distractor_masses=tuple(float(m) for m in masses),
    )


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
    """Deterministically generate train/test tasks and the base policy."""
    tasks: dict[str, SyntheticTask] = {}
    splits: dict[str, tuple[str, ...]] = {}
    for split, count in (("train", spec.n_train), ("test", spec.n_test)):
        width = max(3, len(str(count - 1)))
        prompts = []
        for i in range(count):
            prompt = f"{split}-{i:0{width}d}"
            tasks[prompt] = _make_task(prompt, spec, substream(spec.seed, "task", split, i))
            prompts.append(prompt)
        splits[split] = tuple(prompts)

    chains = {x: tasks[x].chains for x in tasks}
    answers = {x: tasks[x].answers for x in tasks}
    space = PromptSpace(chains, answers)
    base = TabularPolicy(space, {x: tasks[x].probs for x in tasks})
    truth = {x: tasks[x].truth for x in tasks}
    return Corpus(space=space, base=base, splits=splits, truth=truth, tasks=tasks, spec=spec)


def save_corpus(corpus: Corpus, tasks_path, labels_path) -> None:
    """Write task records and truth labels as separate JSON-lines files."""
    with open(tasks_path, "w", encoding="utf-8") as fh:
        for split, prompts in corpus.splits.items():
            for prompt in prompts:
                task = corpus.tasks[prompt]
                fh.write(
                    json.dumps(
                        {
                            "prompt": prompt,
                            "split": split,
                            "chains": list(task.chains),
                            "answers": task.answers,
                            "probs": [float(v) for v in task.probs],
                        }
                    )
                    + "\n"
                )
    with open(labels_path, "w", encoding="utf-8") as fh:
        for prompts in corpus.splits.values():
            for prompt in prompts:
                fh.write(json.dumps({"prompt": prompt, "truth": corpus.truth[prompt]}) + "\n")


def load_corpus(tasks_path) -> tuple[PromptSpace, TabularPolicy, dict[str, tuple[str, ...]]]:
    """Rebuild the prompt space, base policy, and splits from a tasks file.

    Labels are deliberately not here; see load_labels.
    """
    chains: dict[str, list[str]] = {}
    answers: dict[str, Mapping[str, str]] = {}
    probs: dict[str, list[float]] = {}
    split_lists: dict[str, list[str]] = {}
    with open(tasks_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            prompt = rec["prompt"]
            chains[prompt] = list(rec["chains"])
            answers[prompt] = dict(rec["answers"])
            probs[prompt] = [float(v) for v in rec["probs"]]
            split_lists.setdefault(rec.get("split", "train"), []).append(prompt)
    space = PromptSpace(chains, answers)
    base = TabularPolicy(space, probs)
    return space, base, {s: tuple(v) for s, v in split_lists.items()}


def load_labels(labels_path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with open(labels_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                labels[rec["prompt"]] = rec["truth"]
    return labels
