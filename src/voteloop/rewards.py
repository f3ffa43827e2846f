"""Majority-vote pseudo-labels, indicator rewards, and reward transforms.

Candidates for a prompt are grouped into answer-equivalence classes (so
"0.5" and "\\frac{1}{2}" vote together): answers with equal
`answers.answer_key` share a class, and classes are numbered by first
appearance, so grouping is one dict pass. The class with the most votes is
the pseudo-label, and each candidate earns reward 1 iff its answer belongs
to that class. Ties are broken by a seeded uniform draw over the tied
classes; the recommended stream is keyed on (round, prompt, answer
multiset) rather than candidate order, so permuting candidates can never
change the outcome.

Every vote runs through `vote_classes`, which takes one class id per
candidate: the training loop and evaluation read those ids from
`PromptSpace.answer_classes`, computed once per space, while
`majority_vote`, `score_candidates` and `tie_break_stream` derive them with
`class_ids` on the spot. Votes are counted with `np.bincount`,
and the tie stream is built only when a vote ties; its key is the same as
when every vote built one eagerly, so outcomes do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .answers import answer_key
from .util import substream

__all__ = [
    "CandidateSet",
    "RewardTransform",
    "log_transform",
    "equivalence_classes",
    "class_ids",
    "vote_classes",
    "majority_vote",
    "score_candidates",
    "tie_break_stream",
]

_KINDS = ("identity", "exponential", "baseline_shifted")


@dataclass(frozen=True)
class RewardTransform:
    """Increasing map applied to 0/1 rewards before the weighted-MLE step.

    kinds: identity (weight = reward), exponential (exp(reward / beta)),
    baseline_shifted (exp((reward - baseline) / beta), where the baseline is
    the previous round's reward and 0 in the first round).
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "identity":
            if self.beta is not None:
                raise ValueError("identity transform takes no beta")
        elif self.beta is None or not (self.beta > 0):
            raise ValueError(f"{self.kind} transform requires beta > 0")


def _baseline(prev_reward: float | None, round_index: int) -> float:
    # The baseline is the reward under the policy of the previous round;
    # no previous round exists at round 1, so the baseline starts at 0.
    if round_index < 1:
        raise ValueError("round_index starts at 1")
    if round_index >= 2:
        if prev_reward is None:
            raise ValueError(
                "baseline_shifted transform needs prev_reward from round 2 on"
            )
        return float(prev_reward)
    return 0.0


def log_transform(
    transform: RewardTransform,
    reward: float,
    prev_reward: float | None = None,
    round_index: int = 1,
) -> float:
    """log of the transformed reward; -inf encodes an exact zero weight."""
    if transform.kind == "identity":
        return math.log(reward) if reward > 0 else -math.inf
    if transform.kind == "exponential":
        return reward / transform.beta
    base = _baseline(prev_reward, round_index)
    return (reward - base) / transform.beta


def equivalence_classes(answers: Sequence[str]) -> list[list[int]]:
    """Positions of `answers` grouped by `answer_key`, in ascending order,
    the groups in order of first appearance."""
    groups: dict[tuple[int, int] | str, list[int]] = {}
    for i, a in enumerate(answers):
        groups.setdefault(answer_key(a), []).append(i)
    return list(groups.values())


def class_ids(answers: Sequence[str]) -> np.ndarray:
    """One class id per answer, numbering the classes of equivalence_classes."""
    ids: dict[tuple[int, int] | str, int] = {}
    return np.array([ids.setdefault(answer_key(a), len(ids)) for a in answers], dtype=np.intp)


def _class_keys(classes: list[int], answers: Sequence[str]) -> dict[int, str]:
    """Key of every class present: its lexicographically least answer."""
    keys: dict[int, str] = {}
    for answer, cid in zip(answers, classes):
        if cid not in keys or answer < keys[cid]:
            keys[cid] = answer
    return keys


def _tie_tags(keys: dict[int, str], counts: list[int]) -> list[str]:
    """Tie-stream tags of a vote: its sorted (class key, count) multiset."""
    return [f"{key}#{counts[cid]}" for key, cid in sorted((k, c) for c, k in keys.items())]


def vote_classes(
    classes: np.ndarray,
    answers: Sequence[str],
    tie_stream: Callable[..., np.random.Generator],
) -> tuple[int, str]:
    """(winning class id, majority answer) of one vote.

    `classes[i]` is the answer class of `answers[i]`; the majority answer is
    the winner's class key. Only a tie calls `tie_stream(*tags)`, with the
    tags of the sorted answer-class multiset, and draws uniformly over the
    tied classes sorted by key, so the winner depends on the answer multiset
    and the stream only, never on input order.
    """
    counts = np.bincount(classes).tolist()
    best = max(counts)
    winners = [cid for cid, count in enumerate(counts) if count == best]
    ids = classes.tolist()
    if len(winners) == 1:
        winner = winners[0]
        return winner, min(a for a, cid in zip(answers, ids) if cid == winner)
    keys = _class_keys(ids, answers)
    tied = sorted((keys[cid], cid) for cid in winners)
    rng = tie_stream(*_tie_tags(keys, counts))
    key, winner = tied[int(rng.integers(len(tied)))]
    return winner, key


def majority_vote(
    answers: Sequence[str],
    rng: np.random.Generator,
) -> str:
    """Representative of the most frequent answer-equivalence class.

    A tie draws uniformly (via rng) over the tied classes sorted by their
    canonical keys, so the winner depends on the answer multiset and the
    stream state only, never on input order.
    """
    if len(answers) == 0:
        raise ValueError("majority_vote needs at least one answer")
    return vote_classes(class_ids(answers), answers, lambda *tags: rng)[1]


def tie_break_stream(
    seed: int,
    round_index: int,
    prompt: str,
    answers: Sequence[str],
    scope: str = "tie",
) -> np.random.Generator:
    """Tie-break stream keyed on (round, prompt, sorted answer-class multiset).

    Keying on the class multiset instead of candidate order makes the drawn
    winner invariant under permutation of the candidates. `scope` separates
    training ties from evaluation ties under one seed. This is the stream
    vote_classes asks for on a tie.
    """
    classes = class_ids(answers)
    tags = _tie_tags(_class_keys(classes.tolist(), answers), np.bincount(classes).tolist())
    return substream(seed, scope, round_index, prompt, *tags)


@dataclass(frozen=True)
class CandidateSet:
    """k scored candidates for one prompt."""

    prompt: str
    candidates: tuple[tuple[str, str], ...]  # (chain-id, answer)
    majority: str
    rewards: tuple[int, ...]

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("CandidateSet needs at least one candidate")
        if len(self.rewards) != len(self.candidates):
            raise ValueError("rewards and candidates length mismatch")

    @property
    def k(self) -> int:
        return len(self.candidates)


def score_candidates(
    candidates: Sequence[tuple[str, str]],
    rng: np.random.Generator,
    prompt: str = "",
) -> CandidateSet:
    """Vote over the candidates' answers and attach indicator rewards."""
    if len(candidates) == 0:
        raise ValueError("score_candidates needs at least one candidate")
    answers = [answer for _, answer in candidates]
    classes = class_ids(answers)
    winner, majority = vote_classes(classes, answers, lambda *tags: rng)
    rewards = tuple(int(c == winner) for c in classes.tolist())
    return CandidateSet(
        prompt=prompt,
        candidates=tuple((chain, answer) for chain, answer in candidates),
        majority=majority,
        rewards=rewards,
    )
