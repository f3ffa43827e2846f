"""Round loop: generate candidates, score votes, update offline, early-stop.

Each round samples k candidates per prompt from the current policy, votes,
attaches transformed-reward weights, and solves the weighted-MLE update:
exactly (closed form) for the tabular backend, by gradient ascent on logits
for the softmax backend. Generation and training are strictly separated;
rounds are sequential, prompts within a round are independent.

Early stopping watches train maj@k accuracy from the eval hook -- the one
place ground-truth labels are consulted; the update path itself is fully
label-free.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .metrics import RoundReport, best_round_of
from .optim import (
    WeightedSample,
    _realized_objective,
    _stack_weights,
    _tilt_policy,
    solve_gradient,
)
from .policy import PromptSpace, SoftmaxPolicy, TabularPolicy, save_policy
from .rewards import RewardTransform, log_transform
from .util import substream, substream_random

__all__ = [
    "RunConfig",
    "PromptRecord",
    "OfflineDataset",
    "RunResult",
    "generate_round",
    "run",
]

LABEL_NOTE = (
    "early stopping and best-round selection read train accuracy from the "
    "eval hook (which holds the labels); the generation/update path is "
    "label-free"
)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one training run; defaults give the standard recipe."""

    k: int = 10
    rounds: int = 15
    patience: int = 5
    transform: str = "identity"
    beta: float = 0.1
    seed: int = 0
    backend: str = "tabular"
    warm_start: bool = True
    eval_k: int | None = None
    eval_samples: int = 1

    def __post_init__(self):
        if self.k < 1 or self.rounds < 1 or self.patience < 1:
            raise ValueError("k, rounds, and patience must all be >= 1")
        if self.backend not in ("tabular", "softmax"):
            raise ValueError(f"unknown backend {self.backend!r}")
        self.reward_transform()  # validates transform and beta
        if self.eval_k is not None and self.eval_k < 1:
            raise ValueError("eval_k must be >= 1 when set")
        if self.eval_samples < 1:
            raise ValueError("eval_samples must be >= 1")

    def reward_transform(self) -> RewardTransform:
        if self.transform == "identity":
            return RewardTransform("identity")
        return RewardTransform(self.transform, self.beta)


@dataclass(frozen=True)
class PromptRecord:
    candidates: tuple[tuple[str, str], ...]  # (chain-id, answer)
    rewards: tuple[int, ...]
    log_weights: tuple[float, ...]
    majority: str


@lru_cache(maxsize=1 << 16)
def _pair_text(pair: tuple[str, str]) -> str:
    chain_id, answer = pair
    return f', "chain": {_json_str(chain_id)}, "answer": {_json_str(answer)}, "reward": '


@dataclass
class OfflineDataset:
    """One round's generation output. round_index names the generating
    policy (0 for the base policy)."""

    round_index: int
    records: dict[str, PromptRecord]

    def weighted_samples(self, prompt_order) -> list[WeightedSample]:
        samples = []
        for prompt in prompt_order:
            rec = self.records[prompt]
            for (chain, _), lw in zip(rec.candidates, rec.log_weights):
                samples.append(WeightedSample(prompt, chain, lw))
        return samples

    def save(self, path) -> None:
        """One JSON object per candidate, in the bytes `json.dumps` writes
        for {round, prompt, candidate, chain, answer, reward, log_weight}
        (a -inf log-weight as null; log-weights are written as floats).
        Rows are joined from text pieces, 64 prompts per write;
        a log-weight's text is made once per float bit pattern."""
        items = list(self.records.items())
        head = f'{{"round": {self.round_index}, "prompt": '
        weight_text: dict[int, str] = {}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for lo in range(0, len(items), 64):
                prompts, chunk = zip(*items[lo : lo + 64])
                sizes = [len(rec.candidates) for rec in chunk]
                heads = np.array([f'{head}{_json_str(x)}, "candidate": ' for x in prompts], object)
                index = np.arange(sum(sizes)) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
                numbers = np.array([*map(str, range(max(sizes)))], object)
                rows = np.repeat(heads, sizes) + numbers[index]
                pairs = map(_pair_text, chain.from_iterable(rec.candidates for rec in chunk))
                rewards = map(str, chain.from_iterable(rec.rewards for rec in chunk))
                weights = chain.from_iterable(rec.log_weights for rec in chunk)
                codes = np.fromiter(weights, float, len(index)).view(np.uint64).tolist()
                for code in set(codes).difference(weight_text):
                    lw = float(np.array(code, dtype=np.uint64).view(float))
                    text = "null" if lw == -math.inf else json.dumps(lw)
                    weight_text[code] = f', "log_weight": {text}}}\n'
                tails = map(weight_text.get, codes)
                fh.write("".join(map("".join, zip(rows, pairs, rewards, tails))))

    @classmethod
    def load(cls, path) -> "OfflineDataset":
        rows: dict[str, list[tuple[int, str, str, int, float]]] = {}
        round_index = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                round_index = int(rec["round"])
                lw = rec["log_weight"]
                rows.setdefault(rec["prompt"], []).append(
                    (
                        int(rec["candidate"]),
                        rec["chain"],
                        rec["answer"],
                        int(rec["reward"]),
                        -math.inf if lw is None else float(lw),
                    )
                )
        records = {}
        for prompt, entries in rows.items():
            entries.sort()
            candidates = tuple((chain, answer) for _, chain, answer, _, _ in entries)
            rewards = tuple(r for *_, r, _ in entries)
            # The rewarded answers are the winning class as sampled; its
            # least member is the majority the vote returned.
            rewarded = [answer for _, _, answer, r, _ in entries if r == 1]
            if not rewarded:
                raise ValueError(f"{path}: prompt {prompt!r} has no row with reward 1")
            majority = min(rewarded)
            records[prompt] = PromptRecord(
                candidates=candidates,
                rewards=rewards,
                log_weights=tuple(lw for *_, lw in entries),
                majority=majority,
            )
        return cls(round_index=round_index, records=records)


def _log_weigher(
    space: PromptSpace,
    transform: RewardTransform,
    round_index: int,
    prev_majority: dict[str, str] | None,
):
    """The per-chain log-weight rule of one round, as a function
    (prompt rows, class ids, 0/1 rewards) -> log-weights on arrays, where
    `rows` gives the space row of each class id (broadcastable to it).

    log_transform is evaluated once per (reward, previous reward) pair; the
    previous reward of a chain is its class's indicator against the
    previous round's majority, read only by the baseline-shifted transform.
    """
    shifted = transform.kind == "baseline_shifted" and round_index >= 2
    table = np.array(
        [
            log_transform(transform, reward, prev if shifted else None, round_index)
            for reward in (0, 1)
            for prev in (0, 1)
        ]
    )
    if not shifted:
        return lambda rows, classes, reward: table[2 * reward]
    prev_class = np.array([space.class_of(x, prev_majority[x]) for x in space.prompts])
    return lambda rows, classes, reward: table[2 * reward + (classes == prev_class[rows])]


def generate_round(
    policy,
    prompts: PromptSpace,
    k: int,
    seed: int,
    *,
    transform: RewardTransform = RewardTransform("identity"),
    round_index: int = 1,
    prev_majority: dict[str, str] | None = None,
) -> OfflineDataset:
    """Sample k candidates per prompt, vote, and attach transform log-weights.

    Deterministic given the seed: every prompt draws from its own
    (seed, "gen", round, prompt) substream (all prompts in one batch), and
    tie-breaks hash the answer multiset. All prompts are voted at once; only
    tied votes build a (seed, "tie", round, prompt, ...) stream.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if transform.kind == "baseline_shifted" and round_index >= 2 and prev_majority is None:
        raise ValueError("baseline_shifted needs prev_majority from round 2 on")

    weigh = _log_weigher(prompts, transform, round_index, prev_majority)
    order = prompts.prompts
    draws = policy.sample_batch(
        order, substream_random(seed, [("gen", round_index, x) for x in order], k)
    )
    picks = prompts._offsets[:-1, None] + draws
    classes, winner, majority = prompts._vote(
        picks, lambda r: partial(substream, seed, "tie", round_index, order[r])
    )
    reward = (classes == winner[:, None]).astype(int)
    log_w = weigh(np.arange(len(order))[:, None], classes, reward)
    pairs = prompts._pairs
    records = {
        prompt: PromptRecord(
            candidates=tuple(map(pairs.__getitem__, row)),
            rewards=tuple(rewards),
            log_weights=tuple(lws),
            majority=pairs[best][1],
        )
        for prompt, row, rewards, lws, best in zip(
            order, picks.tolist(), reward.tolist(), log_w.tolist(), majority.tolist()
        )
    }
    return OfflineDataset(round_index=round_index - 1, records=records)


@dataclass
class RunResult:
    reports: list[RoundReport]
    policies: list  # policy snapshot per round, index 0 = base
    best_round: int
    stopped_early: bool
    degenerate_events: list[tuple[int, str]] = field(default_factory=list)
    weight_history: list[dict[str, np.ndarray]] = field(default_factory=list)
    datasets: list[OfflineDataset] = field(default_factory=list)
    note: str = LABEL_NOTE

    @property
    def best_policy(self):
        return self.policies[self.best_round]

    @property
    def final_policy(self):
        return self.policies[-1]


def _chain_log_weights(
    space: PromptSpace,
    majority: dict[str, str],
    transform: RewardTransform,
    round_index: int,
    prev_majority: dict[str, str] | None,
) -> dict[str, np.ndarray]:
    """Exact per-chain log-weights implied by each prompt's majority label.

    The vote fixes the pseudo-label; the reward of *any* chain is then its
    answer class's indicator against that label, so the tabular update can
    weight the full distribution, not just the drawn candidates. One gather
    over the space's flat class ids gives every prompt's row (read-only
    views of one flat array).
    """
    weigh = _log_weigher(space, transform, round_index, prev_majority)
    classes = space._vote_tables()[0]
    rows = np.repeat(np.arange(len(space.prompts)), np.diff(space._offsets))
    winner = np.array([space.class_of(x, majority[x]) for x in space.prompts])
    flat = weigh(rows, classes, (classes == winner[rows]).astype(int))
    flat.flags.writeable = False
    bounds = space._bounds
    return {x: flat[a:b] for x, a, b in zip(space.prompts, bounds, bounds[1:])}


def _update_tabular(
    policy: TabularPolicy,
    log_weights: dict[str, np.ndarray],
) -> tuple[TabularPolicy, list[str], float]:
    """Closed-form update of every prompt at once, with degenerate freeze.

    A prompt whose weighted mass vanishes keeps its previous distribution
    (the update objective is undefined there); the prompt is reported, never
    silently dropped. Also returns the realized objective
    sum_c prev_p(c) * w(c) * log new_p(c) over the other prompts.
    """
    space = policy.space
    log_w, rows = _stack_weights(space, log_weights, log=True)
    if not rows.all():
        raise KeyError(f"no log-weights for prompt {space.prompts[int(np.argmin(rows))]!r}")
    new, degenerate = _tilt_policy(policy, log_w, rows)
    objective = _realized_objective(policy, log_w, new, ~degenerate)
    return new, [space.prompts[r] for r in np.flatnonzero(degenerate).tolist()], objective


def run(
    config: RunConfig,
    prompts: PromptSpace,
    pi0,
    eval_hook,
    *,
    out_dir=None,
) -> RunResult:
    """Execute the full loop and return per-round reports plus checkpoints.

    Stops at config.rounds, or earlier once train maj@k accuracy has not
    strictly improved for config.patience consecutive rounds (counted from
    the first trained round). The best round maximizes train maj@k accuracy
    over all snapshots including the base policy; ties go to the earliest.
    """
    transform = config.reward_transform()
    if config.backend == "softmax" and not isinstance(pi0, SoftmaxPolicy):
        raise TypeError("softmax backend needs a SoftmaxPolicy start point")
    if config.backend == "tabular" and not isinstance(pi0, TabularPolicy):
        raise TypeError("tabular backend needs a TabularPolicy start point")

    checkpoints_dir = datasets_dir = None
    if out_dir is not None:
        checkpoints_dir = os.path.join(out_dir, "checkpoints")
        datasets_dir = os.path.join(out_dir, "datasets")
        os.makedirs(checkpoints_dir, exist_ok=True)
        os.makedirs(datasets_dir, exist_ok=True)

    def checkpoint(round_index: int, policy, dataset: OfflineDataset | None) -> None:
        if checkpoints_dir is not None:
            save_policy(policy, os.path.join(checkpoints_dir, f"round_{round_index:03d}.policy"))
        if datasets_dir is not None and dataset is not None:
            dataset.save(os.path.join(datasets_dir, f"round_{round_index:03d}.jsonl"))

    policy = pi0
    result = RunResult(reports=[], policies=[pi0], best_round=0, stopped_early=False)
    result.reports.append(eval_hook(0, pi0))
    checkpoint(0, pi0, None)

    best_trained_acc = -1.0
    stagnation = 0
    prev_majority: dict[str, str] | None = None

    for m in range(1, config.rounds + 1):
        dataset = generate_round(
            policy,
            prompts,
            config.k,
            config.seed,
            transform=transform,
            round_index=m,
            prev_majority=prev_majority,
        )
        result.datasets.append(dataset)
        majority = {x: rec.majority for x, rec in dataset.records.items()}

        degenerate: list[str] = []
        solver: dict[str, float] = {}
        if config.backend == "tabular":
            log_w = _chain_log_weights(prompts, majority, transform, m, prev_majority)
            result.weight_history.append(log_w)
            policy, degenerate, objective = _update_tabular(policy, log_w)
        else:
            samples = dataset.weighted_samples(prompts.prompts)
            start = policy if config.warm_start else pi0
            policy, solve_report = solve_gradient(start, samples)
            objective = solve_report.objective_value
            solver = {
                "iterations": solve_report.iterations,
                "grad_norm": solve_report.grad_norm,
                "unconverged": solve_report.unconverged,
                "stalled": solve_report.stalled,
            }

        for prompt in degenerate:
            result.degenerate_events.append((m, prompt))

        result.policies.append(policy)
        report = eval_hook(m, policy, objective, len(degenerate))
        report.solver = solver
        result.reports.append(report)
        checkpoint(m, policy, dataset)
        prev_majority = majority

        train_acc = report.majk_acc.get("train", 0.0)
        if train_acc > best_trained_acc:
            best_trained_acc = train_acc
            stagnation = 0
        else:
            stagnation += 1
        if stagnation >= config.patience:
            result.stopped_early = True
            break

    result.best_round = best_round_of(result.reports)
    return result
