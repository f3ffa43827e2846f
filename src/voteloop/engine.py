"""Round loop: generate candidates, score votes, update offline, early-stop.

Each round samples k candidates per prompt from the current policy, votes,
attaches transformed-reward weights, and solves the weighted-MLE update:
exactly (closed form) for the tabular backend, by gradient ascent on logits
for the softmax backend. Generation and training are strictly separated;
rounds are sequential, prompts within a round are independent.

A round's vote is an OfflineDataset of arrays on the space's rows; its
pseudo-labels are the winning answer-class ids, which the weights of that
round and the baseline of the next read directly.

Early stopping watches train maj@k accuracy from the eval hook -- the one
place ground-truth labels are consulted; the update path sees only the
vote's pseudo-labels.

With an output directory, every round's dataset (JSON lines) and policy
checkpoint are written atomically. The dataset writer joins text pieces
cached per space and per log-weight bit pattern, with no Python step per
line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .metrics import RoundReport, best_round_of
from .optim import _realized_objective, _tilt_policy, solve_gradient
from .policy import PromptSpace, SoftmaxPolicy, TabularPolicy, save_policy
from .rewards import RewardTransform, log_transform
from .util import _atomic_write, counter_random, substream

__all__ = [
    "RunConfig",
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


def _dataset_text(space: PromptSpace) -> tuple[np.ndarray, np.ndarray]:
    """Text pieces of the dataset writer that depend only on the space, as
    object arrays built once per space: every row's
    `, "prompt": <x>, "candidate": ` head and every flat chain's
    `, "chain": <c>, "answer": <a>, "reward": ` text."""
    if space._dataset_text is None:
        heads = [f', "prompt": {_json_str(x)}, "candidate": ' for x in space.prompts]
        pairs = [
            f', "chain": {_json_str(c)}, "answer": {_json_str(a)}, "reward": ' for c, a in space._pairs
        ]
        space._dataset_text = np.array(heads, object), np.array(pairs, object)
    return space._dataset_text


def _weight_json(lw: float) -> str:
    return "null" if lw == -math.inf else json.dumps(lw)


@dataclass(eq=False)
class OfflineDataset:
    """One round's vote, laid out on the space's rows: row r is the prompt
    space.prompts[r]. round_index names the generating policy (0 for the
    base policy).

    picks holds the k sampled chains of every row as flat chain indices
    ([prompts, k], the form `PromptSpace._vote` takes), rewards and
    log_weights the 0/1 reward and transformed log-weight of each pick,
    and labels the winning answer-class id of every row.
    """

    round_index: int
    space: PromptSpace
    picks: np.ndarray
    rewards: np.ndarray
    log_weights: np.ndarray
    labels: np.ndarray

    def weighted_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """The round's samples as `optim.solve_gradient` takes them: the
        picks' flat chain indices and their log-weights."""
        return self.picks, self.log_weights

    def save(self, path) -> None:
        """One JSON object per candidate, in the bytes `json.dumps` writes
        for {round, prompt, candidate, chain, answer, reward, log_weight}
        (a -inf log-weight as null; log-weights are written as floats).

        Each line is five text pieces picked by array index: the round
        head, the row's prompt head and the candidate number, the pick's
        (chain, answer) text (both cached on the space), and a
        (reward, log-weight) tail made once per reward and log-weight bit
        pattern, so -0.0, 0.0 and NaN keep their own text. The pieces of
        64 prompts are joined per write. The file is replaced atomically
        (`util._atomic_write`): an interrupted write leaves the previous file.
        """
        heads, pairs = _dataset_text(self.space)
        rewards, reward_at = np.unique(self.rewards.ravel(), return_inverse=True)
        codes = np.ascontiguousarray(self.log_weights, dtype=np.float64).view(np.uint64)
        codes, code_at = np.unique(codes.ravel(), return_inverse=True)
        n = len(codes)
        keys, tail_at = np.unique(reward_at * n + code_at, return_inverse=True)
        rewards, weights = rewards.tolist(), codes.view(np.float64).tolist()
        tails = np.array(
            [f'{rewards[i // n]}, "log_weight": {_weight_json(weights[i % n])}}}\n' for i in keys],
            object,
        )
        tail_at = tail_at.reshape(self.picks.shape)
        block = np.empty((64, self.picks.shape[1], 5), object)
        block[..., 0] = f'{{"round": {self.round_index}'
        block[..., 2] = [*map(str, range(self.picks.shape[1]))]
        with _atomic_write(path) as fh:
            for lo in range(0, len(heads), 64):
                rows = slice(lo, lo + 64)
                part = block[: len(heads[rows])]
                part[..., 1] = heads[rows, None]
                part[..., 3] = pairs[self.picks[rows]]
                part[..., 4] = tails[tail_at[rows]]
                fh.write("".join(part.ravel().tolist()).encode("utf-8"))

    @classmethod
    def load(cls, path, space: PromptSpace) -> "OfflineDataset":
        """Inverse of save; the PromptSpace supplies the chain layout, and
        each label is the answer class of the prompt's rewarded rows.

        A file that is not a round of this space raises ValueError naming
        the path: rows with different round values, a row whose prompt or
        chain is outside the space or whose answer is not the space's answer
        for that chain, a prompt of the space with no rows, prompts with
        unequal candidate counts, a prompt whose candidate numbers are not
        0..k-1, a prompt whose rewarded rows are empty or span several
        answer classes, or a row whose reward is not 1 exactly when its
        answer is in that class.
        """
        rows: list[list[tuple[int, int, int, float]]] = [[] for _ in space.prompts]
        rounds: set[int] = set()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                rounds.add(int(rec["round"]))
                prompt, chain, answer = rec["prompt"], rec["chain"], rec["answer"]
                row = space._row.get(prompt)
                col = space._index[prompt].get(chain) if row is not None else None
                if col is None or answer != space._answers[prompt][col]:
                    problem = "is outside the prompt space" if col is None else (
                        f"answers {answer!r}, not {space._answers[prompt][col]!r}"
                    )
                    raise ValueError(f"{path}: prompt {prompt!r} chain {chain!r} {problem}")
                lw = rec["log_weight"]
                lw = -math.inf if lw is None else float(lw)
                at = space._bounds[row] + col
                rows[row].append((int(rec["candidate"]), at, int(rec["reward"]), lw))
        if len(rounds) > 1:
            raise ValueError(f"{path}: rows have several round values {sorted(rounds)}")
        sizes = [len(entries) for entries in rows]
        if 0 in sizes:
            raise ValueError(f"{path}: prompt {space.prompts[sizes.index(0)]!r} has no rows")
        if len(set(sizes)) > 1:
            raise ValueError(f"{path}: prompts have unequal candidate counts {sorted(set(sizes))}")
        table = np.array([sorted(entries) for entries in rows])
        candidates = table[..., 0].astype(int)
        bad = np.flatnonzero((candidates != np.arange(sizes[0])).any(axis=1))
        if bad.size:
            r = int(bad[0])
            raise ValueError(
                f"{path}: prompt {space.prompts[r]!r} has candidates {candidates[r].tolist()}, "
                f"not 0..{sizes[0] - 1}"
            )
        picks, rewards = table[..., 1].astype(np.intp), table[..., 2].astype(int)
        classes = space._flat_classes()[picks]
        labels = np.where(rewards == 1, classes, -1).max(axis=1)
        bad = np.flatnonzero(labels < 0)
        if bad.size:
            raise ValueError(f"{path}: prompt {space.prompts[bad[0]]!r} has no row with reward 1")
        wrong = np.argwhere(rewards != (classes == labels[:, None]))
        if wrong.size:
            r, j = wrong[0].tolist()
            problem = "rewarded rows in several classes" if rewards[r, j] == 1 else (
                f"candidate {j} with reward {rewards[r, j]}, "
                f"but its answer class gives reward {int(classes[r, j] == labels[r])}"
            )
            raise ValueError(f"{path}: prompt {space.prompts[r]!r} has {problem}")
        return cls(rounds.pop(), space, picks, rewards, table[..., 3], labels)


def _log_weigher(
    transform: RewardTransform,
    round_index: int,
    prev_labels: np.ndarray | None,
):
    """The per-chain log-weight rule of one round, as a function
    (prompt rows, class ids, 0/1 rewards) -> log-weights on arrays, where
    `rows` gives the space row of each class id (broadcastable to it).

    log_transform is evaluated once per (reward, previous reward) pair; the
    previous reward of a chain is its class's indicator against the
    previous round's label (a class id per row), read only by the
    baseline-shifted transform.
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
    return lambda rows, classes, reward: table[2 * reward + (classes == prev_labels[rows])]


def generate_round(
    policy,
    prompts: PromptSpace,
    k: int,
    seed: int,
    *,
    transform: RewardTransform = RewardTransform("identity"),
    round_index: int = 1,
    prev_labels: np.ndarray | None = None,
) -> OfflineDataset:
    """Sample k candidates per prompt, vote, and attach transform log-weights.

    `prev_labels` is the previous round's label of every row (its
    dataset's `labels`), read by the baseline-shifted transform.

    Deterministic given the seed: every prompt draws from its own
    counter-based (seed, "gen", round, prompt) stream, keyed by the space's
    prompt digests (`util.counter_random`, all prompts in one call), and
    tie-breaks hash the answer multiset. All prompts are voted at once; only
    tied votes build a (seed, "tie", round, prompt, ...) `substream`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if transform.kind == "baseline_shifted" and round_index >= 2 and prev_labels is None:
        raise ValueError("baseline_shifted needs prev_labels from round 2 on")

    weigh = _log_weigher(transform, round_index, prev_labels)
    order = prompts.prompts
    uniforms = counter_random(seed, [("gen", round_index)], prompts._prompt_digests(), k)
    draws = policy.sample_batch(order, uniforms)
    picks = prompts._offsets[:-1, None] + draws
    classes, labels = prompts._vote(
        picks, lambda r: partial(substream, seed, "tie", round_index, order[r])
    )
    reward = (classes == labels[:, None]).astype(int)
    log_w = weigh(np.arange(len(order))[:, None], classes, reward)
    return OfflineDataset(round_index - 1, prompts, picks, reward, log_w, labels)


@dataclass
class RunResult:
    reports: list[RoundReport]
    policies: list  # policy snapshot per round, index 0 = base
    best_round: int
    stopped_early: bool
    degenerate_events: list[tuple[int, str]] = field(default_factory=list)
    # Each tabular round's flat, read-only `_chain_log_weights`.
    weight_history: list[np.ndarray] = field(default_factory=list)
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
    labels: np.ndarray,
    transform: RewardTransform,
    round_index: int,
    prev_labels: np.ndarray | None,
) -> np.ndarray:
    """Exact per-chain log-weights implied by each prompt's label, the
    winning answer-class id of its row (and the previous round's labels for
    the baseline-shifted transform), flat in the space's chain offsets and
    read-only.

    The vote fixes the pseudo-label; the reward of *any* chain is then its
    answer class's indicator against that label, so the tabular update can
    weight the full distribution, not just the drawn candidates. One gather
    over the space's flat class ids gives every prompt's row.
    """
    weigh = _log_weigher(transform, round_index, prev_labels)
    classes = space._flat_classes()
    rows = np.repeat(np.arange(len(space.prompts)), np.diff(space._offsets))
    flat = weigh(rows, classes, (classes == labels[rows]).astype(int))
    flat.flags.writeable = False
    return flat


def _update_tabular(
    policy: TabularPolicy,
    log_w: np.ndarray,
) -> tuple[TabularPolicy, list[str], float]:
    """Closed-form update of every prompt at once on flat log-weights (as
    `_chain_log_weights` returns them), with degenerate freeze.

    A prompt whose weighted mass vanishes keeps its previous distribution
    (the update objective is undefined there); the prompt is reported, never
    silently dropped. Also returns the realized objective
    sum_c prev_p(c) * w(c) * log new_p(c) over the other prompts.
    """
    space = policy.space
    new, degenerate = _tilt_policy(policy, log_w)
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
    prev_labels: np.ndarray | None = None

    for m in range(1, config.rounds + 1):
        dataset = generate_round(
            policy,
            prompts,
            config.k,
            config.seed,
            transform=transform,
            round_index=m,
            prev_labels=prev_labels,
        )
        result.datasets.append(dataset)

        degenerate: list[str] = []
        solver: dict[str, float] = {}
        if config.backend == "tabular":
            log_w = _chain_log_weights(prompts, dataset.labels, transform, m, prev_labels)
            result.weight_history.append(log_w)
            policy, degenerate, objective = _update_tabular(policy, log_w)
        else:
            policy, solve_report = solve_gradient(policy, *dataset.weighted_samples())
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
        prev_labels = dataset.labels

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
