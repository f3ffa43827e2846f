"""KL-regularized reference solution via its self-consistency equation.

The KL-regularized optimum under policy-dependent majority rewards solves

    pi*(c|x)  proportional to  exp(reward(c; pi*) / beta) * pi0(c|x),

where reward(c; pi) = 1 iff c's answer class is the majority under pi.
kl_fixed_point iterates this tilt, recomputing rewards from the current
policy each round (the rewards are non-stationary), and reports a residual
against the equation itself rather than iteration deltas.

check_fixed_point_equivalence runs the fixed-point iteration next to the
offline weighted-MLE loop equipped with the baseline-shifted exponential
transform and measures the distance between the two solutions; the two
procedures telescope to the same update, so converged instances must agree
to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .answers import equivalent
from .optim import closed_form_update
from .policy import TabularPolicy
from .rewards import class_key, equivalence_classes
from .util import row_sums, substream, substream_random

__all__ = [
    "FixedPointConfig",
    "KLSolution",
    "FixedPointTrace",
    "EquivalenceReport",
    "population_majority",
    "population_reward",
    "population_tie_stream",
    "kl_fixed_point",
    "check_fixed_point_equivalence",
]

EquivFn = Callable[[str, str], bool]


@dataclass(frozen=True)
class FixedPointConfig:
    tolerance: float = 1e-9
    max_rounds: int = 50

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class KLSolution:
    policy: TabularPolicy
    residual: float
    beta: float


@dataclass
class FixedPointTrace:
    policies: list[TabularPolicy] = field(default_factory=list)
    majorities: list[dict[str, str]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.policies)


def population_tie_stream(seed: int, iteration: int, prompt: str) -> np.random.Generator:
    """Tie-break stream for marginal-argmax ties, keyed on (prompt, iteration)."""
    return substream(seed, "pop-tie", iteration, prompt)


def population_majority(
    policy: TabularPolicy,
    prompt: str,
    equiv: EquivFn = equivalent,
    rng: np.random.Generator | None = None,
) -> tuple[str, frozenset[str]]:
    """Answer class with the largest marginal probability under the policy.

    Returns (canonical class key, member answer strings). Ties draw
    uniformly over the tied classes when rng is given, else take the
    lexicographically least key.
    """
    return _pick(_population_tied(policy, prompt, equiv), rng)


def _population_tied(
    policy: TabularPolicy, prompt: str, equiv: EquivFn
) -> list[tuple[str, frozenset[str]]]:
    """(class key, members) of the classes of largest marginal mass, by key."""
    marginal = policy.answer_marginal(prompt)
    strings = list(marginal)
    classes = equivalence_classes(strings, equiv)
    scored = sorted(
        (class_key(strings, members), frozenset(strings[i] for i in members))
        for members in classes
    )
    masses = [sum(marginal[s] for s in members) for _, members in scored]
    best = max(masses)
    return [entry for entry, mass in zip(scored, masses) if mass == best]


def _pick(tied: list, rng: np.random.Generator | None):
    if len(tied) == 1 or rng is None:
        return tied[0]
    return tied[int(rng.integers(len(tied)))]


def population_reward(
    policy: TabularPolicy,
    prompt: str,
    equiv: EquivFn = equivalent,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Per-chain indicator of membership in the argmax answer class."""
    _, members = population_majority(policy, prompt, equiv, rng)
    return {
        chain: 1 if policy.space.answer_of(prompt, chain) in members else 0
        for chain in policy.space.chains(prompt)
    }


def _rewards_at(
    policy: TabularPolicy,
    iteration: int,
    seed: int,
    mode: str,
    k: int | None,
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Rewards for every (prompt, chain) plus the majority label per prompt.

    population mode: the label is the argmax answer class of the marginal.
    sampled mode: the label is the majority class of k draws from the
    policy, voted like a training round (over the space's class ids, with
    the "tie" stream).
    """
    space = policy.space
    rewards: dict[str, np.ndarray] = {}
    labels: dict[str, str] = {}
    if mode != "population":
        order = space.prompts
        draws = policy.sample_batch(
            order, substream_random(seed, [("fp-gen", iteration, x) for x in order], k)
        )
        _, winner, majority = space._vote(
            space._offsets[:-1, None] + draws,
            lambda r: partial(substream, seed, "tie", iteration, order[r]),
        )
        for prompt, cid, best in zip(order, winner.tolist(), majority.tolist()):
            rewards[prompt] = (space.answer_classes(prompt) == cid).astype(float)
            labels[prompt] = space._pairs[best][1]
        return rewards, labels
    for prompt in space.prompts:
        # The "pop-tie" stream is built only for an exact marginal tie.
        tied = _population_tied(policy, prompt, equivalent)
        rng = population_tie_stream(seed, iteration, prompt) if len(tied) > 1 else None
        label, members = _pick(tied, rng)
        rewards[prompt] = np.array([1.0 if a in members else 0.0 for a in space.answers(prompt)])
        labels[prompt] = label
    return rewards, labels


def _tilt_from_base(
    pi0: TabularPolicy, rewards: dict[str, np.ndarray], beta: float
) -> TabularPolicy:
    log_w = {prompt: row / beta for prompt, row in rewards.items()}
    return closed_form_update(pi0, log_w, log=True)


def _max_dev(a: TabularPolicy, b: TabularPolicy) -> float:
    return float(np.max(np.abs(a._probs - b._probs)))


def kl_fixed_point(
    pi0: TabularPolicy,
    beta: float,
    config: FixedPointConfig = FixedPointConfig(),
    mode: str = "population",
    k: int | None = None,
    seed: int = 0,
) -> tuple[KLSolution, FixedPointTrace]:
    """Iterate pi_m = normalize(exp(reward(pi_{m-1})/beta) * pi0) to a fixed point.

    Rewards are recomputed from the current policy every round. Convergence
    requires both a small residual against the defining equation (with
    rewards recomputed from the candidate solution itself) and majority
    labels unchanged between the last two iterations; near-ties can cycle
    between labels, in which case the trace is returned with converged=False.
    """
    if not (beta > 0):
        raise ValueError("beta must be positive")
    if mode not in ("population", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (k is None or k < 1):
        raise ValueError("sampled mode needs k >= 1")

    trace = FixedPointTrace()
    rewards, labels_prev = _rewards_at(pi0, 1, seed, mode, k)
    policy = pi0
    residual = float("inf")
    for m in range(1, config.max_rounds + 1):
        policy = _tilt_from_base(pi0, rewards, beta)
        next_rewards, labels_new = _rewards_at(policy, m + 1, seed, mode, k)
        residual = _max_dev(policy, _tilt_from_base(pi0, next_rewards, beta))
        trace.policies.append(policy)
        trace.majorities.append(dict(labels_new))
        trace.residuals.append(residual)
        if residual <= config.tolerance and labels_new == labels_prev:
            trace.converged = True
            break
        rewards, labels_prev = next_rewards, labels_new
    return KLSolution(policy=policy, residual=residual, beta=beta), trace


@dataclass
class EquivalenceReport:
    """Outcome of running the fixed-point solver next to the offline loop."""

    distance: float
    labels_match: bool
    converged_fixed_point: bool
    converged_offline: bool
    iterations_fixed_point: int
    iterations_offline: int

    @property
    def both_converged(self) -> bool:
        return self.converged_fixed_point and self.converged_offline


def check_fixed_point_equivalence(
    pi0: TabularPolicy,
    beta: float,
    rounds: int = 50,
    config: FixedPointConfig | None = None,
    seed: int = 0,
    mode: str = "population",
    k: int | None = None,
) -> EquivalenceReport:
    """Compare kl_fixed_point against the baseline-shifted offline loop.

    Both sides see identical tie-break streams (keyed on prompt and
    iteration), so on converged instances the final policies must agree up
    to floating-point error; the report carries the max total-variation
    distance over prompts.
    """
    config = config or FixedPointConfig()
    config = FixedPointConfig(tolerance=config.tolerance, max_rounds=rounds)
    solution, trace = kl_fixed_point(pi0, beta, config, mode, k, seed)

    # Offline side: closed-form weighted-MLE updates with weights
    # exp((reward - previous_reward)/beta); previous_reward is 0 in round 1.
    policy = pi0
    prev_rewards: dict[str, np.ndarray] | None = None
    labels_prev: dict[str, str] | None = None
    converged_b = False
    iters_b = 0
    for m in range(1, rounds + 1):
        rewards, labels = _rewards_at(policy, m, seed, mode, k)
        log_w = {}
        for prompt, row in rewards.items():
            base = prev_rewards[prompt] if prev_rewards is not None else 0.0
            log_w[prompt] = (row - base) / beta
        new_policy = closed_form_update(policy, log_w, log=True)
        delta = _max_dev(new_policy, policy)
        iters_b = m
        stable = labels_prev is not None and labels == labels_prev
        policy = new_policy
        prev_rewards, labels_prev = rewards, labels
        if delta <= config.tolerance and stable:
            converged_b = True
            break

    # Total variation of every prompt: half the row sum of |difference|.
    gap = np.abs(solution.policy._probs - policy._probs)
    per_prompt = 0.5 * row_sums(gap, pi0.space._offsets)
    labels_a = trace.majorities[-1] if trace.majorities else {}
    return EquivalenceReport(
        distance=float(per_prompt.max()),
        labels_match=labels_a == (labels_prev or {}),
        converged_fixed_point=trace.converged,
        converged_offline=converged_b,
        iterations_fixed_point=trace.iterations,
        iterations_offline=iters_b,
    )
