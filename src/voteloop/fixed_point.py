"""KL-regularized reference solution via its self-consistency equation.

The KL-regularized optimum under policy-dependent majority rewards solves

    pi*(c|x)  proportional to  exp(reward(c; pi*) / beta) * pi0(c|x),

where reward(c; pi) = 1 iff c's answer class is the majority under pi.
kl_fixed_point iterates this tilt, recomputing rewards from the current
policy each round (the rewards are non-stationary), and reports a residual
against the equation itself rather than iteration deltas. A label is an
answer-class id per prompt, as the engine's vote returns it: population
labels are the classes of largest marginal mass; sampled labels are the
winners of a training round's vote (`generate_round`'s dataset labels).

check_fixed_point_equivalence runs the fixed-point iteration next to the
offline loop, which replays the engine's own tabular round rule
(`engine._chain_log_weights` with the baseline-shifted transform, then the
closed-form update on those flat log-weights), and measures the distance
between the two solutions; the two procedures telescope to the same update,
so converged instances must agree to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import _chain_log_weights, generate_round
from .optim import closed_form_update
from .policy import TabularPolicy
from .rewards import RewardTransform
from .util import row_sums, substream

__all__ = [
    "FixedPointConfig",
    "KLSolution",
    "FixedPointTrace",
    "EquivalenceReport",
    "population_tie_stream",
    "kl_fixed_point",
    "check_fixed_point_equivalence",
]


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
    labels: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.policies)


def population_tie_stream(seed: int, iteration: int, prompt: str) -> np.random.Generator:
    """Tie-break stream for marginal-argmax ties, keyed on (prompt, iteration)."""
    return substream(seed, "pop-tie", iteration, prompt)


def _labels_at(
    policy: TabularPolicy,
    iteration: int,
    seed: int,
    mode: str,
    k: int | None,
) -> np.ndarray:
    """Label of every prompt under the policy at one iteration: one
    answer-class id per row of the space.

    population mode: the answer class of largest marginal mass (the
    k -> infinity vote); an exact tie draws over the tied classes, sorted by
    key (least answer), from the "pop-tie" stream, built only on a tie.
    sampled mode: the winners of a training round's vote, i.e. the labels
    of generate_round at round `iteration`.
    """
    space = policy.space
    if mode != "population":
        return generate_round(policy, space, k, seed, round_index=iteration).labels
    labels = np.empty(len(space.prompts), dtype=np.intp)
    for r, prompt in enumerate(space.prompts):
        lookup = dict(zip(space.answers(prompt), space.answer_classes(prompt).tolist()))
        mass: dict[int, float] = {}
        keys: dict[int, str] = {}
        # Class masses are summed in the answers' first-appearance order.
        for answer, p in policy.answer_marginal(prompt).items():
            cid = lookup[answer]
            mass[cid] = mass.get(cid, 0.0) + p
            keys[cid] = min(keys.get(cid, answer), answer)
        best = max(mass.values())
        tied = sorted((keys[cid], cid) for cid, m in mass.items() if m == best)
        pick = 0
        if len(tied) > 1:
            pick = int(population_tie_stream(seed, iteration, prompt).integers(len(tied)))
        labels[r] = tied[pick][1]
    return labels


def _tilt_from_base(pi0: TabularPolicy, labels: np.ndarray, beta: float) -> TabularPolicy:
    """normalize(exp(1[answer class = label] / beta) * pi0) on every prompt."""
    space = pi0.space
    label_of = np.repeat(labels, np.diff(space._offsets))  # per chain
    return closed_form_update(pi0, (space._flat_classes() == label_of) / beta)


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
    labels_prev = _labels_at(pi0, 1, seed, mode, k)
    policy = pi0
    residual = float("inf")
    for m in range(1, config.max_rounds + 1):
        policy = _tilt_from_base(pi0, labels_prev, beta)
        labels_new = _labels_at(policy, m + 1, seed, mode, k)
        residual = _max_dev(policy, _tilt_from_base(pi0, labels_new, beta))
        trace.policies.append(policy)
        trace.labels.append(labels_new)
        trace.residuals.append(residual)
        if residual <= config.tolerance and np.array_equal(labels_new, labels_prev):
            trace.converged = True
            break
        labels_prev = labels_new
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


def _offline_loop(
    pi0: TabularPolicy,
    beta: float,
    config: FixedPointConfig,
    seed: int,
    mode: str,
    k: int | None,
) -> tuple[TabularPolicy, np.ndarray, bool, int]:
    """The offline side: the engine's tabular round rule under the
    baseline-shifted transform, with each round's labels from _labels_at,
    until the policy stops moving and the labels repeat.

    Returns (policy, last labels, converged, rounds run).
    """
    transform = RewardTransform("baseline_shifted", beta)
    policy = pi0
    labels_prev: np.ndarray | None = None
    for m in range(1, config.max_rounds + 1):
        labels = _labels_at(policy, m, seed, mode, k)
        log_w = _chain_log_weights(pi0.space, labels, transform, m, labels_prev)
        new_policy = closed_form_update(policy, log_w)
        delta = _max_dev(new_policy, policy)
        stable = np.array_equal(labels, labels_prev)
        policy, labels_prev = new_policy, labels
        if delta <= config.tolerance and stable:
            return policy, labels, True, m
    return policy, labels_prev, False, config.max_rounds


def check_fixed_point_equivalence(
    pi0: TabularPolicy,
    beta: float,
    config: FixedPointConfig | None = None,
    seed: int = 0,
    mode: str = "population",
    k: int | None = None,
) -> EquivalenceReport:
    """Compare kl_fixed_point against the baseline-shifted offline loop.

    Both sides run for at most config.max_rounds and see identical
    tie-break streams (keyed on prompt and iteration), so on converged
    instances the final policies must agree up to floating-point error; the
    report carries the max total-variation distance over prompts.
    """
    config = config or FixedPointConfig()
    solution, trace = kl_fixed_point(pi0, beta, config, mode, k, seed)
    policy, labels, converged, rounds = _offline_loop(pi0, beta, config, seed, mode, k)

    # Total variation of every prompt: half the row sum of |difference|.
    gap = np.abs(solution.policy._probs - policy._probs)
    per_prompt = 0.5 * row_sums(gap, pi0.space._offsets)
    return EquivalenceReport(
        distance=float(per_prompt.max()),
        labels_match=np.array_equal(trace.labels[-1], labels),
        converged_fixed_point=trace.converged,
        converged_offline=converged,
        iterations_fixed_point=trace.iterations,
        iterations_offline=rounds,
    )
