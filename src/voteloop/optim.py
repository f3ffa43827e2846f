"""Weighted maximum-likelihood solvers for policies.

The offline update at each round maximizes

    sum_over_samples  weight * log pi(chain | prompt)

per prompt. For tabular policies this has the closed form

    new_p(c)  proportional to  weight(c) * prev_p(c),

and iterating it for m rounds telescopes into the product form

    p_m(c)  proportional to  (prod_j weight_j(c)) * p_0(c),

which product_form_oracle evaluates directly as an independent check on
the iterated path. For softmax policies the same objective is ascended by
natural-gradient steps with a monotone (backtracking) line search. All
prompts of a round ascend together: their logits and per-chain weights sit
in one padded [prompts, chains] array, every prompt keeps its own step size
and line search, and prompts that converge or stall are masked out while
the rest continue.

A prompt with per-chain weight counts cnt (total N) has its optimum at
softmax = cnt/N, with supremum sup = sum_{cnt_c>0} cnt_c log(cnt_c/N). The
gap sup - objective is N times the KL divergence from cnt/N to the policy,
so a prompt is converged once that gap is at most gap_tolerance * N: a
closed-form optimality certificate. The step is the Fisher-preconditioned
(natural) gradient T * (cnt/(N p) - 1), zero where p == 0: its dot with the
gradient is a chi-square sum, so it ascends, and it moves every uncounted
chain's logit down by a fixed amount per unit step, so mass on chains whose
optimum is -inf shrinks geometrically (Kakade 2001; Agarwal et al. 2021).
A prompt is "stalled" when no step size raises its objective while its gap
is still above the bound: the float floor of that prompt, not a slow rate.

All products and normalizations run in log space with the usual max-shift,
so per-round exponential weights as sharp as exp(100) compose over many
rounds without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .policy import SoftmaxPolicy, TabularPolicy
from .util import TINY_PROB, row_sums

__all__ = [
    "DegeneratePromptError",
    "WeightedSample",
    "SolveReport",
    "GradientConfig",
    "tilt_distribution",
    "closed_form_update",
    "product_form_oracle",
    "weighted_mle_objective",
    "objective_gradient",
    "solve_gradient",
]


class DegeneratePromptError(ValueError):
    """No chain has both positive weight and positive prior mass."""

    def __init__(self, prompt: str):
        super().__init__(f"prompt {prompt!r}: weighted update has zero effective mass")
        self.prompt = prompt


@dataclass(frozen=True)
class WeightedSample:
    """One drawn (prompt, chain) with the log of its transformed reward.

    log_weight = -inf encodes an exactly-zero weight (identity transform on
    reward 0); such samples contribute exactly 0 to objectives/gradients.
    """

    prompt: str
    chain: str
    log_weight: float

    def __post_init__(self):
        if math.isnan(self.log_weight) or self.log_weight == math.inf:
            raise ValueError("log_weight must be finite or -inf")


@dataclass
class SolveReport:
    objective_value: float
    grad_norm: float
    iterations: int
    converged: bool
    unconverged: int  # prompts not converged
    stalled: int  # prompts whose line search stalled at float resolution
    note: str = ""
    objective_trace: list[float] = field(default_factory=list)


def _as_log(weights: np.ndarray, log: bool) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if log:
        if np.any(np.isnan(w)) or np.any(w == np.inf):
            raise ValueError("log-weights must be finite or -inf")
        return w
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        return np.log(w)


def _tilt_rows(
    prev: np.ndarray, log_w: np.ndarray, offsets: np.ndarray, groups=None
) -> tuple[np.ndarray, np.ndarray]:
    """normalize(exp(log_w) * prev) on every row of flat arrays laid out by
    `offsets`, in log space with a max shift; entries below TINY_PROB are
    flushed to zero and their row renormalized.

    Returns (new, degenerate). A degenerate row has no entry with both
    positive weight and positive prior; it keeps prev. Row sums go through
    `row_sums` (with the rows' `length_groups`, when given), so every row's
    bits equal a one-row call.
    """
    lens = np.diff(offsets)
    with np.errstate(divide="ignore", invalid="ignore"):
        combined = log_w + np.where(prev > 0, np.log(prev), -np.inf)
        shift = np.maximum.reduceat(combined, offsets[:-1])
        out = np.exp(combined - np.repeat(shift, lens))
        out /= np.repeat(row_sums(out, offsets, groups=groups), lens)
        small = (out < TINY_PROB) & (out > 0)
        if small.any():
            flush = np.repeat(np.logical_or.reduceat(small, offsets[:-1]), lens)
            out[small] = 0.0
            out[flush] /= np.repeat(row_sums(out, offsets, groups=groups), lens)[flush]
    degenerate = shift == -np.inf
    dead = np.repeat(degenerate, lens)
    out[dead] = prev[dead]
    return out, degenerate


def tilt_distribution(prev: np.ndarray, weights: np.ndarray, *, log: bool = False) -> np.ndarray:
    """normalize(weights * prev) for one prompt, computed in log space.

    Raises DegeneratePromptError-compatible ValueError when no entry has
    both positive weight and positive prior; callers decide the policy.
    """
    prev = np.asarray(prev, dtype=float)
    lw = _as_log(weights, log)
    if lw.shape != prev.shape or prev.ndim != 1:
        raise ValueError("weights and distribution shapes differ")
    out, degenerate = _tilt_rows(prev, lw, np.array([0, len(prev)]))
    if degenerate[0]:
        raise ValueError("zero effective mass")
    return out


def _stack_weights(
    space, weights: Mapping[str, Sequence[float]], log: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Flat log-weights from a prompt -> per-chain weights mapping
    (log-weights when log=True), and the mask of the rows it covers; the
    other rows get log-weight 0."""
    lens = np.diff(space._offsets).tolist()
    fill = 0.0 if log else 1.0
    rows = [weights.get(x) for x in space.prompts]
    parts = [
        np.full(n, fill) if w is None else np.asarray(w, dtype=float) for w, n in zip(rows, lens)
    ]
    if any(part.shape != (n,) for part, n in zip(parts, lens)):
        raise ValueError("weights and distribution shapes differ")
    return _as_log(np.concatenate(parts), log), np.array([w is not None for w in rows])


def _tilt_policy(
    prev: TabularPolicy, log_w: np.ndarray, rows: np.ndarray
) -> tuple[TabularPolicy, np.ndarray]:
    """The tabular update on flat log-weights: the prompts in the rows where
    `rows` holds are tilted at once, the others carry over. Returns the new
    policy and the degenerate rows, which keep prev."""
    offsets = prev.space._offsets
    new, degenerate = _tilt_rows(prev._probs, log_w, offsets, prev.space._length_groups())
    keep = np.repeat(~rows, np.diff(offsets))
    new[keep] = prev._probs[keep]
    return TabularPolicy._trusted(prev.space, new), degenerate & rows


def _raise_degenerate(space, degenerate: np.ndarray) -> None:
    if degenerate.any():
        raise DegeneratePromptError(space.prompts[int(np.argmax(degenerate))])


def closed_form_update(
    prev: TabularPolicy,
    weights: Mapping[str, Sequence[float]],
    *,
    log: bool = False,
) -> TabularPolicy:
    """Exact solution of the weighted-MLE step: new_p proportional to w * prev_p.

    `weights` maps prompt -> per-chain nonnegative weights (log-weights when
    log=True); prompts absent from the mapping carry their distribution over
    unchanged. A prompt whose weighted mass vanishes raises
    DegeneratePromptError.
    """
    log_w, rows = _stack_weights(prev.space, weights, log)
    policy, degenerate = _tilt_policy(prev, log_w, rows)
    _raise_degenerate(prev.space, degenerate)
    return policy


def _realized_objective(
    prev: TabularPolicy, log_w: np.ndarray, new: TabularPolicy, rows: np.ndarray
) -> float:
    """sum over `rows` of sum_c prev_p(c) * w(c) * log new_p(c), over the
    chains with prev_p(c) > 0 and w(c) > 0; prompts are added left to right."""
    offsets = prev.space._offsets
    p, w = prev._probs, np.exp(log_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * w * np.log(new._probs)
    mask = (p > 0) & (w > 0) & np.repeat(rows, np.diff(offsets))
    return float(np.cumsum(np.append(0.0, row_sums(terms, offsets, mask)))[-1])


def product_form_oracle(
    pi0: TabularPolicy,
    weight_history: Sequence[Mapping[str, Sequence[float]]],
    *,
    log: bool = False,
) -> TabularPolicy:
    """Policy after all rounds, from the telescoped product of round weights.

    Computes normalize((prod_j w_j) * pi0) per prompt without iterating the
    per-round updates, which makes it an independent oracle for them.
    """
    if len(weight_history) == 0:
        raise ValueError("weight_history must be nonempty")
    space = pi0.space
    total = np.zeros(space._bounds[-1])
    touched = np.zeros(len(space.prompts), dtype=bool)
    for round_weights in weight_history:
        log_w, rows = _stack_weights(space, round_weights, log)
        total = total + log_w
        touched |= rows
    policy, degenerate = _tilt_policy(pi0, total, touched)
    _raise_degenerate(space, degenerate)
    return policy


def weighted_mle_objective(policy: SoftmaxPolicy, samples: Sequence[WeightedSample]) -> float:
    """sum of weight * log pi(chain|prompt) over samples.

    Zero-weight samples contribute exactly 0 even where log pi = -inf; a
    positive weight on a zero-probability chain makes the objective -inf
    (reported, never raised).
    """
    total = 0.0
    for s in samples:
        if s.log_weight == -math.inf:
            continue
        p = policy.prob(s.prompt, s.chain)
        if p == 0.0:
            return -math.inf
        total += math.exp(s.log_weight) * math.log(p)
    return total


def _group_counts(space, samples: Sequence[WeightedSample]) -> tuple[np.ndarray, np.ndarray]:
    """Total sample weight landing on each chain, flat in the space's chain
    offsets, and which prompts have samples.

    One bincount over flat chain indices adds each sample's math.exp weight
    in sample order, as a per-sample loop adds them (a -inf log-weight adds
    +0.0, which leaves a nonnegative sum's bits alone).
    """
    rows, index, bounds = space._row, space._index, space._bounds
    try:
        at = [bounds[rows[s.prompt]] + index[s.prompt][s.chain] for s in samples]
    except KeyError:
        for s in samples:
            space.chain_index(s.prompt, s.chain)  # raises naming the sample
        raise
    counts = np.bincount(
        np.array(at, dtype=np.intp),
        np.array([math.exp(s.log_weight) for s in samples]),
        minlength=bounds[-1],
    )
    present = np.zeros(len(space.prompts), dtype=bool)
    present[np.searchsorted(space._offsets, at, side="right") - 1] = True
    return counts, present


def objective_gradient(
    policy: SoftmaxPolicy, samples: Sequence[WeightedSample]
) -> dict[str, np.ndarray]:
    """Analytic gradient of weighted_mle_objective w.r.t. each prompt's logits.

    Per prompt: (counts - total_weight * softmax(logits/T)) / T, where
    counts[c] is the summed weight of samples hitting chain c.
    """
    space = policy.space
    counts, present = _group_counts(space, samples)
    grads: dict[str, np.ndarray] = {}
    for r in np.flatnonzero(present).tolist():
        cnt = counts[space._bounds[r] : space._bounds[r + 1]]
        p = policy.distribution(space.prompts[r])
        grads[space.prompts[r]] = (cnt - cnt.sum() * p) / policy.temperature
    return grads


@dataclass(frozen=True)
class GradientConfig:
    learning_rate: float = 0.1
    max_iters: int = 10_000
    # A prompt is converged once sup - objective <= gap_tolerance * N.
    gap_tolerance: float = 1e-13

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.gap_tolerance >= 0):
            raise ValueError("gap_tolerance must be nonnegative")


STALL_NOTE = "line search stalled at float resolution"


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum along the chain axis strictly left to right, so zero padding on
    the right cannot change the bits (np.sum goes pairwise from 8 terms)."""
    return np.add.accumulate(a, axis=1)[:, -1]


def _softmax_rows(z: np.ndarray, temperature: float) -> np.ndarray:
    q = z / temperature
    q = q - q.max(axis=1, keepdims=True)
    e = np.exp(q)
    return e / _row_sum(e)[:, None]


def _objective_rows(z: np.ndarray, cnt: np.ndarray, temperature: float) -> np.ndarray:
    """Per row, sum of cnt * log softmax(z); -inf when a counted chain has
    zero probability. Uncounted chains and padding add exact-zero terms to
    the per-row dot that np.matmul runs on a stack of vector pairs; BLAS
    (OpenBLAS ddot) adds the terms of a dot under 16 long in order, so the
    zeros leave a row's bits unchanged."""
    with np.errstate(divide="ignore"):
        logp = np.where(cnt > 0, np.log(_softmax_rows(z, temperature)), 0.0)
    return np.matmul(cnt[:, None, :], logp[:, :, None])[:, 0, 0]


def _solve_batch(
    logits: Sequence[np.ndarray],
    counts: Sequence[np.ndarray],
    temperature: float,
    config: GradientConfig,
) -> list[tuple[np.ndarray, float, int, bool, list[float], str]]:
    """Ascend every prompt's objective at once; returns one (logits,
    grad_norm, iters, converged, objective trace, note) tuple per prompt.

    Rows are padded to the widest prompt with -inf logits and zero counts,
    which contribute exact zeros to every row reduction. A row leaves the
    active set once its certificate holds (sup - objective <= tolerance *
    N, sup computed once per row), its line search stalls, or it runs out
    of iterations. Each row keeps its own step size along the natural
    gradient; grad_norm is the final gradient max-norm, for the record.
    """
    n = len(logits)
    if n == 0:
        return []
    widths = [len(row) for row in logits]
    z = np.full((n, max(widths)), -np.inf)
    cnt = np.zeros_like(z)
    for i, (row, c) in enumerate(zip(logits, counts)):
        z[i, : widths[i]] = row
        cnt[i, : widths[i]] = c
    total = _row_sum(cnt)
    with np.errstate(divide="ignore", invalid="ignore"):
        sup = _row_sum(np.where(cnt > 0, cnt * np.log(cnt / total[:, None]), 0.0))
    bound = config.gap_tolerance * total
    obj = _objective_rows(z, cnt, temperature)
    traces = [[v] for v in obj.tolist()]
    iterations = np.zeros(n, dtype=int)
    notes = [""] * n

    # Step sizes act on a direction normalized by the total weight, so the
    # scale is independent of it; backtracking keeps each objective
    # nondecreasing, doubling on clean successes.
    step = np.full(n, float(config.learning_rate))
    live = np.arange(n)
    for _ in range(config.max_iters):
        live = live[~(sup[live] - obj[live] <= bound[live])]
        if live.size == 0:
            break
        p = _softmax_rows(z[live], temperature)
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(
                p > 0, temperature * (cnt[live] / (total[live, None] * p) - 1.0), 0.0
            )
        finite = np.all(np.isfinite(direction), axis=1)
        for i in live[~finite]:
            notes[i] = "non-finite step direction"
        rows = live[finite]
        direction = direction[finite]
        accepted = np.zeros(rows.size, dtype=bool)
        trying = np.arange(rows.size)
        for _ in range(80):
            if trying.size == 0:
                break
            r = rows[trying]
            cand = z[r] + step[r, None] * direction[trying]
            cand_obj = _objective_rows(cand, cnt[r], temperature)
            up = cand_obj > obj[r]
            won = r[up]
            z[won], obj[won] = cand[up], cand_obj[up]
            for i, v in zip(won.tolist(), obj[won].tolist()):
                traces[i].append(v)
            step[won] = np.minimum(step[won] * 2.0, 1e6)
            step[r[~up]] *= 0.5
            accepted[trying[up]] = True
            trying = trying[~up]
        iterations[rows] += 1
        for i in rows[~accepted]:
            notes[i] = STALL_NOTE
        live = rows[accepted]
    converged = sup - obj <= bound
    p = _softmax_rows(z, temperature)
    grad_norm = np.max(np.abs(cnt - total[:, None] * p), axis=1) / temperature
    return [
        (
            z[i, : widths[i]].copy(),
            float(grad_norm[i]),
            int(iterations[i]),
            bool(converged[i]),
            traces[i],
            notes[i],
        )
        for i in range(n)
    ]


def _solve_prompt(
    logits: np.ndarray,
    cnt: np.ndarray,
    temperature: float,
    config: GradientConfig,
) -> tuple[np.ndarray, float, int, bool, list[float], str]:
    """Ascend one prompt's objective; returns (logits, grad_norm, iters,
    converged, objective trace, note). A one-row call into _solve_batch."""
    return _solve_batch([logits], [cnt], temperature, config)[0]


def solve_gradient(
    policy: SoftmaxPolicy,
    samples: Sequence[WeightedSample],
    config: GradientConfig = GradientConfig(),
) -> tuple[SoftmaxPolicy, SolveReport]:
    """Maximize the weighted log-likelihood over softmax logits.

    Per-prompt subproblems are independent and ascended together in one
    batch; the report aggregates the worst gradient norm and iteration
    count and counts unconverged and stalled prompts. The per-prompt
    objective trace is concatenated in prompt order and is nondecreasing
    within each prompt by construction; objective_value adds the prompts'
    final objectives in prompt order.
    """
    space = policy.space
    counts, present = _group_counts(space, samples)
    rows = np.flatnonzero(present).tolist()
    spans = [slice(space._bounds[r], space._bounds[r + 1]) for r in rows]
    results = _solve_batch(
        [policy._logits[at] for at in spans],
        [counts[at] for at in spans],
        policy.temperature,
        config,
    )
    solved = policy
    if spans:
        logits = policy._logits.copy()
        for at, (z, *_) in zip(spans, results):
            logits[at] = z
        solved = SoftmaxPolicy._trusted(space, logits, policy.temperature)
    prompts = [space.prompts[r] for r in rows]
    report = SolveReport(
        objective_value=float(sum(r[4][-1] for r in results)),
        grad_norm=max((r[1] for r in results), default=0.0),
        iterations=max((r[2] for r in results), default=0),
        converged=all(r[3] for r in results),
        unconverged=sum(not r[3] for r in results),
        stalled=sum(r[5] == STALL_NOTE for r in results),
        note="; ".join(f"{x}: {r[5]}" for x, r in zip(prompts, results) if r[5]),
        objective_trace=[v for r in results for v in r[4]],
    )
    return solved, report
