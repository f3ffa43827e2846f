"""Weighted maximum-likelihood solvers for policies.

The offline update at each round maximizes

    sum_over_samples  weight * log pi(chain | prompt)

per prompt. For tabular policies this has the closed form

    new_p(c)  proportional to  weight(c) * prev_p(c),

and iterating it for m rounds telescopes into the product form

    p_m(c)  proportional to  (prod_j weight_j(c)) * p_0(c),

which product_form_oracle evaluates directly as an independent check on
the iterated path. Both take flat per-chain log-weights, laid out by the
space's chain offsets as the engine's rounds make them. For softmax
policies the samples are a round's own arrays, flat chain indices and
log-weights, counted per chain by one bincount, and the same objective is
ascended by natural-gradient steps with a monotone (backtracking) line
search. All prompts of a round ascend together: their logits and counts
sit in one padded [prompts, chains] array, every prompt keeps its own
step size and line search, and prompts that converge or stall are masked
out while the rest continue. The row
functions on that array (objective, gradient, step, supremum) are what
weighted_mle_objective, objective_gradient and `verify gradients` use; their
temperature is one float, or a [rows, 1] column of each row's own (as
`verify gradients` runs instances of different temperatures together).

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
from typing import Sequence

import numpy as np

from .policy import SoftmaxPolicy, TabularPolicy
from .util import normalize_rows, row_sums

__all__ = [
    "DegeneratePromptError",
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
        bad = np.flatnonzero(np.isnan(w) | (w == np.inf))
        if bad.size:
            raise ValueError(f"log-weight {w.flat[bad[0]]} at entry {bad[0]} must be finite or -inf")
        return w
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        return np.log(w)


def _tilt_rows(
    prev: np.ndarray, log_w: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """normalize(exp(log_w) * prev) on every row of flat arrays laid out by
    `offsets`, in log space with a max shift, then `normalize_rows`, whose
    row sums add each row left to right, so every row's bits equal a
    one-row call.

    Returns (new, degenerate). A degenerate row has no entry with both
    positive weight and positive prior; it keeps prev.
    """
    lens = np.diff(offsets)
    with np.errstate(divide="ignore", invalid="ignore"):
        combined = log_w + np.where(prev > 0, np.log(prev), -np.inf)
        shift = np.maximum.reduceat(combined, offsets[:-1])
        out = normalize_rows(np.exp(combined - np.repeat(shift, lens)), offsets)
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


def _tilt_policy(
    prev: TabularPolicy, log_w: np.ndarray, rows: np.ndarray | None = None
) -> tuple[TabularPolicy, np.ndarray]:
    """The tabular update on flat log-weights: the prompts in the rows where
    `rows` holds (every prompt when it is None) are tilted at once, the
    others carry over. Returns the new policy and the degenerate rows, which
    keep prev. Log-weights `_flat_log_weights` rejects raise ValueError."""
    offsets = prev.space._offsets
    lw = _flat_log_weights(prev, log_w)
    new, degenerate = _tilt_rows(prev._probs, lw, offsets)
    if rows is not None:
        keep = np.repeat(~rows, np.diff(offsets))
        new[keep] = prev._probs[keep]
        degenerate &= rows
    return TabularPolicy._trusted(prev.space, new), degenerate


def _flat_log_weights(policy: TabularPolicy, log_w) -> np.ndarray:
    """`log_w` as floats, checked to hold one log-weight per chain of the
    policy's space, none NaN or +inf (ValueError otherwise)."""
    lw = _as_log(log_w, log=True)
    if lw.shape != policy._probs.shape:
        raise ValueError(
            f"log-weights have shape {lw.shape}, expected {policy._probs.shape} (one per chain)"
        )
    return lw


def closed_form_update(
    prev: TabularPolicy, log_w: np.ndarray, rows: np.ndarray | None = None
) -> TabularPolicy:
    """Exact solution of the weighted-MLE step: new_p proportional to w * prev_p.

    `log_w` holds log(w) of every chain, flat in the space's chain offsets.
    With `rows`, a boolean mask over the space's prompts, only those prompts
    are updated and the others carry over bit for bit. A prompt whose
    weighted mass vanishes raises DegeneratePromptError.
    """
    policy, degenerate = _tilt_policy(prev, log_w, rows)
    if degenerate.any():
        raise DegeneratePromptError(prev.space.prompts[int(np.argmax(degenerate))])
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
    pi0: TabularPolicy, log_weight_history: Sequence[np.ndarray]
) -> TabularPolicy:
    """Policy after all rounds, from the telescoped product of round weights.

    Adds the rounds' flat log-weights (as `closed_form_update` takes them)
    and tilts pi0 once, without iterating the per-round updates, which makes
    it an independent oracle for them.
    """
    if len(log_weight_history) == 0:
        raise ValueError("log_weight_history must be nonempty")
    total = np.zeros(len(pi0._probs))
    for log_w in log_weight_history:
        total = total + _flat_log_weights(pi0, log_w)
    return closed_form_update(pi0, total)


def _prompt_rows(
    policy: SoftmaxPolicy, chains, log_weights
) -> tuple[list[int], list[np.ndarray], list[np.ndarray]]:
    """The space rows of the prompts that have samples (flat chain indices
    and their log-weights, arrays of one shape), with each one's logits and
    per-chain weight counts. One bincount adds the weights in input order,
    as a per-sample loop does; each is math.exp of its log-weight, taken once
    per distinct bit pattern (-inf adds +0.0, which leaves the sums' bits)."""
    space, at = policy.space, np.asarray(chains)
    lw = _as_log(log_weights, log=True)
    if at.shape != lw.shape:
        raise ValueError(f"chain indices {at.shape} and log-weights {lw.shape} differ in shape")
    if at.size and at.dtype.kind not in "iu":
        raise ValueError(f"chain indices must be integers, got dtype {at.dtype}")
    at, n = at.ravel().astype(np.intp), space._bounds[-1]
    bad = np.flatnonzero((at < 0) | (at >= n)).tolist()
    if bad:
        raise ValueError(f"chain index {at[bad[0]]} at entry {bad[0]} is outside 0..{n - 1}")
    codes, inverse = np.unique(lw.ravel().view(np.uint64), return_inverse=True)
    weights = np.array([math.exp(v) for v in codes.view(np.float64).tolist()])
    counts = np.bincount(at, weights[inverse], minlength=n)
    row_of = np.searchsorted(space._offsets, at, side="right") - 1
    rows = np.flatnonzero(np.bincount(row_of, minlength=len(space.prompts))).tolist()
    spans = [slice(space._bounds[r], space._bounds[r + 1]) for r in rows]
    return rows, [policy._logits[span] for span in spans], [counts[span] for span in spans]


def weighted_mle_objective(policy: SoftmaxPolicy, chains, log_weights) -> float:
    """sum of weight * log pi(chain|prompt) over the samples (flat chain
    indices and their log-weights): the solver's objective rows, added
    left to right in prompt order (builtin `sum` compensates from Python
    3.12). Zero weights add exactly 0; a positive weight on a
    zero-probability chain gives -inf (reported, never raised)."""
    _, logits, counts = _prompt_rows(policy, chains, log_weights)
    if not logits:
        return 0.0
    rows = _objective_rows(*_pad_rows(logits, counts), policy.temperature)
    return float(np.cumsum(np.append(0.0, rows))[-1])


def objective_gradient(policy: SoftmaxPolicy, chains, log_weights) -> dict[str, np.ndarray]:
    """Gradient of weighted_mle_objective w.r.t. the logits of each prompt
    with samples: the solver's gradient rows."""
    rows, logits, counts = _prompt_rows(policy, chains, log_weights)
    if not rows:
        return {}
    grads = _gradient_rows(*_pad_rows(logits, counts), policy.temperature)
    return {policy.space.prompts[r]: grads[i, : len(logits[i])] for i, r in enumerate(rows)}


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


def _softmax_rows(z: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    q = z / temperature
    q = q - q.max(axis=1, keepdims=True)
    e = np.exp(q)
    return e / _row_sum(e)[:, None]


def _objective_rows(
    z: np.ndarray, cnt: np.ndarray, temperature: float | np.ndarray
) -> np.ndarray:
    """Per row, sum of cnt * log softmax(z), added left to right
    (`_row_sum`); -inf when a counted chain has zero probability.
    Uncounted chains, padding among them, add exact zeros."""
    with np.errstate(divide="ignore"):
        logp = np.where(cnt > 0, np.log(_softmax_rows(z, temperature)), 0.0)
    return _row_sum(cnt * logp)


def _gradient_rows(
    z: np.ndarray, cnt: np.ndarray, temperature: float | np.ndarray
) -> np.ndarray:
    """Per row, the gradient of _objective_rows w.r.t. z:
    (cnt - N * softmax(z)) / T, with N the row's total count."""
    return (cnt - _row_sum(cnt)[:, None] * _softmax_rows(z, temperature)) / temperature


def _direction_rows(
    z: np.ndarray, cnt: np.ndarray, temperature: float | np.ndarray
) -> np.ndarray:
    """Per row, the natural-gradient step T * (cnt / (N p) - 1), zero where
    p == 0; its dot with the gradient row is sum (cnt - N p)^2 / (N p). A
    row with N == 0 gets NaN, but its certificate holds from the start."""
    p = _softmax_rows(z, temperature)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, temperature * (cnt / (_row_sum(cnt)[:, None] * p) - 1.0), 0.0)


def _sup_rows(cnt: np.ndarray) -> np.ndarray:
    """Per row, the supremum of the objective: sum over cnt_c > 0 of
    cnt_c * log(cnt_c / N), added left to right."""
    total = _row_sum(cnt)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _row_sum(np.where(cnt > 0, cnt * np.log(cnt / total[:, None]), 0.0))


def _pad_rows(
    logits: Sequence[np.ndarray], counts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Rows stacked into [rows, widest] arrays, padded with -inf logits and
    zero counts, which contribute exact zeros to every row function."""
    z = np.full((len(logits), max(len(row) for row in logits)), -np.inf)
    cnt = np.zeros_like(z)
    for i, (row, c) in enumerate(zip(logits, counts)):
        z[i, : len(row)] = row
        cnt[i, : len(row)] = c
    return z, cnt


def _solve_batch(
    logits: Sequence[np.ndarray],
    counts: Sequence[np.ndarray],
    temperature: float,
    config: GradientConfig,
) -> list[tuple[np.ndarray, float, int, bool, list[float], str]]:
    """Ascend every prompt's objective at once; returns one (logits,
    grad_norm, iters, converged, objective trace, note) tuple per prompt.

    Rows are padded (`_pad_rows`). A row leaves the active set once its
    certificate holds (sup - objective <= tolerance * N, sup computed once
    per row), its line search stalls, or it runs out of iterations. Each
    row keeps its own step size along `_direction_rows`; grad_norm is the
    final gradient row's max-norm, for the record.
    """
    n = len(logits)
    if n == 0:
        return []
    z, cnt = _pad_rows(logits, counts)
    sup = _sup_rows(cnt)
    bound = config.gap_tolerance * _row_sum(cnt)
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
        direction = _direction_rows(z[live], cnt[live], temperature)
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
    grad_norm = np.max(np.abs(_gradient_rows(z, cnt, temperature)), axis=1)
    return [
        (
            z[i, : len(logits[i])].copy(),
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
    chains,
    log_weights,
    config: GradientConfig = GradientConfig(),
) -> tuple[SoftmaxPolicy, SolveReport]:
    """Maximize the weighted log-likelihood over softmax logits, for samples
    given as flat chain indices and log-weights (arrays of one shape).

    Per-prompt subproblems are independent and ascended together in one
    batch; the report aggregates the worst gradient norm and iteration
    count and counts unconverged and stalled prompts. The per-prompt
    objective trace is concatenated in prompt order and is nondecreasing
    within each prompt by construction; objective_value adds the prompts'
    final objectives in prompt order.
    """
    space = policy.space
    rows, logits, counts = _prompt_rows(policy, chains, log_weights)
    results = _solve_batch(logits, counts, policy.temperature, config)
    solved = policy
    if rows:
        new = policy._logits.copy()
        for r, (z, *_) in zip(rows, results):
            new[space._bounds[r] : space._bounds[r + 1]] = z
        solved = SoftmaxPolicy._trusted(space, new, policy.temperature)
    report = SolveReport(
        objective_value=float(np.cumsum([0.0, *(r[4][-1] for r in results)])[-1]),
        grad_norm=max((r[1] for r in results), default=0.0),
        iterations=max((r[2] for r in results), default=0),
        converged=all(r[3] for r in results),
        unconverged=sum(not r[3] for r in results),
        stalled=sum(r[5] == STALL_NOTE for r in results),
        note="; ".join(f"{space.prompts[x]}: {r[5]}" for x, r in zip(rows, results) if r[5]),
        objective_trace=[v for r in results for v in r[4]],
    )
    return solved, report
