"""Accuracy/entropy measurement and per-round metric emission.

maj@k accuracy: sample k candidates per prompt, take the majority answer
(the training vote, over the space's answer-class ids), score 1 iff its
class is the truth's class: the class of the chains whose answers are
equivalent to the truth.
k=1 is plain sampled accuracy. Evaluation draws from its own streams:
counter-based ("eval", round, repeat, prompt) draws (`util.counter_random`)
and "eval-tie" substreams for tied votes, so measuring never consumes
training randomness.

Metrics serialize to a flat CSV (round,split,metric,value) plus a JSON
summary naming the best round; floats are written with repr and re-read
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .util import counter_random, substream

__all__ = [
    "RoundReport",
    "maj_at_k",
    "make_eval_hook",
    "emit_metrics",
    "read_metrics",
    "best_round_of",
]

CSV_HEADER = "round,split,metric,value"


@dataclass
class RoundReport:
    round_index: int
    maj1_acc: dict[str, float] = field(default_factory=dict)
    majk_acc: dict[str, float] = field(default_factory=dict)
    mean_entropy: dict[str, float] = field(default_factory=dict)
    objective: float = 0.0
    degenerate_prompts: int = 0
    # Softmax-backend solver diagnostics (iterations, grad_norm, unconverged,
    # stalled); empty for the base round and the tabular backend.
    solver: dict[str, float] = field(default_factory=dict)


def _vote_hits(policy, prompts, k, truth_class, seed, eval_samples, round_index):
    """Whether the first draw and the k-vote of each (repeat, prompt) hit
    the truth class: two [eval_samples, len(prompts)] bool arrays. Each
    (round, repeat, prompt) has its own counter-based stream, keyed by the
    space's prompt digests; all are drawn in one `counter_random` call and
    voted in one batch, and only tied votes build an "eval-tie" substream.
    A stream's first draw is its k = 1 draw, and one draw never ties:
    column 0 is maj@1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eval_samples < 1:
        raise ValueError("eval_samples must be >= 1")
    space = policy.space
    n = len(prompts)
    rows = space._rows(prompts)
    uniforms = counter_random(
        seed,
        [("eval", round_index, rep) for rep in range(eval_samples)],
        space._prompt_digests()[rows],
        k,
    )
    starts = np.tile(space._offsets[rows], eval_samples)
    picks = starts[:, None] + policy.sample_batch(list(prompts) * eval_samples, uniforms)
    classes, winner = space._vote(
        picks,
        lambda r: partial(substream, seed, f"eval-tie:{r // n}", round_index, prompts[r % n]),
    )
    truth = np.tile(truth_class, eval_samples)
    shape = (eval_samples, n)
    return (classes[:, 0] == truth).reshape(shape), (winner == truth).reshape(shape)


def _accuracy(hits: np.ndarray) -> float:
    """Mean over prompts (columns) of the hit rate over repeats (rows)."""
    scores = (hits.sum(axis=0) / len(hits)).tolist()
    return float(sum(scores) / len(scores))


def maj_at_k(
    policy,
    prompts: Sequence[str],
    k: int,
    truth: Mapping[str, str],
    seed: int,
    *,
    eval_samples: int = 1,
    round_index: int = 0,
) -> float:
    """Mean over prompts of 1[majority of k samples is the true answer].

    eval_samples repeats the k-draw and averages, trading eval cost for a
    tighter estimate (see `_vote_hits` for the streams).
    """
    space = policy.space
    truth_class = np.array([space.class_of(x, truth[x]) for x in prompts], dtype=np.intp)
    _, hits = _vote_hits(policy, prompts, k, truth_class, seed, eval_samples, round_index)
    return _accuracy(hits)


def make_eval_hook(
    splits: Mapping[str, Sequence[str]],
    truth: Mapping[str, str],
    k: int,
    seed: int,
    *,
    eval_samples: int = 1,
):
    """Build the per-round measurement callback used by the training loop.

    The hook is the only place ground-truth labels enter a run; the update
    path never sees them. One draw per round over all splits gives each
    split's maj@1 and maj@k, equal to `maj_at_k` at 1 and at k draws.
    """
    order = [x for prompts in splits.values() for x in prompts]
    bounds = np.cumsum([0] + [len(prompts) for prompts in splits.values()]).tolist()
    space = truth_class = None

    def hook(round_index: int, policy, objective: float = 0.0, degenerate: int = 0) -> RoundReport:
        nonlocal space, truth_class
        report = RoundReport(
            round_index=round_index, objective=objective, degenerate_prompts=degenerate
        )
        if policy.space is not space:
            space = policy.space
            truth_class = np.array([space.class_of(x, truth[x]) for x in order], dtype=np.intp)
        hits1, hitsk = _vote_hits(policy, order, k, truth_class, seed, eval_samples, round_index)
        for (split, prompts), lo, hi in zip(splits.items(), bounds, bounds[1:]):
            report.maj1_acc[split] = _accuracy(hits1[:, lo:hi])
            report.majk_acc[split] = _accuracy(hitsk[:, lo:hi])
            report.mean_entropy[split] = policy.mean_entropy(prompts)
        return report

    return hook


def _rows(report: RoundReport) -> list[tuple[int, str, str, float]]:
    rows = []
    for split in report.maj1_acc:
        rows.append((report.round_index, split, "maj1_acc", report.maj1_acc[split]))
        rows.append((report.round_index, split, "majk_acc", report.majk_acc[split]))
        rows.append((report.round_index, split, "mean_entropy", report.mean_entropy[split]))
    rows.append((report.round_index, "run", "objective", report.objective))
    rows.append((report.round_index, "run", "degenerate_prompts", float(report.degenerate_prompts)))
    for name, value in report.solver.items():
        rows.append((report.round_index, "run", f"solver_{name}", float(value)))
    return rows


def best_round_of(reports: Sequence[RoundReport], split: str = "train") -> int:
    """Round with the highest maj@k accuracy on the split; ties go earliest."""
    if not reports:
        raise ValueError("no reports")
    best = reports[0]
    for report in reports[1:]:
        if report.majk_acc.get(split, -1.0) > best.majk_acc.get(split, -1.0):
            best = report
    return best.round_index


def emit_metrics(reports: Sequence[RoundReport], csv_path, summary_path=None) -> None:
    """Write the metrics CSV (and JSON summary) for a finished run."""
    if not reports:
        raise ValueError("no reports to emit")
    lines = [CSV_HEADER]
    for report in reports:
        for round_index, split, metric, value in _rows(report):
            if "," in split or "," in metric:
                raise ValueError("split/metric names must not contain commas")
            lines.append(f"{round_index},{split},{metric},{value!r}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    if summary_path is not None:
        best = best_round_of(reports)
        by_round = {r.round_index: r for r in reports}
        chosen = by_round[best]
        summary = {
            "best_round": best,
            "rounds": max(r.round_index for r in reports),
            "metrics": {
                split: {
                    "maj1_acc": chosen.maj1_acc[split],
                    "majk_acc": chosen.majk_acc[split],
                    "mean_entropy": chosen.mean_entropy[split],
                }
                for split in chosen.maj1_acc
            },
        }
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_metrics(csv_path) -> dict[int, dict[str, dict[str, float]]]:
    """Parse a metrics CSV back into {round: {split: {metric: value}}}."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{csv_path}: not a metrics CSV")
    out: dict[int, dict[str, dict[str, float]]] = {}
    for ln in lines[1:]:
        round_str, split, metric, value = ln.split(",", 3)
        out.setdefault(int(round_str), {}).setdefault(split, {})[metric] = float(value)
    return out
