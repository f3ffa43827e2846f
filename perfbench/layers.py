"""Per-layer metrics from a traced iteration.

`NAME.calls` is a span count and `NAME.s` is self time: the span's duration
minus the time its child spans cover (spans nest properly in one thread, so
the children's durations are summed). Where a metric is not a span, its
source is given below.

Phases follow the round steps of the loop: sample, vote, weight, update,
eval, io, and other (the part of `engine.run` no phase span covers). Every
span inside `engine.run` gets the phase of its outermost mapped ancestor
below `engine.run`, so the seven phases partition `engine.run` exactly.
Inside `engine.generate_round`, spans no map entry names (the per-candidate
log-weights and the previous-majority rewards) count as weight.
"""

from __future__ import annotations

import numpy as np

from checks import artifact_bytes, read_verify_dir, tie_votes
from voteloop.metrics import read_metrics

PHASES = ("sample", "vote", "weight", "update", "eval", "io", "other")

PHASE_OF = {
    "policy.sample": "sample",
    "util.substream": "sample",
    "rewards.score_candidates": "vote",
    "rewards.majority_vote": "vote",
    "rewards.tie_break_stream": "vote",
    "rewards.equivalence_classes": "vote",
    "rewards.class_key": "vote",
    "rewards.log_transform": "weight",
    "engine._chain_log_weights": "weight",
    "engine.weighted_samples": "weight",
    "engine._update_tabular": "update",
    "optim.solve_gradient": "update",
    "metrics.eval_hook": "eval",
    "policy.save_policy": "io",
    "engine.dataset_save": "io",
}

SUITE_FUNCTIONS = {
    "closedform": "verify.verify_closedform",
    "proposition1": "verify.verify_fixed_point_equivalence",
    "gradients": "verify.verify_gradients",
    "votes": "verify.verify_votes",
    "answers": "verify.verify_answers",
}

_OUTSIDE, _IN_RUN, _IN_GENERATE = -1, -2, -3


def span_metrics(path) -> dict[str, float]:
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    nid, parent = data["name_id"], data["parent"]
    dur = data["end"] - data["start"]
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=self_t, minlength=len(names))
    inclusive = np.bincount(nid, weights=dur, minlength=len(names))

    out: dict[str, float] = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = float(calls[i])
        out[f"{name}.s"] = float(self_s[i])
    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"verify.{suite}.s"] = float(inclusive[names.index(fn)])
    out["engine.run.s"] = float(inclusive[names.index("engine.run")])

    code = [
        PHASES.index(PHASE_OF[n]) if n in PHASE_OF
        else _IN_GENERATE if n == "engine.generate_round"
        else _IN_RUN if n == "engine.run"
        else _OUTSIDE
        for n in names
    ]
    phase = []
    for own, up in zip((code[i] for i in nid.tolist()), parent.tolist()):
        if own == _IN_RUN:
            phase.append(_IN_RUN)
            continue
        above = phase[up] if up >= 0 else _OUTSIDE
        phase.append(above if above >= 0 or above == _OUTSIDE or own == _OUTSIDE else own)
    phase = np.array(phase)
    phase[phase == _IN_RUN] = PHASES.index("other")
    phase[phase == _IN_GENERATE] = PHASES.index("weight")
    inside = phase >= 0
    per_phase = np.bincount(phase[inside], weights=self_t[inside], minlength=len(PHASES))
    for i, p in enumerate(PHASES):
        out[f"phase.{p}.s"] = float(per_phase[i])

    # Weights plus update: from each generate_round's end to the next eval hook.
    gen_end = np.sort(data["end"][nid == names.index("engine.generate_round")])
    hook_start = np.sort(data["start"][nid == names.index("metrics.eval_hook")])
    nxt = np.searchsorted(hook_start, gen_end)
    out["engine.update.s"] = float(np.sum(hook_start[nxt] - gen_end))
    return out


def layer_metrics(spans: dict[str, float], counters: dict[str, float], run_dir, workload) -> dict[str, float]:
    """Everything a traced iteration yields, keyed by per-layer metric name."""
    out = dict(spans)
    count = counters.get
    out["optim.solve_gradient.accepted_steps"] = count("optim.solve_gradient.trace_len", 0.0) - count("optim.solve_prompt.calls", 0.0)
    out["optim.solve_gradient.max_iterations"] = count("optim.solve_gradient.max_iterations", 0.0)
    out["optim.solve_gradient.unconverged"] = count("optim.solve_prompt.unconverged", 0.0)
    equiv_calls = count("answers.equivalent.calls", 0.0)
    out["answers.equivalent.repeat_frac"] = count("answers.equivalent.repeats", 0.0) / equiv_calls if equiv_calls else 0.0

    # Layers a workload never reaches read zero.
    for name in ("tasks.save_corpus.bytes", "policy.save_policy.bytes", "engine.dataset_save.bytes",
                 "metrics.emit_metrics.bytes", "rewards.tie_stream_use_ratio", "engine.degenerate_prompts",
                 "fixed_point.iterations", "fixed_point.non_converged"):
        out[name] = 0.0
    for suite in SUITE_FUNCTIONS:
        out[f"verify.{suite}.instances"] = out[f"verify.{suite}.failed"] = 0.0

    if workload.kind == "run":
        sizes = artifact_bytes(run_dir)
        out["tasks.save_corpus.bytes"] = sizes["corpus"]
        out["policy.save_policy.bytes"] = sizes["checkpoints"]
        out["engine.dataset_save.bytes"] = sizes["datasets"]
        out["metrics.emit_metrics.bytes"] = sizes["metrics"]
        ties, votes = tie_votes(run_dir)
        out["rewards.tie_stream_use_ratio"] = ties / votes
        csv = read_metrics(run_dir / "metrics.csv")
        out["engine.degenerate_prompts"] = sum(r["run"]["degenerate_prompts"] for r in csv.values())
    else:
        reports = read_verify_dir(run_dir, SUITE_FUNCTIONS)
        for suite, records in reports.items():
            out[f"verify.{suite}.instances"] = len(records)
            out[f"verify.{suite}.failed"] = sum(1 for r in records if not r["pass"])
        prop1 = [r for r in reports["proposition1"] if "iterations_fixed_point" in r]
        out["fixed_point.iterations"] = sum(r["iterations_fixed_point"] + r["iterations_offline"] for r in prop1)
        out["fixed_point.non_converged"] = sum(1 for r in prop1 if r.get("cycled"))
    return out
