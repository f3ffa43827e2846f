"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Criteria and tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from voteloop.cli import main as cli_main
from voteloop.engine import RunConfig, run
from voteloop.fixed_point import kl_fixed_point
from voteloop.metrics import make_eval_hook
from voteloop.optim import GradientConfig, solve_gradient
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy
from voteloop.tasks import CorpusSpec, make_corpus
from voteloop.util import substream
from voteloop.verify import (
    verify_answers,
    verify_closedform,
    verify_fixed_point_equivalence,
    verify_gradients,
    verify_votes,
)

# Fixed acceptance run: default corpus, identity / exponential transforms.
# k is large enough that sampled majorities match population majorities on
# every margin-respecting task, so the run can actually reach the corpus
# ceiling; eval uses maj@11 with 3 repeats on its own seed.
CORPUS_SEED = 0
RUN_K = 1001
EVAL_K = 11
EVAL_SAMPLES = 3
EVAL_SEED = 1234


def criterion(num: int, name: str, condition: bool, detail: str) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} :: {detail}")
    assert condition, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def corpus():
    return make_corpus(CorpusSpec(seed=CORPUS_SEED))


@pytest.fixture(scope="session")
def eval_hook(corpus):
    return make_eval_hook(
        corpus.splits, corpus.truth, k=EVAL_K, seed=EVAL_SEED, eval_samples=EVAL_SAMPLES
    )


@pytest.fixture(scope="session")
def identity_run(corpus, eval_hook):
    config = RunConfig(k=RUN_K, rounds=15, patience=5, transform="identity", seed=0)
    start = time.monotonic()
    result = run(config, corpus.space, corpus.base, eval_hook)
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def exponential_run(corpus, eval_hook):
    config = RunConfig(
        k=RUN_K, rounds=15, patience=5, transform="exponential", beta=0.1, seed=0
    )
    start = time.monotonic()
    result = run(config, corpus.space, corpus.base, eval_hook)
    return result, time.monotonic() - start


def test_criterion_01_closed_form_oracle():
    start = time.monotonic()
    suite = verify_closedform(count=50, seed=0)
    elapsed = time.monotonic() - start
    worst = max(r.detail["max_dev"] for r in suite.instances)
    criterion(
        1,
        "closed-form oracle equivalence",
        suite.passed and elapsed < 10.0,
        f"50 instances, max deviation {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_fixed_point_equivalence():
    start = time.monotonic()
    suite = verify_fixed_point_equivalence(count=50, seed=0)
    elapsed = time.monotonic() - start
    converged = [r for r in suite.instances if not r.detail.get("cycled")]
    cycled = [r for r in suite.instances if r.detail.get("cycled")]
    worst = max((r.detail["distance"] for r in converged), default=0.0)
    criterion(
        2,
        "offline loop matches KL fixed point",
        suite.passed and elapsed < 30.0 and len(cycled) <= 5,
        f"max TV {worst:.3e} (tol 1e-6) on {len(converged)} converged instances, "
        f"{len(cycled)} cycling reported (<= 10%), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_fixed_point_residual():
    worst = 0.0
    converged = 0
    for idx in range(50):
        rng = substream(777, "resid", idx)
        n = int(rng.integers(1, 7))
        chains = {f"p{i}": tuple(f"c{j}" for j in range(int(rng.integers(2, 7)))) for i in range(n)}
        answers = {p: {c: str(int(rng.integers(0, len(cs)))) for c in cs} for p, cs in chains.items()}
        space = PromptSpace(chains, answers)
        pi0 = TabularPolicy(
            space, {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts}
        )
        beta = (0.05, 0.1, 1.0)[idx % 3]
        solution, trace = kl_fixed_point(pi0, beta=beta, seed=idx)
        if trace.converged:
            converged += 1
            worst = max(worst, solution.residual)
    criterion(
        3,
        "converged solutions satisfy the defining equation",
        converged >= 40 and worst <= 1e-8,
        f"{converged}/50 converged, max recomputed-reward residual {worst:.3e} (tol 1e-8)",
    )


def test_criterion_04_gradient_correctness():
    suite = verify_gradients(count=50, seed=0)
    worst = max(r.detail["max_rel_err"] for r in suite.instances)
    criterion(
        4,
        "analytic gradient matches finite differences",
        suite.passed,
        f"50 instances, max relative error {worst:.3e} (tol 1e-5, h=1e-5)",
    )


def test_criterion_05_solver_optimality():
    worst_tv = 0.0
    monotone = True
    for idx in range(50):
        rng = substream(555, "solver", idx)
        n = int(rng.integers(2, 8))
        space = PromptSpace(
            {"p": tuple(f"c{j}" for j in range(n))},
            {"p": {f"c{j}": str(j) for j in range(n)}},
        )
        policy = SoftmaxPolicy(space, {"p": rng.normal(0, 1.0, n)})
        weights = rng.uniform(0.2, 5.0, n)
        solved, report = solve_gradient(policy, np.arange(n), np.log(weights), GradientConfig())
        tv = 0.5 * np.abs(solved.distribution("p") - weights / weights.sum()).sum()
        worst_tv = max(worst_tv, float(tv))
        trace = report.objective_trace
        monotone = monotone and all(b >= a for a, b in zip(trace, trace[1:]))
    criterion(
        5,
        "solver reaches the normalized-weights optimum",
        worst_tv <= 1e-6 and monotone,
        f"50 single-prompt instances, max TV {worst_tv:.3e} (tol 1e-6), "
        f"objective nondecreasing on all traces: {monotone}",
    )


def test_criterion_06_vote_oracle():
    suite = verify_votes(seed=0)
    checked = suite.notes[0] if suite.notes else ""
    criterion(
        6,
        "majority vote matches the counting oracle",
        suite.passed,
        f"exhaustive multisets to length 12 over 4 symbols plus full ordered sweeps, "
        f"equivalence-merged classes included; {checked}",
    )


def test_criterion_07_answer_kit():
    suite = verify_answers(count=10_000, fuzz=100_000, seed=0)
    criterion(
        7,
        "answer extraction and equivalence corpus",
        suite.passed,
        suite.notes[0] if suite.notes else "",
    )


def test_criterion_08_self_improvement(corpus, identity_run):
    result, elapsed = identity_run
    base = result.reports[0]
    best = result.reports[result.best_round]
    ceiling = corpus.ceiling("train")
    gap_to_ceiling = ceiling - best.maj1_acc["train"]
    test_gain = best.maj1_acc["test"] - base.maj1_acc["test"]
    beats_vote = best.maj1_acc["train"] >= base.majk_acc["train"]
    improved = best.maj1_acc["train"] > base.maj1_acc["train"]
    criterion(
        8,
        "self-improvement at desk scale",
        gap_to_ceiling <= 0.02
        and improved
        and test_gain >= 0.10
        and beats_vote
        and elapsed < 120.0,
        f"train maj1 {base.maj1_acc['train']:.4f} -> {best.maj1_acc['train']:.4f} "
        f"(ceiling {ceiling:.4f}, gap {gap_to_ceiling:.4f} <= 0.02); "
        f"test maj1 +{test_gain:.4f} (>= 0.10); trained maj1 >= base maj@{EVAL_K} "
        f"({best.maj1_acc['train']:.4f} >= {base.majk_acc['train']:.4f}); "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_09_entropy_collapse(identity_run, exponential_run):
    result_i, _ = identity_run
    result_e, _ = exponential_run
    entropies = [r.mean_entropy["train"] for r in result_i.reports]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
    final_i = entropies[-1]
    final_e = result_e.reports[-1].mean_entropy["train"]
    criterion(
        9,
        "entropy collapse",
        non_increasing and final_i < 0.01 and final_e >= final_i,
        f"identity-run train entropy {[round(h, 5) for h in entropies]} "
        f"non-increasing={non_increasing}, final {final_i:.2e} < 0.01 nats; "
        f"exponential-run final {final_e:.2e} >= identity final",
    )


def test_criterion_10_cli_determinism(tmp_path):
    args = [
        "run",
        "--corpus-n-train", "40",
        "--corpus-n-test", "10",
        "--k", "51",
        "--rounds", "3",
        "--eval-k", "11",
        "--seed", "13",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main([*args, "--out-dir", str(out_a)])
    code_b = cli_main([*args, "--out-dir", str(out_b)])
    identical = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    criterion(
        10,
        "identical configs give byte-identical metrics",
        code_a == 0 and code_b == 0 and identical,
        f"exit codes ({code_a}, {code_b}), metrics.csv byte-identical: {identical}",
    )
