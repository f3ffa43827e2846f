"""maj@k measurement and metrics file round trips."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats

import voteloop.metrics as metrics
from voteloop.metrics import (
    RoundReport,
    best_round_of,
    emit_metrics,
    maj_at_k,
    make_eval_hook,
    read_metrics,
)
from voteloop.policy import PromptSpace, TabularPolicy


def two_class_space(n_prompts):
    chains = {f"p{i}": ("good", "bad") for i in range(n_prompts)}
    answers = {f"p{i}": {"good": "1", "bad": "2"} for i in range(n_prompts)}
    return PromptSpace(chains, answers)


def truth_for(space):
    return {x: "1" for x in space.prompts}


class TestMajAtK:
    def test_always_correct_policy(self):
        space = two_class_space(5)
        policy = TabularPolicy(space, {x: (1.0, 0.0) for x in space.prompts})
        for k in (1, 2, 7):
            assert maj_at_k(policy, space.prompts, k, truth_for(space), seed=0) == 1.0

    def test_always_wrong_policy(self):
        space = two_class_space(5)
        policy = TabularPolicy(space, {x: (0.0, 1.0) for x in space.prompts})
        assert maj_at_k(policy, space.prompts, 9, truth_for(space), seed=0) == 0.0

    def test_matches_exact_binomial_majority_probability(self):
        # 200 prompts at marginal 0.6, k=101: the exact majority probability
        # is sum_{j>=51} C(101,j) 0.6^j 0.4^(101-j); the measurement must sit
        # within 3 sigma of it.
        space = two_class_space(200)
        policy = TabularPolicy(space, {x: (0.6, 0.4) for x in space.prompts})
        expected = float(stats.binom.sf(50, 101, 0.6))
        assert expected == pytest.approx(0.9791033089952997, abs=1e-10)
        got = maj_at_k(policy, space.prompts, 101, truth_for(space), seed=3)
        sigma = (expected * (1 - expected) / 200) ** 0.5
        assert abs(got - expected) <= 3 * sigma

    def test_k1_is_plain_sampled_accuracy(self):
        space = two_class_space(50)
        rng = np.random.default_rng(5)
        policy = TabularPolicy(
            space, {x: (p := rng.uniform(0.2, 0.8), 1 - p) for x in space.prompts}
        )
        got = maj_at_k(policy, space.prompts, 1, truth_for(space), seed=11, eval_samples=200)
        expected = np.mean([policy.prob(x, "good") for x in space.prompts])
        sigma = 0.5 / np.sqrt(50 * 200)
        assert abs(got - expected) <= 4 * sigma

    def test_monotone_in_correct_answer_marginal(self):
        # Shifting mass toward the true class on every prompt cannot reduce
        # accuracy (3 sigma allowance at 1e4 draws per policy).
        rng = np.random.default_rng(7)
        space = two_class_space(100)
        base = {x: float(rng.uniform(0.3, 0.7)) for x in space.prompts}
        low = TabularPolicy(space, {x: (q, 1 - q) for x, q in base.items()})
        high = TabularPolicy(space, {x: (min(q + 0.15, 0.99), 1 - min(q + 0.15, 0.99)) for x, q in base.items()})
        for k in (1, 11):
            a = maj_at_k(low, space.prompts, k, truth_for(space), seed=1, eval_samples=100)
            b = maj_at_k(high, space.prompts, k, truth_for(space), seed=2, eval_samples=100)
            assert b >= a - 3 * 0.005

    def test_eval_draws_do_not_consume_training_streams(self):
        space = two_class_space(3)
        policy = TabularPolicy(space, {x: (0.5, 0.5) for x in space.prompts})
        first = maj_at_k(policy, space.prompts, 5, truth_for(space), seed=0, round_index=2)
        again = maj_at_k(policy, space.prompts, 5, truth_for(space), seed=0, round_index=2)
        other_round = maj_at_k(policy, space.prompts, 5, truth_for(space), seed=0, round_index=3)
        assert first == again
        assert first != other_round or True  # different rounds may coincide in value

    def test_truth_matches_by_equivalence(self):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "0.5", "c1": "3"}})
        policy = TabularPolicy(space, {"p": (1.0, 0.0)})
        assert maj_at_k(policy, ["p"], 3, {"p": "\\frac{1}{2}"}, seed=0) == 1.0
        assert maj_at_k(policy, ["p"], 3, {"p": "3"}, seed=0) == 0.0
        assert maj_at_k(policy, ["p"], 3, {"p": "7"}, seed=0) == 0.0

    def test_tie_streams_only_for_tied_votes(self, monkeypatch):
        scopes, batches = [], []
        real, real_batch = metrics.substream, metrics.counter_random
        monkeypatch.setattr(
            metrics, "substream", lambda seed, scope, *tags: scopes.append(scope) or real(seed, scope, *tags)
        )
        monkeypatch.setattr(
            metrics,
            "counter_random",
            lambda seed, prefixes, digests, count: batches.append(
                [tags for tags in prefixes for _ in digests]
            ) or real_batch(seed, prefixes, digests, count),
        )
        space = two_class_space(30)
        sure = TabularPolicy(space, {x: (1.0, 0.0) for x in space.prompts})
        maj_at_k(sure, space.prompts, 4, truth_for(space), seed=0, eval_samples=2)
        assert scopes == []
        assert len(batches) == 1 and [tags[0] for tags in batches[0]] == ["eval"] * 60
        scopes.clear()
        batches.clear()
        maj_at_k(TabularPolicy.uniform(space), space.prompts, 4, truth_for(space), seed=0, eval_samples=2)
        ties = sum(scope.startswith("eval-tie:") for scope in scopes)
        assert len(batches) == 1 and [tags[0] for tags in batches[0]] == ["eval"] * 60
        assert ties == len(scopes) and 0 < ties < 60

    def test_validation(self):
        space = two_class_space(1)
        policy = TabularPolicy.uniform(space)
        with pytest.raises(ValueError):
            maj_at_k(policy, space.prompts, 0, truth_for(space), seed=0)
        with pytest.raises(ValueError):
            maj_at_k(policy, space.prompts, 1, truth_for(space), seed=0, eval_samples=0)


def exact_win_probability(class_probs, truth_class, k):
    """P(truth_class wins a vote over k i.i.d. draws from class_probs),
    summed over every class-count vector; a tie among t classes at the top
    count goes to each of them with probability 1/t."""
    total = 0.0
    for counts in itertools.product(range(k + 1), repeat=len(class_probs)):
        if sum(counts) != k:
            continue
        prob = float(math.factorial(k))
        for n, p in zip(counts, class_probs):
            prob *= p**n / math.factorial(n)
        top = max(counts)
        if counts[truth_class] == top:
            total += prob / counts.count(top)
    return total


class TestMajAtKExactOracle:
    # Hoeffding: the mean of N independent hits in [0, 1] lies within
    # sqrt(ln(2 / DELTA) / (2 N)) of its expectation with probability at
    # least 1 - DELTA.
    DELTA = 1e-6

    def test_exact_oracle_on_hand_cases(self):
        assert exact_win_probability([0.5, 0.5], 0, 2) == 0.5  # 0.25 + 0.5 / 2
        assert exact_win_probability([0.2, 0.3, 0.5], 1, 1) == pytest.approx(0.3, abs=1e-15)
        assert exact_win_probability([0.6, 0.4], 0, 9) == pytest.approx(
            float(stats.binom.sf(4, 9, 0.6)), abs=1e-12
        )

    def test_sampled_maj_at_k_is_within_hoeffding_of_exact(self):
        # Up to four answer classes per prompt, two surface forms merged in
        # each of "a" and "b"; even k makes ties common.
        space = PromptSpace(
            {"a": ("c0", "c1", "c2", "c3", "c4"), "b": ("c0", "c1", "c2", "c3"), "c": ("c0", "c1", "c2")},
            {
                "a": {"c0": "1", "c1": "1.0", "c2": "2", "c3": "3", "c4": "\\frac{8}{2}"},
                "b": {"c0": "7", "c1": "0.5", "c2": "1/2", "c3": "9"},
                "c": {"c0": "x", "c1": "y", "c2": "z"},
            },
        )
        policy = TabularPolicy(
            space,
            {"a": (0.2, 0.15, 0.3, 0.2, 0.15), "b": (0.25, 0.25, 0.25, 0.25), "c": (0.5, 0.3, 0.2)},
        )
        truth = {"a": "1", "b": "7", "c": "y"}
        repeats = 3000
        bound = math.sqrt(math.log(2 / self.DELTA) / (2 * repeats * len(space.prompts)))
        for k in (1, 2, 3, 4, 6, 9):
            exact = np.mean(
                [
                    exact_win_probability(
                        np.bincount(space.answer_classes(x), weights=policy.distribution(x)),
                        space.class_of(x, truth[x]),
                        k,
                    )
                    for x in space.prompts
                ]
            )
            got = maj_at_k(policy, space.prompts, k, truth, seed=k, eval_samples=repeats)
            assert abs(got - exact) <= bound, (k, got, exact, bound)


def sample_reports():
    reports = []
    for r in range(4):
        reports.append(
            RoundReport(
                round_index=r,
                maj1_acc={"train": 0.3 + 0.1 * r, "test": 0.25 + 0.1 * r},
                majk_acc={"train": (0.5, 0.9, 0.7, 0.9)[r], "test": 0.45 + 0.1 * r},
                mean_entropy={"train": 1.0 / (r + 1), "test": 1.1 / (r + 1)},
                objective=-10.0 + r,
                degenerate_prompts=r % 2,
                solver={} if r == 0 else {"iterations": 10 * r, "grad_norm": 1e-9 * r, "stalled": r},
            )
        )
    return reports


class TestEmitMetrics:
    def test_csv_round_trip_is_lossless(self, tmp_path):
        reports = sample_reports()
        reports[1].maj1_acc["train"] = 0.1 + 0.2  # deliberately non-representable
        csv_path = tmp_path / "metrics.csv"
        emit_metrics(reports, csv_path)
        metrics = read_metrics(csv_path)
        for report in reports:
            row = metrics[report.round_index]
            for split in ("train", "test"):
                assert row[split]["maj1_acc"] == report.maj1_acc[split]
                assert row[split]["majk_acc"] == report.majk_acc[split]
                assert row[split]["mean_entropy"] == report.mean_entropy[split]
            assert row["run"]["objective"] == report.objective
            assert row["run"]["degenerate_prompts"] == report.degenerate_prompts
            solver_rows = {m: v for m, v in row["run"].items() if m.startswith("solver_")}
            assert solver_rows == {f"solver_{m}": v for m, v in report.solver.items()}

    def test_best_round_earliest_tie(self, tmp_path):
        reports = sample_reports()  # train majk peaks at rounds 1 and 3
        assert best_round_of(reports) == 1
        emit_metrics(reports, tmp_path / "m.csv", tmp_path / "s.json")
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["best_round"] == 1
        assert summary["metrics"]["train"]["majk_acc"] == 0.9

    def test_schema_golden(self, tmp_path):
        emit_metrics(sample_reports()[:1], tmp_path / "m.csv", tmp_path / "s.json")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "round,split,metric,value"
        assert lines[1].startswith("0,train,maj1_acc,")
        summary = json.loads((tmp_path / "s.json").read_text())
        assert set(summary) == {"best_round", "metrics", "rounds"}
        assert set(summary["metrics"]["train"]) == {"maj1_acc", "majk_acc", "mean_entropy"}

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_metrics([], tmp_path / "m.csv")

    def test_single_split_summary_still_valid(self, tmp_path):
        report = RoundReport(
            round_index=0,
            maj1_acc={"train": 0.5},
            majk_acc={"train": 0.6},
            mean_entropy={"train": 0.9},
        )
        emit_metrics([report], tmp_path / "m.csv", tmp_path / "s.json")
        summary = json.loads((tmp_path / "s.json").read_text())
        assert list(summary["metrics"]) == ["train"]


class TestEvalHook:
    def test_hook_reports_all_splits(self):
        space = two_class_space(6)
        prompts = space.prompts
        splits = {"train": prompts[:4], "test": prompts[4:]}
        policy = TabularPolicy(space, {x: (0.9, 0.1) for x in prompts})
        hook = make_eval_hook(splits, truth_for(space), k=5, seed=0, eval_samples=20)
        report = hook(2, policy, objective=-1.5, degenerate=1)
        assert report.round_index == 2
        assert set(report.maj1_acc) == {"train", "test"}
        assert report.objective == -1.5
        assert report.degenerate_prompts == 1
        assert report.mean_entropy["train"] == pytest.approx(
            policy.mean_entropy(splits["train"]), abs=1e-15
        )

    @pytest.mark.parametrize("eval_samples", [1, 3])
    @pytest.mark.parametrize("k", [1, 4])
    def test_hook_equals_maj_at_k_per_split(self, eval_samples, k, monkeypatch):
        # Uniform over two classes with an even k: many votes tie, so the
        # shared draw must build the same "eval-tie" streams maj_at_k does.
        scopes = []
        real = metrics.substream
        monkeypatch.setattr(
            metrics, "substream", lambda seed, scope, *tags: scopes.append(scope) or real(seed, scope, *tags)
        )
        space = two_class_space(30)
        prompts = space.prompts
        splits = {"train": prompts[:20], "test": prompts[20:]}
        truth = truth_for(space)
        hook = make_eval_hook(splits, truth, k=k, seed=4, eval_samples=eval_samples)
        hook_ties = 0
        for policy in (TabularPolicy.uniform(space), TabularPolicy(space, {x: (0.7, 0.3) for x in prompts})):
            for round_index in (0, 3):
                scopes.clear()
                report = hook(round_index, policy)
                hook_ties += sum(scope.startswith("eval-tie:") for scope in scopes)
                for split, members in splits.items():
                    kwargs = dict(eval_samples=eval_samples, round_index=round_index)
                    assert report.maj1_acc[split] == maj_at_k(policy, members, 1, truth, 4, **kwargs)
                    assert report.majk_acc[split] == maj_at_k(policy, members, k, truth, 4, **kwargs)
        assert (hook_ties > 0) == (k > 1)

    def test_truth_classes_are_looked_up_once(self, monkeypatch):
        calls = []
        real = PromptSpace.class_of
        monkeypatch.setattr(
            PromptSpace, "class_of", lambda self, x, answer: calls.append(x) or real(self, x, answer)
        )
        space = two_class_space(12)
        splits = {"train": space.prompts[:8], "test": space.prompts[8:]}
        hook = make_eval_hook(splits, truth_for(space), k=3, seed=0, eval_samples=2)
        for round_index in range(4):
            hook(round_index, TabularPolicy.uniform(space))
        assert sorted(calls) == sorted(space.prompts)
