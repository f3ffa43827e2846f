"""KL fixed-point solver and its equivalence with the offline loop."""

import numpy as np
import pytest

import voteloop.fixed_point as fixed_point
from voteloop.engine import RunConfig, run
from voteloop.fixed_point import (
    FixedPointConfig,
    _labels_at,
    check_fixed_point_equivalence,
    kl_fixed_point,
    population_tie_stream,
)
from voteloop.metrics import RoundReport
from voteloop.policy import PromptSpace, TabularPolicy


def marginal_space():
    # Two chains answer "4" (mass 0.35 + 0.35), one answers "5" (mass 0.3).
    return PromptSpace(
        {"p": ("c0", "c1", "c2")},
        {"p": {"c0": "4", "c1": "4", "c2": "5"}},
    )


def random_instance(rng, max_prompts=6, max_chains=6):
    n = int(rng.integers(1, max_prompts + 1))
    chains, answers = {}, {}
    for i in range(n):
        m = int(rng.integers(2, max_chains + 1))
        ids = tuple(f"c{j}" for j in range(m))
        chains[f"p{i}"] = ids
        answers[f"p{i}"] = {c: str(int(rng.integers(0, m))) for c in ids}
    space = PromptSpace(chains, answers)
    pi0 = TabularPolicy(space, {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts})
    return pi0


def population_label(policy, prompt, seed=0, iteration=1):
    labels = _labels_at(policy, iteration, seed, "population", None)
    return labels[policy.space.prompts.index(prompt)]


def rewarded(policy, prompt, label):
    """Per-chain membership of the label's answer class."""
    return (policy.space.answer_classes(prompt) == label).tolist()


class TestPopulationReward:
    def test_argmax_class_gets_one(self):
        policy = TabularPolicy(marginal_space(), {"p": (0.35, 0.35, 0.3)})
        label = population_label(policy, "p")
        assert label == policy.space.class_of("p", "4")
        assert rewarded(policy, "p", label) == [True, True, False]

    def test_deterministic_policy(self):
        policy = TabularPolicy(marginal_space(), {"p": (0.0, 0.0, 1.0)})
        label = population_label(policy, "p")
        assert label == policy.space.class_of("p", "5")
        assert rewarded(policy, "p", label) == [False, False, True]

    def test_tie_uses_seeded_stream_consistently(self):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        policy = TabularPolicy(space, {"p": (0.5, 0.5)})
        label = population_label(policy, "p")
        assert population_label(policy, "p") == label
        # The draw is over the tied classes, sorted by key ("a" < "b").
        classes = space.answer_classes("p").tolist()
        assert label == classes[int(population_tie_stream(0, 1, "p").integers(2))]

    def test_equivalent_strings_pool_their_mass(self):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2")},
            {"p": {"c0": "0.5", "c1": "\\frac{1}{2}", "c2": "3"}},
        )
        policy = TabularPolicy(space, {"p": (0.3, 0.3, 0.4)})
        # 0.5-class mass 0.6 beats the 0.4 of "3" once surface forms merge.
        label = population_label(policy, "p")
        assert label == space.class_of("p", "0.5") == space.class_of("p", "\\frac{1}{2}")
        assert rewarded(policy, "p", label) == [True, True, False]

    def test_tie_stream_built_only_for_marginal_ties(self, monkeypatch):
        scopes = []
        real = fixed_point.substream
        monkeypatch.setattr(
            fixed_point, "substream", lambda seed, scope, *tags: scopes.append(scope) or real(seed, scope, *tags)
        )
        masses = [(0.5, 0.5), (0.6, 0.4), (0.25, 0.75), (0.5, 0.5), (0.3, 0.7)]
        space = PromptSpace(
            {f"p{i}": ("c0", "c1") for i in range(len(masses))},
            {f"p{i}": {"c0": "a", "c1": "b"} for i in range(len(masses))},
        )
        policy = TabularPolicy(space, {f"p{i}": m for i, m in enumerate(masses)})
        labels = _labels_at(policy, 4, 9, "population", None).tolist()
        assert scopes == ["pop-tie", "pop-tie"]
        a, b = space.answer_classes("p0").tolist()
        for row in (0, 3):
            # Same label as drawing with an eagerly built stream.
            rng = real(9, "pop-tie", 4, f"p{row}")
            assert labels[row] == [a, b][int(rng.integers(2))]
        assert [labels[i] for i in (1, 2, 4)] == [a, b, b]


class TestKLFixedPoint:
    def test_hand_computed_tilt(self):
        policy = TabularPolicy(marginal_space(), {"p": (0.3, 0.3, 0.4)})
        solution, trace = kl_fixed_point(policy, beta=0.1)
        assert trace.converged
        a_mass = solution.policy.prob("p", "c0") + solution.policy.prob("p", "c1")
        assert a_mass == pytest.approx(0.999969734296199, abs=1e-12)

    def test_huge_beta_returns_base_policy(self):
        rng = np.random.default_rng(1)
        pi0 = random_instance(rng)
        solution, trace = kl_fixed_point(pi0, beta=1e6)
        assert trace.converged
        for x in pi0.space.prompts:
            assert 0.5 * np.abs(solution.policy.distribution(x) - pi0.distribution(x)).sum() <= 1e-4

    def test_point_mass_is_self_consistent_in_one_iteration(self):
        policy = TabularPolicy(marginal_space(), {"p": (1.0, 0.0, 0.0)})
        solution, trace = kl_fixed_point(policy, beta=0.1)
        assert trace.converged
        assert trace.iterations == 1
        assert np.array_equal(solution.policy.distribution("p"), policy.distribution("p"))

    def test_converged_solutions_satisfy_their_equation(self):
        # Residual definition: policy vs normalize(exp(reward(policy)/beta) * pi0)
        # with rewards recomputed from the candidate solution itself.
        rng = np.random.default_rng(3)
        for idx in range(30):
            pi0 = random_instance(rng)
            beta = [0.05, 0.1, 1.0][idx % 3]
            solution, trace = kl_fixed_point(pi0, beta=beta, seed=idx)
            if trace.converged:
                assert solution.residual <= 1e-8

    def test_stable_argmax_converges_within_two_rounds(self):
        rng = np.random.default_rng(5)
        count = 0
        for idx in range(40):
            pi0 = random_instance(rng)
            solution, trace = kl_fixed_point(pi0, beta=0.1, seed=idx)
            if not trace.converged:
                continue
            # Population tilting only boosts the winning class, so the label
            # settles immediately and the trace stays short.
            assert trace.iterations <= 2
            count += 1
        assert count >= 30  # the sweep must actually exercise the property

    def test_sampled_mode_approaches_population_rewards(self):
        rng = np.random.default_rng(7)
        agree = 0
        total = 0
        for idx in range(20):
            pi0 = random_instance(rng)
            clear = []
            for prompt in pi0.space.prompts:
                marginal = sorted(pi0.answer_marginal(prompt).values(), reverse=True)
                margin = marginal[0] - (marginal[1] if len(marginal) > 1 else 0.0)
                if margin >= 0.1:
                    clear.append(prompt)
            if not clear:
                continue
            # The solve does not depend on the prompt: once per instance.
            _, trace = kl_fixed_point(
                pi0, beta=0.1, mode="sampled", k=10_000, seed=idx,
                config=FixedPointConfig(max_rounds=1),
            )
            for prompt in clear:
                total += 1
                row = pi0.space.prompts.index(prompt)
                agree += trace.labels[0][row] == population_label(pi0, prompt)
        assert total >= 25
        assert agree / total >= 0.99

    def test_invalid_arguments(self):
        pi0 = TabularPolicy.uniform(marginal_space())
        with pytest.raises(ValueError):
            kl_fixed_point(pi0, beta=0.0)
        with pytest.raises(ValueError):
            kl_fixed_point(pi0, beta=0.1, mode="sampled")
        with pytest.raises(ValueError):
            kl_fixed_point(pi0, beta=0.1, mode="banana")


class TestEquivalenceCheck:
    def test_point_mass_gives_zero_distance(self):
        policy = TabularPolicy(marginal_space(), {"p": (0.0, 0.0, 1.0)})
        report = check_fixed_point_equivalence(policy, beta=0.1)
        assert report.both_converged
        assert report.distance == 0.0
        assert report.labels_match

    def test_huge_beta_keeps_both_sides_near_base(self):
        rng = np.random.default_rng(9)
        pi0 = random_instance(rng)
        report = check_fixed_point_equivalence(pi0, beta=1e6)
        assert report.both_converged
        assert report.distance <= 1e-4

    def test_converged_instances_agree_to_1e6(self):
        rng = np.random.default_rng(11)
        converged = 0
        for idx in range(25):
            pi0 = random_instance(rng)
            beta = [0.05, 0.1, 1.0][idx % 3]
            report = check_fixed_point_equivalence(pi0, beta=beta, seed=idx)
            if report.both_converged:
                converged += 1
                assert report.distance <= 1e-6
                assert report.labels_match
        assert converged >= 20

    @pytest.mark.parametrize("mode, k", [("population", None), ("sampled", 7)])
    def test_labels_are_never_looked_up_by_answer(self, monkeypatch, mode, k):
        calls = []
        real = PromptSpace.class_of
        monkeypatch.setattr(
            PromptSpace, "class_of", lambda self, x, answer: calls.append(x) or real(self, x, answer)
        )
        rng = np.random.default_rng(15)
        for idx in range(5):
            check_fixed_point_equivalence(random_instance(rng), beta=0.1, seed=idx, mode=mode, k=k)
        assert calls == []


class TestOfflineLoopIsTheEngine:
    def test_sampled_offline_policy_equals_engine_run(self):
        # Sampled mode draws and votes like training rounds, so the offline
        # side must be engine.run's tabular baseline-shifted loop, bit for bit.
        rng = np.random.default_rng(13)
        longest = 0
        for idx in range(12):
            pi0 = random_instance(rng)
            beta, k, rounds = [0.1, 1.0][idx % 2], [3, 5][idx % 2], 4
            policy, labels, _, ran = fixed_point._offline_loop(
                pi0, beta, FixedPointConfig(max_rounds=rounds), idx, "sampled", k
            )
            config = RunConfig(
                k=k, rounds=ran, patience=ran, transform="baseline_shifted", beta=beta, seed=idx
            )
            result = run(config, pi0.space, pi0, lambda m, policy, *rest: RoundReport(m))
            assert len(result.policies) == ran + 1
            assert np.array_equal(policy._probs, result.final_policy._probs)
            assert np.array_equal(labels, result.datasets[-1].labels)
            longest = max(longest, ran)
        assert longest >= 3  # some instance must change its label after round 2
