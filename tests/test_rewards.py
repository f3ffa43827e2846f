"""Majority voting, indicator rewards, and reward transforms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop.answers import equivalent
from voteloop.policy import PromptSpace
from voteloop.rewards import (
    CandidateSet,
    RewardTransform,
    log_transform,
    majority_vote,
    score_candidates,
    tie_break_stream,
    vote_classes,
)
from voteloop.util import substream


def rng0():
    return np.random.default_rng(0)


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote(["4", "4", "5"], rng0()) == "4"

    def test_single_candidate(self):
        assert majority_vote(["7"], rng0()) == "7"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            majority_vote([], rng0())

    def test_equivalent_surface_forms_vote_together(self):
        got = majority_vote(["0.5", "\\frac{1}{2}", "3"], rng0())
        assert equivalent(got, "0.5")

    def test_tie_is_seeded_and_stable(self):
        answers = ["a", "a", "b", "b"]
        first = majority_vote(answers, np.random.default_rng(0))
        assert first in {"a", "b"}
        for _ in range(5):
            assert majority_vote(answers, np.random.default_rng(0)) == first

    def test_tie_draw_is_order_invariant_given_stream(self):
        # Tied classes are sorted before the draw, so the same stream state
        # picks the same class whatever the candidate order.
        for perm in itertools.permutations(["a", "b", "b", "a"]):
            assert majority_vote(list(perm), np.random.default_rng(12)) == majority_vote(
                ["a", "a", "b", "b"], np.random.default_rng(12)
            )

    def test_agrees_with_counting_oracle_on_random_lists(self):
        rng = np.random.default_rng(99)
        alphabet = ["a", "b", "c", "0.5", "1/2"]
        for _ in range(300):
            answers = [alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(1, 10))]
            got = majority_vote(answers, np.random.default_rng(0))
            counts = [sum(equivalent(a, b) for b in answers) for a in answers]
            best = max(counts)
            tied = [a for a, c in zip(answers, counts) if c == best]
            assert any(equivalent(got, t) for t in tied)


class TestScoreCandidates:
    def test_direct_indicator(self):
        cs = score_candidates([("c0", "4"), ("c1", "4"), ("c2", "5")], rng0(), prompt="p")
        assert cs.rewards == (1, 1, 0)
        assert cs.majority == "4"
        assert cs.prompt == "p"
        assert cs.k == 3

    def test_all_identical(self):
        cs = score_candidates([("c0", "9")] * 6, rng0())
        assert cs.rewards == (1,) * 6

    def test_equivalence_grouping(self):
        cs = score_candidates([("c0", "0.5"), ("c1", "\\frac{1}{2}"), ("c2", "3")], rng0())
        assert cs.rewards == (1, 1, 0)

    def test_permutation_equivariance_with_keyed_stream(self):
        answers = ["a", "b", "a", "c", "b", "a"]
        chains = [f"c{i}" for i in range(len(answers))]
        base = list(zip(chains, answers))
        tie = tie_break_stream(7, 3, "p", answers)
        scored = score_candidates(base, tie)
        rewards_by_chain = dict(zip(chains, scored.rewards))
        rng = np.random.default_rng(1)
        for _ in range(10):
            perm = rng.permutation(len(base))
            shuffled = [base[i] for i in perm]
            answers_perm = [a for _, a in shuffled]
            tie2 = tie_break_stream(7, 3, "p", answers_perm)
            scored2 = score_candidates(shuffled, tie2)
            assert scored2.majority == scored.majority
            for (chain, _), reward in zip(shuffled, scored2.rewards):
                assert reward == rewards_by_chain[chain]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            score_candidates([], rng0())

    def test_candidate_set_validation(self):
        with pytest.raises(ValueError):
            CandidateSet("p", (("c0", "a"),), "a", (1, 0))


def weight(transform, reward, prev_reward=None, round_index=1):
    """The transformed reward as a linear-space weight."""
    return math.exp(log_transform(transform, reward, prev_reward, round_index))


class TestTransforms:
    def test_identity(self):
        t = RewardTransform("identity")
        assert weight(t, 1) == 1.0
        assert weight(t, 0) == 0.0
        assert log_transform(t, 0) == -math.inf

    def test_exponential_beta_point_one(self):
        t = RewardTransform("exponential", 0.1)
        assert weight(t, 1) == pytest.approx(22026.465794806718, rel=1e-12)
        assert weight(t, 0) == 1.0

    def test_baseline_cancellation(self):
        t = RewardTransform("baseline_shifted", 0.1)
        assert weight(t, 1, prev_reward=1, round_index=5) == 1.0
        assert weight(t, 1, prev_reward=0, round_index=5) == pytest.approx(
            math.exp(10), rel=1e-12
        )
        assert weight(t, 0, prev_reward=1, round_index=5) == pytest.approx(
            math.exp(-10), rel=1e-12
        )

    def test_baseline_is_zero_in_round_one(self):
        t = RewardTransform("baseline_shifted", 0.5)
        assert weight(t, 1, round_index=1) == pytest.approx(math.exp(2), rel=1e-12)

    def test_baseline_requires_prev_reward_after_round_one(self):
        t = RewardTransform("baseline_shifted", 0.1)
        with pytest.raises(ValueError):
            weight(t, 1, round_index=2)

    def test_monotone_in_reward(self):
        transforms = [
            RewardTransform("identity"),
            RewardTransform("exponential", 0.05),
            RewardTransform("exponential", 1.0),
            RewardTransform("baseline_shifted", 0.1),
        ]
        for t in transforms:
            kwargs = {"prev_reward": 0, "round_index": 3} if t.kind == "baseline_shifted" else {}
            assert weight(t, 1, **kwargs) >= weight(t, 0, **kwargs)

    def test_no_overflow_down_to_beta_001(self):
        w = weight(RewardTransform("exponential", 0.01), 1)
        assert math.isfinite(w) and w == pytest.approx(math.exp(100), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardTransform("exponential")
        with pytest.raises(ValueError):
            RewardTransform("exponential", -1.0)
        with pytest.raises(ValueError):
            RewardTransform("identity", 0.3)
        with pytest.raises(ValueError):
            RewardTransform("nope")


class TestTieBreakStream:
    def test_keyed_on_multiset_not_order(self):
        a = tie_break_stream(0, 1, "p", ["x", "y", "x"])
        b = tie_break_stream(0, 1, "p", ["y", "x", "x"])
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_distinct_rounds_and_prompts_differ(self):
        draws = {
            tie_break_stream(0, r, p, ["x", "y"]).integers(1 << 30)
            for r in range(4)
            for p in ("p0", "p1")
        }
        assert len(draws) == 8

    def test_scope_separates_eval_from_training(self):
        a = tie_break_stream(0, 1, "p", ["x"], scope="tie")
        b = tie_break_stream(0, 1, "p", ["x"], scope="eval-tie:0")
        assert a.integers(1 << 30) != b.integers(1 << 30)


ALPHABETS = {
    "plain": ("a", "b", "c", "d"),
    "merged": ("0.5", "\\frac{1}{2}", "1/2", "3", "x", "3.0"),
}


def one_prompt_space(alphabet):
    chains = tuple(f"c{i}" for i in range(len(alphabet)))
    return PromptSpace({"p": chains}, {"p": dict(zip(chains, alphabet))})


def vote_over_space(space, idx, seed, round_index):
    """vote_classes on the space's class ids, as the engine calls it; also
    returns the tag tuples it asked a tie stream for."""
    asked = []

    def stream(*tags):
        asked.append(tags)
        return substream(seed, "tie", round_index, "p", *tags)

    answers = [space.answers("p")[i] for i in idx]
    winner, majority = vote_classes(space.answer_classes("p")[idx], answers, stream)
    return winner, majority, asked


class TestVoteClasses:
    @settings(max_examples=400, deadline=None)
    @given(
        alphabet=st.sampled_from(sorted(ALPHABETS)),
        data=st.data(),
        seed=st.integers(0, 2**31),
        round_index=st.integers(1, 30),
    )
    def test_equals_union_find_vote(self, alphabet, data, seed, round_index):
        letters = ALPHABETS[alphabet]
        # Small lists over few symbols make ties common.
        idx = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=1, max_size=12))
        space = one_prompt_space(letters)
        answers = [letters[i] for i in idx]
        winner, majority, asked = vote_over_space(space, idx, seed, round_index)

        # The class_ids path: same winner, same tie-stream address.
        assert majority == majority_vote(answers, tie_break_stream(seed, round_index, "p", answers))
        if asked:
            (tags,) = asked
            ours = substream(seed, "tie", round_index, "p", *tags)
            theirs = tie_break_stream(seed, round_index, "p", answers)
            assert ours.bit_generator.state == theirs.bit_generator.state

        # Counting oracle: a tie stream is asked for iff classes tie.
        counts = [sum(equivalent(a, b) for b in answers) for a in answers]
        best = max(counts)
        tied = {
            frozenset(b for b in answers if equivalent(a, b))
            for a, c in zip(answers, counts)
            if c == best
        }
        assert len(asked) == (len(tied) > 1)
        members = [a for a, c in zip(answers, space.answer_classes("p")[idx]) if c == winner]
        assert frozenset(members) in tied
        assert majority == min(members)

        # Permuting the candidates changes nothing.
        perm = data.draw(st.permutations(idx))
        assert vote_over_space(space, perm, seed, round_index) == (winner, majority, asked)

    def test_no_tie_stream_without_a_tie(self):
        def refuse(*tags):
            raise AssertionError("tie stream built for an untied vote")

        classes = np.array([2, 0, 2, 1])
        assert vote_classes(classes, ["x", "4", "x", "5"], refuse) == (2, "x")

    def test_majority_is_least_sampled_member(self):
        classes = np.array([0, 0, 1, 0])
        assert vote_classes(classes, ["b", "c", "z", "b"], lambda *t: None) == (0, "b")
