"""Synthetic corpus generation: margins, ceilings, surface forms, files."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from voteloop.answers import equivalent
from voteloop.rewards import majority_vote
from voteloop.tasks import (
    CorpusSpec,
    load_corpus,
    load_labels,
    make_corpus,
    render_rational,
    save_corpus,
)


def small_spec(**kwargs):
    defaults = dict(n_train=30, n_test=10, seed=5)
    defaults.update(kwargs)
    return CorpusSpec(**defaults)


def _render_rational_by_fraction_loop(value, form):
    """render_rational as it was before its integer decimal form: scale by
    10 as a Fraction until the denominator is 1."""
    den = value.denominator
    for base in (2, 5):
        while den % base == 0:
            den //= base
    if form == "decimal" and den == 1 and value.denominator != 1:
        sign = "-" if value < 0 else ""
        digits, scaled = 0, abs(value)
        while scaled.denominator != 1:
            scaled *= 10
            digits += 1
        text = str(scaled.numerator).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    if value.denominator == 1:
        return str(value.numerator)
    if form == "frac":
        return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"
    return f"{value.numerator}/{value.denominator}"


class TestRenderRational:
    def test_equals_the_fraction_loop_on_random_values(self):
        rng = np.random.default_rng(23)
        dens = [1, 2, 5, 8, 25, 40, 3, 6, 7, 12, 15, 2**9 * 5**3, 2**40, 5**30, 3 * 2**10]
        for _ in range(3_000):
            num = int(rng.integers(-10**9, 10**9)) * int(rng.choice([1, 10, 10**12]))
            value = Fraction(num, int(rng.choice(dens)) * int(rng.integers(1, 4)))
            for form in ("plain", "frac", "decimal"):
                assert render_rational(value, form) == _render_rational_by_fraction_loop(value, form)

    @pytest.mark.parametrize(
        "value, form, text",
        [
            (Fraction(1, 2), "plain", "1/2"),
            (Fraction(1, 2), "frac", "\\frac{1}{2}"),
            (Fraction(1, 2), "decimal", "0.5"),
            (Fraction(-3, 4), "decimal", "-0.75"),
            (Fraction(7), "decimal", "7"),
            (Fraction(7), "frac", "7"),
            (Fraction(1, 3), "decimal", "1/3"),  # non-terminating falls back
            (Fraction(5, 8), "decimal", "0.625"),
        ],
    )
    def test_forms(self, value, form, text):
        assert render_rational(value, form) == text

    def test_renderings_are_equivalent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            value = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
            texts = {render_rational(value, f) for f in ("plain", "frac", "decimal")}
            for a in texts:
                for b in texts:
                    assert equivalent(a, b)


class TestMakeCorpus:
    def test_deterministic(self):
        a = make_corpus(small_spec())
        b = make_corpus(small_spec())
        assert a.space.prompts == b.space.prompts
        for x in a.space.prompts:
            assert np.array_equal(a.base.distribution(x), b.base.distribution(x))
            assert a.truth[x] == b.truth[x]
            assert a.space.answers(x) == b.space.answers(x)

    def test_split_sizes_and_defaults(self):
        spec = CorpusSpec()
        assert spec.n_train == 400 and spec.n_test == 100
        corpus = make_corpus(small_spec())
        assert len(corpus.splits["train"]) == 30
        assert len(corpus.splits["test"]) == 10

    def test_margin_holds_everywhere(self):
        corpus = make_corpus(small_spec(n_train=60))
        for task in corpus.tasks.values():
            assert abs(task.correct_mass - max(task.distractor_masses)) >= corpus.spec.margin

    def test_p_above_half_implies_correct_majority(self):
        corpus = make_corpus(small_spec(n_train=60))
        for task in corpus.tasks.values():
            if task.correct_mass > 0.5:
                assert task.majority_is_correct

    def test_ceiling_matches_manual_recount(self):
        corpus = make_corpus(small_spec(n_train=50, n_test=20))
        for split in ("train", "test"):
            manual = np.mean(
                [corpus.tasks[x].majority_is_correct for x in corpus.splits[split]]
            )
            assert corpus.ceiling(split) == manual
            assert corpus.wrong_majority_fraction(split) == 1.0 - manual

    def test_truth_class_mass_matches_p(self):
        corpus = make_corpus(small_spec())
        for x, task in corpus.tasks.items():
            marginal = corpus.base.answer_marginal(x)
            truth_mass = sum(
                mass for answer, mass in marginal.items() if equivalent(answer, task.truth)
            )
            assert truth_mass == pytest.approx(task.correct_mass, abs=1e-9)

    def test_distractors_not_equivalent_to_truth(self):
        corpus = make_corpus(small_spec())
        for x, task in corpus.tasks.items():
            for chain in task.chains:
                answer = task.answers[chain]
                i = corpus.space.chain_index(x, chain)
                if not equivalent(answer, task.truth):
                    assert task.probs[i] <= max(task.distractor_masses) + 1e-12

    def test_single_form_default_gives_one_chain_per_class(self):
        corpus = make_corpus(small_spec())
        for x, task in corpus.tasks.items():
            truth_chains = [c for c in task.chains if equivalent(task.answers[c], task.truth)]
            assert len(truth_chains) == 1

    def test_surface_forms_split_truth_mass(self):
        corpus = make_corpus(small_spec(surface_forms=2))
        multi = 0
        for x, task in corpus.tasks.items():
            truth_chains = [c for c in task.chains if equivalent(task.answers[c], task.truth)]
            if len(truth_chains) >= 2:
                multi += 1
                texts = {task.answers[c] for c in truth_chains}
                assert len(texts) == len(truth_chains)  # distinct surface strings
        assert multi > 0

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            CorpusSpec(p_range=(0.0, 0.9))
        with pytest.raises(ValueError):
            CorpusSpec(n_train=0)
        with pytest.raises(ValueError):
            CorpusSpec(margin=0.7)


class TestVoteDivergence:
    def test_equiv_vote_beats_exact_string_vote(self):
        # Two surface forms of 1/2 plus a doubled distractor: the naive
        # string count ties at 2-2, while the equivalence vote is 3-2.
        answers = ["0.5", "0.5", "\\frac{1}{2}", "3", "3"]
        string_counts = Counter(answers)
        assert string_counts.most_common(1)[0][1] == 2
        assert len([a for a, c in string_counts.items() if c == 2]) == 2  # tied
        winner = majority_vote(answers, np.random.default_rng(0))
        assert equivalent(winner, "1/2")


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(small_spec())
        tasks_path = tmp_path / "tasks.jsonl"
        labels_path = tmp_path / "labels.jsonl"
        save_corpus(corpus, tasks_path, labels_path)

        space, base, splits = load_corpus(tasks_path)
        assert space.prompts == corpus.space.prompts
        assert splits == corpus.splits
        for x in space.prompts:
            assert space.answers(x) == corpus.space.answers(x)
            np.testing.assert_allclose(
                base.distribution(x), corpus.base.distribution(x), rtol=0, atol=1e-15
            )

        labels = load_labels(labels_path)
        assert labels == corpus.truth

    def test_tasks_file_contains_no_truth(self, tmp_path):
        corpus = make_corpus(small_spec())
        tasks_path = tmp_path / "tasks.jsonl"
        save_corpus(corpus, tasks_path, tmp_path / "labels.jsonl")
        text = tasks_path.read_text()
        assert '"truth"' not in text
