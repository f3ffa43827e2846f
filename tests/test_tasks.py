"""Synthetic corpus generation: margins, ceilings, surface forms, files."""

import dataclasses
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from voteloop import tasks as tasks_module
from voteloop.answers import equivalent
from voteloop.rewards import majority_vote
from voteloop.tasks import (
    Corpus,
    CorpusSpec,
    load_corpus,
    load_labels,
    make_corpus,
    render_rational,
    save_corpus,
)
from voteloop.util import substream


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


def assert_same_task(a, b):
    assert (a.prompt, a.chains, a.answers, a.truth) == (b.prompt, b.chains, b.answers, b.truth)
    assert (a.correct_mass, a.distractor_masses) == (b.correct_mass, b.distractor_masses)
    assert a.probs.dtype == b.probs.dtype and np.array_equal(a.probs, b.probs)


class TestCorpusLocality:
    """A task is a function of (seed, split, index) and the spec alone: it
    does not depend on how many other tasks the corpus holds."""

    @pytest.mark.parametrize("surface_forms", [1, 3])
    def test_small_corpus_is_a_prefix_of_a_large_one(self, surface_forms):
        small = make_corpus(CorpusSpec(n_train=40, n_test=10, surface_forms=surface_forms, seed=3))
        large = make_corpus(CorpusSpec(n_train=400, n_test=100, surface_forms=surface_forms, seed=3))
        for split, count in (("train", 40), ("test", 10)):
            assert small.splits[split] == large.splits[split][:count]
            for x in small.splits[split]:
                assert_same_task(small.tasks[x], large.tasks[x])

    def test_train_tasks_do_not_depend_on_n_test(self):
        one = make_corpus(CorpusSpec(n_train=40, n_test=1, seed=3))
        many = make_corpus(CorpusSpec(n_train=40, n_test=300, seed=3))
        assert one.splits["train"] == many.splits["train"]
        for x in one.splits["train"]:
            assert_same_task(one.tasks[x], many.tasks[x])

    def test_wider_prompt_ids_keep_their_tasks(self):
        # 1001 train tasks pad their ids to four digits: train-0999, not train-999.
        narrow = make_corpus(CorpusSpec(n_train=1000, n_test=1, seed=3))
        wide = make_corpus(CorpusSpec(n_train=1001, n_test=1, seed=3))
        assert wide.splits["train"][999] == "train-0999"
        for x, y in zip(narrow.splits["train"], wide.splits["train"]):
            assert_same_task(narrow.tasks[x], dataclasses.replace(wide.tasks[y], prompt=x))


FORMS = ("plain", "frac", "decimal")


def _draw_value(rng, taken):
    while True:
        num = int(rng.integers(-50, 200))
        den = int(rng.integers(1, 13))
        value = Fraction(num, den)
        if value not in taken:
            taken.add(value)
            return value


def _two_forms(value, rng):
    forms = list(rng.permutation(FORMS))
    first = render_rational(value, forms[0])
    for other in forms[1:]:
        alt = render_rational(value, other)
        if alt != first:
            return first, alt
    return first, first


def _make_task(prompt, spec, rng):
    lo, hi = spec.p_range
    for _ in range(10_000):
        p = float(rng.uniform(lo, hi))
        n_distract = int(rng.integers(1, spec.max_distractors + 1))
        rel = rng.dirichlet(np.ones(n_distract))
        masses = (1.0 - p) * rel
        if abs(p - float(masses.max())) >= spec.margin:
            break
    else:
        raise RuntimeError("could not draw a class layout satisfying the margin")

    taken = set()
    truth_value = _draw_value(rng, taken)
    truth_chain_text, truth_label = _two_forms(truth_value, rng)
    answers, probs = [], []
    if spec.surface_forms == 1:
        answers.append(truth_chain_text)
        probs.append(p)
    else:
        texts = sorted({render_rational(truth_value, f) for f in FORMS})[: spec.surface_forms]
        for text in texts:
            answers.append(text)
            probs.append(p / len(texts))
    for mass in masses:
        value = _draw_value(rng, taken)
        answers.append(render_rational(value, FORMS[int(rng.integers(len(FORMS)))]))
        probs.append(float(mass))

    order = rng.permutation(len(answers))
    chains = tuple(f"c{i}" for i in range(len(answers)))
    return tasks_module.SyntheticTask(
        prompt=prompt,
        chains=chains,
        answers={chains[j]: answers[i] for j, i in enumerate(order)},
        probs=np.array([probs[i] for i in order], dtype=float),
        truth=truth_label,
        correct_mass=p,
        distractor_masses=tuple(float(m) for m in masses),
    )


def reference_tasks(spec):
    """The tasks make_corpus drew before its counter-based draw, one
    `substream(seed, "task", split, index)` Generator per task."""
    return [
        _make_task(f"{split}-{i}", spec, substream(spec.seed, "task", split, i))
        for split, count in (("train", spec.n_train), ("test", spec.n_test))
        for i in range(count)
    ]


def value_of(text):
    if text.startswith("\\frac{"):
        num, den = text[6:-1].split("}{")
        return Fraction(int(num), int(den))
    return Fraction(text)


def form_of(text):
    if text.startswith("\\frac{"):
        return "frac"
    if "." in text:
        return "decimal"
    return "plain" if "/" in text else "integer"


def corpus_statistics(tasks):
    """Per-task and per-chain draws of a task list, by name."""
    out = defaultdict(list)
    for task in tasks:
        truth = value_of(task.truth)
        out["p"].append(task.correct_mass)
        out["distractors"].append(len(task.distractor_masses))
        out["gap"].append(task.correct_mass - max(task.distractor_masses))
        out["majority_is_correct"].append(task.majority_is_correct)
        out["label_form"].append(form_of(task.truth))
        for text in task.answers.values():
            kind = "truth" if value_of(text) == truth else "distractor"
            out[f"{kind}_form"].append(form_of(text))
            out[f"{kind}_num"].append(value_of(text).numerator)
            out[f"{kind}_den"].append(value_of(text).denominator)
    return out


def chi_square_p(a, b):
    counts = Counter(a), Counter(b)
    cats = sorted(set(counts[0]) | set(counts[1]), key=str)
    return stats.chi2_contingency([[c[x] for x in cats] for c in counts]).pvalue


# A deterministic gate (fixed seeds): no test may reject at this level.
P_FLOOR = 1e-3
TIGHT = dict(p_range=(0.45, 0.55), margin=0.25, max_distractors=4)


class TestDrawMatchesReferenceSampler:
    """The counter-based corpus draw against the per-task Generator it
    replaced, over 8 corpus seeds of 500 tasks each. TIGHT leaves about
    38% of rows to later draw blocks, so those blocks are covered."""

    @pytest.fixture(scope="class", params=[{}, TIGHT], ids=["default", "tight"])
    def draws(self, request):
        ref, new, ceilings = [], [], ([], [])
        for seed in range(8):
            spec = CorpusSpec(seed=seed, **request.param)
            corpus, ref_tasks = make_corpus(spec), reference_tasks(spec)
            ref.extend(ref_tasks)
            new.extend(corpus.tasks.values())
            for part in (ref_tasks[: spec.n_train], ref_tasks[spec.n_train :]):
                ceilings[0].append(sum(t.majority_is_correct for t in part) / len(part))
            ceilings[1].extend(corpus.ceiling(split) for split in ("train", "test"))
        return corpus_statistics(ref), corpus_statistics(new), ceilings

    @pytest.mark.parametrize("name", ["p", "gap", "truth_num", "distractor_num"])
    def test_two_sample_ks(self, draws, name):
        ref, new, _ = draws
        assert stats.ks_2samp(ref[name], new[name]).pvalue > P_FLOOR

    @pytest.mark.parametrize(
        "name",
        ["distractors", "truth_den", "distractor_den", "truth_form", "label_form",
         "distractor_form", "majority_is_correct"],
    )
    def test_chi_square(self, draws, name):
        ref, new, _ = draws
        assert chi_square_p(ref[name], new[name]) > P_FLOOR

    def test_split_ceilings(self, draws):
        # The wrong-majority fraction is 1 - ceiling, so this covers it too.
        ref, new = draws[2]
        assert stats.ks_2samp(ref, new).pvalue > P_FLOOR


class TestDrawBlocks:
    def test_unsatisfiable_layout_raises_after_the_attempt_cap(self, monkeypatch):
        calls = []
        real = tasks_module._draw_block
        monkeypatch.setattr(
            tasks_module, "_draw_block", lambda *args: calls.append(args[2]) or real(*args)
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="could not draw a class layout"):
            make_corpus(CorpusSpec(n_train=3, n_test=1, p_range=(0.35, 0.35), margin=0.49))
        assert time.perf_counter() - start < 10.0
        assert calls == list(range(10_000 // tasks_module._ATTEMPTS))

    @pytest.mark.parametrize(
        "spec", [{}, TIGHT, dict(max_distractors=9, surface_forms=2), dict(max_distractors=60)]
    )
    def test_task_values_are_distinct_and_layouts_meet_the_margin(self, spec):
        corpus = make_corpus(small_spec(n_train=200, **spec))
        for task in corpus.tasks.values():
            values = {value_of(a) for a in task.answers.values()}
            assert len(values) == 1 + len(task.distractor_masses)
            assert value_of(task.truth) in values
            assert abs(task.correct_mass - max(task.distractor_masses)) >= corpus.spec.margin
            assert task.probs.sum() == pytest.approx(1.0, abs=1e-12)


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


def save_corpus_by_record(corpus, tasks_path, labels_path):
    """save_corpus as it was before its one-write form: one `json.dumps`
    per record."""
    with open(tasks_path, "w", encoding="utf-8") as fh:
        for split, prompts in corpus.splits.items():
            for prompt in prompts:
                task = corpus.tasks[prompt]
                fh.write(
                    json.dumps(
                        {
                            "prompt": prompt,
                            "split": split,
                            "chains": list(task.chains),
                            "answers": task.answers,
                            "probs": [float(v) for v in task.probs],
                        }
                    )
                    + "\n"
                )
    with open(labels_path, "w", encoding="utf-8") as fh:
        for prompts in corpus.splits.values():
            for prompt in prompts:
                fh.write(json.dumps({"prompt": prompt, "truth": corpus.truth[prompt]}) + "\n")


def assert_saves_like_the_record_writer(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "tasks.jsonl", tmp_path / "labels.jsonl")
    save_corpus_by_record(corpus, tmp_path / "ref_tasks.jsonl", tmp_path / "ref_labels.jsonl")
    for name in ("tasks.jsonl", "labels.jsonl"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()


class TestCorpusFiles:
    @pytest.mark.parametrize("surface_forms", [1, 3])
    def test_files_equal_the_per_record_writer(self, surface_forms, tmp_path):
        corpus = make_corpus(small_spec(surface_forms=surface_forms))
        assert_saves_like_the_record_writer(corpus, tmp_path)

    def test_non_ascii_quotes_and_backslashes_equal_the_per_record_writer(self, tmp_path):
        base = make_corpus(small_spec(n_train=3, n_test=1))
        odd = ["\\frac{1}{2}", "é/ü", 'say "7"', "\t\x1f\u2028", "", "-0.5", "\U0001d7d9"]
        tasks, truth, splits = {}, {}, {}
        for i, (split, prompts) in enumerate(base.splits.items()):
            renamed = []
            for j, x in enumerate(prompts):
                prompt = f"{x}-ß\\{i}{j}"
                task = base.tasks[x]
                answers = {c: odd[(j + n) % len(odd)] for n, c in enumerate(task.chains)}
                probs = task.probs.copy()
                probs[0] = -0.0 if j == 0 else 1e-300
                tasks[prompt] = dataclasses.replace(task, prompt=prompt, answers=answers, probs=probs)
                truth[prompt] = odd[j % len(odd)]
                renamed.append(prompt)
            splits[f"{split}-ä"] = tuple(renamed)
        corpus = Corpus(space=base.space, base=base.base, splits=splits, truth=truth,
                        tasks=tasks, spec=base.spec)
        assert_saves_like_the_record_writer(corpus, tmp_path)

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
