"""Round loop: generation, offline updates, early stopping, artifacts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voteloop.engine as engine
from voteloop.engine import OfflineDataset, RunConfig, generate_round, run
from voteloop.engine import _chain_log_weights, _update_tabular
from voteloop.metrics import make_eval_hook
from voteloop.optim import product_form_oracle
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy, load_policy
from voteloop.rewards import RewardTransform
from voteloop.tasks import CorpusSpec, make_corpus


def vote_space():
    # Three chains: two answer "4", one answers "5".
    return PromptSpace(
        {"p": ("c0", "c1", "c2")},
        {"p": {"c0": "4", "c1": "4", "c2": "5"}},
    )


def corpus_fixture(n_train=24, n_test=8, seed=3, **kwargs):
    corpus = make_corpus(CorpusSpec(n_train=n_train, n_test=n_test, seed=seed, **kwargs))
    hook = make_eval_hook(corpus.splits, corpus.truth, k=11, seed=901, eval_samples=4)
    return corpus, hook


class TestGenerateRound:
    def test_deterministic_policy_yields_unanimous_round(self):
        policy = TabularPolicy(vote_space(), {"p": (0.0, 1.0, 0.0)})
        ds = generate_round(policy, policy.space, k=7, seed=0)
        assert ds.picks.tolist() == [[1] * 7]
        assert ds.rewards.tolist() == [[1] * 7]
        assert ds.labels.tolist() == [policy.space.class_of("p", "4")]

    def test_k_equals_one_always_rewards(self):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=1, seed=5)
        assert ds.rewards.tolist() == [[1]]
        assert ds.labels[0] == policy.space.answer_classes("p")[ds.picks[0, 0]]

    def test_large_k_majority_matches_binomial_oracle(self):
        # "4" holds 2/3 of the mass; at k=1000 the probability that it loses
        # the count is below 1e-26 (binomial tail), so the label is its class.
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=1000, seed=11)
        assert ds.labels.tolist() == [policy.space.class_of("p", "4")]

    def test_seed_determinism(self):
        policy = TabularPolicy.uniform(vote_space())
        a = generate_round(policy, policy.space, k=20, seed=13)
        b = generate_round(policy, policy.space, k=20, seed=13)
        for field in ("picks", "rewards", "log_weights", "labels"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_identity_log_weights(self):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=50, seed=1)
        for reward, lw in zip(ds.rewards.ravel().tolist(), ds.log_weights.ravel().tolist()):
            assert lw == (0.0 if reward else -math.inf)

    def test_baseline_transform_needs_prev_labels(self):
        policy = TabularPolicy.uniform(vote_space())
        transform = RewardTransform("baseline_shifted", 0.1)
        with pytest.raises(ValueError, match="prev_labels"):
            generate_round(policy, policy.space, k=3, seed=0, transform=transform, round_index=2)

    def test_dataset_round_trip(self, tmp_path):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(
            policy, policy.space, k=9, seed=2,
            transform=RewardTransform("exponential", 0.1), round_index=4,
        )
        path = tmp_path / "round.jsonl"
        ds.save(path)
        loaded = OfflineDataset.load(path, policy.space)
        assert loaded.round_index == ds.round_index
        assert loaded.space is policy.space
        for field in ("picks", "rewards", "log_weights", "labels"):
            assert np.array_equal(getattr(loaded, field), getattr(ds, field))

    def test_load_names_a_prompt_without_reward(self, tmp_path):
        policy = TabularPolicy.uniform(vote_space())
        path = tmp_path / "round.jsonl"
        generate_round(policy, policy.space, k=5, seed=2).save(path)
        text = path.read_text(encoding="utf-8").replace('"reward": 1', '"reward": 0')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"round\.jsonl: prompt 'p' has no row with reward 1"):
            OfflineDataset.load(path, policy.space)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [{**rows[0], "prompt": "q"}, *rows[1:]], "prompt 'q' chain 'c0' is outside"),
            (lambda rows: [{**rows[0], "chain": "c9"}, *rows[1:]], "prompt 'p' chain 'c9' is outside"),
            (lambda rows: [{**rows[0], "answer": "7"}, *rows[1:]], "chain 'c0' answers '7', not '4'"),
            (lambda rows: [r for r in rows if r["prompt"] != "r"], "prompt 'r' has no rows"),
            (lambda rows: rows[1:], r"unequal candidate counts \[3, 4\]"),
            (
                lambda rows: [{**r, "reward": 1} for r in rows],
                "prompt 'p' has rewarded rows in several classes",
            ),
            (
                lambda rows: [rows[0], {**rows[1], "candidate": 0}, *rows[2:]],
                r"prompt 'p' has candidates \[0, 0, 2, 3\], not 0..3",
            ),
            (
                lambda rows: [{**rows[0], "candidate": 99}, *rows[1:]],
                r"prompt 'p' has candidates \[1, 2, 3, 99\], not 0..3",
            ),
            (
                lambda rows: [*rows[:-1], {**rows[-1], "round": 2}],
                r"rows have several round values \[1, 2\]",
            ),
            (
                lambda rows: [{**rows[0], "reward": 0}, *rows[1:]],
                "prompt 'p' has candidate 0 with reward 0, but its answer class gives reward 1",
            ),
        ],
        ids=[
            "prompt", "chain", "answer", "missing-prompt", "counts", "classes",
            "duplicate-candidate", "candidate-out-of-range", "rounds", "unrewarded-label",
        ],
    )
    def test_load_rejects_rows_that_do_not_fit_the_space(self, tmp_path, edit, message):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2"), "r": ("c0", "c1")},
            {"p": {"c0": "4", "c1": "4", "c2": "5"}, "r": {"c0": "1", "c1": "2"}},
        )
        path = tmp_path / "round.jsonl"
        ds = OfflineDataset(
            1, space, np.array([[0, 1, 2, 0], [3, 3, 4, 3]]),
            np.array([[1, 1, 0, 1], [1, 1, 0, 1]]), np.zeros((2, 4)), np.array([0, 0]),
        )
        ds.save(path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert OfflineDataset.load(path, space).labels.tolist() == [0, 0]
        path.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)), encoding="utf-8")
        with pytest.raises(ValueError, match=r"round\.jsonl: .*" + message):
            OfflineDataset.load(path, space)

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        # 130 prompts make three blocks of writes; a pick outside the space
        # in row 100 fails the second block after the first was written.
        prompts = [f"p{i}" for i in range(130)]
        space = PromptSpace(dict.fromkeys(prompts, ("c",)), dict.fromkeys(prompts, {"c": "1"}))
        picks = np.arange(130)[:, None]
        rewards, weights, labels = np.ones_like(picks), np.zeros((130, 1)), np.zeros(130, dtype=int)
        path = tmp_path / "round.jsonl"
        OfflineDataset(1, space, picks, rewards, weights, labels).save(path)
        before = path.read_bytes()
        bad = picks.copy()
        bad[100, 0] = 10**6
        with pytest.raises(IndexError):
            OfflineDataset(2, space, bad, rewards, weights, labels).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["round.jsonl"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), round_index=st.integers(0, 20))
    def test_dataset_lines_equal_json_dumps(self, tmp_path_factory, data, round_index):
        ids = st.one_of(
            st.text(min_size=1, max_size=8).filter(lambda s: not any(c in s for c in "\t\n\r")),
            st.sampled_from(['"', "\\", "\\frac{1}{2}", "é中", "\x7f"]),
        )
        answers = data.draw(
            st.dictionaries(
                ids, st.dictionaries(ids, st.text(max_size=10), min_size=1, max_size=4),
                min_size=1, max_size=4,
            )
        )
        space = PromptSpace({x: tuple(amap) for x, amap in answers.items()}, answers)
        k = data.draw(st.integers(1, 5))
        picks = np.array(
            [
                [data.draw(st.integers(a, b - 1)) for _ in range(k)]
                for a, b in zip(space._bounds, space._bounds[1:])
            ]
        )
        size = picks.size
        rewards = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        weights = data.draw(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([-0.0, 0.0, -math.inf, math.inf, 2.0, 1e-310, 0.1]),
                ),
                min_size=size,
                max_size=size,
            )
        )
        ds = OfflineDataset(
            round_index, space, picks, np.reshape(rewards, picks.shape),
            np.array(weights, dtype=float).reshape(picks.shape), np.zeros(len(picks), dtype=int),
        )
        path = tmp_path_factory.mktemp("ds") / "round.jsonl"
        ds.save(path)
        want = [
            json.dumps(
                {
                    "round": round_index,
                    "prompt": space.prompts[i // k],
                    "candidate": i % k,
                    "chain": space._pairs[pick][0],
                    "answer": space._pairs[pick][1],
                    "reward": reward,
                    "log_weight": None if lw == -math.inf else lw,
                }
            )
            for i, (pick, reward, lw) in enumerate(zip(picks.ravel().tolist(), rewards, weights))
        ]
        assert path.read_text(encoding="utf-8").split("\n") == want + [""]

    def test_dataset_keeps_signed_zeros_nan_and_infinities_apart(self, tmp_path):
        # -0.0 == 0.0 and NaN != NaN: a text cache keyed by value would
        # merge the zeros or miss NaN; each must write its own json.dumps text.
        weights = (-0.0, 0.0, math.nan, math.inf, -math.inf, -0.0, 0.0)
        rewards = (1, 0, 1, 0, 1, 0, 1)
        chains = tuple(f"c{i}" for i in range(len(weights)))
        space = PromptSpace({"p": chains}, {"p": dict.fromkeys(chains, "1")})
        picks = np.arange(len(weights))[None]
        ds = OfflineDataset(1, space, picks, np.array([rewards]), np.array([weights]), np.zeros(1))
        path = tmp_path / "round.jsonl"
        ds.save(path)
        want = [
            json.dumps(
                {
                    "round": 1, "prompt": "p", "candidate": i, "chain": f"c{i}", "answer": "1",
                    "reward": reward, "log_weight": None if lw == -math.inf else lw,
                }
            )
            for i, (reward, lw) in enumerate(zip(rewards, weights))
        ]
        assert path.read_bytes().decode("utf-8").split("\n") == want + [""]

    def test_dataset_round_trip_keeps_labels_of_several_surface_forms(self, tmp_path):
        # With several surface forms per answer, the winning class holds
        # distinct strings; the loaded label is still the one class.
        corpus = make_corpus(CorpusSpec(n_train=60, n_test=10, surface_forms=3, seed=4))
        ds = generate_round(corpus.base, corpus.space, k=10, seed=0)
        path = tmp_path / "round.jsonl"
        ds.save(path)
        loaded = OfflineDataset.load(path, corpus.space)
        assert np.array_equal(loaded.labels, ds.labels)
        pairs = corpus.space._pairs
        forms = [
            {pairs[i][1] for i, r in zip(row, rewards) if r}
            for row, rewards in zip(ds.picks.tolist(), ds.rewards.tolist())
        ]
        assert any(len(f) > 1 for f in forms)

    def test_tie_streams_only_for_tied_votes(self, monkeypatch):
        scopes, batches = [], []
        real, real_batch = engine.substream, engine.counter_random
        monkeypatch.setattr(
            engine, "substream", lambda seed, scope, *tags: scopes.append(scope) or real(seed, scope, *tags)
        )
        monkeypatch.setattr(
            engine,
            "counter_random",
            lambda seed, prefixes, digests, count: batches.append(
                [tags for tags in prefixes for _ in digests]
            ) or real_batch(seed, prefixes, digests, count),
        )
        space = PromptSpace(
            {f"p{i}": ("c0", "c1") for i in range(40)},
            {f"p{i}": {"c0": "1", "c1": "2"} for i in range(40)},
        )
        ds = generate_round(TabularPolicy.uniform(space), space, k=4, seed=3)
        ties = int((ds.rewards.sum(axis=1) == 2).sum())  # 2 votes each
        assert 0 < ties < 40
        # One batched draw over every prompt's "gen" stream.
        assert len(batches) == 1
        assert [tags[0] for tags in batches[0]] == ["gen"] * 40
        assert scopes.count("tie") == ties == len(scopes)


class TestTabularUpdate:
    def test_single_round_equals_closed_form_of_scored_dataset(self):
        corpus, hook = corpus_fixture()
        config = RunConfig(k=15, rounds=1, seed=7)
        result = run(config, corpus.space, corpus.base, hook)
        ds = result.datasets[0]
        log_w = _chain_log_weights(corpus.space, ds.labels, RewardTransform("identity"), 1, None)
        expected, frozen, _ = _update_tabular(corpus.base, log_w)
        assert not frozen
        for x in corpus.space.prompts:
            np.testing.assert_array_equal(
                result.final_policy.distribution(x), expected.distribution(x)
            )

    def test_matches_product_form_oracle_every_round(self):
        corpus, hook = corpus_fixture(seed=9)
        config = RunConfig(k=9, rounds=4, patience=10, seed=21, transform="exponential", beta=0.1)
        result = run(config, corpus.space, corpus.base, hook)
        for m in range(1, len(result.weight_history) + 1):
            oracle = product_form_oracle(corpus.base, result.weight_history[:m])
            for x in corpus.space.prompts:
                np.testing.assert_allclose(
                    result.policies[m].distribution(x),
                    oracle.distribution(x),
                    rtol=0,
                    atol=1e-9,
                )

    def test_infinite_log_weights_raise(self):
        # 1 / beta overflows to +inf, a weight no update can normalize by.
        corpus, hook = corpus_fixture(n_train=4, n_test=2)
        config = RunConfig(k=5, rounds=1, seed=3, transform="exponential", beta=1e-320)
        with pytest.raises(ValueError, match="must be finite or -inf"):
            run(config, corpus.space, corpus.base, hook)

    def test_identity_transform_zeroes_rewardless_dataset_chains(self):
        corpus, hook = corpus_fixture(seed=13)
        config = RunConfig(k=9, rounds=1, seed=33)
        result = run(config, corpus.space, corpus.base, hook)
        ds = result.datasets[0]
        post = result.policies[1]
        dropped = ds.picks[ds.rewards == 0]
        assert dropped.size and not post._probs[dropped].any()

    def test_degenerate_prompt_freezes_and_counts(self):
        space = vote_space()
        policy = TabularPolicy(space, {"p": (1.0, 0.0, 0.0)})
        log_w = np.array([-math.inf, 0.0, 0.0])  # mass only off-support
        updated, frozen, _ = _update_tabular(policy, log_w)
        assert frozen == ["p"]
        assert np.array_equal(updated.distribution("p"), policy.distribution("p"))


class TestRunLoop:
    def test_patience_counts_from_first_trained_round(self):
        # A frozen (zero-entropy) policy can never improve: rounds 2..6 are
        # stagnant, so patience=5 stops the loop after round 6.
        space = vote_space()
        pi0 = TabularPolicy(space, {"p": (0.0, 1.0, 0.0)})
        hook = make_eval_hook({"train": space.prompts}, {"p": "4"}, k=5, seed=0)
        config = RunConfig(k=5, rounds=15, patience=5, seed=0)
        result = run(config, space, pi0, hook)
        assert result.stopped_early
        assert len(result.reports) == 7  # base + 6 trained rounds
        assert result.reports[-1].round_index == 6

    def test_runs_to_round_budget_without_stagnation_trigger(self):
        corpus, hook = corpus_fixture(seed=17)
        config = RunConfig(k=9, rounds=3, patience=5, seed=2)
        result = run(config, corpus.space, corpus.base, hook)
        assert not result.stopped_early
        assert len(result.reports) == 4

    def test_best_round_at_least_base_accuracy(self):
        for seed in (1, 2, 3):
            corpus, hook = corpus_fixture(seed=seed)
            config = RunConfig(k=15, rounds=4, seed=seed)
            result = run(config, corpus.space, corpus.base, hook)
            best = result.reports[result.best_round]
            base = result.reports[0]
            assert best.majk_acc["train"] >= base.majk_acc["train"]

    def test_reproducible_checkpoints_and_reports(self, tmp_path):
        corpus, hook = corpus_fixture(seed=19)
        config = RunConfig(k=9, rounds=2, seed=5)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        res_a = run(config, corpus.space, corpus.base, hook, out_dir=out_a)
        res_b = run(config, corpus.space, corpus.base, hook, out_dir=out_b)
        for m in range(3):
            pa = load_policy(out_a / "checkpoints" / f"round_{m:03d}.policy", corpus.space)
            pb = load_policy(out_b / "checkpoints" / f"round_{m:03d}.policy", corpus.space)
            for x in corpus.space.prompts:
                assert np.array_equal(pa.distribution(x), pb.distribution(x))
        assert res_a.reports == res_b.reports
        assert (out_a / "datasets" / "round_001.jsonl").read_bytes() == (
            out_b / "datasets" / "round_001.jsonl"
        ).read_bytes()

    def test_baseline_shifted_run_executes(self):
        corpus, hook = corpus_fixture(seed=23)
        config = RunConfig(k=9, rounds=3, transform="baseline_shifted", beta=0.1, seed=4)
        result = run(config, corpus.space, corpus.base, hook)
        assert len(result.reports) == 4
        assert all(report.solver == {} for report in result.reports)

    def test_baseline_shifted_run_looks_up_only_the_truth_classes(self, monkeypatch):
        # Rounds pass labels on as class ids: the only class_of calls are
        # the eval hook's truth lookups, one per prompt.
        calls = []
        real = PromptSpace.class_of
        monkeypatch.setattr(
            PromptSpace, "class_of", lambda self, x, answer: calls.append(x) or real(self, x, answer)
        )
        corpus, hook = corpus_fixture(seed=23, surface_forms=3)
        config = RunConfig(k=9, rounds=4, patience=4, transform="baseline_shifted", beta=0.5, seed=4)
        run(config, corpus.space, corpus.base, hook)
        assert sorted(calls) == sorted(corpus.space.prompts)

    def test_softmax_backend_improves_on_easy_corpus(self):
        corpus, hook = corpus_fixture(n_train=12, n_test=4, seed=29, p_range=(0.7, 0.9))
        logits = {
            x: np.log(np.maximum(corpus.base.distribution(x), 1e-12))
            for x in corpus.space.prompts
        }
        pi0 = SoftmaxPolicy(corpus.space, logits)
        config = RunConfig(k=25, rounds=3, backend="softmax", transform="exponential", beta=0.5, seed=6)
        result = run(config, corpus.space, pi0, hook)
        assert result.reports[result.best_round].maj1_acc["train"] >= result.reports[0].maj1_acc["train"]
        assert result.reports[0].solver == {}
        for report in result.reports[1:]:
            assert set(report.solver) == {"iterations", "grad_norm", "unconverged", "stalled"}
            assert report.solver["iterations"] >= 1
            assert 0 <= report.solver["stalled"] <= len(corpus.space.prompts)
            assert 0 <= report.solver["unconverged"] <= len(corpus.space.prompts)

    def test_backend_type_mismatch_raises(self):
        corpus, hook = corpus_fixture(n_train=4, n_test=2)
        with pytest.raises(TypeError):
            run(RunConfig(backend="softmax"), corpus.space, corpus.base, hook)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(backend="gpu")
        with pytest.raises(ValueError):
            RunConfig(transform="exponential", beta=-0.1)

    def test_label_asymmetry_note_present(self):
        corpus, hook = corpus_fixture(n_train=4, n_test=2)
        result = run(RunConfig(rounds=1, k=3), corpus.space, corpus.base, hook)
        assert "label" in result.note


class TestWrongMajorityFailureMode:
    def test_dominant_wrong_majority_locks_in(self):
        # The known failure mode: when a single distractor holds more mass
        # than the truth, the loop distills the wrong answer and stays there.
        space = PromptSpace(
            {"p": ("right", "wrong")},
            {"p": {"right": "1", "wrong": "2"}},
        )
        pi0 = TabularPolicy(space, {"p": (0.3, 0.7)})
        hook = make_eval_hook({"train": space.prompts}, {"p": "1"}, k=11, seed=0, eval_samples=5)
        result = run(RunConfig(k=501, rounds=3, seed=0), space, pi0, hook)
        final = result.reports[-1]
        assert final.maj1_acc["train"] == 0.0
        assert result.final_policy.prob("p", "wrong") == 1.0

    def test_corpus_failure_fraction_bounds_the_run(self):
        corpus, hook = corpus_fixture(n_train=40, n_test=8, seed=37)
        result = run(RunConfig(k=501, rounds=3, seed=1), corpus.space, corpus.base, hook)
        best = result.reports[result.best_round]
        ceiling = corpus.ceiling("train")
        assert best.maj1_acc["train"] <= ceiling + 0.05
        if corpus.wrong_majority_fraction("train") > 0:
            assert best.maj1_acc["train"] < 1.0
