"""Round loop: generation, offline updates, early stopping, artifacts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voteloop.engine as engine
from voteloop.engine import OfflineDataset, PromptRecord, RunConfig, generate_round, run
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
        rec = ds.records["p"]
        assert rec.candidates == (("c1", "4"),) * 7
        assert rec.rewards == (1,) * 7
        assert rec.majority == "4"

    def test_k_equals_one_always_rewards(self):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=1, seed=5)
        rec = ds.records["p"]
        assert rec.rewards == (1,)
        assert rec.majority == rec.candidates[0][1]

    def test_large_k_majority_matches_binomial_oracle(self):
        # "4" holds 2/3 of the mass; at k=1000 the probability that it loses
        # the count is below 1e-26 (binomial tail), so the majority is "4".
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=1000, seed=11)
        assert ds.records["p"].majority == "4"

    def test_seed_determinism(self):
        policy = TabularPolicy.uniform(vote_space())
        a = generate_round(policy, policy.space, k=20, seed=13)
        b = generate_round(policy, policy.space, k=20, seed=13)
        assert a.records == b.records

    def test_identity_log_weights(self):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(policy, policy.space, k=50, seed=1)
        rec = ds.records["p"]
        for reward, lw in zip(rec.rewards, rec.log_weights):
            assert lw == (0.0 if reward else -math.inf)

    def test_baseline_transform_needs_prev_majority(self):
        policy = TabularPolicy.uniform(vote_space())
        transform = RewardTransform("baseline_shifted", 0.1)
        with pytest.raises(ValueError):
            generate_round(policy, policy.space, k=3, seed=0, transform=transform, round_index=2)

    def test_dataset_round_trip(self, tmp_path):
        policy = TabularPolicy.uniform(vote_space())
        ds = generate_round(
            policy, policy.space, k=9, seed=2,
            transform=RewardTransform("exponential", 0.1), round_index=4,
        )
        path = tmp_path / "round.jsonl"
        ds.save(path)
        loaded = OfflineDataset.load(path)
        assert loaded.round_index == ds.round_index
        rec, got = ds.records["p"], loaded.records["p"]
        assert got.candidates == rec.candidates
        assert got.rewards == rec.rewards
        assert got.log_weights == rec.log_weights

    def test_load_names_a_prompt_without_reward(self, tmp_path):
        policy = TabularPolicy.uniform(vote_space())
        path = tmp_path / "round.jsonl"
        generate_round(policy, policy.space, k=5, seed=2).save(path)
        text = path.read_text(encoding="utf-8").replace('"reward": 1', '"reward": 0')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"round\.jsonl: prompt 'p' has no row with reward 1"):
            OfflineDataset.load(path)

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.lists(
                st.tuples(
                    st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", "\\frac{1}{2}", "é中", "\x7f"])),
                    st.text(max_size=10),
                    st.integers(0, 1),
                    st.one_of(
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([-0.0, 0.0, -math.inf, math.inf, 2.0, 1e-310, 0.1]),
                    ),
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
        round_index=st.integers(0, 20),
    )
    def test_dataset_lines_equal_json_dumps(self, tmp_path_factory, records, round_index):
        ds = OfflineDataset(
            round_index=round_index,
            records={
                prompt: PromptRecord(
                    candidates=tuple((chain, answer) for chain, answer, _, _ in rows),
                    rewards=tuple(reward for _, _, reward, _ in rows),
                    log_weights=tuple(lw for *_, lw in rows),
                    majority=rows[0][1],
                )
                for prompt, rows in records.items()
            },
        )
        path = tmp_path_factory.mktemp("ds") / "round.jsonl"
        ds.save(path)
        want = [
            json.dumps(
                {
                    "round": round_index,
                    "prompt": prompt,
                    "candidate": idx,
                    "chain": chain,
                    "answer": answer,
                    "reward": reward,
                    "log_weight": None if lw == -math.inf else lw,
                }
            )
            for prompt, rows in records.items()
            for idx, (chain, answer, reward, lw) in enumerate(rows)
        ]
        assert path.read_text(encoding="utf-8").split("\n") == want + [""]

    def test_dataset_keeps_signed_zeros_nan_and_infinities_apart(self, tmp_path):
        # -0.0 == 0.0 and NaN != NaN: a text cache keyed by value would
        # merge the zeros or miss NaN; each must write its own json.dumps text.
        weights = (-0.0, 0.0, math.nan, math.inf, -math.inf, -0.0, 0.0)
        ds = OfflineDataset(
            round_index=1,
            records={
                "p": PromptRecord(
                    candidates=tuple((f"c{i}", "1") for i in range(len(weights))),
                    rewards=(1, 0, 1, 0, 1, 0, 1),
                    log_weights=weights,
                    majority="1",
                )
            },
        )
        path = tmp_path / "round.jsonl"
        ds.save(path)
        want = [
            json.dumps(
                {
                    "round": 1, "prompt": "p", "candidate": i, "chain": f"c{i}", "answer": "1",
                    "reward": reward, "log_weight": None if lw == -math.inf else lw,
                }
            )
            for i, (reward, lw) in enumerate(zip(ds.records["p"].rewards, weights))
        ]
        assert path.read_bytes().decode("utf-8").split("\n") == want + [""]

    def test_dataset_round_trip_keeps_majority_surface_form(self, tmp_path):
        # With several surface forms per answer, the winning class holds
        # distinct strings; the majority is the least one, not the first.
        corpus = make_corpus(CorpusSpec(n_train=60, n_test=10, surface_forms=3, seed=4))
        ds = generate_round(corpus.base, corpus.space, k=10, seed=0)
        path = tmp_path / "round.jsonl"
        ds.save(path)
        loaded = OfflineDataset.load(path)
        assert {x: r.majority for x, r in loaded.records.items()} == {
            x: r.majority for x, r in ds.records.items()
        }
        first_rewarded = {
            x: next(a for (_, a), r in zip(rec.candidates, rec.rewards) if r)
            for x, rec in ds.records.items()
        }
        assert any(first_rewarded[x] != rec.majority for x, rec in ds.records.items())

    def test_tie_streams_only_for_tied_votes(self, monkeypatch):
        scopes, batches = [], []
        real, real_batch = engine.substream, engine.substream_random
        monkeypatch.setattr(
            engine, "substream", lambda seed, scope, *tags: scopes.append(scope) or real(seed, scope, *tags)
        )
        monkeypatch.setattr(
            engine,
            "substream_random",
            lambda seed, addresses, count: batches.append(addresses) or real_batch(seed, addresses, count),
        )
        space = PromptSpace(
            {f"p{i}": ("c0", "c1") for i in range(40)},
            {f"p{i}": {"c0": "1", "c1": "2"} for i in range(40)},
        )
        ds = generate_round(TabularPolicy.uniform(space), space, k=4, seed=3)
        ties = sum(sum(rec.rewards) == 2 for rec in ds.records.values())  # 2 votes each
        assert 0 < ties < 40
        # One batched draw over every prompt's "gen" address.
        assert len(batches) == 1
        assert [tags[0] for tags in batches[0]] == ["gen"] * 40
        assert scopes.count("tie") == ties == len(scopes)


class TestTabularUpdate:
    def test_single_round_equals_closed_form_of_scored_dataset(self):
        corpus, hook = corpus_fixture()
        config = RunConfig(k=15, rounds=1, seed=7)
        result = run(config, corpus.space, corpus.base, hook)
        ds = result.datasets[0]
        majority = {x: rec.majority for x, rec in ds.records.items()}
        log_w = _chain_log_weights(corpus.space, majority, RewardTransform("identity"), 1, None)
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
            oracle = product_form_oracle(corpus.base, result.weight_history[:m], log=True)
            for x in corpus.space.prompts:
                np.testing.assert_allclose(
                    result.policies[m].distribution(x),
                    oracle.distribution(x),
                    rtol=0,
                    atol=1e-9,
                )

    def test_identity_transform_zeroes_rewardless_dataset_chains(self):
        corpus, hook = corpus_fixture(seed=13)
        config = RunConfig(k=9, rounds=1, seed=33)
        result = run(config, corpus.space, corpus.base, hook)
        ds = result.datasets[0]
        post = result.policies[1]
        for x, rec in ds.records.items():
            for (chain, _), reward in zip(rec.candidates, rec.rewards):
                if reward == 0:
                    assert post.prob(x, chain) == 0.0

    def test_degenerate_prompt_freezes_and_counts(self):
        space = vote_space()
        policy = TabularPolicy(space, {"p": (1.0, 0.0, 0.0)})
        log_w = {"p": np.array([-math.inf, 0.0, 0.0])}  # mass only off-support
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
