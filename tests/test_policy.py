"""Policies over finite prompt/chain spaces: probabilities, sampling,
entropy, marginals, and bit-exact checkpointing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import voteloop.policy as policy_module
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy, load_policy, save_policy


def small_space():
    return PromptSpace(
        chains={"p0": ("c0", "c1", "c2"), "p1": ("c0", "c1")},
        answers={
            "p0": {"c0": "a", "c1": "b", "c2": "a"},
            "p1": {"c0": "4", "c1": "5"},
        },
    )


class TestPromptSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PromptSpace({}, {})
        with pytest.raises(ValueError):
            PromptSpace({"p": ()}, {"p": {}})

    def test_answers_must_be_total(self):
        with pytest.raises(KeyError):
            PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a"}})

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "\r"])
    def test_rejects_separators_in_ids(self, bad):
        with pytest.raises(ValueError, match="contains tab/newline"):
            PromptSpace({bad: ("c0",)}, {bad: {"c0": "a"}})
        with pytest.raises(ValueError, match="contains tab/newline"):
            PromptSpace({"p": ("c0", bad)}, {"p": {"c0": "a", bad: "b"}})

    @pytest.mark.parametrize("bad", ["", 3, None])
    def test_rejects_empty_or_non_string_ids(self, bad):
        with pytest.raises(ValueError, match="must be a nonempty string"):
            PromptSpace({bad: ("c0",)}, {bad: {"c0": "a"}})
        with pytest.raises(ValueError, match="must be a nonempty string"):
            PromptSpace({"p": ("c0", bad)}, {"p": {"c0": "a", bad: "b"}})

    def test_unknown_lookups_raise(self):
        space = small_space()
        with pytest.raises(KeyError):
            space.chains("nope")
        with pytest.raises(KeyError):
            space.answer_of("p0", "c9")


class TestProb:
    def test_uniform_tabular(self):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2", "c3")},
            {"p": {f"c{i}": str(i) for i in range(4)}},
        )
        policy = TabularPolicy.uniform(space)
        assert policy.prob("p", "c2") == 0.25

    def test_softmax_symmetry(self):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        policy = SoftmaxPolicy(space, {"p": (0.0, 0.0)})
        assert policy.prob("p", "c0") == pytest.approx(0.5, abs=1e-12)

    def test_softmax_one_zero_logits(self):
        # e/(e+1) and 1/(e+1), computed directly.
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        policy = SoftmaxPolicy(space, {"p": (1.0, 0.0)})
        assert policy.prob("p", "c0") == pytest.approx(0.7310585786300049, abs=1e-12)
        assert policy.prob("p", "c1") == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_unknown_chain_raises(self):
        policy = TabularPolicy.uniform(small_space())
        with pytest.raises(KeyError):
            policy.prob("p0", "c9")

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        space = small_space()
        tab = TabularPolicy(space, {x: rng.random(len(space.chains(x))) for x in space.prompts})
        soft = SoftmaxPolicy(space, {x: rng.normal(size=len(space.chains(x))) for x in space.prompts})
        for x in space.prompts:
            assert abs(tab.distribution(x).sum() - 1.0) <= 1e-12
            assert abs(soft.distribution(x).sum() - 1.0) <= 1e-9

    def test_tabular_rejects_a_row_whose_sum_overflows(self):
        # 1e308 + 1e308 is inf; dividing by it would store the row [0, 0].
        space = PromptSpace(
            {"q": ("c0",), "p": ("c0", "c1")}, {"q": {"c0": "a"}, "p": {"c0": "a", "c1": "b"}}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prompt 'p': .*finite"):
                TabularPolicy(space, {"q": (1e308,), "p": (1e308, 1e308)})
            policy = TabularPolicy(space, {"q": (1e308,), "p": (1e308, 7e307)})
        assert policy.distribution("q").tolist() == [1.0]
        assert policy.distribution("p").sum() == pytest.approx(1.0, abs=1e-12)

    def test_temperature_must_be_positive(self):
        space = small_space()
        with pytest.raises(ValueError):
            SoftmaxPolicy(space, {x: np.zeros(len(space.chains(x))) for x in space.prompts}, 0.0)


class TestSample:
    def test_degenerate_distribution(self):
        space = small_space()
        policy = TabularPolicy(space, {"p0": (0.0, 1.0, 0.0), "p1": (1.0, 0.0)})
        rng = np.random.default_rng(1)
        assert policy.sample("p0", 10, rng) == ["c1"] * 10

    def test_seed_reproducibility(self):
        policy = TabularPolicy.uniform(small_space())
        a = policy.sample("p0", 50, np.random.default_rng(42))
        b = policy.sample("p0", 50, np.random.default_rng(42))
        assert a == b

    def test_two_chain_frequency(self):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        policy = TabularPolicy.uniform(space)
        draws = policy.sample("p", 100_000, np.random.default_rng(3))
        freq = draws.count("c0") / len(draws)
        assert abs(freq - 0.5) < 0.01  # ~6 sigma at n=1e5

    def test_chi_square_against_target(self):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2", "c3")},
            {"p": {f"c{i}": str(i) for i in range(4)}},
        )
        target = np.array([0.4, 0.3, 0.2, 0.1])
        policy = TabularPolicy(space, {"p": target})
        draws = policy.sample("p", 100_000, np.random.default_rng(5))
        counts = np.array([draws.count(c) for c in space.chains("p")])
        _, p_value = stats.chisquare(counts, f_exp=target * len(draws))
        assert p_value > 0.001

    def test_count_must_be_positive(self):
        policy = TabularPolicy.uniform(small_space())
        with pytest.raises(ValueError):
            policy.sample("p0", 0, np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=12
        ).filter(lambda w: sum(w) > 0),
        count=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_indices_match_generator_choice(self, weights, count, seed):
        chains = tuple(f"c{i}" for i in range(len(weights)))
        space = PromptSpace({"p": chains}, {"p": {c: c for c in chains}})
        policy = TabularPolicy(space, {"p": weights})
        p = policy.distribution("p")
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = policy.sample_batch(["p"], ours.random((1, count)))[0]
        want = theirs.choice(len(p), size=count, p=p)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert policy.sample("p", count, np.random.default_rng(seed)) == [chains[i] for i in want]

    def test_sample_indices_check_the_distribution(self):
        space = small_space()
        # An unvalidated flat table: p0 has a negative entry, p1 sums to 0.9.
        policy = TabularPolicy._trusted(space, np.array([0.5, 0.6, -0.1, 0.5, 0.4]))
        for prompt in space.prompts:
            with pytest.raises(ValueError):
                policy.sample(prompt, 3, np.random.default_rng(0))


def _space_and_weights(rows):
    chains = {f"p{j}": tuple(f"c{i}" for i in range(len(w))) for j, w in enumerate(rows)}
    space = PromptSpace(chains, {x: {c: c for c in cs} for x, cs in chains.items()})
    return space, {f"p{j}": w for j, w in enumerate(rows)}


class TestSampleBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=14).filter(
                lambda w: sum(w) > 0
            ),
            min_size=1,
            max_size=6,
        ),
        softmax=st.booleans(),
        pick=st.lists(st.integers(0, 5), min_size=0, max_size=10),
        count=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_per_prompt_choice(self, rows, softmax, pick, count, seed):
        space, weights = _space_and_weights(rows)
        if softmax:
            logits = {x: np.log(np.maximum(w, 1e-12)) * 3.0 for x, w in weights.items()}
            policy = SoftmaxPolicy(space, logits, temperature=0.7)
        else:
            policy = TabularPolicy(space, weights)
        # A subset of the prompts, in arbitrary order and with repeats.
        prompts = [space.prompts[i % len(space.prompts)] for i in pick]
        uniforms = np.random.default_rng(seed).random((len(prompts), count))
        got = policy.sample_batch(prompts, uniforms)
        assert got.shape == (len(prompts), count)
        gen = np.random.default_rng(seed)
        for prompt, row in zip(prompts, got):
            p = policy.distribution(prompt)
            want = gen.choice(len(p), size=count, p=p)
            assert row.dtype == want.dtype
            np.testing.assert_array_equal(row, want)

    def test_zero_probability_chains_are_never_drawn(self):
        space, weights = _space_and_weights([[0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.0]])
        policy = TabularPolicy(space, weights)
        got = policy.sample_batch(["p0"], np.random.default_rng(0).random((1, 2000)))
        assert set(got[0].tolist()) == {1, 4, 8}
        # Uniforms on the CDF's steps go right, as searchsorted(side="right").
        edges = np.array([[0.0, 0.5, 0.75, np.nextafter(0.75, 0), np.nextafter(1.0, 0)]])
        assert policy.sample_batch(["p0"], edges).tolist() == [[1, 4, 8, 4, 8]]

    def test_check_names_the_prompt(self):
        space = small_space()
        # An unvalidated flat table: p0 is uniform, p1 sums to 1.1.
        policy = TabularPolicy._trusted(space, np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.6]))
        assert policy.sample_batch(["p0"], np.zeros((1, 3))).tolist() == [[0, 0, 0]]
        with pytest.raises(ValueError, match="'p1'"):
            policy.sample_batch(["p0", "p1"], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="'p1'"):
            policy.sample("p1", 3, np.random.default_rng(0))

    def test_rejects_bad_input(self):
        policy = TabularPolicy.uniform(small_space())
        with pytest.raises(ValueError):
            policy.sample_batch(["p0", "p1"], np.zeros((1, 3)))
        with pytest.raises(KeyError, match="'nope'"):
            policy.sample_batch(["nope"], np.zeros((1, 3)))
        assert policy.sample_batch([], np.zeros((0, 3))).shape == (0, 3)


class TestAnswerClasses:
    def test_equivalent_answers_share_a_class(self):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2", "c3")},
            {"p": {"c0": "0.5", "c1": "3", "c2": "\\frac{1}{2}", "c3": "0.5"}},
        )
        classes = space.answer_classes("p")
        assert classes[0] == classes[2] == classes[3] != classes[1]
        assert not classes.flags.writeable
        assert space.class_of("p", "1/2") == classes[0]
        assert space.class_of("p", "3.0") == classes[1]
        assert space.class_of("p", "7") == -1

    def test_computed_once_on_first_use(self, monkeypatch):
        # One answer_key per distinct answer string of the whole space on
        # first use, then one per class_of lookup.
        calls = []
        real = policy_module.answer_key
        monkeypatch.setattr(policy_module, "answer_key", lambda a: calls.append(a) or real(a))
        space = small_space()
        assert calls == []
        first = space.answer_classes("p0")
        assert space.answer_classes("p0") is first
        space.class_of("p0", "b")
        assert calls == ["a", "b", "4", "5", "b"]

    def test_unknown_prompt(self):
        with pytest.raises(KeyError):
            small_space().answer_classes("nope")


class TestEntropy:
    def test_point_mass(self):
        space = small_space()
        policy = TabularPolicy(space, {"p0": (1.0, 0.0, 0.0), "p1": (0.0, 1.0)})
        assert policy.entropy("p0") == 0.0

    def test_uniform_eight(self):
        space = PromptSpace(
            {"p": tuple(f"c{i}" for i in range(8))},
            {"p": {f"c{i}": str(i) for i in range(8)}},
        )
        assert TabularPolicy.uniform(space).entropy("p") == pytest.approx(
            2.0794415416798357, abs=1e-12
        )

    def test_nine_one(self):
        # -(0.9 ln 0.9 + 0.1 ln 0.1), worked by hand.
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        policy = TabularPolicy(space, {"p": (0.9, 0.1)})
        assert policy.entropy("p") == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(n))
            chains = tuple(f"c{i}" for i in range(n))
            answers = {c: str(i) for i, c in enumerate(chains)}
            space = PromptSpace({"p": chains}, {"p": answers})
            perm = rng.permutation(n)
            a = TabularPolicy(space, {"p": probs}).entropy("p")
            b = TabularPolicy(space, {"p": probs[perm]}).entropy("p")
            assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        space = small_space()
        for _ in range(20):
            policy = TabularPolicy(
                space, {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts}
            )
            for x in space.prompts:
                assert 0.0 <= policy.entropy(x) <= math.log(len(space.chains(x))) + 1e-12


class TestAnswerMarginal:
    def test_grouping(self):
        space = PromptSpace(
            {"p": ("c1", "c2", "c3")},
            {"p": {"c1": "4", "c2": "4", "c3": "5"}},
        )
        marginal = TabularPolicy.uniform(space).answer_marginal("p")
        assert marginal["4"] == pytest.approx(2 / 3, abs=1e-12)
        assert marginal["5"] == pytest.approx(1 / 3, abs=1e-12)

    def test_single_chain(self):
        space = PromptSpace({"p": ("c0",)}, {"p": {"c0": "7"}})
        assert TabularPolicy.uniform(space).answer_marginal("p") == {"7": 1.0}

    def test_weighted_grouping(self):
        space = PromptSpace(
            {"p": ("c0", "c1", "c2")},
            {"p": {"c0": "a", "c1": "b", "c2": "a"}},
        )
        marginal = TabularPolicy(space, {"p": (0.5, 0.3, 0.2)}).answer_marginal("p")
        assert marginal["a"] == pytest.approx(0.7, abs=1e-12)
        assert marginal["b"] == pytest.approx(0.3, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 65))
            chains = tuple(f"c{i}" for i in range(n))
            answers = {c: str(int(rng.integers(0, 6))) for c in chains}
            probs = rng.dirichlet(np.ones(n))
            space = PromptSpace({"p": chains}, {"p": answers})
            marg = TabularPolicy(space, {"p": probs}).answer_marginal("p")
            brute = {}
            for c, q in zip(chains, probs):
                brute[answers[c]] = brute.get(answers[c], 0.0) + q
            assert set(marg) == set(brute)
            for key in brute:
                assert math.isclose(marg[key], brute[key], rel_tol=0, abs_tol=1e-12)
            assert math.isclose(sum(marg.values()), 1.0, rel_tol=0, abs_tol=1e-12)


# IEEE-754 bit patterns that float.hex prints in its own way: signed zeros,
# the smallest and largest subnormals, the smallest and largest normals,
# signed infinities, and quiet and signalling NaN of both signs.
SPECIAL_BITS = [
    0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, 0x7FEF_FFFF_FFFF_FFFF,
    0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0xFFF8 << 48, (0x7FF << 52) + 1, (0xFFF << 52) + 1,
]
IDS = st.text(min_size=1, max_size=6).filter(lambda s: not any(c in s for c in "\t\n\r"))


def reference_checkpoint(policy) -> bytes:
    """A checkpoint written line by line with float.hex."""
    if isinstance(policy, SoftmaxPolicy):
        kind, values = f"softmax temperature {policy.temperature.hex()}", policy._logits
    else:
        kind, values = "tabular", policy._probs
    keys = [(x, c) for x in policy.space.prompts for c in policy.space.chains(x)]
    lines = ["# voteloop policy v1", f"# kind {kind}"]
    lines += [f"{x}\t{c}\t{v.hex()}" for (x, c), v in zip(keys, values.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)), min_size=1, max_size=64
        )
    )
    def test_hex_text_equals_float_hex(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        matrix, mask = policy_module._hex_lines(values)
        got = [bytes(row[keep]).decode() for row, keep in zip(matrix, mask)]
        assert got == [v.hex() + "\n" for v in values.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(
        chains=st.dictionaries(IDS, st.lists(IDS, min_size=1, max_size=6, unique=True), min_size=1, max_size=5),
        kind=st.sampled_from(["tabular", "softmax", "softmax-inf"]),
        temperature=st.sampled_from([1.0, 0.7, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_per_line_reference_and_reload_bit_for_bit(
        self, tmp_path_factory, chains, kind, temperature, seed
    ):
        space = PromptSpace(chains, {x: dict.fromkeys(cs, "a") for x, cs in chains.items()})
        rng = np.random.default_rng(seed)
        n = space._bounds[-1]
        if kind == "tabular":
            raw = rng.random(n) * (rng.random(n) < 0.7) * 10.0 ** rng.integers(-310, 3, n)
            raw[space._offsets[:-1]] += 1.0
            policy = TabularPolicy(space, {x: raw[slice(*space._span(x))] for x in space.prompts})
        else:
            logits = rng.normal(0, 30, n)
            if kind == "softmax-inf":
                logits[rng.random(n) < 0.4] = -math.inf
                logits[space._offsets[:-1]] = 0.0
            policy = SoftmaxPolicy._trusted(space, logits, temperature)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.policy"
        save_policy(policy, path)
        assert path.read_bytes() == reference_checkpoint(policy)
        if kind == "softmax-inf":
            return  # load_policy rejects non-finite logits
        loaded = load_policy(path, space)
        assert type(loaded) is type(policy)
        assert loaded._probs.tobytes() == policy._probs.tobytes()
        if kind == "softmax":
            assert loaded.temperature == policy.temperature
            assert loaded._logits.tobytes() == policy._logits.tobytes()

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.policy"
        save_policy(TabularPolicy.uniform(small_space()), path)
        before = path.read_bytes()

        def fail(values):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(policy_module, "_hex_lines", fail)
        with pytest.raises(RuntimeError, match="disk gone"):
            save_policy(SoftmaxPolicy.zeros(small_space()), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.policy"]

    def test_tabular_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        space = small_space()
        policy = TabularPolicy(
            space, {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts}
        )
        path = tmp_path / "ckpt.policy"
        save_policy(policy, path)
        loaded = load_policy(path, space)
        assert isinstance(loaded, TabularPolicy)
        for x in space.prompts:
            assert np.array_equal(loaded.distribution(x), policy.distribution(x))

    def test_softmax_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        space = small_space()
        policy = SoftmaxPolicy(
            space,
            {x: rng.normal(size=len(space.chains(x))) for x in space.prompts},
            temperature=0.7,
        )
        path = tmp_path / "ckpt.policy"
        save_policy(policy, path)
        loaded = load_policy(path, space)
        assert isinstance(loaded, SoftmaxPolicy)
        assert loaded.temperature == policy.temperature
        for x in space.prompts:
            assert np.array_equal(loaded.logits(x), policy.logits(x))
            assert np.array_equal(loaded.distribution(x), policy.distribution(x))

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            load_policy(path, small_space())

    def _write_checkpoint(self, tmp_path, body: str):
        path = tmp_path / "ckpt.policy"
        path.write_text("# voteloop policy v1\n" + body, encoding="utf-8")
        return path

    def test_rejects_header_only_file(self, tmp_path):
        path = self._write_checkpoint(tmp_path, "")
        with pytest.raises(ValueError, match="ckpt.policy: missing or unknown kind header"):
            load_policy(path, small_space())

    def test_rejects_softmax_kind_without_temperature(self, tmp_path):
        path = self._write_checkpoint(tmp_path, "# kind softmax\n")
        with pytest.raises(ValueError, match="ckpt.policy: softmax kind header needs a temperature"):
            load_policy(path, small_space())

    def test_rejects_duplicate_record(self, tmp_path):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        records = "p\tc0\t0x1p-2\np\tc1\t0x1p-1\np\tc1\t0x1.8p-1\n"
        path = self._write_checkpoint(tmp_path, "# kind tabular\n" + records)
        with pytest.raises(ValueError, match="ckpt.policy: duplicate record for prompt 'p' chain 'c1'"):
            load_policy(path, space)

    @pytest.mark.parametrize("extra", ["q\tc0\t0x1p-1\n", "p\tc9\t0x1p-1\n"])
    def test_rejects_records_outside_the_space(self, tmp_path, extra):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        records = "p\tc0\t0x1p-1\np\tc1\t0x1p-1\n" + extra
        path = self._write_checkpoint(tmp_path, "# kind tabular\n" + records)
        with pytest.raises(ValueError, match="ckpt.policy: record .* is outside the prompt space"):
            load_policy(path, space)

    def test_rejects_a_row_whose_sum_overflows(self, tmp_path):
        space = PromptSpace({"p": ("c0", "c1")}, {"p": {"c0": "a", "c1": "b"}})
        big = (1e308).hex()
        path = self._write_checkpoint(tmp_path, f"# kind tabular\np\tc0\t{big}\np\tc1\t{big}\n")
        with pytest.raises(ValueError, match="ckpt.policy: prompt 'p': .*finite"):
            load_policy(path, space)

    def test_rejects_missing_records(self, tmp_path):
        path = self._write_checkpoint(tmp_path, "# kind tabular\np0\tc0\t0x1p-1\n")
        with pytest.raises(ValueError, match="ckpt.policy: records do not cover prompt 'p0'"):
            load_policy(path, small_space())


def test_flat_classes_key_each_distinct_answer_once(monkeypatch):
    answers = {
        "p0": {"c0": "0.5", "c1": "x", "c2": "1/2", "c3": "0.5"},
        "p1": {"c0": "x", "c1": "0.5", "c2": " x"},
        "p2": {"c0": "\\frac{1}{2}", "c1": "1/2"},
    }
    space = PromptSpace({x: tuple(amap) for x, amap in answers.items()}, answers)
    keyed = []
    real = policy_module.answer_key
    monkeypatch.setattr(policy_module, "answer_key", lambda a: keyed.append(a) or real(a))
    flat = space._flat_classes()
    assert sorted(keyed) == sorted({a for amap in answers.values() for a in amap.values()})
    # Each row still numbers its answers' keys by first appearance.
    assert flat.tolist() == [0, 1, 0, 0, 0, 1, 0, 0, 0]
