"""Substream derivation, counter-based per-round draws, row normalization."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from voteloop import util
from voteloop.engine import generate_round
from voteloop.policy import PromptSpace, TabularPolicy
from voteloop.util import counter_random, substream


class TestSubstream:
    def test_same_address_same_stream(self):
        a = substream(7, "gen", 3, "p0").integers(1 << 62, size=8)
        b = substream(7, "gen", 3, "p0").integers(1 << 62, size=8)
        assert np.array_equal(a, b)

    def test_distinct_addresses_differ(self):
        draws = {
            int(substream(seed, tag, i).integers(1 << 62))
            for seed in (0, 1)
            for tag in ("gen", "eval")
            for i in range(10)
        }
        assert len(draws) == 40

    def test_string_tags_are_delimited(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        a = substream(0, "ab", "c").integers(1 << 62)
        b = substream(0, "a", "bc").integers(1 << 62)
        assert a != b


MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def h64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def reference_draws(seed: int, tags, prompt: str, count: int) -> list[float]:
    """The stream contract in Python integers: draw t of (seed, *tags) and a prompt."""
    key = mix64(h64("\x1f".join(map(str, (int(seed), *tags)))) ^ h64(prompt))
    gamma = 0x9E3779B97F4A7C15
    return [(mix64((key + (t + 1) * gamma) & MASK64) >> 11) * 2.0**-53 for t in range(count)]


def draws_for(seed, prefixes, prompts, count):
    return counter_random(seed, prefixes, np.array([h64(x) for x in prompts], np.uint64), count)


def assert_rows_equal_reference(seed, prefixes, prompts, count):
    got = draws_for(seed, prefixes, prompts, count)
    assert got.shape == (len(prefixes) * len(prompts), count) and got.dtype == np.float64
    rows = iter(got.tolist())
    for tags in prefixes:
        for prompt in prompts:
            assert next(rows) == reference_draws(seed, tags, prompt, count)
    return got


_PREFIXES = st.lists(
    st.one_of(
        st.tuples(st.just("gen"), st.integers(0, 10**6)),
        st.tuples(st.just("eval"), st.integers(0, 10**6), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=3,
)


class TestSubstreamRandom:
    """`util.counter_random`, the per-round draws of every (prefix, prompt)
    stream, against a pure-Python integer reference of its contract."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**200)),
        prefixes=_PREFIXES,
        prompts=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
        count=st.one_of(st.sampled_from([1, 10, 501]), st.integers(1, 50)),
    )
    def test_rows_equal_integer_reference(self, seed, prefixes, prompts, count):
        assert_rows_equal_reference(seed, prefixes, prompts, count)

    def test_non_ascii_tags_and_mixed_types(self):
        prefixes = [("gen", 3), ("eval", 0, 1), ("\u00e9\u4e2d", -4, 2.5)]
        prompts = ["prompt-\u00e9\u4e2d", "\\frac{1}{2}", "p", "\U0001f600"]
        assert_rows_equal_reference(-12, prefixes, prompts, 7)

    @pytest.mark.parametrize("count", [1, 10, 50, 501, 10_000])
    def test_counts(self, count):
        assert_rows_equal_reference(5, [("gen", 2), ("eval", 2, 0)], ["p0", "p1"], count)

    def test_lists_tuples_empty_and_changing_prefixes(self):
        # Equal prefix values of different types (1, True, 1.0; 0.0, -0.0)
        # stringify differently, so they must key distinct streams.
        prefixes = [
            ["gen", 1], ("gen", 1), (), [], ("gen",), ("gen", True), ("gen", 1.0),
            ("gen", 0.0), ("gen", -0.0), ("eval", 1, 0), ("eval", 1, 1), ("gen", 1, 0),
        ]
        for seed in (0, -7, 2**128 + 5, -(2**130)):
            got = assert_rows_equal_reference(seed, prefixes, ["p0", "p1"], 6)
            texts = {(repr(tuple(t)), x) for t in prefixes for x in ("p0", "p1")}
            assert len({row.tobytes() for row in got}) == len(texts)

    def test_rows_do_not_depend_on_the_other_rows(self):
        prompts = [f"p{i}" for i in range(30)]
        whole = draws_for(4, [("gen", 2)], prompts, 9)
        order = np.random.default_rng(0).permutation(30)[:11]
        part = draws_for(4, [("gen", 2)], [prompts[i] for i in order], 9)
        np.testing.assert_array_equal(part, whole[order])

    def test_space_digests_are_built_on_the_first_draw(self):
        space = PromptSpace({"p\u00e9": ("a",), "q": ("a",)}, {x: {"a": "1"} for x in ("p\u00e9", "q")})
        assert space._digests is None
        generate_round(TabularPolicy.uniform(space), space, k=3, seed=0)
        digests = space._prompt_digests()
        assert digests.dtype == np.uint64 and not digests.flags.writeable
        assert digests.tolist() == [h64("p\u00e9"), h64("q")]

    def test_draws_raise_no_warning(self):
        digests = np.array([0, 1, 2**63, MASK64], np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = counter_random(2**70, [("gen", 1), ("eval", 1, 0)], digests, 501)
        assert got.min() >= 0.0 and got.max() < 1.0

    def test_memory_stays_near_the_output_size(self):
        digests = np.arange(20_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            out = counter_random(0, [("gen", 1)], digests, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes + 4 * digests.nbytes

    def test_empty_and_invalid(self):
        assert counter_random(0, [("gen", 1)], np.array([], np.uint64), 3).shape == (0, 3)
        assert counter_random(0, [], np.array([1], np.uint64), 3).shape == (0, 3)
        with pytest.raises(ValueError):
            counter_random(0, [("gen", 1)], np.array([1], np.uint64), 0)


class TestStreamStatistics:
    """Statistical checks of the draws (scipy). Each uses fixed seeds, so it
    is deterministic; the p-value floors are 1e-3. No external battery
    (TestU01, PractRand) is run."""

    def test_uniform_within_each_row(self):
        draws = counter_random(0, [("gen", 1)], np.arange(40, dtype=np.uint64), 20_000)
        pvalues = [
            stats.chisquare(np.bincount((row * 64).astype(int), minlength=64)).pvalue
            for row in draws
        ]
        assert min(pvalues) > 1e-3 / len(pvalues)
        assert stats.kstest(pvalues, "uniform").pvalue > 1e-3

    def test_uniform_pooled_across_rows(self):
        # The shape of a run's round: many prompts, few draws each.
        draws = counter_random(3, [("eval", 2, 0)], np.arange(50_000, dtype=np.uint64), 10)
        pooled = np.bincount((draws * 100).astype(int).ravel(), minlength=100)
        assert stats.chisquare(pooled).pvalue > 1e-3
        for column in draws.T:
            assert stats.chisquare(np.bincount((column * 50).astype(int), minlength=50)).pvalue > 1e-3
        assert stats.kstest(draws[:, 0], "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("lag", [1, 2, 3, 8])
    def test_no_lag_correlation_within_rows(self, lag):
        draws = counter_random(1, [("gen", 5)], np.arange(200, dtype=np.uint64), 1000)
        assert stats.pearsonr(draws[:, :-lag].ravel(), draws[:, lag:].ravel()).pvalue > 1e-3

    def test_no_correlation_between_adjacent_keys(self):
        # Adjacent prompt digests (consecutive integers), adjacent rounds and
        # adjacent repeats, at the same draw index.
        digests = np.arange(20_001, dtype=np.uint64)
        draws = counter_random(2, [("gen", 7), ("gen", 8), ("eval", 7, 0), ("eval", 7, 1)], digests, 10)
        rounds = draws.reshape(4, len(digests), 10)
        pairs = [
            (rounds[0, :-1], rounds[0, 1:]),
            (rounds[0], rounds[1]),
            (rounds[2], rounds[3]),
            (rounds[0], rounds[2]),
        ]
        for a, b in pairs:
            assert stats.pearsonr(a.ravel(), b.ravel()).pvalue > 1e-3

    def test_no_repeated_first_draw_over_1e5_keys(self):
        draws = counter_random(0, [("gen", 1)], np.arange(100_000, dtype=np.uint64), 1)
        assert len(np.unique(draws[:, 0])) == 100_000


def normalize_simplex(raw: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """The one-row normalize that `util.normalize_rows` replaced, kept as
    its reference."""
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    out = raw.copy() if abs(total - 1.0) <= tol else raw / total
    small = (out < util.TINY_PROB) & (out > 0)
    if small.any():
        out[small] = 0.0
        out = out / out.sum()
    return out


def normalize_one(raw, tol: float = 0.0) -> np.ndarray:
    return util.normalize_rows(np.asarray(raw, dtype=float), np.array([0, len(raw)]), tol)


# Row entries: exact zeros, the denormal and sub-TINY_PROB range, and
# ordinary masses.
_ENTRIES = st.one_of(
    st.just(0.0), st.floats(1e-320, 1e-299), st.floats(1e-6, 10.0)
)


class TestNormalizeSimplex:
    """`util.normalize_rows` puts every row of a flat array on the simplex."""

    def test_scales_to_one(self):
        out = normalize_one([2.0, 6.0])
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_already_normalized_is_bitwise_stable(self):
        raw = np.random.default_rng(0).uniform(0.1, 2.0, size=5)
        once = normalize_one(raw)
        again = normalize_one(once, tol=1e-12)
        assert np.array_equal(once, again)

    def test_flushes_denormal_range(self):
        out = normalize_one([1.0, 1e-310])
        assert out[1] == 0.0 and out[0] == 1.0

    def test_rejects_bad_input(self):
        # normalize_rows trusts its input; TabularPolicy checks it first and
        # names the first bad prompt.
        space = PromptSpace(
            {"p": ("a", "b"), "q": ("a", "b")}, {x: {"a": "1", "b": "2"} for x in "pq"}
        )
        for bad, problem in [
            ([], "expected 2 probabilities"),
            ([0.0, 0.0], "probability vector has zero mass"),
            ([-1.0, 2.0], "probabilities must be finite and nonnegative"),
            ([np.nan, 1.0], "probabilities must be finite and nonnegative"),
            ([np.inf, 1.0], "probabilities must be finite and nonnegative"),
        ]:
            with pytest.raises(ValueError, match=f"^prompt 'q': {problem}"):
                TabularPolicy(space, {"p": [0.5, 0.5], "q": np.array(bad, dtype=float)})

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(_ENTRIES, min_size=1, max_size=9).filter(lambda r: sum(r) > 0),
                st.sampled_from(["raw", "normalized", "nudged"]),
                st.floats(-1e-12, 1e-12),
            ),
            min_size=1,
            max_size=8,
        ),
        tol=st.sampled_from([0.0, 1e-12]),
    )
    def test_rows_equal_the_one_row_rule(self, rows, tol):
        built = []
        for entries, mode, nudge in rows:
            row = np.array(entries)
            if mode != "raw":
                row = row / row.sum()  # within a few ulps of sum 1
            if mode == "nudged":
                row = row * (1.0 + nudge)  # within about 1e-12 of sum 1
            built.append(row)
        offsets = np.cumsum([0] + [len(r) for r in built])
        flat = np.concatenate(built)
        got = util.normalize_rows(flat, offsets, tol)
        grouped = util.normalize_rows(flat, offsets, tol, tuple(util.length_groups(offsets)))
        want = np.concatenate([normalize_simplex(r, tol) for r in built])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(grouped.view(np.uint64), want.view(np.uint64))
