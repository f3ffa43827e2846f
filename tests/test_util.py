"""Substream derivation, batched substream draws, row normalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop import util
from voteloop.policy import PromptSpace, TabularPolicy
from voteloop.util import substream, substream_random


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


class TestSubstreamRandom:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**200)),
        addresses=st.lists(
            st.lists(st.one_of(st.text(max_size=12), st.integers(-(2**40), 2**40)), max_size=4),
            min_size=1,
            max_size=8,
        ),
        count=st.integers(1, 50),
    )
    def test_rows_equal_substreams(self, seed, addresses, count):
        got = substream_random(seed, addresses, count)
        assert got.shape == (len(addresses), count)
        for row, tags in zip(got, addresses):
            np.testing.assert_array_equal(row, substream(seed, *tags).random(count))

    def test_non_ascii_tags_and_mixed_types(self):
        addresses = [("gen", 3, "prompt-\u00e9\u4e2d"), ("eval", 0, 1, "p"), (), ("\\frac{1}{2}",)]
        got = substream_random(-12, addresses, 7)
        for row, tags in zip(got, addresses):
            np.testing.assert_array_equal(row, substream(-12, *tags).random(7))

    @pytest.mark.parametrize("count", [1, 50, 10_000])
    def test_counts(self, count):
        addresses = [("gen", 2, "p0"), ("gen", 2, "p1"), ("eval", 2, 0, "p0")]
        got = substream_random(5, addresses, count)
        for row, tags in zip(got, addresses):
            np.testing.assert_array_equal(row, substream(5, *tags).random(count))

    @pytest.mark.parametrize("count", [3, 10])
    def test_rows_spanning_several_blocks(self, count):
        rows = 3 * (util._BLOCK // count) + 7
        addresses = [("gen", 4, f"p{i}") for i in range(rows)]
        got = substream_random(9, addresses, count)
        for r in (0, util._BLOCK // count - 1, util._BLOCK // count, rows // 2, rows - 1):
            np.testing.assert_array_equal(got[r], substream(9, *addresses[r]).random(count))

    def test_lists_tuples_empty_and_changing_prefixes(self):
        # Equal prefix values of different types (1, True, 1.0; 0.0, -0.0)
        # stringify differently, so they must hash as distinct prefixes.
        addresses = [
            ["gen", 1, "p0"], ("gen", 1, "p1"), ["gen", 1, "p2"], (), [], ("gen",),
            ("gen", True, "p0"), ("gen", 1.0, "p0"), ("gen", 1, "p0"), ("gen", 0.0, "x"),
            ("gen", -0.0, "x"), ("eval", 1, 0, "p0"), ("eval", 1, 0, "p1"), ("eval", 1, 1, "p0"),
            ("gen", 1), ("gen", 1, "p0"),
        ]
        for seed in (0, -7, 2**128 + 5, -(2**130)):
            got = substream_random(seed, addresses, 6)
            for row, tags in zip(got, addresses):
                np.testing.assert_array_equal(row, substream(seed, *tags).random(6))
            assert len({row.tobytes() for row in got}) == len({repr(tuple(t)) for t in addresses})

    def test_memory_stays_near_the_output_size(self):
        addresses = [("gen", 1, i) for i in range(200_000)]
        tracemalloc.start()
        try:
            out = substream_random(0, addresses, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes
        np.testing.assert_array_equal(out[-1], substream(0, "gen", 1, 199_999).random(10))

    def test_empty_and_invalid(self):
        assert substream_random(0, [], 3).shape == (0, 3)
        with pytest.raises(ValueError):
            substream_random(0, [("gen",)], 0)


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
