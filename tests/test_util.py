"""Substream derivation, simplex normalization, parallel map."""

import numpy as np
import pytest

from voteloop.util import normalize_simplex, substream, total_variation


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


class TestNormalizeSimplex:
    def test_scales_to_one(self):
        out = normalize_simplex(np.array([2.0, 6.0]))
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_already_normalized_is_bitwise_stable(self):
        raw = np.random.default_rng(0).uniform(0.1, 2.0, size=5)
        once = normalize_simplex(raw)
        again = normalize_simplex(once, tol=1e-12)
        assert np.array_equal(once, again)

    def test_flushes_denormal_range(self):
        out = normalize_simplex(np.array([1.0, 1e-310]))
        assert out[1] == 0.0 and out[0] == 1.0

    def test_rejects_bad_input(self):
        for bad in ([], [0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                normalize_simplex(np.array(bad, dtype=float))


def test_total_variation():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.8, 0.2], [0.6, 0.4]) == pytest.approx(0.2, abs=1e-15)
