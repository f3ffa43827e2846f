"""Flat-table operations against per-prompt references, bit for bit.

The tabular update, entropies, votes, softmax probabilities and the
softmax solver's weight counts run over all prompts at once on flat arrays
laid out by the space's chain offsets. Each must equal the per-prompt
computation it replaced: same distributions, degenerate prompts,
objective, entropies, vote winners, probabilities and counts, to the last
bit. The
references below are the one-prompt-at-a-time code, and each adds a row
left to right (`ltr_sum`), the one summation order of the library.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop.engine import _update_tabular
from voteloop.optim import (
    DegeneratePromptError,
    _objective_rows,
    _pad_rows,
    _prompt_rows,
    closed_form_update,
    objective_gradient,
    solve_gradient,
    weighted_mle_objective,
)
from voteloop.policy import (
    TABULAR_SUM_TOL,
    PromptSpace,
    SoftmaxPolicy,
    TabularPolicy,
    load_policy,
    save_policy,
)
from voteloop.rewards import vote_classes
from voteloop.util import TINY_PROB, normalize_rows, row_sums, substream


def ltr_sum(row) -> float:
    """The entries of a row added one at a time, first entry first; 0.0
    for an empty row. Not builtin `sum`, which Python 3.12 compensates."""
    values = np.asarray(row, dtype=float).tolist()
    total = values[0] if values else 0.0
    for v in values[1:]:
        total += v
    return total


def reference_tilt(prev: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """normalize(exp(lw) * prev) for one prompt: the per-prompt rule."""
    with np.errstate(divide="ignore"):
        logp = np.where(prev > 0, np.log(prev), -np.inf)
    combined = lw + logp
    shift = combined.max()
    if shift == -np.inf:
        raise ValueError("zero effective mass")
    out = np.exp(combined - shift)
    out /= ltr_sum(out)
    small = (out < TINY_PROB) & (out > 0)
    if small.any():
        out[small] = 0.0
        out /= ltr_sum(out)
    return out


def normalize_simplex(raw: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """One row scaled to sum 1 (left as it is within `tol` of 1), entries
    below TINY_PROB flushed: the per-prompt normalize of the validating
    constructor."""
    total = ltr_sum(raw)
    out = raw.copy() if abs(total - 1.0) <= tol else raw / total
    small = (out < TINY_PROB) & (out > 0)
    if small.any():
        out[small] = 0.0
        out = out / ltr_sum(out)
    return out


def reference_update(policy: TabularPolicy, log_w: dict[str, np.ndarray]):
    """Per-prompt update with degenerate freeze and the realized objective;
    every new row goes through the validating constructor's normalization."""
    table, frozen, objective = {}, [], 0.0
    for prompt in policy.space.prompts:
        prev = policy.distribution(prompt)
        try:
            new = normalize_simplex(reference_tilt(prev, log_w[prompt]), tol=TABULAR_SUM_TOL)
        except ValueError:
            table[prompt] = prev
            frozen.append(prompt)
            continue
        table[prompt] = new
        w = np.exp(log_w[prompt])
        mask = (prev > 0) & (w > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            objective += ltr_sum(prev[mask] * w[mask] * np.log(new[mask]))
    return table, frozen, objective


def flat(policy: TabularPolicy, log_w: dict[str, np.ndarray]) -> np.ndarray:
    """Per-prompt log-weights as the flat array `_update_tabular` takes."""
    return np.concatenate([log_w[x] for x in policy.space.prompts])


def reference_entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return -ltr_sum(nz * np.log(nz))


# Prior entries: exact zeros, tiny masses that tilt below TINY_PROB, and
# ordinary masses. Log-weights: zero weights, weights that push a row's
# entries below TINY_PROB, and ordinary ones.
PRIOR = st.one_of(st.just(0.0), st.just(1e-290), st.floats(1e-3, 1.0))
LOG_WEIGHT = st.one_of(st.just(-math.inf), st.just(-700.0), st.floats(-30.0, 30.0))


@st.composite
def tabular_updates(draw, prompts=st.integers(1, 6), prior=PRIOR, log_weight=LOG_WEIGHT):
    chains, answers, probs, log_w = {}, {}, {}, {}
    for i in range(draw(prompts)):
        n = draw(st.integers(1, 40))
        prev = np.array(draw(st.lists(prior, min_size=n, max_size=n).filter(lambda v: sum(v) > 0)))
        lw = np.array(draw(st.lists(log_weight, min_size=n, max_size=n)))
        if draw(st.integers(0, 4)) == 0:  # degenerate: no weight on the support
            lw[prev > 0] = -math.inf
        prompt = f"p{i}"
        chains[prompt] = tuple(f"c{j}" for j in range(n))
        answers[prompt] = {c: c for c in chains[prompt]}
        probs[prompt], log_w[prompt] = prev, lw
    space = PromptSpace(chains, answers)
    return TabularPolicy(space, probs), log_w


class TestFlatUpdate:
    @settings(max_examples=200, deadline=None)
    @given(case=tabular_updates())
    def test_update_equals_per_prompt_rule(self, case):
        policy, log_w = case
        new, frozen, objective = _update_tabular(policy, flat(policy, log_w))
        table, frozen_ref, objective_ref = reference_update(policy, log_w)
        assert frozen == frozen_ref
        for prompt in policy.space.prompts:
            assert new.distribution(prompt).tobytes() == table[prompt].tobytes()
        assert np.float64(objective).tobytes() == np.float64(objective_ref).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        case=tabular_updates(
            prompts=st.integers(3, 12), prior=st.floats(1e-3, 1.0), log_weight=st.floats(-5.0, 5.0)
        )
    )
    def test_finite_objective_adds_prompts_left_to_right(self, case):
        # Ordinary weights keep the objective finite, so the order in which
        # prompts' terms are added shows in its last bits.
        policy, log_w = case
        _, _, objective = _update_tabular(policy, flat(policy, log_w))
        _, _, objective_ref = reference_update(policy, log_w)
        assert math.isfinite(objective_ref)
        assert objective == objective_ref

    @settings(max_examples=75, deadline=None)
    @given(case=tabular_updates(), data=st.data())
    def test_closed_form_update_on_a_prompt_subset(self, case, data):
        policy, log_w = case
        prompts = policy.space.prompts
        n = len(prompts)
        rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        degenerate = []
        for x in np.array(prompts)[rows].tolist():
            try:
                reference_tilt(policy.distribution(x), log_w[x])
            except ValueError:
                degenerate.append(x)
        if degenerate:
            try:
                closed_form_update(policy, flat(policy, log_w), rows)
            except DegeneratePromptError as exc:
                assert exc.prompt == degenerate[0]
            else:
                raise AssertionError("degenerate prompt not reported")
            return
        new = closed_form_update(policy, flat(policy, log_w), rows)
        for x, chosen in zip(prompts, rows.tolist()):
            prev = policy.distribution(x)
            want = prev
            if chosen:
                want = normalize_simplex(reference_tilt(prev, log_w[x]), tol=TABULAR_SUM_TOL)
            assert new.distribution(x).tobytes() == want.tobytes()

    def test_flush_and_degenerate_rows_are_exercised(self):
        # One row flushes a sub-TINY_PROB entry, one is degenerate.
        space = PromptSpace(
            {"a": ("c0", "c1", "c2"), "b": ("c0", "c1")},
            {"a": {"c0": "x", "c1": "y", "c2": "z"}, "b": {"c0": "x", "c1": "y"}},
        )
        policy = TabularPolicy(space, {"a": (0.5, 0.3, 0.2), "b": (1.0, 0.0)})
        log_w = {"a": np.array([0.0, -700.0, 1.0]), "b": np.array([-math.inf, 0.0])}
        new, frozen, _ = _update_tabular(policy, flat(policy, log_w))
        assert frozen == ["b"]
        assert new.distribution("a")[1] == 0.0
        table, _, _ = reference_update(policy, log_w)
        assert new.distribution("a").tobytes() == table["a"].tobytes()


class TestFlatEntropy:
    @settings(max_examples=75, deadline=None)
    @given(case=tabular_updates(), data=st.data())
    def test_entropies_equal_per_prompt(self, case, data):
        policy, _ = case
        prompts = policy.space.prompts
        for x in prompts:
            want = reference_entropy(policy.distribution(x))
            assert np.float64(policy.entropy(x)).tobytes() == np.float64(want).tobytes()
        subset = data.draw(st.lists(st.sampled_from(prompts), min_size=1))
        want = float(np.mean([reference_entropy(policy.distribution(x)) for x in subset]))
        assert policy.mean_entropy(subset) == want


# Answers with merged surface forms, so classes hold several strings and
# votes often tie.
ANSWERS = ("0.5", "\\frac{1}{2}", "1/2", "3", "4", "x")


@st.composite
def votes(draw):
    chains, answers = {}, {}
    for i in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 20))
        drawn = draw(st.lists(st.sampled_from(ANSWERS), min_size=n, max_size=n))
        chains[f"p{i}"] = tuple(f"c{j}" for j in range(n))
        answers[f"p{i}"] = {f"c{j}": a for j, a in enumerate(drawn)}
    space = PromptSpace(chains, answers)
    k = draw(st.integers(1, 12))
    rows = draw(st.lists(st.sampled_from(space.prompts), min_size=1, max_size=12))
    picks = [
        draw(st.lists(st.integers(0, len(space.chains(x)) - 1), min_size=k, max_size=k))
        for x in rows
    ]
    return space, rows, np.array(picks, dtype=np.intp)


class TestFlatVote:
    @settings(max_examples=150, deadline=None)
    @given(case=votes())
    def test_vote_equals_per_row_vote_classes(self, case):
        space, rows, idx = case
        streams = []

        def tie_stream(r):
            streams.append(r)
            return partial(substream, 7, "tie", r)

        picks = space._offsets[space._rows(rows)][:, None] + idx
        classes, winner = space._vote(picks, tie_stream)
        tied = []
        for r, (prompt, row) in enumerate(zip(rows, idx)):
            counts = np.bincount(space.answer_classes(prompt)[row])
            if (counts == counts.max()).sum() > 1:
                tied.append(r)
            answers = [space.answers(prompt)[i] for i in row.tolist()]
            want_winner, _ = vote_classes(
                space.answer_classes(prompt)[row], answers, partial(substream, 7, "tie", r)
            )
            assert classes[r].tolist() == space.answer_classes(prompt)[row].tolist()
            assert winner[r] == want_winner
        assert streams == tied


def reference_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T) for one prompt, as the per-prompt constructor made it."""
    z = logits / temperature
    z = z - z.max()
    p = np.exp(z)
    p /= ltr_sum(p)
    return p


def softmax_inputs(data):
    """A space of prompts with 1-40 chains and finite logits for each."""
    widths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    chains = {f"p{i}": tuple(f"c{j}" for j in range(n)) for i, n in enumerate(widths)}
    space = PromptSpace(chains, {x: {c: c for c in cs} for x, cs in chains.items()})
    logit = st.floats(-60.0, 60.0, allow_subnormal=False)
    logits = {x: np.array(data.draw(st.lists(logit, min_size=n, max_size=n))) for x, n in zip(chains, widths)}
    return space, logits


class TestFlatSoftmax:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trusted_equals_public_constructor_and_per_prompt_rule(self, data):
        space, logits = softmax_inputs(data)
        temperature = data.draw(st.sampled_from([1.0, 0.6, 2.5, 0.05]))
        public = SoftmaxPolicy(space, logits, temperature)
        flat = np.concatenate([logits[x] for x in space.prompts])
        trusted = SoftmaxPolicy._trusted(space, flat, temperature)
        assert trusted._probs.tobytes() == public._probs.tobytes()
        assert trusted._logits.tobytes() == public._logits.tobytes()
        for x in space.prompts:
            assert trusted.distribution(x).tobytes() == reference_softmax(logits[x], temperature).tobytes()

    def test_reloaded_checkpoint_samples_the_trusted_policy(self, tmp_path):
        rng = np.random.default_rng(3)
        space = PromptSpace(
            {f"p{i}": tuple(f"c{j}" for j in range(2 + i)) for i in range(12)},
            {f"p{i}": {f"c{j}": str(j) for j in range(2 + i)} for i in range(12)},
        )
        flat = rng.normal(0, 30, space._bounds[-1])
        trusted = SoftmaxPolicy._trusted(space, flat, 0.7)
        save_policy(trusted, tmp_path / "p.policy")
        loaded = load_policy(tmp_path / "p.policy", space)
        assert loaded._probs.tobytes() == trusted._probs.tobytes()
        uniforms = rng.random((len(space.prompts), 50))
        assert np.array_equal(
            loaded.sample_batch(space.prompts, uniforms), trusted.sample_batch(space.prompts, uniforms)
        )


def reference_counts(space: PromptSpace, samples) -> dict[str, np.ndarray]:
    """Per prompt with samples, the weight on each chain added one
    (prompt, chain, log-weight) sample at a time."""
    counts: dict[str, np.ndarray] = {}
    for prompt, chain, log_weight in samples:
        cnt = counts.setdefault(prompt, np.zeros(len(space.chains(prompt))))
        if log_weight != -math.inf:
            cnt[space.chain_index(prompt, chain)] += math.exp(log_weight)
    return counts


class TestGroupCounts:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_sample_loop(self, data):
        space, logits = softmax_inputs(data)
        log_weight = st.one_of(st.just(-math.inf), st.floats(-30.0, 5.0))
        picks = st.tuples(st.sampled_from(space.prompts), st.integers(0, 39), log_weight)
        samples = [
            (x, space.chains(x)[j % len(space.chains(x))], lw)
            for x, j, lw in data.draw(st.lists(picks, max_size=60))
        ]
        chains = np.array([space._bounds[space._row[x]] + space.chain_index(x, c) for x, c, _ in samples], dtype=np.intp)
        log_weights = np.array([lw for *_, lw in samples])
        if data.draw(st.booleans()):  # a [samples, 1] block: a round's arrays are 2-D
            chains, log_weights = chains.reshape(-1, 1), log_weights.reshape(-1, 1)
        policy = SoftmaxPolicy(space, logits)
        rows, row_logits, counts = _prompt_rows(policy, chains, log_weights)
        want = reference_counts(space, samples)
        assert [space.prompts[r] for r in rows] == [x for x in space.prompts if x in want]
        for r, z, got in zip(rows, row_logits, counts):
            assert z.tobytes() == policy.logits(space.prompts[r]).tobytes()
            assert got.tobytes() == want[space.prompts[r]].tobytes()

    def test_bad_chain_indices_are_named(self):
        space = PromptSpace({"p": ("A", "B"), "q": ("A",)}, {"p": {"A": "a", "B": "b"}, "q": {"A": "a"}})
        policy = SoftmaxPolicy(space, {"p": (0.0, 0.0), "q": (0.0,)})
        bad = [
            ([0, 3], [0.0, 0.0], r"chain index 3 at entry 1 is outside 0\.\.2"),
            ([[0, 1], [-1, 2]], [[0.0] * 2] * 2, r"chain index -1 at entry 2 is outside 0\.\.2"),
            ([0, 1, 2], [0.0, 0.0], r"chain indices \(3,\) and log-weights \(2,\) differ in shape"),
            ([0.0, 1.0], [0.0, 0.0], "chain indices must be integers"),
        ]
        entries = [
            lambda c, w: _prompt_rows(policy, c, w),
            lambda c, w: solve_gradient(policy, c, w),
            lambda c, w: weighted_mle_objective(policy, c, w),
            lambda c, w: objective_gradient(policy, c, w),
        ]
        for chains, log_weights, message in bad:
            for entry in entries:
                with pytest.raises(ValueError, match=message):
                    entry(np.array(chains), np.array(log_weights))


# Entries of a row: exact zeros, the sub-TINY_PROB range and ordinary
# masses, so flushes and rows of several magnitudes are drawn.
ROW_ENTRY = st.one_of(st.just(0.0), st.floats(1e-310, 1e-299), st.floats(1e-6, 10.0))
ROW = st.lists(ROW_ENTRY, min_size=1, max_size=40).filter(lambda r: max(r) > 1e-6)


class TestRowsStandAlone:
    """A row's sum, normalized row, CDF, entropy and softmax objective have
    the bits of the row alone, whatever the lengths of the other rows."""

    @staticmethod
    def placed(data, row):
        """`row` between other rows of 1-40 entries: the flat array, its
        offsets and the row's index."""
        others = data.draw(st.lists(ROW, max_size=6))
        at = data.draw(st.integers(0, len(others)))
        rows = [np.array(r) for r in [*others[:at], row, *others[at:]]]
        return np.concatenate(rows), np.cumsum([0] + [len(r) for r in rows]), at

    @settings(max_examples=150, deadline=None)
    @given(row=ROW, data=st.data())
    def test_sums_and_normalized_rows(self, row, data):
        flat, offsets, at = self.placed(data, row)
        span = slice(offsets[at], offsets[at + 1])
        alone = np.array([0, len(row)])
        assert row_sums(flat, offsets)[at] == ltr_sum(row)
        mask = flat > 1e-6
        assert row_sums(flat, offsets, mask)[at] == ltr_sum(np.where(mask, flat, 0.0)[span])
        got = normalize_rows(flat, offsets)[span]
        assert got.tobytes() == normalize_rows(np.array(row), alone).tobytes()
        assert got.tobytes() == normalize_simplex(np.array(row)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(row=ROW, data=st.data())
    def test_cdf_and_entropy(self, row, data):
        flat, offsets, at = self.placed(data, row)
        flat = normalize_rows(flat, offsets)
        names = [f"p{i}" for i in range(len(offsets) - 1)]
        space = PromptSpace(
            {x: tuple(f"c{j}" for j in range(n)) for x, n in zip(names, np.diff(offsets).tolist())},
            {x: {f"c{j}": "a" for j in range(n)} for x, n in zip(names, np.diff(offsets).tolist())},
        )
        policy = TabularPolicy._trusted(space, flat)
        p = policy.distribution(names[at])
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        assert policy._cdf_table()[offsets[at] : offsets[at + 1]].tobytes() == cdf.tobytes()
        assert policy.entropy(names[at]) == reference_entropy(p)

    @settings(max_examples=150, deadline=None)
    @given(row=st.integers(1, 40), data=st.data())
    def test_softmax_objective(self, row, data):
        logit = st.floats(-30.0, 30.0, allow_subnormal=False)
        count = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
        widths = [row] + data.draw(st.lists(st.integers(1, 40), max_size=6))
        logits = [np.array(data.draw(st.lists(logit, min_size=n, max_size=n))) for n in widths]
        counts = [np.array(data.draw(st.lists(count, min_size=n, max_size=n))) for n in widths]
        temperature = data.draw(st.sampled_from([1.0, 0.6, 2.5]))
        together = _objective_rows(*_pad_rows(logits, counts), temperature)[0]
        alone = _objective_rows(*_pad_rows(logits[:1], counts[:1]), temperature)[0]
        with np.errstate(divide="ignore"):
            logp = np.log(reference_softmax(logits[0], temperature))
        want = ltr_sum(np.where(counts[0] > 0, counts[0] * logp, 0.0))
        assert np.float64(together).tobytes() == np.float64(alone).tobytes()
        assert np.float64(together).tobytes() == np.float64(want).tobytes()
