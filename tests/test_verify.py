"""The private pieces of the `verify` suites: the blocked closedform and
gradients suites against their per-instance form, the anchor draw, the vote
oracle, the fuzz string draws, and suites run on broken code."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop import answers, verify
from voteloop.answers import equivalent
from voteloop.optim import (
    DegeneratePromptError,
    _direction_rows,
    _gradient_rows,
    _objective_rows,
    _pad_rows,
    _prompt_rows,
    _sup_rows,
    closed_form_update,
    product_form_oracle,
)
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy
from voteloop.util import substream
from voteloop.verify import (
    InstanceResult,
    _FUZZ_POOL,
    _fuzz_strings,
    _random_answers,
    _random_tabular,
    _space_of,
    _vote_oracle,
    verify_answers,
    verify_closedform,
    verify_gradients,
)


def stack_weights(space, weights):
    """Flat log-weights of a prompt -> per-chain weights mapping, and the
    mask of the prompts it covers; the others get log-weight 0."""
    lens = np.diff(space._offsets).tolist()
    parts = [
        np.asarray(weights[x], dtype=float) if x in weights else np.ones(n)
        for x, n in zip(space.prompts, lens)
    ]
    with np.errstate(divide="ignore"):
        return np.log(np.concatenate(parts)), np.array([x in weights for x in space.prompts])


def closedform_per_instance(count, seed):
    """verify_closedform one instance at a time, through the per-prompt
    weight mappings, `Generator.choice` and `equivalent`."""
    instances, betas = [], [None, 0.05, 0.1, 1.0]
    for idx in range(count):
        rng = substream(seed, "closedform", idx)
        space = _space_of(_random_answers(rng, 8, 8))
        pi0 = _random_tabular(rng, space)
        rounds = int(rng.integers(1, 6))
        beta = betas[int(rng.integers(len(betas)))]
        policy, history = pi0, []
        for _ in range(rounds):
            weights = {}
            for prompt in space.prompts:
                dist = policy.distribution(prompt)
                anchor = space.answers(prompt)[int(rng.choice(len(dist), p=dist))]
                rewards = np.array(
                    [1.0 if equivalent(a, anchor) else 0.0 for a in space.answers(prompt)]
                )
                weights[prompt] = rewards if beta is None else np.exp(rewards / beta)
            log_w, rows = stack_weights(space, weights)
            history.append(log_w)
            policy = closed_form_update(policy, log_w, rows)
        oracle = product_form_oracle(pi0, history)
        dev = max(
            float(np.max(np.abs(policy.distribution(x) - oracle.distribution(x))))
            for x in space.prompts
        )
        instances.append(
            InstanceResult(idx, dev <= 1e-9, {"max_dev": dev, "rounds": rounds, "beta": beta})
        )
    return instances


def gradients_per_instance(count, seed, h=1e-5):
    """verify_gradients one instance at a time, each on its own space and
    policy with a scalar temperature."""
    instances = []
    for idx in range(count):
        rng = substream(seed, "grad", idx)
        space = _space_of(_random_answers(rng, 4, 6))
        logits = {x: rng.normal(0, 1.5, len(space.chains(x))) for x in space.prompts}
        temperature = float(rng.uniform(0.5, 2.0))
        policy = SoftmaxPolicy(space, logits, temperature)
        chains, log_weights, reference = [], [], {}
        for _ in range(int(rng.integers(3, 20))):
            r = int(rng.integers(len(space.prompts)))
            j = int(rng.integers(len(space.chains(space.prompts[r]))))
            lw = -math.inf if rng.random() < 0.1 else float(np.log(rng.uniform(0.1, 5.0)))
            chains.append(space._bounds[r] + j)
            log_weights.append(lw)
            reference.setdefault(r, [0.0] * len(space.chains(space.prompts[r])))[j] += math.exp(lw)
        rows, z_rows, cnt_rows = _prompt_rows(policy, np.array(chains), np.array(log_weights))
        z, cnt = _pad_rows(z_rows, cnt_rows)
        grad, numeric = _gradient_rows(z, cnt, temperature), np.empty_like(z)
        for j, e in enumerate(h * np.eye(z.shape[1])):
            up, down = (_objective_rows(z + s * e, cnt, temperature) for s in (1.0, -1.0))
            numeric[:, j] = (up - down) / (2 * h)
        scale = np.maximum(1.0, np.maximum(abs(grad), abs(numeric)))
        max_rel = float(np.max(abs(grad - numeric) / scale))
        dots = np.sum(_direction_rows(z, cnt, temperature) * grad, axis=1)[cnt.sum(axis=1) > 0]
        sup = _sup_rows(cnt)
        want = [sum(c * math.log(c / sum(reference[r])) for c in reference[r] if c > 0) for r in rows]
        detail = {
            "max_rel_err": max_rel,
            "min_ascent": min(dots.tolist(), default=0.0),
            "sup_rel_err": max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(sup.tolist(), want)),
            "objective_le_sup": bool(np.all(_objective_rows(z, cnt, temperature) <= sup)),
        }
        ok = max_rel < 1e-5 and detail["min_ascent"] >= 0 and detail["sup_rel_err"] <= 1e-12
        instances.append(InstanceResult(idx, ok and detail["objective_le_sup"], detail))
    return instances


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize(
    "suite, per_instance",
    [(verify_closedform, closedform_per_instance), (verify_gradients, gradients_per_instance)],
)
def test_blocked_suites_equal_the_per_instance_form(suite, per_instance, seed):
    # Instance draws do not depend on the count, so every count's instances
    # are a prefix of the longest run; 64 and 65 end on and just past a block.
    want = per_instance(150, seed)
    for count in (1, 64, 65, 150):
        got = suite(count=count, seed=seed).instances
        assert got == want[:count], count


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=8).filter(
            lambda w: sum(w) > 0
        ),
        min_size=1,
        max_size=8,
    ),
    rounds=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_anchor_draws_equal_generator_choice(rows, rounds, seed):
    # closedform draws all of an instance's anchor uniforms at once, a row
    # per round, and picks each anchor with `sample_batch` at its uniform.
    chains = {f"p{j}": tuple(f"c{i}" for i in range(len(w))) for j, w in enumerate(rows)}
    space = PromptSpace(chains, {x: {c: c for c in cs} for x, cs in chains.items()})
    policy = TabularPolicy(space, {f"p{j}": w for j, w in enumerate(rows)})
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    uniforms = ours.random((rounds, len(rows)))
    for u in uniforms:
        got = policy.sample_batch(space.prompts, u[:, None])[:, 0]
        want = [theirs.choice(len(p), p=p) for p in map(policy.distribution, space.prompts)]
        assert got.tolist() == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def _negative_first(p, starts):
    p[starts] -= 2.0
    p[starts + 1] += 2.0


def _nan_first(p, starts):
    p[starts] = np.nan


def _scaled(p, starts):
    p *= 1 + 1e-7  # every row's sum off by more than sqrt(eps)


@pytest.mark.parametrize("corrupt", [_negative_first, _nan_first, _scaled])
def test_closedform_raises_on_a_row_choice_rejects(monkeypatch, corrupt):
    bad = np.array([0.25, 0.75])
    corrupt(bad, np.array([0]))
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=bad)

    update = verify.closed_form_update

    def update_then_corrupt(prev, log_w, rows):
        probs = update(prev, log_w, rows)._probs.copy()
        corrupt(probs, prev.space._offsets[:-1])
        return TabularPolicy._trusted(prev.space, probs)

    # Instances of 2+ rounds draw their second anchors from a corrupt table.
    assert any(inst.detail["rounds"] >= 2 for inst in verify_closedform(count=10).instances)
    monkeypatch.setattr(verify, "closed_form_update", update_then_corrupt)
    with pytest.raises(ValueError, match="probabilities must be >= 0 and sum to 1"):
        verify_closedform(count=10)


def test_closedform_raises_on_a_degenerate_update(monkeypatch):
    # Every weight zero: no chain keeps mass.
    monkeypatch.setattr(
        verify, "_CLOSEDFORM_LOG_WEIGHTS", np.full_like(verify._CLOSEDFORM_LOG_WEIGHTS, -np.inf)
    )
    with pytest.raises(DegeneratePromptError, match="'i0/p0'"):
        verify_closedform(count=3)


def test_closedform_fails_an_update_that_ignores_the_row_mask(monkeypatch):
    # Tilting the rows of instances that have run all their rounds gives
    # them extra rounds the product form does not have.
    update = verify.closed_form_update
    monkeypatch.setattr(verify, "closed_form_update", lambda prev, log_w, rows: update(prev, log_w))
    suite = verify_closedform(count=64)
    assert not suite.passed
    assert all(inst.passed for inst in suite.instances if inst.detail["rounds"] == 5)


def test_gradients_fail_a_gradient_without_the_temperature(monkeypatch):
    monkeypatch.setattr(verify, "_gradient_rows", lambda z, cnt, t: _gradient_rows(z, cnt, t) * t)
    suite = verify_gradients(count=64)
    assert sum(not inst.passed for inst in suite.instances) > 32


def _pairwise_vote_oracle(answers):
    """The vote oracle as it was before: one count per list position."""
    counts = [sum(1 for b in answers if equivalent(a, b)) for a in answers]
    best = max(counts)
    return {a for a, c in zip(answers, counts) if c == best}, best


def test_vote_oracle_equals_the_per_position_count():
    alphabet = ["0.5", "\\frac{1}{2}", "3", "x"]
    for size in range(1, 7):
        for combo in itertools.product(alphabet, repeat=size):
            assert _vote_oracle(combo) == _pairwise_vote_oracle(combo), combo


@pytest.mark.parametrize("fuzz", [0, 1, 1023, 1024, 1025, 2049])
def test_fuzz_strings_count_lengths_and_characters(fuzz):
    strings = list(_fuzz_strings(substream(0, "answers-fuzz"), fuzz))
    assert len(strings) == fuzz
    pool = set(_FUZZ_POOL.tolist())
    assert all(0 <= len(s) < 40 and set(s) <= pool for s in strings)


def test_fuzz_strings_use_the_whole_pool():
    strings = _fuzz_strings(substream(1, "answers-fuzz"), 2049)
    assert set("".join(strings)) == set(_FUZZ_POOL.tolist())


def _answers_suite_with(monkeypatch, drop_literal_sign):
    """verify_answers (200 triples, no fuzz) with a parser that drops every
    minus sign in `_Parser.factor`, and in the literal path if asked."""

    def factor_without_negation(self):
        while self.peek() in ("+", "-"):
            self.take()
            self.budget.charge()
        return self.power()

    monkeypatch.setattr(answers._Parser, "factor", factor_without_negation)
    if drop_literal_sign:
        literal = answers._parse_literal
        monkeypatch.setattr(
            answers, "_parse_literal", lambda s, budget: None if (v := literal(s, budget)) is None else abs(v)
        )
    answers._parse_default.cache_clear()
    try:
        return verify_answers(count=200, fuzz=0)
    finally:
        answers._parse_default.cache_clear()


def test_sign_dropping_parser_fails_the_triples(monkeypatch):
    assert not _answers_suite_with(monkeypatch, drop_literal_sign=True).instances[1].passed


def test_factor_only_sign_dropping_fails_the_builtin_pairs(monkeypatch):
    # Literal answers keep their sign, so "-\\frac{1}{2}" (token parser) and
    # "-0.5" (literal) disagree.
    suite = _answers_suite_with(monkeypatch, drop_literal_sign=False)
    assert not suite.instances[0].passed and not suite.passed


def test_fuzz_counts_a_string_not_equivalent_to_itself(monkeypatch):
    monkeypatch.setattr(verify, "equivalent", lambda a, b: equivalent(a, b) and len(a) < 30)
    strings = list(_fuzz_strings(substream(0, "answers-fuzz"), 2000))
    suite = verify_answers(count=0, fuzz=2000)
    assert suite.instances[3].detail["crashes"] == sum(len(s) >= 30 for s in strings) > 0


# A parse that keeps the untrimmed text of an opaque string, under -O.
_UNTRIMMED_PARSE_PROBE = """
from voteloop import answers, verify
verify.parse_answer = lambda raw: answers.CanonicalExpr(None, raw)
print(verify.verify_answers(count=0, fuzz=2000).instances[3].detail["crashes"])
"""


def test_fuzz_checks_the_parse_text_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNTRIMMED_PARSE_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    strings = list(_fuzz_strings(substream(0, "answers-fuzz"), 2000))
    assert int(out) == sum(s != s.strip() for s in strings) > 0
