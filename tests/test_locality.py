"""Prompt locality of the whole loop: what a run writes for a prompt depends
on that prompt alone, never on which other prompts share its space or on
their order.

Every random stream of a round is addressed by (seed, purpose, round,
prompt), and every row operation equals the same steps on that row alone,
so a prompt's checkpoint rows and dataset lines are the same bytes in any
space that contains it. The runs below pin the round count (patience equal
to rounds) and use a hook that reads no labels, so early stopping cannot
make the runs differ in length.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop.engine import RunConfig, run
from voteloop.metrics import RoundReport
from voteloop.policy import PromptSpace, SoftmaxPolicy, TabularPolicy
from voteloop.tasks import CorpusSpec, make_corpus

ROUNDS = 3


def no_labels_hook(round_index, policy, objective=0.0, degenerate=0):
    return RoundReport(round_index=round_index, objective=objective, degenerate_prompts=degenerate)


def subspace(space: PromptSpace, prompts) -> PromptSpace:
    """The space restricted to `prompts`, in their order."""
    return PromptSpace(
        {x: space.chains(x) for x in prompts},
        {x: dict(zip(space.chains(x), space.answers(x))) for x in prompts},
    )


def base_policy(space: PromptSpace, probs, backend: str):
    if backend == "tabular":
        return TabularPolicy(space, {x: probs[x] for x in space.prompts})
    return SoftmaxPolicy(space, {x: np.log(np.maximum(probs[x], 1e-12)) for x in space.prompts})


def lines_by_prompt(out_dir) -> dict[tuple[str, str], list[str]]:
    """Every checkpoint record and dataset line of a run, grouped by
    (file name, prompt) in file order; each checkpoint's two header lines
    under (file name, None)."""
    grouped = defaultdict(list)
    for path in sorted(out_dir.glob("checkpoints/*")):
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]  # ids may hold \x1e
        grouped[path.name, None] = lines[:2]
        for line in lines[2:]:
            grouped[path.name, line.split("\t", 1)[0]].append(line)
    for path in sorted(out_dir.glob("datasets/*")):
        for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
            prompt = line.split('"prompt": ', 1)[1].split(', "candidate"', 1)[0]
            grouped[path.name, prompt].append(line)
    return grouped


def run_lines(space, probs, backend, config_kwargs, out_dir):
    config = RunConfig(rounds=ROUNDS, patience=ROUNDS, backend=backend, **config_kwargs)
    run(config, space, base_policy(space, probs, backend), no_labels_hook, out_dir=out_dir)
    return lines_by_prompt(out_dir)


def assert_local(space, probs, prompts, backend, config_kwargs, tmp_path):
    whole = run_lines(space, probs, backend, config_kwargs, tmp_path / "whole")
    part = run_lines(subspace(space, prompts), probs, backend, config_kwargs, tmp_path / "part")
    assert len(part) == (len(prompts) + 1) * (ROUNDS + 1) + len(prompts) * ROUNDS
    for key, lines in part.items():
        assert lines == whole[key], key


@pytest.mark.parametrize("backend", ["tabular", "softmax"])
def test_corpus_prompts_write_the_same_bytes_in_a_shuffled_subset(backend, tmp_path):
    corpus = make_corpus(CorpusSpec(n_train=50, n_test=10, surface_forms=3, seed=8))
    probs = {x: corpus.base.distribution(x) for x in corpus.space.prompts}
    prompts = list(np.random.default_rng(1).permutation(corpus.space.prompts)[:23])
    config = dict(k=10, seed=4, transform="baseline_shifted", beta=0.5)
    assert_local(corpus.space, probs, prompts, backend, config, tmp_path)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), backend=st.sampled_from(["tabular", "softmax"]))
def test_random_spaces_write_the_same_bytes_in_any_subset(data, backend, tmp_path_factory):
    n = data.draw(st.integers(2, 8), label="prompts")
    ids = data.draw(
        st.lists(st.text(min_size=1, max_size=4).filter(lambda s: not set(s) & set("\t\n\r")),
                 min_size=n, max_size=n, unique=True),
        label="prompt ids",
    )
    space_chains, space_answers, probs = {}, {}, {}
    for x in ids:
        width = data.draw(st.integers(2, 39), label="chains")
        chains = [f"c{i}" for i in range(width)]
        answers = data.draw(st.lists(st.sampled_from(["1", "2", "0.5", "\\frac{1}{2}"]),
                                     min_size=width, max_size=width))
        mass = data.draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
        space_chains[x] = chains
        space_answers[x] = dict(zip(chains, answers))
        probs[x] = np.asarray(mass) + 0.01
    space = PromptSpace(space_chains, space_answers)
    prompts = data.draw(st.permutations(ids), label="order")[: data.draw(st.integers(1, n))]
    config = dict(k=data.draw(st.integers(1, 12)), seed=data.draw(st.integers(0, 99)),
                  transform="baseline_shifted", beta=0.5)
    assert_local(space, probs, prompts, backend, config, tmp_path_factory.mktemp("locality"))
