"""Randomized oracle suites behind the `verify` command.

Each suite builds random instances, checks an implementation path against an
independent oracle (closed form vs. iterated updates, the softmax solver's
gradient, step and certificate rows vs. finite differences, ascent and a
plain-Python supremum, the flat counting vote vs. naive pairwise counting,
parser vs. known pairs), and reports one pass/fail per instance plus
machine-readable detail.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .answers import ExtractedAnswer, equivalent, extract_boxed, parse_answer
from .fixed_point import check_fixed_point_equivalence
from .optim import _direction_rows, _gradient_rows, _objective_rows, _pad_rows, _prompt_rows
from .optim import _sup_rows, closed_form_update, product_form_oracle
from .policy import PromptSpace, SoftmaxPolicy, TabularPolicy
from .tasks import render_rational
from .util import substream

__all__ = [
    "SuiteResult",
    "verify_closedform",
    "verify_fixed_point_equivalence",
    "verify_gradients",
    "verify_votes",
    "verify_answers",
    "SUITES",
]


@dataclass
class InstanceResult:
    index: int
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    name: str
    instances: list[InstanceResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.instances)

    def summary(self) -> str:
        ok = sum(r.passed for r in self.instances)
        lines = [f"{self.name}: {ok}/{len(self.instances)} instances pass"]
        lines.extend(self.notes)
        return "\n".join(lines)


# The closedform and gradients suites run their instances this many at a
# time, as the rows of one PromptSpace.
_INSTANCE_BLOCK = 64


def _random_answers(
    rng: np.random.Generator, max_prompts: int, max_chains: int, prefix: str = ""
) -> dict[str, dict[str, str]]:
    """prompt -> {chain: answer} of a random finite space, chains in order
    and prompts named prefix + p0, p1, ...; some prompts carry equivalent
    answer surface forms so class merging is exercised."""
    surface_pairs = [("0.5", "\\frac{1}{2}"), ("2/4", "0.5"), ("\\frac{3}{4}", "0.75")]
    n = int(rng.integers(1, max_prompts + 1))
    answers = {}
    for i in range(n):
        m = int(rng.integers(2, max_chains + 1))
        ids = tuple(f"c{j}" for j in range(m))
        pool = [f"a{j}" for j in range(int(rng.integers(1, m + 1)))]
        amap = {c: pool[int(rng.integers(len(pool)))] for c in ids}
        if m >= 2 and rng.random() < 0.3:
            a, b = surface_pairs[int(rng.integers(len(surface_pairs)))]
            amap[ids[0]], amap[ids[1]] = a, b
        answers[f"{prefix}p{i}"] = amap
    return answers


def _space_of(answers: dict[str, dict[str, str]]) -> PromptSpace:
    return PromptSpace({x: tuple(amap) for x, amap in answers.items()}, answers)


def _random_tabular(rng: np.random.Generator, space: PromptSpace) -> TabularPolicy:
    return TabularPolicy(
        space,
        {x: rng.dirichlet(np.ones(len(space.chains(x)))) for x in space.prompts},
    )


def _run_blocks(
    result: SuiteResult, count: int, run_block: Callable[[range], list], key: str
) -> float:
    """Instances 0..count-1 of a blocked suite, `_INSTANCE_BLOCK` at a time:
    `run_block` runs the instances of one block as the rows of one space
    (its arrays are freed on return, before the next block is drawn), and
    they are appended to `result`. Returns the largest detail[key], from 0.0."""
    worst = 0.0
    for first in range(0, count, _INSTANCE_BLOCK):
        for instance in run_block(range(first, min(first + _INSTANCE_BLOCK, count))):
            worst = max(worst, instance.detail[key])
            result.instances.append(instance)
    return worst


# The closedform suite's log-weights, by beta and 0/1 reward: log(w) of the
# weight w = reward (beta None) or exp(reward / beta).
_BETAS = [None, 0.05, 0.1, 1.0]
with np.errstate(divide="ignore"):
    _CLOSEDFORM_LOG_WEIGHTS = np.log(
        [np.array([0.0, 1.0]) if b is None else np.exp(np.array([0.0, 1.0]) / b) for b in _BETAS]
    )


def verify_closedform(count: int = 50, seed: int = 0) -> SuiteResult:
    """Iterated per-round updates must equal the telescoped product form.

    Round weights follow vote-like dynamics: a pseudo-label class is drawn
    from the current policy and rewarded, then transformed by identity or
    exponential maps. Elementwise agreement within 1e-9 is required.

    Instance idx draws from substream(seed, "closedform", idx), in this
    order: its space (`_random_answers`, 1-8 prompts of 2-8 chains), one
    Dirichlet row per prompt for pi0, the round count (1-5), the beta, then
    one uniform per prompt and round, round by round: the draw
    `Generator.choice` makes for each anchor. Instances run in blocks of
    `_INSTANCE_BLOCK` as the rows of one space (prompt p{j} of instance idx
    is i{idx}/p{j}). A round is one `sample_batch` of the anchors and one
    `closed_form_update` (the update of the engine's tabular rounds) on the
    rows of the instances still running, the other rows carrying over; a
    degenerate prompt raises. Rewards are answer-class equality with the
    anchor. `product_form_oracle` reads all rounds of the block at once.
    """
    result = SuiteResult("closedform")
    worst = _run_blocks(result, count, partial(_closedform_block, seed), "max_dev")
    result.notes.append(f"max elementwise deviation {worst:.3e} (tolerance 1e-9)")
    return result


def _closedform_block(seed: int, block: range) -> list[InstanceResult]:
    """The closedform instances of `block`, run as the rows of one space."""
    answers, probs, rounds, beta_index, uniforms = {}, {}, [], [], []
    for idx in block:
        rng = substream(seed, "closedform", idx)
        table = _random_answers(rng, 8, 8, f"i{idx}/")
        probs.update((x, rng.dirichlet(np.ones(len(amap)))) for x, amap in table.items())
        answers.update(table)
        rounds.append(int(rng.integers(1, 6)))
        beta_index.append(int(rng.integers(len(_BETAS))))
        uniforms.append(rng.random((rounds[-1], len(table))))
    space = _space_of(answers)
    pi0 = TabularPolicy(space, probs)
    sizes = [len(u[0]) for u in uniforms]
    instance_of = np.repeat(np.arange(len(block)), sizes)
    row_of = np.repeat(np.arange(len(space.prompts)), np.diff(space._offsets))
    beta_of = np.array(beta_index)[instance_of][row_of]  # per chain
    classes = space._flat_classes()
    anchor = np.zeros(len(space.prompts), dtype=np.intp)  # class id per row
    policy, history = pi0, []
    for m in range(max(rounds)):
        live = (np.array(rounds) > m)[instance_of]
        at = np.flatnonzero(live).tolist()
        u = np.concatenate([draws[m] for draws in uniforms if len(draws) > m])
        picks = policy.sample_batch([space.prompts[r] for r in at], u[:, None])[:, 0]
        anchor[at] = classes[space._offsets[at] + picks]
        log_w = _CLOSEDFORM_LOG_WEIGHTS[beta_of, (classes == anchor[row_of]).astype(np.intp)]
        history.append(np.where(live[row_of], log_w, 0.0))
        policy = closed_form_update(policy, log_w, live)

    oracle = product_form_oracle(pi0, history)
    firsts = space._offsets[np.cumsum([0, *sizes[:-1]])]
    devs = np.maximum.reduceat(np.abs(policy._probs - oracle._probs), firsts).tolist()
    return [
        InstanceResult(idx, dev <= 1e-9, {"max_dev": dev, "rounds": n, "beta": _BETAS[b]})
        for idx, dev, n, b in zip(block, devs, rounds, beta_index)
    ]


def verify_fixed_point_equivalence(
    count: int = 50, seed: int = 0, betas: Sequence[float] = (0.05, 0.1, 1.0)
) -> SuiteResult:
    """Offline baseline-shifted loop vs. the KL fixed-point solver.

    Converged instances must agree within total variation 1e-6; instances
    that fail to converge (label cycling) are reported, and the suite fails
    if they exceed 10% of the total.
    """
    result = SuiteResult("proposition1")
    worst = 0.0
    cycles = 0
    for idx in range(count):
        rng = substream(seed, "prop1", idx)
        space = _space_of(_random_answers(rng, 6, 6))
        pi0 = _random_tabular(rng, space)
        beta = betas[int(rng.integers(len(betas)))]
        report = check_fixed_point_equivalence(pi0, beta, seed=seed + idx)
        detail = {
            "seed": seed + idx,
            "beta": beta,
            "distance": report.distance,
            "labels_match": report.labels_match,
            "converged_fixed_point": report.converged_fixed_point,
            "converged_offline": report.converged_offline,
            "iterations_fixed_point": report.iterations_fixed_point,
            "iterations_offline": report.iterations_offline,
        }
        if report.both_converged:
            ok = report.distance <= 1e-6 and report.labels_match
            worst = max(worst, report.distance)
        else:
            cycles += 1
            ok = True  # reported below; the cycle budget is checked globally
            detail["cycled"] = True
        result.instances.append(InstanceResult(idx, ok, detail))
    if cycles > 0.1 * count:
        result.notes.append(f"FAIL: {cycles} non-converged instances exceed the 10% budget")
        result.instances.append(
            InstanceResult(count, False, {"non_converged": cycles, "budget": int(0.1 * count)})
        )
    result.notes.append(
        f"max TV distance on converged instances {worst:.3e} (tolerance 1e-6); "
        f"{cycles} non-converged/cycling instances reported"
    )
    return result


def verify_gradients(count: int = 50, seed: int = 0, h: float = 1e-5) -> SuiteResult:
    """The softmax solver's own row functions (`optim`) on random instances
    of 3-19 weighted samples, counted and padded as the solver does. An
    instance passes when central finite differences of `_objective_rows`
    match `_gradient_rows` (relative error < 1e-5), the step
    `_direction_rows` ascends (dot with the gradient >= 0 on every row with
    weight, the rows the solver steps on), and `_sup_rows` equals
    sum n_c log(n_c/N) over counts added in plain Python (relative error
    <= 1e-12), with no objective row above it.

    Instance idx draws from substream(seed, "grad", idx), in this order: its
    space (`_random_answers`, 1-4 prompts of 2-6 chains), one row of normal
    logits per prompt, the temperature, the sample count, then per sample
    its prompt, its chain, whether its weight is zero, and the weight.
    Instances run in blocks of `_INSTANCE_BLOCK` as the rows of one space
    (prompt p{j} of instance idx is i{idx}/p{j}): one `_prompt_rows` call
    counts every instance's samples into one padded matrix, and each row
    function runs on all of it with a [rows, 1] column of the instances'
    temperatures (two `_objective_rows` calls per column for the finite
    differences). The plain-Python sums are added per instance.
    """
    result = SuiteResult("gradients")
    worst = _run_blocks(result, count, partial(_gradients_block, seed, h=h), "max_rel_err")
    result.notes.append(
        f"max relative gradient error {worst:.3e} (tolerance 1e-5, h={h:g}); "
        "step ascent and the certificate's supremum checked on every instance"
    )
    return result


def _gradients_block(seed: int, block: range, h: float) -> list[InstanceResult]:
    """The gradients instances of `block`, run as the rows of one space."""
    answers, logits, temperatures, chains, log_weights, references = {}, [], [], [], [], []
    first_rows, n_chains = [], 0
    for idx in block:
        rng = substream(seed, "grad", idx)
        table = _random_answers(rng, 4, 6, f"i{idx}/")
        sizes = [len(amap) for amap in table.values()]
        logits += [rng.normal(0, 1.5, n) for n in sizes]
        temperatures.append(float(rng.uniform(0.5, 2.0)))
        bounds = np.cumsum([n_chains, *sizes]).tolist()
        reference: dict[int, list[float]] = {}
        for _ in range(int(rng.integers(3, 20))):
            r = int(rng.integers(len(sizes)))
            j = int(rng.integers(sizes[r]))
            lw = -math.inf if rng.random() < 0.1 else float(np.log(rng.uniform(0.1, 5.0)))
            chains.append(bounds[r] + j)
            log_weights.append(lw)
            reference.setdefault(r, [0.0] * sizes[r])[j] += math.exp(lw)
        references.append(reference)
        first_rows.append(len(answers))
        answers.update(table)
        n_chains = bounds[-1]
    # `_prompt_rows` reads the logits only; each row's temperature is
    # its instance's.
    policy = SoftmaxPolicy._trusted(_space_of(answers), np.concatenate(logits), 1.0)
    rows, z_rows, cnt_rows = _prompt_rows(policy, np.array(chains), np.array(log_weights))
    z, cnt = _pad_rows(z_rows, cnt_rows)
    instance_of = np.searchsorted(first_rows, rows, side="right") - 1
    temperature = np.array(temperatures)[instance_of, None]
    grad, numeric = _gradient_rows(z, cnt, temperature), np.empty_like(z)
    for j, e in enumerate(h * np.eye(z.shape[1])):  # column j of every row moved at once
        up, down = (_objective_rows(z + s * e, cnt, temperature) for s in (1.0, -1.0))
        numeric[:, j] = (up - down) / (2 * h)
    scale = np.maximum(1.0, np.maximum(abs(grad), abs(numeric)))
    rel = np.max(abs(grad - numeric) / scale, axis=1)
    dots = np.sum(_direction_rows(z, cnt, temperature) * grad, axis=1)
    weighted = cnt.sum(axis=1) > 0
    sup = _sup_rows(cnt)
    below = _objective_rows(z, cnt, temperature) <= sup
    # Every instance has samples, so its rows are one nonempty run.
    ends = np.searchsorted(instance_of, np.arange(len(block)), side="right").tolist()
    instances = []
    for idx, reference, lo, hi in zip(block, references, [0, *ends], ends):
        want = [
            sum(c * math.log(c / sum(reference[r])) for c in reference[r] if c > 0)
            for r in sorted(reference)
        ]
        max_rel = float(np.max(rel[lo:hi]))
        detail = {
            "max_rel_err": max_rel,
            "min_ascent": min(dots[lo:hi][weighted[lo:hi]].tolist(), default=0.0),
            "sup_rel_err": max(
                abs(a - b) / max(1.0, abs(b)) for a, b in zip(sup[lo:hi].tolist(), want)
            ),
            "objective_le_sup": bool(np.all(below[lo:hi])),
        }
        ok = max_rel < 1e-5 and detail["min_ascent"] >= 0 and detail["sup_rel_err"] <= 1e-12
        instances.append(InstanceResult(idx, ok and detail["objective_le_sup"], detail))
    return instances


def _vote_oracle(answers: Sequence[str]) -> tuple[set[str], int]:
    """Naive pairwise-count oracle: answers tied for the maximal class count.

    Equal strings have equal counts, so each distinct string is counted
    once, against every distinct string weighted by its multiplicity.
    """
    multiplicity = Counter(answers)
    counts = {
        a: sum(m for b, m in multiplicity.items() if equivalent(a, b)) for a in multiplicity
    }
    best = max(counts.values())
    return {a for a, c in counts.items() if c == best}, best


def _vote_failures(
    combos: list[tuple[str, ...]], seed: int, rng: np.random.Generator | None
) -> int:
    """Answer lists of one size that `PromptSpace._vote` gets wrong.

    One space holds a prompt per answer list (chains c0, c1, ... answering
    it in order), and the identity picks of every prompt are voted at once,
    with the tie stream `tie_break_stream(seed, 0, "p", answers)` builds.
    A vote passes when a member of the winning class is in the counting
    oracle's tied set and, given `rng`, when the picks permuted by one
    `rng.permutation` per list win the same class.
    """
    chains = tuple(f"c{j}" for j in range(len(combos[0])))
    prompts = [f"m{i}" for i in range(len(combos))]
    space = PromptSpace(
        dict.fromkeys(prompts, chains),
        {x: dict(zip(chains, combo)) for x, combo in zip(prompts, combos)},
    )
    tie = partial(substream, seed, "tie", 0, "p")
    starts = space._offsets[:-1, None]
    classes, winner = space._vote(starts + np.arange(len(chains)), lambda r: tie)
    ok = np.array(
        [
            any(equivalent(combo[int(np.argmax(row == w))], t) for t in _vote_oracle(combo)[0])
            for combo, row, w in zip(combos, classes, winner.tolist())
        ]
    )
    if rng is not None:
        perms = np.array([rng.permutation(len(chains)) for _ in combos])
        ok &= space._vote(starts + perms, lambda r: tie)[1] == winner
    return int((~ok).sum())


def verify_votes(seed: int = 0, max_multiset_len: int = 12) -> SuiteResult:
    """The training and eval vote (`PromptSpace._vote`) vs. brute-force
    counting, exhaustively.

    The vote depends only on the answer multiset (keyed tie streams), so
    multisets up to length 12 over 4-symbol alphabets are swept exhaustively
    and order-invariance is asserted on random permutations; ordered lists
    are additionally swept in full at smaller sizes.
    """
    result = SuiteResult("votes")
    rng = substream(seed, "votes")
    sweeps = [
        ("plain", ["a", "b", "c", "d"], max_multiset_len, False),
        ("merged", ["0.5", "\\frac{1}{2}", "3", "x"], max_multiset_len, False),
        ("ordered-plain", ["a", "b", "c", "d"], 5, True),
        ("ordered-merged", ["0.5", "\\frac{1}{2}", "3"], 6, True),
    ]
    checked = 0
    for idx, (name, alphabet, max_len, ordered) in enumerate(sweeps):
        failures = 0
        for size in range(1, max_len + 1):
            if ordered:
                combos = list(itertools.product(alphabet, repeat=size))
            else:
                combos = list(itertools.combinations_with_replacement(alphabet, size))
            failures += _vote_failures(combos, seed, None if ordered else rng)
            checked += len(combos)
        result.instances.append(
            InstanceResult(idx, failures == 0, {"alphabet": name, "failures": failures})
        )
    result.notes.append(f"{checked} vote instances checked against the counting oracle")
    return result


_BUILTIN_PAIRS: list[tuple[str, str, bool]] = [
    ("0.5", "\\frac{1}{2}", True),
    ("42", "42", True),
    ("\\frac{2}{4}", "0.5", True),
    ("2+3\\cdot 4", "14", True),
    ("x+1", "1+x", False),
    ("0.5", "0.50", True),
    (" 7 ", "7", True),
    ("-\\frac{1}{2}", "-0.5", True),
    ("(1+2)^{2}", "9", True),
    ("2^{-1}", "0.5", True),
    ("$\\frac{10}{4}$", "2.5", True),
    ("\\left(\\frac{1}{2}\\right)", "0.5", True),
    ("1/3", "0.333", False),
    ("6/4", "3/2", True),
    ("10", "1e1", False),
    ("", "", True),
]


# Characters of the fuzz strings, as UTF-32 code units so a block of picks
# decodes in one call.
_FUZZ_POOL = np.array(list("0123456789+-*/^(){}.\\fracboxed$ \t e×÷−·é中"), dtype="<U1")
_FUZZ_BLOCK = 1024


def _fuzz_strings(rng: np.random.Generator, fuzz: int) -> Iterator[str]:
    """Yield `fuzz` strings of 0-39 characters from `_FUZZ_POOL`.

    Blocks of `_FUZZ_BLOCK` strings are drawn at a time: one `rng.integers`
    call for the block's lengths, one for all its characters, and one
    decode of the picked code units, sliced at the cumulative lengths.
    """
    for first in range(0, fuzz, _FUZZ_BLOCK):
        lengths = rng.integers(0, 40, size=min(_FUZZ_BLOCK, fuzz - first))
        chars = rng.integers(0, len(_FUZZ_POOL), size=int(lengths.sum()))
        text = _FUZZ_POOL[chars].tobytes().decode("utf-32-le")
        start = 0
        for end in np.cumsum(lengths).tolist():
            yield text[start:end]
            start = end


def verify_answers(count: int = 10_000, fuzz: int = 100_000, seed: int = 0) -> SuiteResult:
    """Built-in pair corpus, random rational triples in three surface forms,
    first-boxed extraction, and crash-free fuzzing.

    The triples come from the "answers-triples" substream as four arrays of
    `count` draws, in this order: numerators in [-10**6, 10**6), powers of 2
    and of 5 in [0, 7) for the denominator, and scales in [1, 10) for the
    \\frac form. The fuzz strings come from the "answers-fuzz" substream in
    blocks of 1024 (see `_fuzz_strings`). A fuzz string crashes when a call
    raises, its parse keeps neither its trimmed text nor a value, or it is
    not `equivalent` to itself.
    """
    result = SuiteResult("answers")

    failures = [
        (a, b, want) for a, b, want in _BUILTIN_PAIRS if equivalent(a, b) is not want
    ]
    sym = [(a, b) for a, b, _ in _BUILTIN_PAIRS if equivalent(a, b) != equivalent(b, a)]
    result.instances.append(
        InstanceResult(0, not failures and not sym, {"pairs": len(_BUILTIN_PAIRS), "failures": failures})
    )

    rng = substream(seed, "answers-triples")
    draws = zip(
        rng.integers(-10**6, 10**6, size=count).tolist(),
        rng.integers(0, 7, size=count).tolist(),
        rng.integers(0, 7, size=count).tolist(),
        rng.integers(1, 10, size=count).tolist(),
    )
    bad_triples = 0
    for num, twos, fives, scale in draws:
        value = Fraction(num, 2**twos * 5**fives)
        forms = [
            render_rational(value, "decimal"),
            f"\\frac{{{value.numerator * scale}}}{{{value.denominator * scale}}}",
            f"{value.numerator}/{value.denominator}",
        ]
        for x, y in itertools.combinations(forms, 2):
            if not equivalent(x, y):
                bad_triples += 1
        other = render_rational(value + Fraction(1, 3), "plain")
        if equivalent(forms[0], other):
            bad_triples += 1
        # A parser that dropped every minus sign would still match the three
        # forms to each other; the negated value must not match.
        if num and equivalent(forms[0], render_rational(-value, "plain")):
            bad_triples += 1
    result.instances.append(InstanceResult(1, bad_triples == 0, {"triples": count, "failures": bad_triples}))

    extraction_cases = [
        ("The answer is \\boxed{42}.", "42", True),
        ("\\boxed{\\frac{1}{2}} then \\boxed{3}", "\\frac{1}{2}", True),
        ("no box here", "", False),
        ("\\boxed{x^{2}}", "x^{2}", True),
        ("\\boxed{a{b{c}}d}e", "a{b{c}}d", True),
        ("\\boxed{unbalanced", "", False),
        ("prefix \\boxed{} suffix", "", True),
    ]
    bad_extract = [
        (text, want_raw)
        for text, want_raw, want_found in extraction_cases
        if extract_boxed(text) != ExtractedAnswer(want_raw, want_found)
    ]
    result.instances.append(InstanceResult(2, not bad_extract, {"failures": bad_extract}))

    crashes = 0
    previous = ""
    for s in _fuzz_strings(substream(seed, "answers-fuzz"), fuzz):
        try:
            extract_boxed(s)
            expr = parse_answer(s)
            equivalent(s, previous)
            # Checked without assert, which `python -O` strips.
            if (expr.text != s.strip() and not expr.is_numeric) or equivalent(s, s) is not True:
                crashes += 1
        except Exception:
            crashes += 1
        previous = s
    result.instances.append(InstanceResult(3, crashes == 0, {"fuzz": fuzz, "crashes": crashes}))
    result.notes.append(
        f"pairs={len(_BUILTIN_PAIRS)} triples={count} fuzz={fuzz} crashes={crashes}"
    )
    return result


SUITES = {
    "closedform": verify_closedform,
    "proposition1": verify_fixed_point_equivalence,
    "gradients": verify_gradients,
    "votes": verify_votes,
    "answers": verify_answers,
}
