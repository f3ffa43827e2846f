"""Extraction, parsing, and equivalence of answer strings."""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voteloop import answers, cli
from voteloop.answers import (
    CanonicalExpr,
    ExtractedAnswer,
    answer_key,
    equivalent,
    extract_boxed,
    parse_answer,
)
from voteloop.tasks import CorpusSpec, make_corpus, save_corpus
from voteloop.verify import _FUZZ_POOL, verify_answers


class TestExtractBoxed:
    def test_plain(self):
        assert extract_boxed("The answer is \\boxed{42}.") == ExtractedAnswer("42", True)

    def test_first_occurrence_wins(self):
        got = extract_boxed("\\boxed{\\frac{1}{2}} then \\boxed{3}")
        assert got == ExtractedAnswer("\\frac{1}{2}", True)

    def test_no_box(self):
        assert extract_boxed("no box here") == ExtractedAnswer("", False)

    def test_nested_braces(self):
        assert extract_boxed("\\boxed{x^{2}}") == ExtractedAnswer("x^{2}", True)

    def test_deep_nesting_matches_balanced_scan_oracle(self):
        # Independent oracle: explicit depth counter over the same text.
        text = "pad \\boxed{a{b{c}d}e{f}} tail \\boxed{z}"
        start = text.find("\\boxed{") + len("\\boxed{")
        depth, end = 1, start
        while depth:
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
        assert extract_boxed(text) == ExtractedAnswer(text[start : end - 1], True)

    def test_unbalanced_is_not_found(self):
        assert extract_boxed("\\boxed{1 + (2") == ExtractedAnswer("", False)

    def test_empty_group(self):
        assert extract_boxed("x \\boxed{} y") == ExtractedAnswer("", True)

    def test_ignores_content_after_first_group(self):
        head = "intro \\boxed{7/2}"
        for tail in ["", " and \\boxed{9}", " }}}{{{", " \\boxed{"]:
            assert extract_boxed(head + tail) == ExtractedAnswer("7/2", True)


class TestParseAnswer:
    @pytest.mark.parametrize(
        "raw, value",
        [
            ("\\frac{1}{2}", Fraction(1, 2)),
            ("0.5", Fraction(1, 2)),
            ("2+3\\cdot 4", Fraction(14)),
            ("7", Fraction(7)),
            ("-3", Fraction(-3)),
            ("--3", Fraction(3)),
            ("2/4", Fraction(1, 2)),
            ("2^{10}", Fraction(1024)),
            ("2^-1", Fraction(1, 2)),
            ("(1+2)*4", Fraction(12)),
            ("1-2-3", Fraction(-4)),
            ("8/2/2", Fraction(2)),
            ("\\frac{\\frac{1}{2}}{4}", Fraction(1, 8)),
            ("$\\left( \\frac{3}{4} \\right)$", Fraction(3, 4)),
            ("6\u00f74", Fraction(3, 2)),
            ("2\u00d73", Fraction(6)),
            ("\u22125", Fraction(-5)),
            (".25", Fraction(1, 4)),
            ("0.125", Fraction(1, 8)),
            ("(-2)^{3}", Fraction(-8)),
        ],
    )
    def test_numeric(self, raw, value):
        expr = parse_answer(raw)
        assert expr.is_numeric
        assert expr.value == value

    @pytest.mark.parametrize(
        "raw",
        ["x+1", "\\sqrt{2}", "2x", "1e3", "2^{0.5}", "1/0", "", "  ", "2+", "((1)", "pi"],
    )
    def test_non_numeric_degrades_to_opaque(self, raw):
        expr = parse_answer(raw)
        assert not expr.is_numeric
        assert expr.text == raw.strip()

    def test_decimals_are_exact_rationals(self):
        assert parse_answer("0.1").value == Fraction(1, 10)
        assert parse_answer("0.1").value != 0.1  # no float round-off anywhere

    def test_budget_exhaustion_is_opaque_not_crash(self):
        horror = "1" + "+1" * 200_000
        expr = parse_answer(horror, step_budget=1_000)
        assert not expr.is_numeric

    def test_default_budget_parses_share_the_equivalent_cache(self, monkeypatch):
        parses = []
        real = answers._parse_with
        monkeypatch.setattr(answers, "_parse_with", lambda raw, budget: parses.append(raw) or real(raw, budget))
        a, b = "(1234567 - 7) / 8191", "\\frac{1234560}{8191}"
        assert parse_answer(a).value == Fraction(1234560, 8191)
        assert equivalent(a, b) and equivalent(a, a)
        assert parse_answer(b) == parse_answer(b, step_budget=answers.DEFAULT_STEP_BUDGET)
        # One cached parse of each string; the explicit budget parses afresh.
        assert parses == [a, b, b]

    def test_total_on_random_bytes(self):
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            n = int(rng.integers(0, 30))
            s = bytes(rng.integers(0, 256, size=n).tolist()).decode("latin-1")
            expr = parse_answer(s)
            assert isinstance(expr, CanonicalExpr)


class TestEquivalent:
    @pytest.mark.parametrize(
        "a, b, want",
        [
            ("0.5", "\\frac{1}{2}", True),
            ("42", "42", True),
            ("x+1", "1+x", False),
            ("\\frac{2}{4}", "0.5", True),
            ("x+1", "x+1", True),
            ("  x+1  ", "x+1", True),
            ("0.5", "x", False),
            ("1/3", "0.333", False),
            ("-0.75", "-\\frac{3}{4}", True),
            ("", "", True),
        ],
    )
    def test_pairs(self, a, b, want):
        assert equivalent(a, b) is want

    def test_reflexive_and_symmetric_on_arbitrary_strings(self):
        rng = np.random.default_rng(11)
        pool = list("0123456789+-*/^(){}.x\\frac ")
        for _ in range(500):
            n = int(rng.integers(0, 25))
            a = "".join(rng.choice(pool, size=n))
            b = "".join(rng.choice(pool, size=int(rng.integers(0, 25))))
            assert equivalent(a, a)
            assert equivalent(a, b) == equivalent(b, a)

    def test_transitive_on_numeric_fragment(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            num = int(rng.integers(-999, 1000))
            den = int(rng.integers(1, 50))
            v = Fraction(num, den)
            a = f"{v.numerator}/{v.denominator}"
            b = f"\\frac{{{v.numerator * 3}}}{{{v.denominator * 3}}}"
            c = f"({v.numerator})/({v.denominator})"
            assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)

    def test_budget_falls_back_to_string_compare(self):
        big = "1" + "+1" * 100_000
        assert equivalent(big, big, step_budget=100)  # same strings
        assert not equivalent(big, big + "+1", step_budget=100)

    def test_random_rationals_in_three_surface_forms(self):
        # Independent renderer: decimal digits computed from scratch here.
        rng = np.random.default_rng(17)
        for _ in range(2_000):
            num = int(rng.integers(-10**6, 10**6))
            a, b = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            den = 2**a * 5**b
            v = Fraction(num, den)
            digits = max(a, b)
            if digits == 0:
                decimal = str(v.numerator)
            else:
                scaled = abs(num) * 10**digits // den
                text = str(scaled).rjust(digits + 1, "0")
                decimal = ("-" if num < 0 else "") + text[:-digits] + "." + text[-digits:]
            scale = int(rng.integers(1, 10))
            frac = f"\\frac{{{num * scale}}}{{{den * scale}}}"
            plain = f"{num}/{den}"
            for x, y in itertools.combinations([decimal, frac, plain], 2):
                assert equivalent(x, y), (x, y)
            assert not equivalent(decimal, f"{num * 7 + 1}/{den * 7}")


class _SignMultiplyParser(answers._Parser):
    """The parser with negation as it was before: each factor multiplied by
    an integer sign."""

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
            self.budget.charge()
        return sign * self.power()


def _parse_outcome(parser, raw, steps):
    """(CanonicalExpr or "exhausted", steps left) of parsing raw with parser."""
    budget = answers._Budget(steps)
    with mock.patch.object(answers, "_Parser", parser):
        try:
            expr = answers._parse_with(raw, budget)
        except answers._BudgetExhausted:
            expr = "exhausted"
    return expr, budget.remaining


_SIGNS = st.sampled_from(["", "-", "+", "--", "-+-", " - ", "\u2212"])
_DIGITS = st.integers(0, 10**9).map(str)
_SIGNED_FORMS = st.one_of(
    st.text(alphabet=_FUZZ_POOL.tolist(), max_size=39),
    st.builds(lambda s, w, f: f"{s}{w}.{f}", _SIGNS, _DIGITS, _DIGITS),
    st.builds(lambda s, a, t, b: f"{s}\\frac{{{t}{a}}}{{{b}}}", _SIGNS, _DIGITS, _SIGNS, _DIGITS),
    st.builds(lambda s, a, t, b: f"{s}{a}/{t}{b}", _SIGNS, _DIGITS, _SIGNS, _DIGITS),
)


class TestNegation:
    @settings(max_examples=300, deadline=None)
    @given(raw=_SIGNED_FORMS)
    def test_flag_equals_sign_multiply(self, raw):
        for steps in (answers.DEFAULT_STEP_BUDGET, 0, 1, 2, 3, 4, 5):
            want = _parse_outcome(_SignMultiplyParser, raw, steps)
            assert _parse_outcome(answers._Parser, raw, steps) == want, (raw, steps)

    def test_repeated_signs(self):
        assert parse_answer("--3").value == 3
        assert parse_answer("-+-3/-2").value == Fraction(-3, 2)
        assert parse_answer("2*-\\frac{1}{4}").value == Fraction(-1, 2)


_DIGIT_RUN_PROBE = """
import json
from fractions import Fraction
from voteloop.answers import equivalent, parse_answer
ones = lambda n: "1" * n
numeric = [ones(4300), "0." + ones(4300), ones(700) + "0/" + ones(700)]
opaque = [ones(4301), "0" * 4300 + "1", "0." + ones(4301), ones(4301) + ".5"]
print(json.dumps([
    equivalent(ones(5000), "0" + ones(5000)),
    parse_answer(ones(4300)).value == (10**4300 - 1) // 9,
    parse_answer("0." + ones(4300)).value == Fraction((10**4300 - 1) // 9, 10**4300),
    parse_answer(numeric[2]).value == 10,
    [parse_answer(s).is_numeric for s in numeric + opaque],
]))
"""


@pytest.mark.parametrize("limit", [None, "0", "640"])
def test_digit_run_cap_ignores_the_interpreter_int_limit(limit):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(answers.__file__).parents[1])
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    out = subprocess.run(
        [sys.executable, "-c", _DIGIT_RUN_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [False, True, True, True, [True] * 3 + [False] * 4]


def _literal_outcome(raw, steps, literal=True):
    """(CanonicalExpr or "exhausted", steps left or None) of parsing raw,
    with the literal path on or off; steps left are compared for numeric
    results only, since an exhausted parse may stop at any charge."""
    budget = answers._Budget(steps)
    path = answers._parse_literal if literal else (lambda s, budget: None)
    with mock.patch.object(answers, "_parse_literal", path):
        try:
            expr = answers._parse_with(raw, budget)
        except answers._BudgetExhausted:
            return "exhausted", None
    return expr, budget.remaining if expr.is_numeric else None


_RUNS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.sampled_from(["0", "00", "000", "007", "0100", "1" * 4300, "1" * 4301, "0" * 4300 + "1", "9" * 700]),
    st.text(alphabet="0123456789٠٣٩０７", min_size=1, max_size=8),
)
_SIGN = st.sampled_from(["", "-"])
_LITERALS = st.one_of(
    st.builds(lambda s, w: f"{s}{w}", _SIGN, _RUNS),
    st.builds(lambda s, w, f: f"{s}{w}.{f}", _SIGN, _RUNS, _RUNS),
    st.builds(lambda s, w: f"{s}{w}.", _SIGN, _RUNS),
    st.builds(lambda s, f: f"{s}.{f}", _SIGN, _RUNS),
    st.builds(lambda s, a, b: f"{s}{a}/{b}", _SIGN, _RUNS, _RUNS),
    st.builds(lambda s, a, b: f"\\frac{{{s}{a}}}{{{b}}}", _SIGN, _RUNS, _RUNS),
)
# Literal forms as answers are written (padded, in $...$, in \left...\right)
# and inside larger expressions, which the token parser reads.
_DRESSED_LITERALS = st.builds(
    lambda wrap, lit: wrap.format(lit),
    st.sampled_from(["{}", " {} ", "${}$", "\\left{}\\right", "{} ", "-{}", "({})", "{}+0"]),
    _LITERALS,
)
_ANSWERS = st.one_of(st.text(alphabet=_FUZZ_POOL.tolist(), max_size=39), _DRESSED_LITERALS)


class TestLiteralPath:
    def test_literal_forms_take_the_literal_path(self):
        def literal(s):
            try:
                return answers._parse_literal(s, answers._Budget(100))
            except answers._ParseFailure:
                return "zero denominator"

        assert [literal(s) for s in ["12", "-12", "12.", "-.5", "0.250", "٣٠", "3/4", "\\frac{-3}{4}"]] == [
            12, -12, 12, Fraction(-1, 2), Fraction(1, 4), 30, Fraction(3, 4), Fraction(-3, 4)
        ]
        assert literal("-7/0") == literal("\\frac{3}{00}") == "zero denominator"
        for s in ["--3", "- 3", "3/-4", "-\\frac{1}{2}", "1.2.3", "1/2/3", "\u22123", "1.5/2", ""]:
            assert literal(s) is None, s

    @settings(max_examples=400, deadline=None)
    @given(raw=_ANSWERS)
    def test_equals_the_token_parser_under_every_budget(self, raw):
        for steps in (answers.DEFAULT_STEP_BUDGET, *range(13)):
            assert _literal_outcome(raw, steps) == _literal_outcome(raw, steps, literal=False), (raw, steps)

    def test_digit_runs_at_and_past_the_cap(self):
        for run, numeric in (("1" * 4300, True), ("1" * 4301, False)):
            for raw in (run, f"-{run}", f"0.{run}", f"{run}/7", f"\\frac{{-1}}{{{run}}}"):
                outcome = _literal_outcome(raw, answers.DEFAULT_STEP_BUDGET)
                assert outcome == _literal_outcome(raw, answers.DEFAULT_STEP_BUDGET, literal=False)
                assert outcome[0].is_numeric is numeric


# Fuzz characters and whole tokens, so strings both do and do not tokenize.
_TOKEN_TEXT = st.lists(
    st.sampled_from([*_FUZZ_POOL.tolist(), "\\frac", "\\cdot", "\\cdots", "1.5", ".5", "2."]),
    max_size=20,
).map("".join)


def _tokenize_by_match(s, budget):
    """`_tokenize` as a loop of `_TOKEN_RE.match` calls that charges each
    token as it is taken and raises at the first character no token starts."""
    tokens, pos = [], 0
    while pos < len(s):
        m = answers._TOKEN_RE.match(s, pos)
        if m is None:
            raise answers._ParseFailure(f"unexpected character at {pos}")
        budget.charge()
        pos = m.end()
        if not m.group().isspace():
            tokens.append(answers._OP_MAP.get(m.group(), m.group()))
    return tokens


class TestTokenGate:
    @settings(max_examples=500, deadline=None)
    @given(raw=_TOKEN_TEXT)
    def test_tokens_equal_a_match_loop(self, raw):
        def outcome(tokenize):
            budget = answers._Budget(10**9)
            try:
                tokens = tokenize(raw, budget)
            except answers._ParseFailure:
                tokens = None
            return None if tokens is None else (tokens, budget.remaining)

        assert outcome(answers._tokenize) == outcome(_tokenize_by_match)

    @pytest.mark.parametrize(
        "raw",
        ["1" * 5000 + "x", "1 " * 3000 + "x", "(" * 4000 + "a"],
        ids=["digit-run", "spaced-digits", "open-parens"],
    )
    def test_long_strings_fail_fast(self, raw):
        assert answers._tokenize(raw, answers._Budget(0)) is None

    @settings(max_examples=200, deadline=None)
    @given(a=_TOKEN_TEXT, b=_ANSWERS)
    def test_results_do_not_change_under_any_budget(self, a, b):
        def outcomes():
            return [
                (answers._parse_fresh(a, steps), equivalent(a, b, steps), equivalent(b, a, steps))
                for steps in (answers.DEFAULT_STEP_BUDGET, *range(13))
            ]

        gated = outcomes()
        with mock.patch.object(answers, "_tokenize", _tokenize_by_match):
            assert outcomes() == gated


class TestAnswerKey:
    @pytest.mark.parametrize(
        "raw, key",
        [
            ("0.5", (1, 2)),
            ("\\frac{-6}{4}", (-3, 2)),
            ("  7 ", (7, 1)),
            ("x+1 ", "x+1"),
            ("1/0", "1/0"),
            ("", ""),
        ],
    )
    def test_value_or_trimmed_text(self, raw, key):
        assert answer_key(raw) == key

    @settings(max_examples=400, deadline=None)
    @given(a=_ANSWERS, b=_ANSWERS, pad=st.sampled_from(["", " ", "\t", "  "]))
    def test_equivalent_is_key_equality(self, a, b, pad):
        for x, y in ((a, b), (a, pad + a + pad), (b, f"${b}$")):
            assert equivalent(x, y) == (answer_key(x) == answer_key(y)), (x, y)


def _at_stack_depth(frames, fn):
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


_NESTINGS = {
    "parens": lambda d: "(" * d + "1" + ")" * d,
    "braces": lambda d: "{" * d + "1" + "}" * d,
    "frac": lambda d: "\\frac{" * d + "1" + "}{1}" * d,
    "exponent": lambda d: "1^{" * d + "1" + "}" * d,
}


@pytest.mark.parametrize("depth", [answers._MAX_NESTING, answers._MAX_NESTING + 1, 190])
@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_cap_decides_deep_parses_at_any_stack_depth(shape, depth):
    raw = _NESTINGS[shape](depth)
    want = depth <= answers._MAX_NESTING
    for frames in (0, 500, 0):
        answers._parse_default.cache_clear()
        got = _at_stack_depth(frames, lambda: (parse_answer(raw).is_numeric, equivalent(raw, "1")))
        assert got == (want, want), frames


def _with_parse_cache(maxsize, fn):
    """fn() with the default-budget parse cache rebuilt at `maxsize`; the
    shipped cache is restored, and emptied, after."""
    cache = lru_cache(maxsize=maxsize)(partial(answers._parse_fresh, step_budget=answers.DEFAULT_STEP_BUDGET))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(answers, "_parse_default", cache)
            return fn()
    finally:
        answers._parse_default.cache_clear()


def _run_files(out):
    """Every file of a small `tabular-shifted`-shaped run, by relative path."""
    shutil.rmtree(out, ignore_errors=True)
    args = [
        "run", "--transform", "baseline_shifted", "--beta", "0.5", "--corpus-surface-forms", "3",
        "--corpus-n-train", "60", "--corpus-n-test", "15", "--rounds", "4", "--patience", "4",
        "--seed", "3", "--out-dir", str(out),
    ]
    assert cli.main(args) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestParseCacheBound:
    def test_cache_size_only_speeds_up(self, tmp_path, capsys):
        def outcomes():
            return verify_answers(count=500, fuzz=20_000), _run_files(tmp_path / "run")

        answers._parse_default.cache_clear()
        shipped = outcomes()
        assert shipped[0].passed
        for maxsize in (1, None):
            assert _with_parse_cache(maxsize, outcomes) == shipped, maxsize

    def test_the_corpus_answers_fit_in_half_the_cache(self, tmp_path):
        corpus = make_corpus(CorpusSpec(n_train=5000, n_test=1000, surface_forms=3))
        save_corpus(corpus, tmp_path / "tasks.jsonl", tmp_path / "labels.jsonl")
        strings = set()
        for line in (tmp_path / "tasks.jsonl").read_text().splitlines():
            strings.update(json.loads(line)["answers"].values())
        for line in (tmp_path / "labels.jsonl").read_text().splitlines():
            strings.add(json.loads(line)["truth"])
        assert len(strings) <= answers._parse_default.cache_info().maxsize // 2

    def test_fuzzing_keeps_memory_small(self):
        answers._parse_default.cache_clear()
        tracemalloc.start()
        try:
            assert verify_answers(count=1000, fuzz=30_000).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            answers._parse_default.cache_clear()
        assert peak < 4 * 2**20, peak
