"""The private pieces of the `verify` suites: the vote oracle, the fuzz
string draws, and the answers suite against a broken parser."""

import itertools

import pytest

from voteloop import answers
from voteloop.answers import equivalent
from voteloop.util import substream
from voteloop.verify import _FUZZ_POOL, _fuzz_strings, _vote_oracle, verify_answers


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
