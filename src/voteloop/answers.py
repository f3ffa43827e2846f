"""Final-answer extraction and exact equivalence for math answer strings.

Two answers are considered the same when both parse as exact rational
expressions with equal values, e.g. "0.5", "\\frac{1}{2}", "2/4" and
"(3-2)/2" all name the rational 1/2. Anything outside the rational
fragment (variables, radicals, malformed input) degrades to an opaque
string that compares only by trimmed string equality. There is no float
anywhere in the comparison path, so equivalence is exact and transitive
inside the numeric fragment.

So equivalence is equality of `answer_key`: the exact value's (numerator,
denominator), or the trimmed text of a string that does not parse. Literal
answers (a signed integer or decimal, `-a/b`, `\\frac{-a}{b}`) skip the token
parser but charge its steps, so both paths agree under any budget.

The parser/evaluator runs under a deterministic step budget instead of a
wall clock; exhausting the budget falls back to string comparison, so
results are identical on every machine. For the same reason a number
whose whole or fractional digit run is longer than 4300 digits (CPython's
default `int()` limit) is opaque, whatever limit `PYTHONINTMAXSTRDIGITS`
or the Python version sets, and groups (parentheses, braces, `\\frac`,
braced exponents) nested more than 64 deep are opaque, whatever depth the
caller's stack is at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "ExtractedAnswer",
    "CanonicalExpr",
    "extract_boxed",
    "parse_answer",
    "answer_key",
    "equivalent",
]

# Roughly the amount of parse/arithmetic work that fits in ~50 ms; the unit
# is one token or one exact-arithmetic operation, not time, so the cutoff is
# machine-independent.
DEFAULT_STEP_BUDGET = 50_000

# Exponents beyond this are rejected rather than evaluated; the budget would
# stop them anyway, this just fails fast with a clean opaque fallback.
_MAX_EXPONENT = 4096

# Longest digit run a number may have. Longer runs are converted in chunks
# of _SAFE_DIGITS, the lowest limit an interpreter may set on int(), so
# that limit never decides a parse.
_MAX_DIGITS = 4300
_SAFE_DIGITS = 640

# Deepest group nesting a parse accepts; the parser recurses per group, so
# without a cap the caller's stack depth would decide deep parses.
_MAX_NESTING = 64


@dataclass(frozen=True)
class ExtractedAnswer:
    """Content of the first balanced ``\\boxed{...}`` group, if any."""

    raw: str
    found: bool


@dataclass(frozen=True, slots=True)
class CanonicalExpr:
    """Parsed answer: an exact rational value, or an opaque trimmed string."""

    value: Fraction | None
    text: str

    @property
    def is_numeric(self) -> bool:
        return self.value is not None


def extract_boxed(text: str) -> ExtractedAnswer:
    """Return the brace-balanced content of the first ``\\boxed{`` in text.

    Only the first occurrence counts; if its braces never balance, the
    result is found=False (never an exception).
    """
    marker = "\\boxed{"
    start = text.find(marker)
    if start < 0:
        return ExtractedAnswer("", False)
    depth = 1
    i = start + len(marker)
    while i < len(text):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return ExtractedAnswer(text[start + len(marker) : i], True)
        i += 1
    return ExtractedAnswer("", False)


class _BudgetExhausted(Exception):
    pass


class _ParseFailure(Exception):
    pass


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise _BudgetExhausted


def _strip_answer(raw: str) -> str:
    s = raw.strip()
    s = s.strip("$").strip()
    s = s.replace("\\left", "").replace("\\right", "")
    return s


# One token: a number, a \frac / \cdot command, or a single operator/brace.
_TOKEN_RE = re.compile(
    r"""\s+
      | \d+\.\d* | \.\d+ | \d+
      | \\frac\b | \\cdot\b
      | [+\-*/^(){}\u00d7\u00f7\u2212\u00b7]
    """,
    re.VERBOSE,
)

# A whole string of tokens, each taken as `_TOKEN_RE.match` takes it: a
# lookahead captures the token and the backreference consumes it, which
# makes each repeat atomic, so a failing fullmatch backtracks in linear time.
_TOKENS_RE = re.compile("(?:(?=(" + _TOKEN_RE.pattern + r"))\1)*", re.VERBOSE)

_OP_MAP = {
    "\u00d7": "*",  # ×
    "\u00b7": "*",  # ·
    "\\cdot": "*",
    "\u00f7": "/",  # ÷
    "\u2212": "-",  # unicode minus
}


def _tokenize(s: str, budget: _Budget) -> list[str] | None:
    """The tokens of `s` without whitespace, one step charged per token
    (whitespace runs included). None, before any charge, when `s` is not a
    whole run of tokens: it is opaque whether or not the budget would run
    out first."""
    if _TOKENS_RE.fullmatch(s) is None:
        return None
    tokens = _TOKEN_RE.findall(s)
    budget.charge(len(tokens))
    return [_OP_MAP.get(tok, tok) for tok in tokens if not tok.isspace()]


def _digits(run: str) -> int:
    if len(run) <= _SAFE_DIGITS:
        return int(run)
    if len(run) > _MAX_DIGITS:
        raise _ParseFailure("digit run too long")
    value = 0
    for start in range(0, len(run), _SAFE_DIGITS):
        chunk = run[start : start + _SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _number(tok: str) -> Fraction:
    if "." in tok:
        whole, _, frac = tok.partition(".")
        whole = whole or "0"
        return Fraction(_digits(whole) * 10 ** len(frac) + (_digits(frac) if frac else 0), 10 ** len(frac))
    return Fraction(_digits(tok))


# A literal answer: a signed integer or decimal (groups 1-2), a/b with a
# signed (groups 1, 3, 4), or \frac{a}{b} with a signed (groups 5-7).
_LITERAL_RE = re.compile(r"(-?)(?:(\d+\.\d*|\.\d+|\d+)|(\d+)/(\d+))|\\frac\{(-?)(\d+)\}\{(\d+)\}")


def _parse_literal(s: str, budget: _Budget) -> Fraction | None:
    """Value of `s` when it is a literal answer, else None (no charge).
    Charges what tokenizing and parsing `s` would, in the same order
    relative to each failure: one per token, the sign once more, and the
    division's `_Parser._charge_arith` (after the zero check for \\frac,
    before it for a/b)."""
    m = _LITERAL_RE.fullmatch(s)
    if m is None:
        return None
    sign, number, num, den, frac_sign, frac_num, frac_den = m.groups()
    if number is not None:
        budget.charge(1 + 2 * len(sign))
        whole, _, frac = number.partition(".")
        den = 10 ** len(frac)
        num = _digits(whole or "0") * den + (_digits(frac) if frac else 0)
    elif num is not None:
        budget.charge(3 + 2 * len(sign))
        num, den = _digits(num), _digits(den)
        budget.charge(1 + (num.bit_length() + den.bit_length() + 2) // 4096)
        if den == 0:
            raise _ParseFailure("division by zero")
    else:
        sign = frac_sign
        budget.charge(7 + 2 * len(sign))
        num, den = _digits(frac_num), _digits(frac_den)
        if den == 0:
            raise _ParseFailure("division by zero")
        budget.charge(1 + (num.bit_length() + den.bit_length() + 2) // 4096)
    return Fraction(-num if sign else num, den)


class _Parser:
    """Recursive descent over: + - * / unary minus, ^ with integer exponent,
    ( ) and { } grouping, \\frac{a}{b}. Every arithmetic op charges the
    budget in proportion to operand size so pathological inputs terminate,
    and groups nest at most _MAX_NESTING deep."""

    def __init__(self, tokens: list[str], budget: _Budget):
        self.tokens = tokens
        self.pos = 0
        self.budget = budget
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise _ParseFailure("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise _ParseFailure(f"expected {tok!r}")

    def group(self, close: str) -> Fraction:
        """The expression of a group that has just opened, and its `close`."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise _ParseFailure("groups nest too deeply")
        value = self.expr()
        self.expect(close)
        self.depth -= 1
        return value

    def _charge_arith(self, a: Fraction, b: Fraction) -> None:
        size = (
            a.numerator.bit_length()
            + a.denominator.bit_length()
            + b.numerator.bit_length()
            + b.denominator.bit_length()
        )
        self.budget.charge(1 + size // 4096)

    def parse(self) -> Fraction:
        value = self.expr()
        if self.peek() is not None:
            raise _ParseFailure("trailing input")
        return value

    def expr(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            self._charge_arith(value, rhs)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Fraction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            self._charge_arith(value, rhs)
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise _ParseFailure("division by zero")
                value = value / rhs
        return value

    def factor(self) -> Fraction:
        negate = False
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                negate = not negate
            self.budget.charge()
        value = self.power()
        return -value if negate else value

    def power(self) -> Fraction:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.exponent()
            if abs(exp) > _MAX_EXPONENT:
                raise _ParseFailure("exponent too large")
            if base == 0 and exp < 0:
                raise _ParseFailure("zero to a negative power")
            self.budget.charge(
                (1 + abs(exp))
                * (1 + (base.numerator.bit_length() + base.denominator.bit_length()) // 512)
            )
            base = base**exp
        return base

    def exponent(self) -> int:
        # Integer exponent, optionally braced and optionally signed.
        if self.peek() == "{":
            self.take()
            value = self.group("}")
        else:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            tok = self.take()
            if not tok.isdigit():
                raise _ParseFailure("exponent must be an integer")
            value = sign * _number(tok)
        if value.denominator != 1:
            raise _ParseFailure("exponent must be an integer")
        return int(value)

    def atom(self) -> Fraction:
        tok = self.take()
        if tok == "(":
            return self.group(")")
        if tok == "{":
            return self.group("}")
        if tok == "\\frac":
            self.expect("{")
            num = self.group("}")
            self.expect("{")
            den = self.group("}")
            if den == 0:
                raise _ParseFailure("division by zero")
            self._charge_arith(num, den)
            return num / den
        if tok and (tok[0].isdigit() or tok[0] == "."):
            return _number(tok)
        raise _ParseFailure(f"unexpected token {tok!r}")


def _parse_with(raw: str, budget: _Budget) -> CanonicalExpr:
    """parse_answer's body on a caller-owned budget: strip `raw`, then read
    it as a literal or tokenize and parse it; _BudgetExhausted is left to
    the caller."""
    trimmed = raw.strip()
    try:
        stripped = _strip_answer(raw)
        if not stripped:
            return CanonicalExpr(None, trimmed)
        value = _parse_literal(stripped, budget)
        if value is None:
            tokens = _tokenize(stripped, budget)
            if tokens is None:
                return CanonicalExpr(None, trimmed)
            value = _Parser(tokens, budget).parse()
        return CanonicalExpr(value, trimmed)
    except (_ParseFailure, ValueError, OverflowError):
        return CanonicalExpr(None, trimmed)


def _parse_fresh(raw: str, step_budget: int) -> CanonicalExpr:
    budget = _Budget(step_budget)
    try:
        return _parse_with(raw, budget)
    except _BudgetExhausted:
        return CanonicalExpr(None, raw.strip())


# Parses under the default budget, shared by parse_answer and equivalent.
# The synthetic corpus renders at most 4,161 distinct answer strings (1,868
# reduced values with num in [-50, 200) and den in [1, 12], in 3 forms), so
# 8,192 entries hold a run's answers about twice over, and a stream of mostly
# unseen strings, such as verify's fuzz strings, holds no more than that.
_parse_default = lru_cache(maxsize=8_192)(partial(_parse_fresh, step_budget=DEFAULT_STEP_BUDGET))


def parse_answer(raw: str, step_budget: int | None = None) -> CanonicalExpr:
    """Parse an answer string into an exact rational, or an opaque leaf.

    Total function: any input outside the rational grammar (or exceeding
    the step budget, or nesting groups deeper than 64) yields
    CanonicalExpr(None, trimmed_input). The nesting cap bounds the stack a
    parse needs (about 400 frames), so a RecursionError is never read as a
    result. Parses under the default budget are cached, and `answer_key`
    and `equivalent` read the same cache, so a string parsed here is not
    parsed again there while it stays among the 8,192 most recently used.
    That bound is about twice the 4,161 distinct answer strings the
    synthetic corpus can render, so a run's answers stay cached while
    fuzzing with mostly unseen strings keeps the cache small.
    """
    if not isinstance(raw, str):
        raw = str(raw)
    if step_budget is None:
        return _parse_default(raw)
    return _parse_fresh(raw, int(step_budget))


def answer_key(raw: str) -> tuple[int, int] | str:
    """Class key of an answer string under the default budget: the exact
    value's (numerator, denominator) when it parses, else its trimmed text.

    `equivalent(a, b)` is `answer_key(a) == answer_key(b)`: a string's parse
    depends only on its trimmed text, so equal texts never differ in kind.
    Read from parse_answer's cache; the key is ints, not a Fraction, because
    hashing a Fraction costs about as much as the parse.
    """
    expr = _parse_default(raw if isinstance(raw, str) else str(raw))
    value = expr.value
    return expr.text if value is None else value.as_integer_ratio()


def equivalent(a: str, b: str, step_budget: int | None = None) -> bool:
    """Decide whether two answer strings name the same answer.

    True when both parse as rationals with equal exact values; otherwise
    falls back to trimmed string equality (also used when the step budget
    runs out). With the default budget this is equality of `answer_key`s,
    each side parsed independently (and cached); an explicit step_budget is
    shared across the pair.
    """
    if step_budget is None:
        return answer_key(a) == answer_key(b)
    a, b = str(a), str(b)
    budget = _Budget(step_budget)
    try:
        ca = _parse_with(a, budget)
        cb = _parse_with(b, budget)
    except _BudgetExhausted:
        return a.strip() == b.strip()
    if ca.is_numeric and cb.is_numeric:
        return ca.value == cb.value
    return ca.text == cb.text
