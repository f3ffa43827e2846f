"""Final-answer extraction and exact equivalence for math answer strings.

Two answers are considered the same when both parse as exact rational
expressions with equal values, e.g. "0.5", "\\frac{1}{2}", "2/4" and
"(3-2)/2" all name the rational 1/2. Anything outside the rational
fragment (variables, radicals, malformed input) degrades to an opaque
string that compares only by trimmed string equality. There is no float
anywhere in the comparison path, so equivalence is exact and transitive
inside the numeric fragment.

The parser/evaluator runs under a deterministic step budget instead of a
wall clock; exhausting the budget falls back to string comparison, so
results are identical on every machine. For the same reason a number
whose whole or fractional digit run is longer than 4300 digits (CPython's
default `int()` limit) is opaque, whatever limit `PYTHONINTMAXSTRDIGITS`
or the Python version sets.
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

_OP_MAP = {
    "\u00d7": "*",  # ×
    "\u00b7": "*",  # ·
    "\\cdot": "*",
    "\u00f7": "/",  # ÷
    "\u2212": "-",  # unicode minus
}


def _tokenize(s: str, budget: _Budget) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None:
            raise _ParseFailure(f"unexpected character at {pos}")
        budget.charge()
        pos = m.end()
        tok = m.group()
        if tok.isspace():
            continue
        tokens.append(_OP_MAP.get(tok, tok))
    return tokens


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


class _Parser:
    """Recursive descent over: + - * / unary minus, ^ with integer exponent,
    ( ) and { } grouping, \\frac{a}{b}. Every arithmetic op charges the
    budget in proportion to operand size so pathological inputs terminate."""

    def __init__(self, tokens: list[str], budget: _Budget):
        self.tokens = tokens
        self.pos = 0
        self.budget = budget

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
            value = self.expr()
            self.expect("}")
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
            value = self.expr()
            self.expect(")")
            return value
        if tok == "{":
            value = self.expr()
            self.expect("}")
            return value
        if tok == "\\frac":
            self.expect("{")
            num = self.expr()
            self.expect("}")
            self.expect("{")
            den = self.expr()
            self.expect("}")
            if den == 0:
                raise _ParseFailure("division by zero")
            self._charge_arith(num, den)
            return num / den
        if tok and (tok[0].isdigit() or tok[0] == "."):
            return _number(tok)
        raise _ParseFailure(f"unexpected token {tok!r}")


def _parse_with(raw: str, budget: _Budget) -> CanonicalExpr:
    """parse_answer's body on a caller-owned budget: strip, tokenize and
    parse `raw`; _BudgetExhausted is left to the caller."""
    trimmed = raw.strip()
    try:
        stripped = _strip_answer(raw)
        if not stripped:
            return CanonicalExpr(None, trimmed)
        tokens = _tokenize(stripped, budget)
        return CanonicalExpr(_Parser(tokens, budget).parse(), trimmed)
    except (_ParseFailure, ValueError, OverflowError, RecursionError):
        return CanonicalExpr(None, trimmed)


def _parse_fresh(raw: str, step_budget: int) -> CanonicalExpr:
    budget = _Budget(step_budget)
    try:
        return _parse_with(raw, budget)
    except _BudgetExhausted:
        return CanonicalExpr(None, raw.strip())


# Parses under the default budget, shared by parse_answer and equivalent.
_parse_default = lru_cache(maxsize=65_536)(partial(_parse_fresh, step_budget=DEFAULT_STEP_BUDGET))


def parse_answer(raw: str, step_budget: int | None = None) -> CanonicalExpr:
    """Parse an answer string into an exact rational, or an opaque leaf.

    Total function: any input outside the rational grammar (or exceeding
    the step budget) yields CanonicalExpr(None, trimmed_input). Parses
    under the default budget are cached, and `equivalent` reads the same
    cache, so a string parsed here is not parsed again there.
    """
    if not isinstance(raw, str):
        raw = str(raw)
    if step_budget is None:
        return _parse_default(raw)
    return _parse_fresh(raw, int(step_budget))


def equivalent(a: str, b: str, step_budget: int | None = None) -> bool:
    """Decide whether two answer strings name the same answer.

    True when both parse as rationals with equal exact values; otherwise
    falls back to trimmed string equality (also used when the step budget
    runs out). With the default budget each side is parsed independently
    (and cached); an explicit step_budget is shared across the pair.
    """
    if not isinstance(a, str):
        a = str(a)
    if not isinstance(b, str):
        b = str(b)
    if step_budget is None:
        ca = _parse_default(a)
        cb = _parse_default(b)
    else:
        budget = _Budget(step_budget)
        try:
            ca = _parse_with(a, budget)
            cb = _parse_with(b, budget)
        except _BudgetExhausted:
            return a.strip() == b.strip()
    if ca.is_numeric and cb.is_numeric:
        return ca.value == cb.value
    return ca.text == cb.text
