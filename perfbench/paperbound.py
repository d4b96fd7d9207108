"""Parser and evaluator for Table 1 bound strings.

The registry records each program's paper bound as text such as
``4.5*|[0, x]|^2 + 7.5*|[0, x]|``: a sum of terms, each an optional decimal
coefficient times a product of interval atoms ``|[a, b]| = max(0, b - a)``
(optionally raised to an integer power), plus optional bare constants.
``ExpectedBound.pretty()`` prints the same shape, so one parser reads both.

Three reconstructed programs name a variable differently from the paper;
``PAPER_ALIASES`` maps the paper's name to an expression over the
program's own variables before evaluation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

#: The paper's ``d`` in 2drwalk is the walk's progress ``x + y`` (the loop
#: guard is ``x + y < n``); prseq's loop bound is ``z`` in the reconstruction
#: and ``x`` in the paper.
PAPER_ALIASES: Dict[str, Dict[str, str]] = {
    "2drwalk": {"d": "x + y"},
    "prseq": {"x": "z"},
    "prseq_bin": {"x": "z"},
}

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:/\d+)?)|([A-Za-z_]\w*)|"
                    r"(\|\[|\]\||[-+*^,]))")

# A linear expression: constant plus integer coefficients per variable.
Linear = Tuple[Fraction, Tuple[Tuple[str, Fraction], ...]]
# A term: coefficient and a tuple of (lower, upper, power) atoms.
Term = Tuple[Fraction, Tuple[Tuple[Linear, Linear, int], ...]]


class BoundSyntaxError(ValueError):
    """Raised for a bound string outside the grammar above."""


def _tokens(text: str) -> List[str]:
    tokens, position = [], 0
    text = text.strip()
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None or match.end() == position:
            raise BoundSyntaxError(f"unexpected text at {text[position:]!r}")
        tokens.append(match.group(match.lastindex))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokens(text)
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index] if self.index < len(self.tokens) else ""

    def take(self, expected: str = "") -> str:
        token = self.peek()
        if not token or (expected and token != expected):
            raise BoundSyntaxError(
                f"expected {expected or 'a token'} in {self.text!r}, "
                f"found {token or 'the end'}")
        self.index += 1
        return token

    def bound(self) -> List[Term]:
        terms = [self.term(1)]
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            terms.append(self.term(sign))
        if self.peek():
            raise BoundSyntaxError(f"trailing {self.peek()!r} in {self.text!r}")
        return terms

    def term(self, sign: int) -> Term:
        coeff = Fraction(sign)
        atoms = []
        while True:
            if self.peek() == "|[":
                atoms.append(self.atom())
            else:
                coeff *= Fraction(self.take())
            if self.peek() != "*":
                return coeff, tuple(atoms)
            self.take("*")

    def atom(self) -> Tuple[Linear, Linear, int]:
        self.take("|[")
        lower = self.linear()
        self.take(",")
        upper = self.linear()
        self.take("]|")
        power = 1
        if self.peek() == "^":
            self.take("^")
            power = int(self.take())
        return lower, upper, power

    def linear(self) -> Linear:
        const = Fraction(0)
        coeffs: Dict[str, Fraction] = {}
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            token = self.take()
            factor = Fraction(sign)
            if token[0].isdigit():
                factor *= Fraction(token)
                if self.peek() == "*":
                    self.take()
                    token = self.take()
                else:
                    const += factor
                    token = ""
            if token:
                if not (token[0].isalpha() or token[0] == "_"):
                    raise BoundSyntaxError(f"bad operand {token!r}")
                coeffs[token] = coeffs.get(token, Fraction(0)) + factor
            if self.peek() not in ("+", "-"):
                return const, tuple(sorted(coeffs.items()))
            sign = 1 if self.take() == "+" else -1


def parse_bound(text: str) -> List[Term]:
    """Parse a Table 1 style bound into ``(coefficient, atoms)`` terms."""
    return _Parser(text).bound()


def parse_linear(text: str) -> Linear:
    parser = _Parser(text)
    result = parser.linear()
    if parser.peek():
        raise BoundSyntaxError(f"trailing {parser.peek()!r} in {text!r}")
    return result


def _value(linear: Linear, state: Mapping[str, Fraction]) -> Fraction:
    const, coeffs = linear
    try:
        return const + sum((coeff * state[var] for var, coeff in coeffs),
                           Fraction(0))
    except KeyError as exc:
        raise KeyError(f"bound variable {exc.args[0]!r} has no value") from None


def evaluate(terms: List[Term], state: Mapping[str, int],
             aliases: Optional[Mapping[str, str]] = None) -> Fraction:
    """Exact value of parsed ``terms`` at ``state`` (aliases resolved first)."""
    env = {var: Fraction(value) for var, value in state.items()}
    for name, expr in (aliases or {}).items():
        env[name] = _value(parse_linear(expr), env)
    total = Fraction(0)
    for coeff, atoms in terms:
        product = coeff
        for lower, upper, power in atoms:
            product *= max(Fraction(0), _value(upper, env) - _value(lower, env)) ** power
        total += product
    return total


def paper_value(benchmark, state: Mapping[str, int]) -> Fraction:
    """The registry program's paper bound evaluated at ``state``."""
    return evaluate(parse_bound(benchmark.paper_bound), state,
                    PAPER_ALIASES.get(benchmark.name, {}))
