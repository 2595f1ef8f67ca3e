"""Tiny expression grammar for ad-hoc pairing spot checks.

Deliberately small: integer literals, identifiers bound to basis labels or
named classes, ``+ - *`` (scalar multiplication only) and one infix ``.``
for the intersection pairing, plus parentheses::

    expression := sum ('.' sum)?
    sum        := product (('+' | '-') product)*
    product    := unary ('*' unary)*
    unary      := '-' unary | atom
    atom       := INT | IDENT | '(' sum ')'

Evaluation is exact; the result is either a divisor class or an integer
pairing value.  Errors carry the byte offset they were detected at.
"""

from __future__ import annotations

import re

from .errors import ExprError
from .lattice import DivisorClass, SurfaceModel


# ASCII only, whitespace included, so every character before an error is
# one byte and a character offset is a byte offset.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*'*)|([+\-*.()]))", re.ASCII)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII

# Python refuses int() on strings longer than its int<->str digit limit
# (4300 by default); a literal is converted in parts no longer than this.
_DIGIT_CHUNK = 4000


def _int_literal(digits: str) -> int:
    """The exact value of a decimal literal of any length, without touching
    the interpreter-wide digit limit."""
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    low = len(digits) // 2
    return _int_literal(digits[:-low]) * 10**low + _int_literal(digits[-low:])


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip(_SPACE)
            if not stripped:
                break  # trailing whitespace
            at = len(text) - len(stripped)
            raise ExprError(f"unexpected character {text[at]!r}", at)
        if match.group(1) is not None:
            tokens.append(("int", _int_literal(match.group(1)), match.start(1)))
        elif match.group(2) is not None:
            tokens.append(("ident", match.group(2), match.start(2)))
        elif match.group(3) is not None:
            tokens.append(("op", match.group(3), match.start(3)))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


# Each '(' costs four frames: about 250 exhaust the default recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens, resolve, pair):
        self.tokens = tokens
        self.i = 0
        self.resolve = resolve
        self.pair = pair
        self.depth = 0

    def nest(self, pos):
        """Enter one more level of '(' or unary '-'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expression(self):
        left = self.sum()
        kind, value, pos = self.peek()
        if kind == "op" and value == ".":
            self.take()
            right = self.sum()
            result = self.pair(left, right, pos)
        else:
            result = left
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {value!r} after expression", pos)
        return result

    def sum(self):
        left = self.unary_or_product()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                right = self.unary_or_product()
                left = self._combine(left, right, value, pos)
            else:
                return left

    def _combine(self, left, right, op, pos):
        if isinstance(left, int) and isinstance(right, int):
            return left + right if op == "+" else left - right
        if isinstance(left, DivisorClass) and isinstance(right, DivisorClass):
            return left + right if op == "+" else left - right
        raise ExprError(f"cannot apply {op!r} to a number and a divisor class", pos)

    def unary_or_product(self):
        left = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                right = self.unary()
                if isinstance(left, int):
                    left = left * right  # int*int or int*class
                elif isinstance(right, int):
                    left = right * left
                else:
                    raise ExprError("cannot multiply two divisor classes", pos)
            else:
                return left

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            self.nest(pos)
            inner = self.unary()
            self.depth -= 1
            return -inner
        return self.atom()

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return value
        if kind == "ident":
            return self.resolve(value, pos)
        if kind == "op" and value == "(":
            self.nest(pos)
            inner = self.sum()
            self.depth -= 1
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise ExprError("expected ')'", pos)
            return inner
        raise ExprError(
            "expected a number, an identifier or '('"
            if kind == "end"
            else f"unexpected {value!r}",
            pos,
        )


def parse_expr(
    text: str,
    model: SurfaceModel,
    named: dict[str, DivisorClass] | None = None,
    models: tuple[SurfaceModel, ...] = (),
) -> DivisorClass | int:
    """Evaluate ``text`` over ``model``'s basis labels and ``named`` classes.

    ``models`` supplies additional surfaces so named classes living on
    other models of a tower can still be paired.  Returns a
    :class:`DivisorClass`, or an integer when the expression is a pairing.
    """
    named = named or {}
    by_id = {model.model_id: model}
    for extra in models:
        by_id[extra.model_id] = extra

    def resolve(name, pos):
        if name in named:
            return named[name]
        if name in model.basis:
            return model.basis_class(name)
        raise ExprError(f"unknown identifier {name!r}", pos)

    def do_pair(left, right, pos):
        if not isinstance(left, DivisorClass) or not isinstance(right, DivisorClass):
            raise ExprError("pairing needs a divisor class on both sides", pos)
        owner = by_id.get(left.model_id)
        if owner is None:
            raise ExprError(f"no model available for pairing on {left.model_id!r}", pos)
        return owner.pair(left, right)  # raises MismatchedModel on mixed models

    return _Parser(_tokenize(text), resolve, do_pair).expression()
