"""Parsing of TDG-formulae and rules from text.

Domain experts supply dependencies as text (the paper's QUIS experts
"defined some characteristic domain dependencies over the QUIS schema");
this module turns the same notation the library prints back into formula
objects, so rules round-trip through ``str()`` and rule files can be
authored by hand:

.. code-block:: text

    BRV = '404' → GBM = '901'
    KBM = '01' ∧ GBM = '901' -> BRV = '501'
    (QTY < 100 ∨ QTY > 900) and PROD_DATE >= is not supported — only the
    paper's operators exist: =, ≠ (or !=), <, >, isnull, isnotnull.

Grammar (ASCII equivalents in parentheses)::

    rule      := formula ("→" | "->") formula
    formula   := disjunct { ("∨" | "or") disjunct }
    disjunct  := conjunct { ("∧" | "and" | "&") conjunct }
    conjunct  := "(" formula ")" | atom
    atom      := IDENT "isnull" | IDENT "isnotnull"
               | IDENT op (IDENT | literal)
    op        := "=" | "≠" | "!=" | "<" | ">"
    literal   := 'single-quoted string' | number | ISO date (YYYY-MM-DD)

Whether ``X op Y`` with a bare identifier ``Y`` is a relational atom or a
comparison with a nominal constant is resolved against the schema: known
attribute names become relational atoms; anything else is a (quoted)
constant — unquoted bare words are only accepted as attribute names, to
keep rule files unambiguous.
"""

from __future__ import annotations

import datetime
import re
from typing import Optional

from repro.errors import InputError
from repro.logic.atoms import (
    Atom,
    Eq,
    EqAttr,
    Gt,
    GtAttr,
    IsNotNull,
    IsNull,
    Lt,
    LtAttr,
    Ne,
    NeAttr,
)
from repro.logic.base import Formula
from repro.logic.formulas import conjoin, disjoin
from repro.logic.rules import Rule
from repro.schema.schema import Schema
from repro.schema.types import Value

__all__ = ["ParseError", "parse_formula", "parse_rule", "parse_rules"]


class ParseError(InputError):
    """Raised on malformed formula/rule text (an
    :class:`~repro.errors.InputError`: rule files come from outside the
    program)."""


_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>→|->)
  | (?P<and>∧|&|\band\b)
  | (?P<or>∨|\bor\b)
  | (?P<isnotnull>\bisnotnull\b)
  | (?P<isnull>\bisnull\b)
  | (?P<op>=|≠|!=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<date>\d{4}-\d{2}-\d{2})
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], schema: Schema):
        self.tokens = tokens
        self.schema = schema
        self.position = 0

    # -- token access ---------------------------------------------------------

    def peek(self) -> Optional[tuple[str, str]]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.position += 1
        return token

    def expect(self, kind: str) -> str:
        token = self.advance()
        if token[0] != kind:
            raise ParseError(f"expected {kind}, found {token[1]!r}")
        return token[1]

    # -- grammar ---------------------------------------------------------------

    def formula(self) -> Formula:
        parts = [self.disjunct()]
        while (token := self.peek()) is not None and token[0] == "or":
            self.advance()
            parts.append(self.disjunct())
        return disjoin(parts)

    def disjunct(self) -> Formula:
        parts = [self.conjunct()]
        while (token := self.peek()) is not None and token[0] == "and":
            self.advance()
            parts.append(self.conjunct())
        return conjoin(parts)

    def conjunct(self) -> Formula:
        token = self.peek()
        if token is not None and token[0] == "lparen":
            self.advance()
            inner = self.formula()
            self.expect("rparen")
            return inner
        return self.atom()

    def atom(self) -> Atom:
        attribute = self.expect("ident")
        if attribute not in self.schema:
            raise ParseError(f"unknown attribute {attribute!r}")
        token = self.advance()
        if token[0] == "isnull":
            return IsNull(attribute)
        if token[0] == "isnotnull":
            return IsNotNull(attribute)
        if token[0] != "op":
            raise ParseError(f"expected an operator after {attribute!r}, found {token[1]!r}")
        operator = "≠" if token[1] in ("≠", "!=") else token[1]
        value_token = self.advance()
        if value_token[0] == "ident":
            partner = value_token[1]
            if partner not in self.schema:
                raise ParseError(
                    f"bare word {partner!r} is neither an attribute nor a quoted "
                    f"constant (quote nominal values: '{partner}')"
                )
            relational = {"=": EqAttr, "≠": NeAttr, "<": LtAttr, ">": GtAttr}
            return relational[operator](attribute, partner)
        constant = self._literal(value_token)
        propositional = {"=": Eq, "≠": Ne, "<": Lt, ">": Gt}
        atom = propositional[operator](attribute, constant)
        atom.validate(self.schema)
        return atom

    @staticmethod
    def _literal(token: tuple[str, str]) -> Value:
        kind, text = token
        if kind == "string":
            return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")
        if kind == "date":
            return datetime.date.fromisoformat(text)
        if kind == "number":
            number = float(text)
            return int(number) if number.is_integer() and "." not in text and "e" not in text.lower() else number
        raise ParseError(f"expected a literal, found {text!r}")

    def finish(self) -> None:
        token = self.peek()
        if token is not None:
            raise ParseError(f"trailing input starting at {token[1]!r}")


def parse_formula(text: str, schema: Schema) -> Formula:
    """Parse one TDG-formula against *schema*."""
    parser = _Parser(_tokenize(text), schema)
    result = parser.formula()
    parser.finish()
    return result


def parse_rule(text: str, schema: Schema) -> Rule:
    """Parse one TDG-rule (``premise → consequence``)."""
    tokens = _tokenize(text)
    arrow_positions = [i for i, (kind, _) in enumerate(tokens) if kind == "arrow"]
    if len(arrow_positions) != 1:
        raise ParseError("a rule needs exactly one '→' (or '->')")
    split = arrow_positions[0]
    premise_parser = _Parser(tokens[:split], schema)
    premise = premise_parser.formula()
    premise_parser.finish()
    consequence_parser = _Parser(tokens[split + 1 :], schema)
    consequence = consequence_parser.formula()
    consequence_parser.finish()
    return Rule(premise, consequence)


def parse_rules(text: str, schema: Schema) -> list[Rule]:
    """Parse a rule file: one rule per line; blank lines and ``#`` comments
    are skipped. Errors report the line number."""
    rules: list[Rule] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line, schema))
        except ParseError as exc:
            raise ParseError(f"line {line_number}: {exc}") from None
    return rules
