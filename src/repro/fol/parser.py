"""A small recursive-descent parser for FOL(R) queries.

Grammar (ASCII-friendly, precedence low → high)::

    query    := iff
    iff      := implies ( '<->' implies )*
    implies  := or ( '->' or )*              (right-associative)
    or       := and ( ('|' | 'or') and )*
    and      := unary ( ('&' | 'and') unary )*
    unary    := ('!' | 'not' | '¬') unary
              | ('exists' | 'forall') var (',' var)* '.' unary
              | primary
    primary  := 'true' | 'false'
              | var '=' var | var '!=' var
              | NAME '(' var (',' var)* ')' | NAME
              | '(' query ')'

Names starting with an upper-case letter with parentheses (or bare names
declared as propositions) are relational atoms; bare lower-case names in
argument/equality positions are data variables.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import QueryParseError
from repro.fol.syntax import (
    Atom,
    Equals,
    FalseQuery,
    Iff,
    Implies,
    Not,
    Query,
    TrueQuery,
    conjunction,
    disjunction,
    exists,
    forall,
)

__all__ = ["parse_query"]

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<dot>\.)"
    r"|(?P<iff><->|⇔)|(?P<implies>->|⇒)|(?P<neq>!=|≠)|(?P<eq>=)"
    r"|(?P<and>&&|&|∧)|(?P<or>\|\||\||∨)|(?P<not>!|¬)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9']*))"
)

_KEYWORDS = {"true", "false", "and", "or", "not", "exists", "forall"}


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


#: Closes every token list, so lookahead never runs off its end.
_END = _Token("end", "", -1)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None or match.end() == position:
            if text[position:].strip():
                raise QueryParseError(f"unexpected character {text[position]!r} at {position}")
            break
        kind = match.lastgroup or ""
        value = match.group(kind)
        start = match.start(kind)
        if kind == "name" and value.lower() in _KEYWORDS:
            kind = value.lower()
        tokens.append(_Token(kind, value, start))
        position = match.end()
    tokens.append(_END)
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> _Token | None:
        token = self._tokens[self._index]
        return None if token is _END else token

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryParseError(f"unexpected end of query in {self._text!r}")
        self._index += 1
        return token

    def _accept(self, kind: str) -> _Token | None:
        token = self._tokens[self._index]
        if token.kind == kind:
            self._index += 1
            return token
        return None

    def _expect(self, kind: str) -> _Token:
        token = self._accept(kind)
        if token is None:
            found = self._peek()
            where = found.text if found else "end of input"
            raise QueryParseError(f"expected {kind!r} but found {where!r} in {self._text!r}")
        return token

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Query:
        query = self._iff()
        if self._peek() is not None:
            raise QueryParseError(
                f"trailing input {self._peek().text!r} in query {self._text!r}"
            )
        return query

    def _iff(self) -> Query:
        left = self._implies()
        while self._accept("iff"):
            right = self._implies()
            left = Iff(left, right)
        return left

    def _implies(self) -> Query:
        left = self._or()
        if self._accept("implies"):
            right = self._implies()
            return Implies(left, right)
        return left

    def _or(self) -> Query:
        parts = [self._and()]
        while self._accept("or"):
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else disjunction(*parts)

    def _and(self) -> Query:
        parts = [self._unary()]
        while self._accept("and"):
            parts.append(self._unary())
        return parts[0] if len(parts) == 1 else conjunction(*parts)

    def _unary(self) -> Query:
        if self._accept("not"):
            return Not(self._unary())
        token = self._peek()
        if token is not None and token.kind in ("exists", "forall"):
            self._next()
            variables = [self._expect("name").text]
            while self._accept("comma"):
                variables.append(self._expect("name").text)
            self._expect("dot")
            # Quantifier scope extends as far to the right as possible.
            body = self._iff()
            builder = exists if token.kind == "exists" else forall
            return builder(tuple(variables), body)
        return self._primary()

    def _primary(self) -> Query:
        if self._accept("lparen"):
            inner = self._iff()
            self._expect("rparen")
            return inner
        if self._accept("true"):
            return TrueQuery()
        if self._accept("false"):
            return FalseQuery()
        name_token = self._expect("name")
        if self._accept("lparen"):
            arguments = [self._expect("name").text]
            while self._accept("comma"):
                arguments.append(self._expect("name").text)
            self._expect("rparen")
            return Atom(name_token.text, tuple(arguments))
        if self._accept("eq"):
            other = self._expect("name")
            return Equals(name_token.text, other.text)
        if self._accept("neq"):
            other = self._expect("name")
            return Not(Equals(name_token.text, other.text))
        # A bare name is a nullary atom (proposition).
        return Atom(name_token.text, ())


def parse_query(text: str) -> Query:
    """Parse the textual form of a FOL(R) query.

    Example:
        >>> parse_query("exists u. R(u) & !Q(u)")
        ... # doctest: +ELLIPSIS
        Exists(...)
    """
    return _Parser(text).parse()
