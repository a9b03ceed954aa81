"""Tokenizer for Piglet scripts."""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = {
    "LOAD", "USING", "AS", "FOREACH", "GENERATE", "FILTER", "BY", "GROUP",
    "JOIN", "DUMP", "STORE", "INTO", "LIMIT", "ORDER", "DESC", "ASC",
    "DISTINCT", "AND", "OR", "NOT", "SPATIAL_JOIN", "SPATIAL_PARTITION",
    "CLUSTER", "KNN", "QUERY", "K", "LIVEINDEX", "DESCRIBE", "UNION",
    "ON", "SAMPLE", "CROSS", "EXPLAIN",
}


class PigletSyntaxError(ValueError):
    """Raised for lexical or syntactic errors, with line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | NAME | NUMBER | STRING | OP | DOLLAR | EOF
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>--[^\n]*|/\*.*?\*/)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<dollar>\$\d+)
  | (?P<op>==|!=|<=|>=|[=<>+\-*/%(),;.:])
  | (?P<ws>[ \t\r\n]+)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize a Piglet script.  Comments are ``--`` and ``/* */``."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PigletSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        column = pos - line_start + 1
        if kind == "name":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, line, column))
            else:
                tokens.append(Token("NAME", value, line, column))
        elif kind == "number":
            tokens.append(Token("NUMBER", value, line, column))
        elif kind == "string":
            raw = value[1:-1]
            unescaped = raw.replace("\\'", "'").replace("\\\\", "\\")
            tokens.append(Token("STRING", unescaped, line, column))
        elif kind == "dollar":
            tokens.append(Token("DOLLAR", value[1:], line, column))
        elif kind == "op":
            tokens.append(Token("OP", value, line, column))
        # comments and whitespace: track line numbers, emit nothing
        if kind in ("ws", "comment", "string"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
