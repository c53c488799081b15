"""Tokenizer for the restricted contract language.

One compiled alternation matches the token at each position.  As in
Solidity, identifiers are `[A-Za-z_][A-Za-z0-9_]*` and numbers are
ASCII decimal or `0x` hex digits; any other character outside a `//`
comment is a syntax error at that character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SyntaxError

KEYWORDS = {
    "contract", "event", "function", "mapping", "indexed",
    "external", "public", "internal",
    "require", "emit", "if", "else", "revert", "return", "call",
    "true", "false",
    "uint256", "address", "bool", "bytes",
}

# longest first so `==` wins over `=`
_SYMBOLS = [
    "=>", "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ";", ",", ".",
    "=", "!", "<", ">", "+", "-", "*",
]

_TOKEN = re.compile("|".join([
    r"(?P<SPACE>[ \t\r\n]+)",
    r"(?P<COMMENT>//[^\n]*)",
    r"(?P<NUMBER>0[xX][0-9a-fA-F]*|[0-9]+)",
    r"(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<SYMBOL>" + "|".join(re.escape(s) for s in _SYMBOLS) + ")",
]))


class Token(NamedTuple):
    kind: str  # IDENT NUMBER KEYWORD SYMBOL EOF
    text: str
    pos: int
    line: int
    col: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    n = len(source)
    match = _TOKEN.match
    while pos < n:
        m = match(source, pos)
        if m is None:
            raise SyntaxError(line, pos - line_start + 1, "a token", found=repr(source[pos]))
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "SPACE":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        elif kind == "WORD":
            tokens.append(Token("KEYWORD" if text in KEYWORDS else "IDENT",
                                text, pos, line, pos - line_start + 1))
        elif kind == "NUMBER":
            col = pos - line_start + 1
            if text[:2] in ("0x", "0X"):
                if len(text) == 2:
                    raise SyntaxError(line, col, "hex digits")
            elif text[0] == "0" and text.strip("0"):
                # int(text, 0) takes leading zeros only on zero itself
                raise SyntaxError(line, col, "a number without leading zeros",
                                  found=repr(text))
            tokens.append(Token("NUMBER", text, pos, line, col))
        elif kind == "SYMBOL":
            tokens.append(Token("SYMBOL", text, pos, line, pos - line_start + 1))
        pos = end
    tokens.append(Token("EOF", "", n, line, n - line_start + 1))
    return tokens
