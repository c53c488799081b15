"""The former tokenizer of the contract language, kept as a test oracle.

It walks the text one character at a time and classifies each with
`str.isdigit`, `str.isalpha` and `str.isalnum`, so it also takes
non-ASCII digits and letters; the current tokenizer takes ASCII only.
"""

from __future__ import annotations

from dataclasses import dataclass

from phantomscan.minisol.errors import SyntaxError

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


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER KEYWORD SYMBOL EOF
    text: str
    pos: int
    line: int
    col: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def reference_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def bump(text: str) -> None:
        nonlocal i, line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        i += len(text)

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            bump(ch)
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            bump(source[i:n] if end < 0 else source[i:end])
            continue
        if ch.isdigit():
            j = i + 1
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise SyntaxError(line, col, "hex digits")
            else:
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(Token("NUMBER", source[i:j], i, line, col))
            bump(source[i:j])
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, i, line, col))
            bump(text)
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("SYMBOL", sym, i, line, col))
                bump(sym)
                break
        else:
            raise SyntaxError(line, col, "a token", found=repr(ch))
    tokens.append(Token("EOF", "", n, line, col))
    return tokens
