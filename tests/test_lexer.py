"""The one-regex tokenizer against the former character-walking one."""

import re

from hypothesis import given, settings, strategies as st

from phantomscan.minisol.errors import SyntaxError
from phantomscan.minisol.lexer import _SYMBOLS, KEYWORDS, tokenize
from reference_lexer import reference_tokenize


def outcome(tokenizer, source: str):
    """The token list as plain tuples, or the SyntaxError's position and text."""
    try:
        return [(t.kind, t.text, t.pos, t.line, t.col) for t in tokenizer(source)]
    except SyntaxError as exc:
        return ("error", exc.line, exc.col, str(exc))


def offset(source: str, line: int, col: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + col - 1


# pieces are joined with no separator, so neighbours also merge
# (an identifier swallows a number, `=` and `=` make `==`)
PIECES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.from_regex(r"0[xX][0-9a-fA-F]{0,4}|[0-9]{1,5}", fullmatch=True),
    st.sampled_from(_SYMBOLS),
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "   "]),
    st.text(st.characters(exclude_characters="\n", exclude_categories=("Cs",)),
            max_size=8).map(lambda text: "//" + text),
    st.sampled_from(list("@#$%^&|/\\?'\"`~:\x0b\x0c")),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECES, max_size=40).map("".join))
def test_tokenizer_matches_the_former_one(source):
    got = outcome(tokenize, source)
    if got[0] == "error":
        # the tokens in front of the error agree as well
        pos = offset(source, got[1], got[2])
        assert outcome(tokenize, source[:pos])[:-1] == \
            outcome(reference_tokenize, source[:pos])[:-1]
        if "leading zeros" in got[3]:
            # declared change: the former tokenizer took the number, and
            # load() then failed in int(text, 0) with no position
            number = re.match(r"[0-9]+", source[pos:]).group()
            assert got[3] == f"{got[1]}:{got[2]}: expected a number without " \
                             f"leading zeros, found {number!r}"
            assert number.startswith("0") and number.strip("0")
            return
    assert got == outcome(reference_tokenize, source)


def test_numbers_int_accepts_are_tokens():
    for text in ("0", "00", "000", "7", "10", "0x0", "0XfF", "0x00ff"):
        (kind, got, *_), _eof = outcome(tokenize, text)
        assert (kind, got) == ("NUMBER", text)
        int(text, 0)


def test_eof_token_sits_after_a_trailing_comment():
    source = "a\n// end"
    assert outcome(tokenize, source) == [("IDENT", "a", 0, 1, 1), ("EOF", "", 8, 2, 7)]
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)
