"""Tokenizer shared by the statement grammars, and the lexical rules.

One scanner serves the dependency-query language, the extended SELECT
dialect, and the session statements, so positions and literal rules agree
everywhere. `STRING`, `COMMENT` and `NUMBER` are the one spelling of what a
string, a comment and a number look like: the scanner is built from them,
the statement reader cuts scripts with the first two, and CSV ingest reads
a decimal cell as a signed `NUMBER`. `--` starts a line comment. Double and
single quoted strings carry no escape sequences, so `quoted` writes a text
in a mark it lacks; numbers without a dot or exponent become int,
everything else Decimal.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal, InvalidOperation

from .errors import ParseError
from .record import Record

# the lexical rules; they hold no blanks, so verbose patterns read them as is
STRING = r""""[^"\n]*"|'[^'\n]*'"""
COMMENT = r"--[^\n]*"
NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+|{COMMENT})
    | (?P<string>{STRING})
    | (?P<number>{NUMBER})
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|<=|>=|!=|<>|[(){{}}\[\],+\-*=<>;\\])
    """,
    re.VERBOSE,
)


class Token(Record):
    kind: str  # "string" | "number" | "ident" | "punct" | "end"
    text: str  # raw source text (strings keep their quotes)
    value: object  # decoded payload: str | int | Decimal | None
    pos: int  # 1-based offset of the first character


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i + 1)
        if m.lastgroup != "ws":
            raw = m.group(0)
            pos = i + 1
            if m.lastgroup == "string":
                tokens.append(Token("string", raw, raw[1:-1], pos))
            elif m.lastgroup == "number":
                is_decimal = "." in raw or "e" in raw or "E" in raw
                try:
                    value = Decimal(raw) if is_decimal else int(raw)
                except (ValueError, InvalidOperation):
                    # more digits than int() converts, or an exponent past
                    # the decimal module's range
                    raise ParseError("number out of range", pos) from None
                tokens.append(Token("number", raw, value, pos))
            elif m.lastgroup == "ident":
                tokens.append(Token("ident", raw, raw, pos))
            else:
                text_norm = "!=" if raw == "<>" else raw
                tokens.append(Token("punct", text_norm, None, pos))
        i = m.end()
    tokens.append(Token("end", "", None, len(text) + 1))
    return tokens


def quoted(text: str, mark: str = '"') -> str:
    """`text` as a string token: in `mark`, or in the other quote mark when
    it holds `mark`. No string token's text holds both."""
    if mark in text:
        mark = "'" if mark == '"' else '"'
    return f"{mark}{text}{mark}"


def statement_parser(parse):
    """Report a statement nested past the recursion limit as a ParseError.
    Only parsers are wrapped, never evaluation, so a real bug stays one."""

    @functools.wraps(parse)
    def guarded(text: str):
        try:
            return parse(text)
        except RecursionError:
            raise ParseError("statement nests too deeply") from None

    return guarded


def is_kw(tok: Token, word: str) -> bool:
    return tok.kind == "ident" and tok.text.upper() == word


class TokenStream:
    """Cursor over a token list with one-token lookahead helpers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.pos)

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.advance()
            return True
        return False

    def _take(self, ok: bool, what: str) -> Token:
        """The next token, consumed, if `ok`, which the caller tested on
        it; otherwise the error that `what` was expected there."""
        tok = self.peek()
        if not ok:
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        return self._take(tok.kind == "punct" and tok.text == text, repr(text))

    def accept_kw(self, word: str) -> bool:
        if is_kw(self.peek(), word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        return self._take(is_kw(self.peek(), word), word)

    def expect_ident(self, what: str = "identifier") -> str:
        return self._take(self.peek().kind == "ident", what).text

    def expect_string(self, what: str = "quoted name") -> Token:
        return self._take(self.peek().kind == "string", what)

    def expect_strings(self, what: str) -> tuple[str, ...]:
        """A comma list of one or more strings: their texts."""
        texts = [self.expect_string(what).value]
        while self.accept_punct(","):
            texts.append(self.expect_string(what).value)
        return tuple(texts)

    def expect_comparison(self) -> str:
        tok = self.peek()
        ok = tok.kind == "punct" and tok.text in COMPARISONS
        return self._take(ok, "a comparison operator").text

    def expect_number(self) -> Token:
        return self._take(self.peek().kind == "number", "a number")

    def expect_bound(self) -> float:
        """A number read as a float bound. One past the float range would
        print as `inf`, which does not parse back, so it is rejected."""
        tok = self.expect_number()
        value = float(tok.text)
        if not math.isfinite(value):
            raise self.error(f"bound {tok.text} is too large for a float", tok)
        return value

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"unexpected trailing input {tok.text!r}")
