"""Lexer for the sjava mini-language.

One compiled pattern is matched at each position; its named group says
what the text is.  ``\\d`` and ``\\w`` are Unicode classes: a digit is a
``str.isdecimal()`` character, which ``int()`` and ``float()`` accept,
and a word is ``str.isalnum()`` characters or ``_``.  A word must also
start with a letter or ``_``, which the pattern cannot say (``[^\\W\\d]``
also admits ``²`` or ``Ⅻ``), so that is checked by hand.
"""

from __future__ import annotations

import re

from repro.lang.tokens import KEYWORDS, Token, TokenKind


class LexError(Exception):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_OPERATORS = {
    "<=": TokenKind.LE, ">=": TokenKind.GE, "==": TokenKind.EQ,
    "!=": TokenKind.NE, "&&": TokenKind.AND, "||": TokenKind.OR,
    "+=": TokenKind.PLUS_ASSIGN, "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN, "/=": TokenKind.SLASH_ASSIGN,
    "++": TokenKind.INCREMENT, "--": TokenKind.DECREMENT,
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE, "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET, "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA, ";": TokenKind.SEMI, ":": TokenKind.COLON,
    ".": TokenKind.DOT, "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS, "-": TokenKind.MINUS, "*": TokenKind.STAR,
    "/": TokenKind.SLASH, "%": TokenKind.PERCENT,
    "<": TokenKind.LT, ">": TokenKind.GT, "!": TokenKind.NOT,
}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}

# A string body stops at a quote, at a backslash that starts no escape,
# or at NUL, which a string reads as the end of input.
_STRING_BODY = r'"[^"\\\0]*(?:\\[nt"\\r][^"\\\0]*)*'

_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[fF]?)"
    r"|(?P<word>\w+)"
    rf'|(?P<string>{_STRING_BODY}")'
    rf"|(?P<open_string>{_STRING_BODY})"
    r"|(?P<annotation>@\w*)"
    r"|(?P<operator>"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + ")",
    re.DOTALL,
)

_ESCAPE = re.compile(r"\\(.)")


def _position(source: str, index: int) -> tuple[int, int]:
    """The line and column of ``source[index]``."""
    return source.count("\n", 0, index) + 1, index - source.rfind("\n", 0, index)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a list of tokens ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    line, line_start = 1, 0  # ``line_start``: the index where the line starts
    for found in _TOKEN.finditer(source):
        if found.start() != pos:  # the pattern matches nothing at ``pos``
            break
        group = found.lastgroup
        text = found.group()
        col = pos - line_start + 1
        if group == "word":
            first = text[0]
            if first != "_" and not first.isalpha():
                raise LexError(f"unexpected character {first!r}", line, col)
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, line, col))
        elif group == "skip" or group == "string":
            if group == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], body)
                append(Token(TokenKind.STRING_LIT, body, line, col))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
        elif group == "operator":
            append(Token(_OPERATORS[text], text, line, col))
        elif group == "number":
            if text.isdecimal():
                append(Token(TokenKind.INT_LIT, int(text), line, col))
            else:
                value = float(text.rstrip("fF"))
                append(Token(TokenKind.FLOAT_LIT, value, line, col))
        elif group == "annotation":
            name = text[1:]
            if not (name[:1].isalpha() or name[:1] == "_"):
                message = "expected annotation name after '@'"
                raise LexError(message, line, col + 1)
            append(Token(TokenKind.ANNOTATION, name, line, col))
        elif group == "open_comment":
            raise LexError("unterminated block comment", line, col)
        else:  # open_string: ends at NUL, at the end, or at a bad escape
            end = found.end()
            if source[end : end + 1] != "\\":
                raise LexError("unterminated string literal", line, col)
            escape = source[end + 1 : end + 2] or "\0"  # NUL past the end
            message = f"invalid escape sequence \\{escape}"
            raise LexError(message, *_position(source, end + 1))
        pos = found.end()
    col = pos - line_start + 1
    if pos < len(source):
        raise LexError(f"unexpected character {source[pos]!r}", line, col)
    append(Token(TokenKind.EOF, None, line, col))
    return tokens
