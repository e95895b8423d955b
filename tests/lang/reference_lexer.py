"""The parent lexer, kept as the reference that the one-pattern lexer in
:mod:`repro.lang.lexer` is compared against (``tests/lang/test_lexer.py``).

It reads one character at a time through ``peek()``/``advance()``.  The
only change from the production lexer it replaced is that digits are
``str.isdecimal()`` characters, which ``int()`` and ``float()`` accept,
not ``str.isdigit()`` ones such as ``²``.
"""

from __future__ import annotations

from repro.lang.lexer import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind


_TWO_CHAR_OPS = {
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN,
    "/=": TokenKind.SLASH_ASSIGN,
    "++": TokenKind.INCREMENT,
    "--": TokenKind.DECREMENT,
}

_ONE_CHAR_OPS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}


class _Lexer:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    def error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return "\0"

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def emit(self, kind: TokenKind, value: object, line: int, col: int) -> None:
        self.tokens.append(Token(kind, value, line, col))

    def run(self) -> list[Token]:
        while self.pos < len(self.source):
            char = self.peek()
            if char in " \t\r\n":
                self.advance()
            elif char == "/" and self.peek(1) == "/":
                self._skip_line_comment()
            elif char == "/" and self.peek(1) == "*":
                self._skip_block_comment()
            elif char.isdecimal():
                self._lex_number()
            elif char.isalpha() or char == "_":
                self._lex_word()
            elif char == '"':
                self._lex_string()
            elif char == "@":
                self._lex_annotation()
            else:
                self._lex_operator()
        self.emit(TokenKind.EOF, None, self.line, self.col)
        return self.tokens

    def _skip_line_comment(self) -> None:
        while self.pos < len(self.source) and self.peek() != "\n":
            self.advance()

    def _skip_block_comment(self) -> None:
        start_line, start_col = self.line, self.col
        self.advance(2)
        while self.pos < len(self.source):
            if self.peek() == "*" and self.peek(1) == "/":
                self.advance(2)
                return
            self.advance()
        raise LexError("unterminated block comment", start_line, start_col)

    def _lex_number(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self.peek().isdecimal():
            self.advance()
        is_float = False
        if self.peek() == "." and self.peek(1).isdecimal():
            is_float = True
            self.advance()
            while self.peek().isdecimal():
                self.advance()
        if self.peek() in "eE" and (
            self.peek(1).isdecimal()
            or (self.peek(1) in "+-" and self.peek(2).isdecimal())
        ):
            is_float = True
            self.advance()
            if self.peek() in "+-":
                self.advance()
            while self.peek().isdecimal():
                self.advance()
        text = self.source[start : self.pos]
        if self.peek() in "fF":
            is_float = True
            self.advance()
        if is_float:
            self.emit(TokenKind.FLOAT_LIT, float(text), line, col)
        else:
            self.emit(TokenKind.INT_LIT, int(text), line, col)

    def _lex_word(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.advance()
        word = self.source[start : self.pos]
        if word in KEYWORDS:
            self.emit(TokenKind.KEYWORD, word, line, col)
        else:
            self.emit(TokenKind.IDENT, word, line, col)

    def _lex_string(self) -> None:
        line, col = self.line, self.col
        self.advance()  # opening quote
        chars: list[str] = []
        while True:
            char = self.peek()
            if char == "\0":
                raise LexError("unterminated string literal", line, col)
            if char == '"':
                self.advance()
                break
            if char == "\\":
                self.advance()
                escape = self.peek()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}
                if escape not in mapping:
                    raise self.error(f"invalid escape sequence \\{escape}")
                chars.append(mapping[escape])
                self.advance()
            else:
                chars.append(char)
                self.advance()
        self.emit(TokenKind.STRING_LIT, "".join(chars), line, col)

    def _lex_annotation(self) -> None:
        line, col = self.line, self.col
        self.advance()  # '@'
        if not (self.peek().isalpha() or self.peek() == "_"):
            raise self.error("expected annotation name after '@'")
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.advance()
        name = self.source[start : self.pos]
        self.emit(TokenKind.ANNOTATION, name, line, col)

    def _lex_operator(self) -> None:
        line, col = self.line, self.col
        two = self.source[self.pos : self.pos + 2]
        if two in _TWO_CHAR_OPS:
            self.emit(_TWO_CHAR_OPS[two], two, line, col)
            self.advance(2)
            return
        one = self.peek()
        if one in _ONE_CHAR_OPS:
            self.emit(_ONE_CHAR_OPS[one], one, line, col)
            self.advance()
            return
        raise self.error(f"unexpected character {one!r}")


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` one character at a time."""
    return _Lexer(source).run()
