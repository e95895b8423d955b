"""Token definitions for the sjava mini-language."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenKind(Enum):
    """Lexical categories produced by the lexer."""

    IDENT = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    STRING_LIT = auto()
    KEYWORD = auto()
    ANNOTATION = auto()  # '@' followed by an identifier, e.g. @LATTICE

    # Punctuation.
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    SEMI = auto()
    COLON = auto()
    DOT = auto()

    # Operators.
    ASSIGN = auto()  # =
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    LT = auto()
    GT = auto()
    LE = auto()
    GE = auto()
    EQ = auto()
    NE = auto()
    AND = auto()
    OR = auto()
    NOT = auto()
    PLUS_ASSIGN = auto()
    MINUS_ASSIGN = auto()
    STAR_ASSIGN = auto()
    SLASH_ASSIGN = auto()
    INCREMENT = auto()  # ++
    DECREMENT = auto()  # --

    EOF = auto()


KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "public",
        "private",
        "protected",
        "static",
        "final",
        "void",
        "int",
        "float",
        "boolean",
        "String",
        "new",
        "if",
        "else",
        "while",
        "for",
        "return",
        "true",
        "false",
        "null",
        "break",
        "continue",
        "this",
    }
)


#: Binary operators: token kind -> (operator text, precedence).  A higher
#: precedence binds tighter, and every level is left-associative.  The
#: parser climbs this table and the printer parenthesizes by it.
BINARY_OPERATORS = {
    TokenKind.OR: ("||", 1),
    TokenKind.AND: ("&&", 2),
    TokenKind.EQ: ("==", 3), TokenKind.NE: ("!=", 3),
    TokenKind.LT: ("<", 4), TokenKind.GT: (">", 4),
    TokenKind.LE: ("<=", 4), TokenKind.GE: (">=", 4),
    TokenKind.PLUS: ("+", 5), TokenKind.MINUS: ("-", 5),
    TokenKind.STAR: ("*", 6), TokenKind.SLASH: ("/", 6),
    TokenKind.PERCENT: ("%", 6),
}


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the source text for identifiers and keywords, the
    parsed payload for literals (``int``/``float``/``str``), and the
    annotation name (without ``@``) for annotation tokens.
    """

    kind: TokenKind
    value: object
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.col})"
