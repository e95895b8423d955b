"""Lexer unit tests, and the differential test against the
character-at-a-time reference lexer in ``reference_lexer.py``."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import programs_dir
from repro.apps.registry import strip_location_annotations
from repro.lang.lexer import LexError, tokenize
from repro.lang.tokens import TokenKind
from tests.lang.reference_lexer import reference_tokenize


def kinds(source: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source: str) -> list[object]:
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("foo") == [TokenKind.IDENT]
        assert values("foo") == ["foo"]

    def test_identifier_with_digits_and_underscores(self):
        assert values("_x9_y") == ["_x9_y"]

    def test_keywords_are_distinguished(self):
        assert kinds("class") == [TokenKind.KEYWORD]
        assert kinds("classy") == [TokenKind.IDENT]

    def test_all_keywords(self):
        for word in ("if", "else", "while", "for", "return", "new", "this",
                     "true", "false", "null", "int", "float", "boolean",
                     "String", "void", "break", "continue", "extends",
                     "static", "final"):
            assert kinds(word) == [TokenKind.KEYWORD], word

    def test_int_literal(self):
        assert values("42") == [42]
        assert kinds("42") == [TokenKind.INT_LIT]

    def test_float_literal(self):
        assert values("3.5") == [3.5]
        assert kinds("3.5") == [TokenKind.FLOAT_LIT]

    def test_float_with_exponent(self):
        assert values("1.5e3") == [1500.0]
        assert values("2e-2") == [0.02]

    def test_float_with_f_suffix(self):
        assert kinds("1.0f") == [TokenKind.FLOAT_LIT]
        assert kinds("7f") == [TokenKind.FLOAT_LIT]
        assert values("7f") == [7.0]

    def test_integer_then_dot_method_not_float(self):
        # `x.length` after an int index must not glue into a float
        assert kinds("a[0].f") == [
            TokenKind.IDENT, TokenKind.LBRACKET, TokenKind.INT_LIT,
            TokenKind.RBRACKET, TokenKind.DOT, TokenKind.IDENT,
        ]

    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_string_escapes(self):
        assert values(r'"a\nb\t\"q\\"') == ['a\nb\t"q\\']

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_invalid_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_string_spans_lines(self):
        tokens = tokenize('"a\nb" c')
        assert tokens[0].value == "a\nb"
        assert (tokens[1].line, tokens[1].col) == (2, 4)


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<=", TokenKind.LE), (">=", TokenKind.GE), ("==", TokenKind.EQ),
            ("!=", TokenKind.NE), ("&&", TokenKind.AND), ("||", TokenKind.OR),
            ("+=", TokenKind.PLUS_ASSIGN), ("-=", TokenKind.MINUS_ASSIGN),
            ("*=", TokenKind.STAR_ASSIGN), ("/=", TokenKind.SLASH_ASSIGN),
            ("++", TokenKind.INCREMENT), ("--", TokenKind.DECREMENT),
        ],
    )
    def test_two_char_operators(self, text, kind):
        assert kinds(text) == [kind]

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("+", TokenKind.PLUS), ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR), ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT), ("<", TokenKind.LT),
            (">", TokenKind.GT), ("=", TokenKind.ASSIGN),
            ("!", TokenKind.NOT), (";", TokenKind.SEMI),
            (":", TokenKind.COLON), (".", TokenKind.DOT),
            (",", TokenKind.COMMA),
        ],
    )
    def test_one_char_operators(self, text, kind):
        assert kinds(text) == [kind]

    def test_maximal_munch(self):
        assert kinds("a<=b") == [TokenKind.IDENT, TokenKind.LE, TokenKind.IDENT]
        assert kinds("a< =b") == [
            TokenKind.IDENT, TokenKind.LT, TokenKind.ASSIGN, TokenKind.IDENT
        ]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")


class TestDigits:
    """A digit is a ``str.isdecimal()`` character, which ``int()`` and
    ``float()`` accept; ``str.isdigit()`` also admits ``²``."""

    def test_non_decimal_digit_is_unexpected(self):
        with pytest.raises(LexError, match=r"^1:9: unexpected character '²'$"):
            tokenize("int x = ²;")

    def test_exponent_needs_decimal_digits(self):
        tokens = tokenize("1e²")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            (TokenKind.INT_LIT, 1), (TokenKind.IDENT, "e²"),
        ]

    def test_other_decimal_digits_are_numbers(self):
        assert values("١٢ ٣.٥") == [12, 3.5]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestAnnotations:
    def test_annotation_token(self):
        tokens = tokenize('@LOC("A")')
        assert tokens[0].kind is TokenKind.ANNOTATION
        assert tokens[0].value == "LOC"
        assert tokens[1].kind is TokenKind.LPAREN
        assert tokens[2].kind is TokenKind.STRING_LIT

    def test_bare_annotation(self):
        tokens = tokenize("@DELEGATE x")
        assert tokens[0].kind is TokenKind.ANNOTATION
        assert tokens[1].kind is TokenKind.IDENT

    def test_at_without_name_raises(self):
        with pytest.raises(LexError):
            tokenize("@ 1")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_columns_advance_within_line(self):
        tokens = tokenize("ab cd")
        assert tokens[1].col == 4


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**12))
    def test_int_literal_roundtrip(self, value):
        assert values(str(value)) == [value]

    @given(
        st.floats(
            min_value=0.001, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_float_literal_roundtrip(self, value):
        text = repr(value)
        tokens = tokenize(text)
        assert tokens[0].kind is TokenKind.FLOAT_LIT
        assert tokens[0].value == pytest.approx(value)

    @given(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,20}", fullmatch=True).filter(
            lambda s: s not in {
                "class", "extends", "public", "private", "protected",
                "static", "final", "void", "int", "float", "boolean",
                "String", "new", "if", "else", "while", "for", "return",
                "true", "false", "null", "break", "continue", "this",
            }
        )
    )
    def test_identifier_roundtrip(self, name):
        assert values(name) == [name]
        assert kinds(name) == [TokenKind.IDENT]


# -- the reference lexer -------------------------------------------------

def outcome(lex, source: str):
    """Every token as (kind, value, line, col), or the LexError message."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lex(source)]
    except LexError as exc:
        return str(exc)


#: Characters that reach every branch of both lexers: string quotes,
#: escapes and their ends, comment and operator starts, annotations,
#: number parts, ASCII words, and Unicode letters (``é``, ``ß``), a
#: decimal digit (``١``) and two numerics that are not (``²``, ``Ⅻ``).
ALPHABET = list('"\\\n\r\0/*@.eEfF+- \tntr_=<&|#') + [
    "a", "Z", "0", "7", "é", "ß", "١", "²", "Ⅻ",
]


class TestAgainstReference:
    @given(st.text(alphabet=ALPHABET, max_size=40))
    @settings(max_examples=2000, deadline=None)
    def test_same_outcome_on_any_input(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("source", [
        '"a\\', '"a\\\n"', '"a\\\0"', '"\0"', '"ab', '"a\\q"',
        "/* never ends", "/*/", "a /* x\n y", "@", "@1", "@\n", "@²x",
        "1.", "1.e5", "1e+", "1e+5f", "7F", "²", "_²", "Ⅻ", "é1",
        '"x\ny" ²', "a\r\nb", "\0",
    ])
    def test_same_outcome_on_edge_cases(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("path", sorted(
        [*programs_dir().glob("*.sj"),
         *(Path(__file__).resolve().parents[2]
           / "benchmarks/e2e/fixtures/rejected").glob("*.sj")],
        key=lambda p: p.name,
    ), ids=lambda p: p.name)
    def test_same_tokens_on_bundled_programs(self, path):
        source = path.read_text(encoding="utf-8")
        for text in (source, strip_location_annotations(source)):
            expected = outcome(reference_tokenize, text)
            assert isinstance(expected, list)
            assert outcome(tokenize, text) == expected
