"""Unit tests for the MiniC lexer."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang import parse_program, tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src)[:-1]]


class TestTokens:
    def test_keywords_and_ids(self):
        assert kinds("int foo") == [("kw", "int"), ("id", "foo")]

    def test_integer_literal(self):
        assert kinds("42") == [("int", 42)]

    def test_float_literals(self):
        assert kinds("3.5 1e3 2.5e-2 .5") == [
            ("float", 3.5), ("float", 1000.0), ("float", 0.025),
            ("float", 0.5)]

    def test_operators_longest_match(self):
        assert kinds("a<<=b") == [("id", "a"), ("op", "<<="), ("id", "b")]
        assert kinds("i++ + ++j") == [
            ("id", "i"), ("op", "++"), ("op", "+"), ("op", "++"), ("id", "j")]
        assert kinds("a<=b") == [("id", "a"), ("op", "<="), ("id", "b")]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 4]

    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment_multiline(self):
        tokens = tokenize("a /* x\ny */ b")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("id", "a"), ("id", "b")]
        assert tokens[1].line == 2

    def test_column_after_block_comment(self):
        tokens = tokenize("a /* x */ b")
        assert (tokens[1].value, tokens[1].line, tokens[1].col) == ("b", 1, 11)

    def test_column_after_multiline_comment(self):
        # The column counts from the comment's last newline.
        tokens = tokenize("a /* x\n  y */ bc d")
        assert [(t.value, t.line, t.col) for t in tokens[1:3]] == [
            ("bc", 2, 8), ("d", 2, 11)]

    def test_parse_error_column_after_comment(self):
        with pytest.raises(ParseError) as info:
            parse_program("int f() {\n  int x;\n  x = /* c */ ;\n}")
        assert (info.value.line, info.value.col) == (3, 15)

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_number_glued_to_identifier(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_malformed_exponent(self):
        with pytest.raises(LexError):
            tokenize("1e+")

    def test_underscore_identifier(self):
        assert kinds("_tmp_1") == [("id", "_tmp_1")]

    def test_hex_literals(self):
        assert kinds("0xff 0X10 0xDEAD") == [
            ("int", 255), ("int", 16), ("int", 0xDEAD)]

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")
        with pytest.raises(LexError):
            tokenize("0xfg")

    def test_hex_in_expression(self):
        assert kinds("a & 0x0f") == [
            ("id", "a"), ("op", "&"), ("int", 15)]

    def test_unicode_identifiers_and_decimal_digits(self):
        # str.isalpha starts an identifier, str.isalnum continues it;
        # numbers take any decimal digit int() accepts.
        assert kinds("café x² ٣٤ ١.٥") == [
            ("id", "café"), ("id", "x²"), ("int", 34), ("float", 1.5)]

    @pytest.mark.parametrize("source, col", [
        # int() rejects a superscript two, which str.isdigit accepts.
        pytest.param("int x = 2²;", 9, id="after-digit"),
        pytest.param("int x = ²;", 9, id="alone"),
        pytest.param("int x = 0x1²;", 9, id="after-hex"),
        pytest.param("float y = .²;", 11, id="after-dot"),
        pytest.param("int ½;", 5, id="numeral"),
        pytest.param("int x = " + "9" * 5000 + ";", 9, id="digit-limit"),
    ])
    def test_unconvertible_numbers_are_lex_errors(self, source, col):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert (info.value.line, info.value.col) == (1, col)

    def test_eof_column_after_trailing_line_comment(self):
        source = "int main(void) { return 0; // end"
        assert tokenize(source)[-1].col == len(source) + 1
        with pytest.raises(ParseError) as info:
            parse_program(source)
        assert (info.value.line, info.value.col) == (1, 34)
