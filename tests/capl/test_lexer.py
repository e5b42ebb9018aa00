"""Unit tests for the CAPL lexer."""

import pytest

from repro.capl.lexer import CaplSyntaxError, parse_number, parse_string, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords(self):
        assert kinds("on message timer") == ["KEYWORD", "KEYWORD", "KEYWORD"]

    def test_identifiers(self):
        tokens = tokenize("msgReqSw _private x9")
        assert all(t.kind == "IDENT" for t in tokens[:-1])

    def test_hex_number(self):
        assert parse_number(tokenize("0x101")[0].text) == 0x101

    def test_decimal_and_float(self):
        assert parse_number("42") == 42
        assert parse_number("3.5") == 3.5

    def test_string_literal(self):
        token = tokenize('"hello world"')[0]
        assert token.kind == "STRING"
        assert parse_string(token.text) == "hello world"

    def test_string_escapes(self):
        assert parse_string('"a\\nb"') == "a\nb"
        assert parse_string('"say \\"hi\\""') == 'say "hi"'

    def test_char_literal(self):
        token = tokenize("'a'")[0]
        assert token.kind == "CHAR"
        assert parse_string(token.text) == "a"

    def test_compound_operators(self):
        assert kinds("++ -- += == != && || <<") == [
            "INCREMENT",
            "DECREMENT",
            "PLUS_ASSIGN",
            "EQ",
            "NEQ",
            "LAND",
            "LOR",
            "SHL",
        ]

    def test_pragma_comment_stripped(self):
        assert kinds("/*@!Encoding:1252*/\nvariables") == ["KEYWORD"]

    def test_line_comment_stripped(self):
        assert kinds("int x; // counter\nint y;") == [
            "KEYWORD",
            "IDENT",
            "SEMI",
            "KEYWORD",
            "IDENT",
            "SEMI",
        ]

    def test_block_comment_stripped(self):
        assert kinds("a /* b\nc */ d") == ["IDENT", "IDENT"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(CaplSyntaxError):
            tokenize('"never ends')

    def test_unterminated_comment(self):
        with pytest.raises(CaplSyntaxError):
            tokenize("/* never ends")

    def test_unknown_character(self):
        with pytest.raises(CaplSyntaxError):
            tokenize("int § = 0;")

    def test_line_tracking(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]
