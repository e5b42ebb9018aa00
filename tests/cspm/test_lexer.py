"""Unit tests for the CSPm lexer."""

import pytest

from repro.cspm.lexer import CspmSyntaxError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokens:
    def test_channel_declaration(self):
        assert kinds("channel send, rec : msgs") == [
            "KEYWORD",
            "IDENT",
            "COMMA",
            "IDENT",
            "COLON",
            "IDENT",
        ]

    def test_table1_operators(self):
        """Every operator of the paper's Table I lexes."""
        assert kinds("->") == ["ARROW"]
        assert kinds("?x") == ["QUERY", "IDENT"]
        assert kinds("!x") == ["BANG", "IDENT"]
        assert kinds(";") == ["SEMI"]
        assert kinds("[]") == ["EXTERNAL_CHOICE"]
        assert kinds("|~|") == ["INTERNAL_CHOICE"]
        assert kinds("|||") == ["INTERLEAVE"]
        assert kinds("[| |]") == ["LPAR_SYNC", "RPAR_SYNC"]

    def test_refinement_operators(self):
        assert kinds("[T=") == ["TRACE_REFINES"]
        assert kinds("[F=") == ["FAILURES_REFINES"]
        assert kinds("[FD=") == ["FD_REFINES"]

    def test_enumerated_set_brackets(self):
        assert kinds("{| send |}") == ["LENUM", "IDENT", "RENUM"]

    def test_renaming_brackets(self):
        assert kinds("[[ a <- b ]]") == ["LRENAME", "IDENT", "LARROW", "IDENT", "RRENAME"]

    def test_longest_match_priority(self):
        # '[]' must not lex as two brackets, '|||' not as '||' + '|'
        assert kinds("P[]Q") == ["IDENT", "EXTERNAL_CHOICE", "IDENT"]
        assert kinds("P|||Q") == ["IDENT", "INTERLEAVE", "IDENT"]

    def test_numbers(self):
        tokens = tokenize("42 007")
        assert tokens[0].text == "42" and tokens[1].text == "007"

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("channel chan datatype data")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "IDENT", "KEYWORD", "IDENT"]

    def test_prime_in_identifier(self):
        assert texts("P' Q''") == ["P'", "Q''"]


class TestCommentsAndErrors:
    def test_line_comment_stripped(self):
        assert kinds("P -- comment\n= STOP") == ["IDENT", "EQUALS", "KEYWORD"]

    def test_block_comment_stripped(self):
        assert kinds("P {- multi\nline -} = STOP") == ["IDENT", "EQUALS", "KEYWORD"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CspmSyntaxError):
            tokenize("{- never ends")

    def test_unexpected_character(self):
        with pytest.raises(CspmSyntaxError, match="line 2"):
            tokenize("P = STOP\n€")

    def test_positions_tracked(self):
        tokens = tokenize("P =\n  STOP")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[2].line == 2 and tokens[2].column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "EOF"
