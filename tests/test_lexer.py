"""Unit tests for the PHP lexer (token_get_all equivalent)."""

import pytest

from repro.php import PhpLexError, tokenize, tokenize_significant
from repro.php.lexer import Lexer, count_loc
from repro.php.tokens import Token, TokenType


def types(source):
    return [token.type for token in tokenize_significant(source)]


def values(source):
    return [token.value for token in tokenize_significant(source)]


class TestHtmlAndTags:
    def test_pure_html(self):
        tokens = tokenize("<b>hello</b>")
        assert [t.type for t in tokens] == [TokenType.INLINE_HTML]
        assert tokens[0].value == "<b>hello</b>"

    def test_open_close_tags(self):
        tokens = tokenize("<p><?php $x; ?></p>")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.INLINE_HTML,
            TokenType.OPEN_TAG,
            TokenType.WHITESPACE,
            TokenType.VARIABLE,
            TokenType.CHAR,
            TokenType.WHITESPACE,
            TokenType.CLOSE_TAG,
            TokenType.INLINE_HTML,
        ]

    def test_short_echo_tag(self):
        tokens = tokenize("<?= $x ?>")
        assert tokens[0].type is TokenType.OPEN_TAG_WITH_ECHO

    def test_html_between_php_blocks(self):
        tokens = tokenize("<?php $a; ?>mid<?php $b;")
        html = [t for t in tokens if t.type is TokenType.INLINE_HTML]
        assert len(html) == 1 and html[0].value == "mid"


class TestVariablesAndIdentifiers:
    def test_variable_token(self):
        tokens = tokenize_significant("<?php $_POST;")
        assert tokens[1].type is TokenType.VARIABLE
        assert tokens[1].value == "$_POST"

    def test_keywords_case_insensitive(self):
        assert TokenType.IF in types("<?php IF (1) {}")
        assert TokenType.FUNCTION in types("<?php Function f() {}")

    def test_identifier(self):
        tokens = tokenize_significant("<?php htmlentities($x);")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "htmlentities"

    def test_variable_variable(self):
        kinds = types("<?php $$name;")
        assert kinds[1:3] == [TokenType.CHAR, TokenType.VARIABLE]


class TestLineNumbers:
    def test_lines_tracked_through_whitespace(self):
        source = "<?php\n$a;\n\n$b;"
        tokens = [t for t in tokenize_significant(source) if t.type is TokenType.VARIABLE]
        assert [t.line for t in tokens] == [2, 4]

    def test_lines_tracked_through_strings(self):
        source = "<?php\n$a = 'x\ny';\n$b;"
        last = [t for t in tokenize_significant(source) if t.value == "$b"][0]
        assert last.line == 4  # the string literal spans lines 2-3

    def test_lines_tracked_through_comments(self):
        source = "<?php\n/* a\nb\nc */\n$z;"
        token = [t for t in tokenize_significant(source) if t.value == "$z"][0]
        assert token.line == 5


class TestComments:
    def test_line_comment_slash(self):
        assert TokenType.COMMENT in [t.type for t in tokenize("<?php // hi\n$a;")]

    def test_line_comment_hash(self):
        assert TokenType.COMMENT in [t.type for t in tokenize("<?php # hi\n$a;")]

    def test_line_comment_stops_at_close_tag(self):
        tokens = tokenize("<?php // note ?>after")
        kinds = [t.type for t in tokens]
        assert TokenType.CLOSE_TAG in kinds
        assert TokenType.INLINE_HTML in kinds

    def test_block_comment(self):
        tokens = tokenize("<?php /* x */ $a;")
        comment = [t for t in tokens if t.type is TokenType.COMMENT][0]
        assert comment.value == "/* x */"

    def test_doc_comment(self):
        tokens = tokenize("<?php /** doc */ $a;")
        assert any(t.type is TokenType.DOC_COMMENT for t in tokens)

    def test_significant_strips_trivia(self):
        kinds = types("<?php /* c */ $a; // t")
        assert TokenType.COMMENT not in kinds
        assert TokenType.WHITESPACE not in kinds


class TestNumbers:
    @pytest.mark.parametrize(
        "literal,type_",
        [
            ("42", TokenType.LNUMBER),
            ("0x1F", TokenType.LNUMBER),
            ("0b101", TokenType.LNUMBER),
            ("3.14", TokenType.DNUMBER),
            (".5", TokenType.DNUMBER),
            ("1e10", TokenType.DNUMBER),
            ("2.5e-3", TokenType.DNUMBER),
        ],
    )
    def test_number_forms(self, literal, type_):
        tokens = tokenize_significant(f"<?php $x = {literal};")
        assert tokens[3].type is type_
        assert tokens[3].value == literal


class TestStrings:
    def test_single_quoted(self):
        tokens = tokenize_significant("<?php 'a\\'b';")
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING
        assert tokens[1].value == "'a\\'b'"

    def test_double_quoted_constant(self):
        tokens = tokenize_significant('<?php "plain";')
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING

    def test_double_quoted_interpolation(self):
        kinds = types('<?php "a $x b";')
        assert TokenType.ENCAPSED_AND_WHITESPACE in kinds
        assert TokenType.VARIABLE in kinds

    def test_complex_interpolation(self):
        kinds = types('<?php "{$obj->prop}";')
        assert TokenType.CURLY_OPEN in kinds
        assert TokenType.OBJECT_OPERATOR in kinds

    def test_simple_array_interpolation(self):
        vals = values('<?php "x $arr[3] y";')
        assert "$arr" in vals and "3" in vals

    def test_simple_property_interpolation(self):
        kinds = types('<?php "v $row->name!";')
        assert TokenType.OBJECT_OPERATOR in kinds

    def test_escaped_dollar_not_interpolated(self):
        tokens = tokenize_significant('<?php "a \\$x";')
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING

    def test_unterminated_string_raises(self):
        with pytest.raises(PhpLexError):
            tokenize("<?php 'oops")

    def test_unterminated_double_raises(self):
        with pytest.raises(PhpLexError):
            tokenize('<?php "oops')


class TestHeredoc:
    def test_heredoc_tokens(self):
        source = "<?php $q = <<<EOT\nline $x more\nEOT;\n"
        kinds = types(source)
        assert TokenType.START_HEREDOC in kinds
        assert TokenType.END_HEREDOC in kinds
        assert TokenType.VARIABLE in kinds

    def test_nowdoc_no_interpolation(self):
        source = "<?php $q = <<<'EOT'\nraw $x\nEOT;\n"
        tokens = tokenize_significant(source)
        body = [t for t in tokens if t.type is TokenType.ENCAPSED_AND_WHITESPACE]
        assert body and "$x" in body[0].value
        assert not any(t.type is TokenType.VARIABLE and t.value == "$x" for t in tokens)

    def test_unterminated_heredoc_raises(self):
        with pytest.raises(PhpLexError):
            tokenize("<?php $q = <<<EOT\nno end\n")


class TestOperatorsAndCasts:
    def test_object_operator(self):
        assert TokenType.OBJECT_OPERATOR in types("<?php $a->b;")

    def test_double_colon(self):
        assert TokenType.DOUBLE_COLON in types("<?php A::b();")

    def test_compound_assignments(self):
        assert TokenType.CONCAT_EQUAL in types("<?php $a .= 'x';")
        assert TokenType.PLUS_EQUAL in types("<?php $a += 1;")

    def test_comparison_operators(self):
        kinds = types("<?php 1 === 2; 1 !== 2; 1 <> 2;")
        assert TokenType.IS_IDENTICAL in kinds
        assert TokenType.IS_NOT_IDENTICAL in kinds
        assert kinds.count(TokenType.IS_NOT_EQUAL) == 1

    @pytest.mark.parametrize(
        "cast,type_",
        [
            ("(int)", TokenType.INT_CAST),
            ("( integer )", TokenType.INT_CAST),
            ("(bool)", TokenType.BOOL_CAST),
            ("(string)", TokenType.STRING_CAST),
            ("(array)", TokenType.ARRAY_CAST),
        ],
    )
    def test_casts(self, cast, type_):
        assert type_ in types(f"<?php $a = {cast}$b;")

    def test_paren_not_cast(self):
        kinds = types("<?php $a = (foo)($b);")
        assert TokenType.INT_CAST not in kinds
        assert kinds.count(TokenType.CHAR) >= 4  # parens survive


class TestLocCounter:
    def test_counts_code_lines_only(self):
        source = "<?php\n// comment\n\n$a = 1;\n/* block\n   more */\n$b = 2;\n"
        assert count_loc(source) == 3  # <?php, $a, $b

    def test_empty_source(self):
        assert count_loc("") == 0

    def test_star_continuation_lines_skipped(self):
        source = "<?php\n/**\n * doc\n */\n$a;\n"
        assert count_loc(source) == 2


#: Exact ``token_get_all``-style streams of the scanner's slow-path
#: constructs: the master regex never matches these, so each one is
#: proven here rather than by the corpora.  Triples are
#: ``(TokenType member name, value, line)``.
SLOW_PATH_STREAMS = {
    "interpolated index": (
        '<?php "a $a[0] b";',
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", '"', 1),
            ("ENCAPSED_AND_WHITESPACE", "a ", 1), ("VARIABLE", "$a", 1),
            ("CHAR", "[", 1), ("NUM_STRING", "0", 1), ("CHAR", "]", 1),
            ("ENCAPSED_AND_WHITESPACE", " b", 1), ("CHAR", '"', 1), ("CHAR", ";", 1),
        ],
    ),
    "interpolated property": (
        '<?php "x $a->b y";',
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", '"', 1),
            ("ENCAPSED_AND_WHITESPACE", "x ", 1), ("VARIABLE", "$a", 1),
            ("OBJECT_OPERATOR", "->", 1), ("STRING", "b", 1),
            ("ENCAPSED_AND_WHITESPACE", " y", 1), ("CHAR", '"', 1), ("CHAR", ";", 1),
        ],
    ),
    "curly interpolation": (
        '<?php "v {$x->y} w";',
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", '"', 1),
            ("ENCAPSED_AND_WHITESPACE", "v ", 1), ("CURLY_OPEN", "{", 1),
            ("VARIABLE", "$x", 1), ("OBJECT_OPERATOR", "->", 1), ("STRING", "y", 1),
            ("CHAR", "}", 1), ("ENCAPSED_AND_WHITESPACE", " w", 1), ("CHAR", '"', 1),
            ("CHAR", ";", 1),
        ],
    ),
    "dollar-curly interpolation": (
        '<?php "p ${z} q";',
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", '"', 1),
            ("ENCAPSED_AND_WHITESPACE", "p ", 1), ("DOLLAR_OPEN_CURLY_BRACES", "${", 1),
            ("STRING", "z", 1), ("CHAR", "}", 1), ("ENCAPSED_AND_WHITESPACE", " q", 1),
            ("CHAR", '"', 1), ("CHAR", ";", 1),
        ],
    ),
    "heredoc": (
        "<?php $h = <<<EOT\nHi $name\n  {$o->p}\nEOT;\n",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$h", 1),
            ("WHITESPACE", " ", 1), ("CHAR", "=", 1), ("WHITESPACE", " ", 1),
            ("START_HEREDOC", "<<<EOT", 1), ("ENCAPSED_AND_WHITESPACE", "Hi ", 2),
            ("VARIABLE", "$name", 2), ("ENCAPSED_AND_WHITESPACE", "\n  ", 2),
            ("CURLY_OPEN", "{", 3), ("VARIABLE", "$o", 3), ("OBJECT_OPERATOR", "->", 3),
            ("STRING", "p", 3), ("CHAR", "}", 3), ("ENCAPSED_AND_WHITESPACE", "\n", 3),
            ("END_HEREDOC", "EOT", 4), ("CHAR", ";", 4), ("WHITESPACE", "\n", 4),
        ],
    ),
    "nowdoc": (
        "<?php $n = <<<'EOT'\nraw $x\nEOT;\n",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$n", 1),
            ("WHITESPACE", " ", 1), ("CHAR", "=", 1), ("WHITESPACE", " ", 1),
            ("START_HEREDOC", "<<<'EOT'", 1), ("ENCAPSED_AND_WHITESPACE", "raw $x\n", 2),
            ("END_HEREDOC", "EOT", 3), ("CHAR", ";", 3), ("WHITESPACE", "\n", 3),
        ],
    ),
    "backticks": (
        "<?php `ls $dir`;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", "`", 1),
            ("ENCAPSED_AND_WHITESPACE", "ls ", 1), ("VARIABLE", "$dir", 1),
            ("CHAR", "`", 1), ("CHAR", ";", 1),
        ],
    ),
    "variable variable": (
        "<?php $$v;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("CHAR", "$", 1),
            ("VARIABLE", "$v", 1), ("CHAR", ";", 1),
        ],
    ),
    "spaced cast": (
        "<?php ( int )$a;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("INT_CAST", "( int )", 1),
            ("VARIABLE", "$a", 1), ("CHAR", ";", 1),
        ],
    ),
    "leading-dot float": (
        "<?php $f = .5;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$f", 1),
            ("WHITESPACE", " ", 1), ("CHAR", "=", 1), ("WHITESPACE", " ", 1),
            ("DNUMBER", ".5", 1), ("CHAR", ";", 1),
        ],
    ),
    "<<< that is not a heredoc": (
        "<?php $a <<< 3;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$a", 1),
            ("WHITESPACE", " ", 1), ("SL", "<<", 1), ("CHAR", "<", 1),
            ("WHITESPACE", " ", 1), ("LNUMBER", "3", 1), ("CHAR", ";", 1),
        ],
    ),
    "namespace separators": (
        "<?php \\Foo\\bar();",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("NS_SEPARATOR", "\\", 1),
            ("STRING", "Foo", 1), ("NS_SEPARATOR", "\\", 1), ("STRING", "bar", 1),
            ("CHAR", "(", 1), ("CHAR", ")", 1), ("CHAR", ";", 1),
        ],
    ),
}

#: recover-mode streams: ``(source, triples, incident (reason, line)s)``
RECOVERED_STREAMS = {
    "unterminated heredoc": (
        "<?php $h = <<<EOT\nabc $x\n",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$h", 1),
            ("WHITESPACE", " ", 1), ("CHAR", "=", 1), ("WHITESPACE", " ", 1),
            ("START_HEREDOC", "<<<EOT", 1), ("ENCAPSED_AND_WHITESPACE", "abc ", 2),
            ("VARIABLE", "$x", 2), ("ENCAPSED_AND_WHITESPACE", "\n", 2),
            ("END_HEREDOC", "", 3),
        ],
        [("unterminated heredoc <<<EOT", 1)],
    ),
    # an unclosed /* is not a comment to this scanner: the master
    # regex's bare-char branch takes the "/" (pinned, not endorsed)
    "unterminated block comment": (
        "<?php $a; /* open\n$b;",
        [
            ("OPEN_TAG", "<?php", 1), ("WHITESPACE", " ", 1), ("VARIABLE", "$a", 1),
            ("CHAR", ";", 1), ("WHITESPACE", " ", 1), ("CHAR", "/", 1), ("CHAR", "*", 1),
            ("WHITESPACE", " ", 1), ("STRING", "open", 1), ("WHITESPACE", "\n", 1),
            ("VARIABLE", "$b", 2), ("CHAR", ";", 2),
        ],
        [],
    ),
}


def _triples(tokens):
    return [(token.type.name, token.value, token.line) for token in tokens]


class TestSlowPathStreams:
    @pytest.mark.parametrize("case", sorted(SLOW_PATH_STREAMS))
    def test_exact_stream(self, case):
        source, expected = SLOW_PATH_STREAMS[case]
        assert _triples(tokenize(source)) == expected

    @pytest.mark.parametrize("case", sorted(SLOW_PATH_STREAMS))
    def test_significant_stream_is_the_trivia_free_subset(self, case):
        source, expected = SLOW_PATH_STREAMS[case]
        trivia = {"WHITESPACE", "COMMENT", "DOC_COMMENT"}
        assert _triples(tokenize_significant(source)) == [
            triple for triple in expected if triple[0] not in trivia
        ]

    @pytest.mark.parametrize("case", sorted(RECOVERED_STREAMS))
    def test_exact_recovered_stream(self, case):
        source, expected, incidents = RECOVERED_STREAMS[case]
        lexer = Lexer(source, "f.php", recover=True)
        assert _triples(lexer.tokenize()) == expected
        assert [(i.reason, i.line) for i in lexer.incidents] == incidents

    def test_token_list_equals_reference_tokens(self):
        # materializing the stream yields immutable Tokens equal (type,
        # value and line) to the reference triples
        for source, expected in SLOW_PATH_STREAMS.values():
            reference = [Token(TokenType[name], value, line) for name, value, line in expected]
            assert list(tokenize(source)) == reference
