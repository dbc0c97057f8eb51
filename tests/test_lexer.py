"""The lexer on its own: token texts, the token and lexability patterns
against the ones they replaced, the one-pass lexical check, the body skip,
and every entry point against the reference lexer."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from lexer_reference import (
    _HEADER_FRAGMENTS,
    _LEXICAL_PRECEDENCE,
    _REFERENCE_LEXABLE_RE,
    _SHAPES,
    _SOURCES,
    PKG,
    WORKLOADS,
    _assert_as_before,
    _assert_check_agrees_with_lexer,
    _lexed,
    _mutants,
    _outcome,
    _RecordingPattern,
    generated_sources,
)
from semverdiff import lexer as lexer_module
from semverdiff.lexer import GoSyntaxError, _check_lexable, tokenize
from semverdiff.parser import parse_go_file


class TestTokenizer:
    def test_semicolon_insertion_after_identifier(self):
        assert tokenize("a\nb") == ["a", ";", "b", ";", ""]

    def test_no_semicolon_after_comma(self):
        assert tokenize("f(a,\nb)") == ["f", "(", "a", ",", "b", ")", ";", ""]

    def test_comments_are_skipped(self):
        assert tokenize("// line comment\n/* block */ x") == ["x", ";", ""]

    def test_strings_hide_comment_markers(self):
        assert tokenize('s := "http://example.com"') == ["s", ":=", '"http://example.com"', ";", ""]

    def test_raw_string_spans_lines(self):
        src = "package p\n\nvar s = `line1\nline2`\nx"
        assert _lexed(src)[-6:] == ["=", "`line1\nline2`", ";", "x", ";", ""]
        with pytest.raises(GoSyntaxError, match=r"^line 5: unexpected token 'x' at top level$"):
            parse_go_file(src, PKG)

    def test_multiline_block_comment_inserts_semicolon(self):
        assert tokenize("x /* spans\nlines */ y") == ["x", ";", "y", ";", ""]

    def test_rune_with_escape(self):
        assert tokenize(r"r := '\''") == ["r", ":=", r"'\''", ";", ""]

    def test_identifier_that_python_would_not_take(self):
        # U+037A is a letter (Lm) to Go, but no identifier to Python.
        src = "package p\n\nvar x\u0663, \u037a int\n"
        assert [v.name for v in parse_go_file(src, PKG).decls] == ["x\u0663", "\u037a"]
        _assert_as_before(src)

    def test_a_token_is_its_text(self):
        src = "package p\nconst C = .5 + 1.e3i + 0x1p-2 + 0b1 &^= a...b // c\n"
        assert _lexed(src) == [
            "package", "p", ";", "const", "C", "=", ".5", "+", "1.e3i", "+", "0x1p-2", "+", "0b1", "&^=",
            "a", "...", "b", ";", "",
        ]


class TestAgainstTheReferenceLexer:
    def test_generated_files_of_every_workload(self, generated_sources):
        for workload in WORKLOADS:
            sources = set(generated_sources[workload].values())
            assert len(sources) > 50, workload
            for src in sorted(sources):
                _assert_as_before(src)

    def test_seeded_mutants(self):
        rng = random.Random(11)
        sources = _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)]
        for _ in range(30_000):
            src = rng.choice(sources)
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(src))
                src = src[:at] + rng.choice(_HEADER_FRAGMENTS) + src[at:]
            _assert_as_before(src)
            _assert_check_agrees_with_lexer(src)


# _TOKEN_RE as it was before it tried brackets, "," and ";" first and ASCII
# identifiers through an explicit class; and _ASCII_LEXABLE_RE as it was
# before its word class was spelled out: _LEXABLE_RE (_REFERENCE_LEXABLE_RE,
# see _reference_lexical_end) under re.ASCII.
_REFERENCE_TOKEN_PATTERN_RE = re.compile(
    rf"[ \t\r]*(?:{lexer_module._COMMENT_LINE})?({lexer_module._IDENT}|\n|{lexer_module._COMMENT_BLOCK}"
    rf"|{lexer_module._RAW_STRING}|{lexer_module._STRING}|{lexer_module._RUNE}|{lexer_module._NUMBER}"
    rf"|{'|'.join(map(re.escape, lexer_module._OPERATORS))}|\Z)"
)
_REFERENCE_ASCII_LEXABLE_RE = re.compile(_REFERENCE_LEXABLE_RE.pattern, re.ASCII)
# The ASCII characters that may stand inside a number or an identifier.
_REFERENCE_WORDISH = frozenset(string.ascii_letters + string.digits + "_.+-")


def _reference_lexical_end(text: str) -> int:
    """The offset of the first character outside literals where the lexer
    fails, or the end of the text, as _check_lexable found it in two passes:
    an ASCII text by _ASCII_LEXABLE_RE alone; any other up to where
    _LEXABLE_RE ends, and before that at the first word character Go takes
    in no token, lexed from the last character before it that is not
    _REFERENCE_WORDISH."""
    if text.isascii():
        return lexer_module._ASCII_LEXABLE_RE.match(text).end()
    end = _REFERENCE_LEXABLE_RE.match(text).end()
    match, token = lexer_module._ASCII_LEXABLE_RE.match, lexer_module._TOKEN_RE.match
    pos = 0
    while (stop := match(text, pos, end).end()) < end:
        start = stop
        while start > pos and text[start - 1] in _REFERENCE_WORDISH:
            start -= 1
        while start <= stop or start < end and not text[start].isascii():
            m = token(text, start, end)
            tok, start = m.group(1), m.end()
            if not tok.isascii() and (bad := lexer_module._foreign_offset(tok)) >= 0:
                return m.start(1) + bad
        pos = start
    return end


def _reference_check_lexable(text: str) -> None:
    """_check_lexable as it was with two passes over a text that is not all
    ASCII."""
    size = len(text)
    illegal = min(k for k in (text.find("\x00"), text.find("\ufeff"), size) if k >= 0)
    end = _reference_lexical_end(text)
    if end < illegal:
        raise lexer_module._lexical_error(text, end)
    if illegal < size:
        what = "character NUL" if text[illegal] == "\x00" else "byte order mark"
        raise GoSyntaxError(f"illegal {what}", text.count("\n", 0, illegal) + 1)


# Identifiers at the edge of ASCII: a non-ASCII letter, digit or other
# character right after an ASCII identifier, or starting one.
_IDENTIFIER_EDGES = (
    "xé", "é", "x²", "²x", "abcé d", "abc·def", "_é", "a1٣", "xⅧ",
    "abc→d", "f(xé, y)", "a.bé[0]", "x y", "T{é: 1}", "éé abc", "xéyéz",
    "if xé {", "aéb.c", "a﻿b", "ab\x00c", "x /* é */ y", 'x "é" y', "x // é\ny",
)
_PATTERN_ALPHABET = "ab_Z09 \t\n(){}[],;.:=+-*/<>&|^!~%\"'`\\é²·٣Ⅷ ﻿\x00@$#?"


def _assert_patterns_as_before(text: str, every_position: bool = False) -> None:
    """The token pattern finds the same tokens as the reference, and the
    ASCII check ends where the reference ends, from the start or, on a short
    text, from every position; _foreign_character, which runs the ASCII check
    up to each letter or digit it must lex, finds the offset the two passes
    found, and the same offset with the reference patterns."""
    assert lexer_module._TOKEN_RE.findall(text) == _REFERENCE_TOKEN_PATTERN_RE.findall(text), text[:200]
    new, old = lexer_module._ASCII_LEXABLE_RE.match, _REFERENCE_ASCII_LEXABLE_RE.match
    for pos in range(len(text) + 1) if every_position else (0,):
        assert new(text, pos).end() == old(text, pos).end(), (text[:200], pos)
        tok, ref = lexer_module._TOKEN_RE.match(text, pos), _REFERENCE_TOKEN_PATTERN_RE.match(text, pos)
        assert (tok and (tok.group(1), tok.end())) == (ref and (ref.group(1), ref.end())), (text[:200], pos)
    if not text.isascii():
        found = lexer_module._foreign_character(text)
        assert found == _reference_lexical_end(text), text[:200]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lexer_module, "_ASCII_LEXABLE_RE", _REFERENCE_ASCII_LEXABLE_RE)
            mp.setattr(lexer_module, "_TOKEN_RE", _REFERENCE_TOKEN_PATTERN_RE)
            assert found == lexer_module._foreign_character(text), text[:200]


class TestTokenPatterns:
    """_TOKEN_RE and _ASCII_LEXABLE_RE match as the patterns they replaced."""

    def test_identifier_edges(self):
        for text in _IDENTIFIER_EDGES:
            _assert_patterns_as_before(text, every_position=True)
            _assert_patterns_as_before(f"package p\n\nvar {text}\n", every_position=True)

    def test_fixture_sources(self):
        shapes = [_SHAPES[shape] for shape in sorted(_SHAPES)]
        for src in _SOURCES + shapes + [src for src, _error in _LEXICAL_PRECEDENCE.values()]:
            _assert_patterns_as_before(src)

    def test_generated_files_of_every_workload(self, generated_sources):
        for workload in WORKLOADS:
            for src in sorted(set(generated_sources[workload].values())):
                _assert_patterns_as_before(src)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=_PATTERN_ALPHABET, max_size=40))
    def test_fragments(self, text):
        _assert_patterns_as_before(text, every_position=True)

    @settings(max_examples=200, deadline=None)
    @given(_mutants(), st.sampled_from(_IDENTIFIER_EDGES))
    def test_mutants_with_identifier_edges(self, src, edge):
        at = len(src) // 2
        _assert_patterns_as_before(src[:at] + edge + src[at:])



def _assert_checks_as_before(text: str) -> None:
    """_check_lexable, in one pass, finds the offset, message and line that
    the two passes found."""
    assert lexer_module._foreign_character(text) == _reference_lexical_end(text), text[:200]
    assert _outcome(_check_lexable, text) == _outcome(_reference_check_lexable, text), text[:200]


# Each stop of the one pass: a letter or digit Go takes, or not, in the token
# around it, a character the lexer takes nowhere, a literal that never ends,
# and the two characters illegal anywhere. Each gives its error, if any, at
# line 3 of "package p\n\nvar <case>\n".
_NON_ASCII_CASES = {
    "xé": None,
    "é": None,
    "x²": "unexpected character '²'",
    "abc·def": "unexpected character '·'",
    "1.é": None,
    "٣": "unexpected character '٣'",
    "→": "unexpected character '→'",
    '"é': "string literal not terminated",
    "a\ufeffb": "illegal byte order mark",
    "a\x00b": "illegal character NUL",
}
_NON_ASCII = "é²·٣Ⅷ\u00a0\ufeff→"


class TestLexableInOnePass:
    """_check_lexable scans a text that is not all ASCII once, as it scans
    an ASCII text, and finds what the two passes found."""

    @pytest.mark.parametrize("case", sorted(_NON_ASCII_CASES))
    def test_named_cases(self, case):
        src = f"package p\n\nvar {case}\n"
        error = _NON_ASCII_CASES[case]
        assert _outcome(_check_lexable, src) == (error and f"GoSyntaxError: line 3: {error}")
        for text in (case, src, case + "\n" + src):
            _assert_checks_as_before(text)

    def test_fixture_sources(self):
        for src in _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)]:
            _assert_checks_as_before(src)

    def test_generated_files_of_every_workload(self, generated_sources):
        for workload in WORKLOADS:
            for src in sorted(set(generated_sources[workload].values())):
                _assert_checks_as_before(src)

    @settings(max_examples=300, deadline=None)
    @given(_mutants(), st.sampled_from(_IDENTIFIER_EDGES + tuple(_NON_ASCII_CASES)), st.floats(0, 1))
    def test_mutants(self, src, edge, where):
        _assert_checks_as_before(src)
        at = int(len(src) * where)
        _assert_checks_as_before(src[:at] + edge + src[at:])

    @settings(max_examples=500, deadline=None)
    @given(
        st.text(alphabet=_PATTERN_ALPHABET, max_size=30),
        st.sampled_from(_NON_ASCII),
        st.text(alphabet=_PATTERN_ALPHABET, max_size=30),
    )
    def test_fragments(self, before, char, after):
        _assert_checks_as_before(before + char + after)

# _BODY_RE as it was while it scanned only text _check_lexable accepted: a
# run of any characters that start no literal and are no brace.
_REFERENCE_BODY_RE = re.compile(rf"(?:[^{{}}\"'`/]++|{lexer_module._LITERAL}|/(?!\*))*+")


def _reference_skip_body(text: str, pos: int) -> int:
    """_skip_body as it was before it matched nested groups and found
    lexical errors: one match of _REFERENCE_BODY_RE and one turn of the loop
    per brace, and -1 wherever a match ends at no brace."""
    match = _REFERENCE_BODY_RE.match
    depth = 1
    while True:
        end = match(text, pos).end()
        char = text[end : end + 1]
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return end + 1
        else:
            return -1
        pos = end + 1


def _assert_skips_as_before(text: str, pos: int = 0) -> None:
    """_skip_body against the reference, on text that holds no NUL and is
    all ASCII: where _check_lexable rejects the text the reference skips, or
    all of the text after pos if the reference finds no end, _skip_body
    raises that error, at its line in the whole text; elsewhere it ends
    where the reference ends."""
    end = _reference_skip_body(text, pos)
    try:
        _check_lexable(text[pos:end] if end >= 0 else text[pos:])
    except GoSyntaxError as exc:
        error = f"GoSyntaxError: line {exc.line + text.count(chr(10), 0, pos)}: {exc.message}"
        assert _outcome(lambda t: lexer_module._skip_body(t, pos), text) == error, (text[:200], pos)
    else:
        assert lexer_module._skip_body(text, pos) == end, (text[:200], pos)


# Text that holds braces a body skip must not count: one of each literal kind.
_BRACED_LITERALS = ('"{"', '"}\\\\"', '"\\"}"', "`}\n{`", "'{'", "'}'", "// }\n", "/* { */", "/* }\n} */")
# Fragments of body text: braces, literals that hold braces, and text that
# only looks like the start of a literal.
_BODY_FRAGMENTS = _BRACED_LITERALS + ("{", "}", "{", "}", "x", " ", "\n", "a / b", "/", "*", "'", '"', "`")
_NESTING = lexer_module._SKIP_NESTING


def _nested_body(levels: int, inner: str = "x") -> str:
    """The text after a body's "{": groups nested levels deep around inner,
    with text between the braces, and the body's closing "}"."""
    return "a {" * levels + inner + "} b" * levels + "}\nfunc G() {}\n"


class TestSkipBody:
    def test_generated_function_bodies(self, generated_sources, monkeypatch):
        bodies = []
        real = lexer_module._skip_body

        def recording(text, pos):
            bodies.append((text, pos))
            return real(text, pos)

        with monkeypatch.context() as patch:
            patch.setattr(lexer_module, "_skip_body", recording)
            for workload in WORKLOADS:
                for src in sorted(set(generated_sources[workload].values())):
                    try:
                        parse_go_file(src, PKG)
                    except GoSyntaxError:  # the corpus plants invalid files
                        pass
        assert len(bodies) > 1000
        calls = []
        monkeypatch.setattr(lexer_module, "_SKIP_RE", _RecordingPattern(lexer_module._SKIP_RE, "_SKIP_RE", calls))
        for text, pos in bodies:
            _assert_skips_as_before(text, pos)
        # The generated bodies nest no deeper than the pattern does, so each
        # is skipped in one match.
        assert len(calls) == len(bodies)

    @pytest.mark.parametrize("levels", [_NESTING - 1, _NESTING, _NESTING + 1, 50_000])
    def test_nesting_around_the_pattern_depth(self, levels):
        _assert_skips_as_before(_nested_body(levels))
        _assert_skips_as_before("{}" * levels + "}")
        _assert_skips_as_before("{" * levels + "}" * levels + "{" * levels + "}" * levels + "}")

    @pytest.mark.parametrize("literal", _BRACED_LITERALS)
    @pytest.mark.parametrize("levels", range(_NESTING + 2))
    def test_braces_in_literals(self, literal, levels):
        text = _nested_body(levels, literal)
        _assert_skips_as_before(text)
        assert lexer_module._skip_body(text, 0) == text.index("}\nfunc") + 1

    @pytest.mark.parametrize("levels", [0, _NESTING - 1, _NESTING, _NESTING + 1, 50_000])
    def test_unterminated_body(self, levels):
        for text in ("a {" * levels, "{" * (levels + 1) + "x }", "{" * levels + '"{"' + "}" * levels):
            assert lexer_module._skip_body(text, 0) == -1
            _assert_skips_as_before(text)

    def test_the_skip_starts_at_pos(self):
        text = "func F() {\n\tif x { y() }\n}\nfunc G() { { { { } } } }\n"
        for pos in range(len(text) + 1):
            _assert_skips_as_before(text, pos)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(_BODY_FRAGMENTS), max_size=40))
    def test_fragments(self, fragments):
        _assert_skips_as_before("".join(fragments))
