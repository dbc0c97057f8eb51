"""The reference lexer and the sources that the lexer, parser and impact
tests check against.

The reference is the lexer as it was while a token was a named tuple; the
sources are every Go file of the catalogue, impact and planted-corpus
fixtures, hostile fragments to insert into them, and named shapes where the
body skip could go wrong; the generated_sources fixture gives the seed-1
files of every benchmark workload. _assert_as_before checks the lexer,
parse_go_file and parse_imports against the reference on one source.
"""

from __future__ import annotations

import importlib
import re
import string
import unicodedata
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import catalogue_fixtures
import impact_fixtures
import planted_corpus
from semverdiff import lexer as lexer_module
from semverdiff.lexer import GO_KEYWORDS, GoSyntaxError, _check_lexable, _Tokens, tokenize
from semverdiff.parser import _Parser, parse_go_file, parse_imports

PKG = "example.com/lib"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("check-bodies", "check-decls", "impact-clients", "corpus-report")


@pytest.fixture(scope="module")
def generated_sources(tmp_path_factory) -> dict[str, dict[str, str]]:
    """Each benchmark workload's seed-1 Go files: relative path -> source."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    out = {}
    for workload in WORKLOADS:
        root = tmp_path_factory.mktemp(workload)
        gen.generate(workload, 1, root)
        out[workload] = {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8") for path in root.rglob("*.go")}
    return out


def _fixture_sources() -> list[str]:
    """Every Go source of the catalogue, impact and planted-corpus fixtures."""
    trees: list[dict[str, str]] = []
    for fixture in catalogue_fixtures.FIXTURES:
        trees += [fixture.old, fixture.new]
    trees += [impact_fixtures.LIBRARY_OLD, impact_fixtures.LIBRARY_NEW, *impact_fixtures.CLIENTS.values()]
    for module in planted_corpus.MODULES:
        trees += [version.files for version in module.versions]
    return [text for tree in trees for rel, text in sorted(tree.items()) if rel.endswith(".go")]


_SOURCES = _fixture_sources()

_HOSTILE = (
    "@", "$", "\\", '"', "'", "`", "/*", "*/", "//", "{", "}", "(", ")", "[", "]",
    "﻿", "func ", "struct", "interface", "\n", ";", "var V = func() { ", "const C = ",
)


# -- the reference lexer ----------------------------------------------------
#
# The lexer as it was while a token was a named tuple: one named-group match
# per token, with its kind and line; bodies skipped only where the brackets
# nest outside them, and the file lexed again in full where they do not. As in
# go/scanner, a "/*" that never ends is an error, not the ops "/" and "*".


# _COMMENT_BLOCK and _CUT_RE as they were before the block comment was
# unrolled and the cut regex consumed its keyword, and the literal pattern and
# _next_cut built on them; the reference patterns below use them.
_REFERENCE_COMMENT_BLOCK = r"/\*(?s:.*?)\*/"
_REFERENCE_LITERAL = (
    f"{lexer_module._COMMENT_LINE}|{_REFERENCE_COMMENT_BLOCK}|{lexer_module._RAW_STRING}"
    f"|{lexer_module._STRING}|{lexer_module._RUNE}"
)
_REFERENCE_CUT_RE = re.compile(rf"\n(?=(?:{'|'.join(sorted(lexer_module._HEADER_END_KEYWORDS))})\b)")


def _reference_next_cut(text: str, pos: int) -> int:
    m = _REFERENCE_CUT_RE.search(text, pos)
    return m.end() if m else len(text)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int


_REFERENCE_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>[ \t\r]+)
    | (?P<newline>\n)
    | (?P<comment_line>{lexer_module._COMMENT_LINE})
    | (?P<comment_block>{_REFERENCE_COMMENT_BLOCK})
    | (?P<raw_string>{lexer_module._RAW_STRING})
    | (?P<string>"(?:[^"\\\n]|\\.)*+")
    | (?P<rune>'(?:[^'\\\n]|\\.)*+')
    | (?P<float>{lexer_module._FLOAT})
    | (?P<int>{lexer_module._INT})
    | (?P<ident>{lexer_module._IDENT})
    | (?P<open>[(\[{{])
    | (?P<close>[)\]}}])
    | (?P<op><<=|>>=|&\^=|\.\.\.|&&|\|\||<-|\+\+|--|==|!=|<=|>=|:=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|&\^|[+\-*/%&|^<>=!:;,.~])
    """,
    re.VERBOSE,
)
_REFERENCE_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_REFERENCE_DECL_KEYWORDS = frozenset({"const", "import", "package", "type", "var"})


class _Misnested(Exception):
    """Brackets do not nest, so the lexer cannot tell what is top level."""


def _reference_inserts_semi(tok: _Token) -> bool:
    if tok.kind == "ident" or tok.kind in ("int", "float", "string", "raw_string", "rune"):
        return True
    if tok.kind == "keyword":
        return tok.text in ("break", "continue", "fallthrough", "return")
    return tok.kind == "op" and tok.text in (")", "]", "}", "++", "--")


# go/scanner's messages for a string, raw string or rune that never ends.
_REFERENCE_UNTERMINATED = {
    '"': "string literal not terminated",
    "`": "raw string literal not terminated",
    "'": "rune literal not terminated",
}


def _reference_escape(body: str, i: int, quote: str) -> tuple[str, str | None]:
    """The escape that starts with the backslash at body[i], and Go's error
    for it, or None if Go defines it: a simple escape (with the literal's own
    quote), three octal digits up to 255, \\x with 2 hex digits, or \\u or \\U
    with 4 or 8 hex digits that name a Unicode code point (at most 10FFFF,
    and no surrogate). An escape that is none of these is the backslash and
    the character after it."""
    kind = body[i + 1]
    if kind in "01234567":
        digits = body[i + 1 : i + 4]
        if len(digits) == 3 and all(c in "01234567" for c in digits):
            escape = body[i : i + 4]
            return escape, None if int(digits, 8) <= 255 else f"unknown escape sequence {escape!r}"
    elif kind in "xuU":
        width = {"x": 2, "u": 4, "U": 8}[kind]
        digits = body[i + 2 : i + 2 + width]
        if len(digits) == width and all(c in string.hexdigits for c in digits):
            escape, code = body[i : i + 2 + width], int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                return escape, f"escape sequence {escape!r} is an invalid Unicode code point"
            return escape, None
    escape = body[i : i + 2]
    return escape, None if kind in "abfnrtv\\" + quote else f"unknown escape sequence {escape!r}"


def _reference_literal_error(value: str) -> str | None:
    """The error in a string or rune the token regex delimited, walking it
    one character or escape at a time: the first escape Go rejects, else a
    rune that does not hold exactly one character."""
    quote, body = value[0], value[1:-1]
    chars = i = 0
    while i < len(body):
        if body[i] == "\\":
            escape, error = _reference_escape(body, i, quote)
            if error is not None:
                return error
            i += len(escape)
        else:
            i += 1
        chars += 1
    if quote == "'" and chars == 0:
        return "empty rune literal or unescaped ' in rune literal"
    if quote == "'" and chars > 1:
        return "more than one character in rune literal"
    return None


def _reference_foreign(kind: str, value: str) -> str | None:
    """The first character of a number or identifier that Go does not take
    there: a number takes ASCII digits only, an identifier a letter or "_"
    and then letters, "_" and decimal digits (Unicode categories L and Nd)."""
    if kind in ("int", "float"):
        return next((c for c in value if not c.isascii()), None)
    if kind == "ident":
        for i, c in enumerate(value):
            category = unicodedata.category(c)
            if not (c == "_" or category[0] == "L" or i and category == "Nd"):
                return c
    return None


def _reference_lex(text: str, skip_bodies: bool) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    match = _REFERENCE_TOKEN_RE.match
    pos = 0
    line = 1
    size = len(text)
    closers: list[str] = []
    decl_start = 0
    # A NUL or byte order mark is illegal even inside a token.
    illegal = min(k for k in (text.find("\x00"), text.find("\ufeff"), size) if k >= 0)
    while pos < size:
        m = match(text, pos)
        # A bad string or rune is an error at its start, before an illegal character in it.
        bad_literal = m is not None and m.lastgroup in ("string", "rune") and _reference_literal_error(m.group())
        if pos >= illegal or m is not None and m.end() > illegal and not bad_literal:
            what = "character NUL" if text[illegal] == "\x00" else "byte order mark"
            raise GoSyntaxError(f"illegal {what}", line + text.count("\n", pos, illegal))
        if m is None:
            raise GoSyntaxError(_REFERENCE_UNTERMINATED.get(text[pos], f"unexpected character {text[pos]!r}"), line)
        if bad_literal:
            raise GoSyntaxError(bad_literal, line)
        kind = m.lastgroup or ""
        if kind == "op" and text.startswith("/*", pos):  # go/scanner: no "/" starts a comment
            raise GoSyntaxError("comment not terminated", line)
        value = m.group()
        foreign = _reference_foreign(kind, value)
        if foreign is not None:
            raise GoSyntaxError(f"unexpected character {foreign!r}", line)
        pos = m.end()
        if kind == "ws" or kind == "comment_line":
            continue
        if kind == "newline" or (kind == "comment_block" and "\n" in value):
            if tokens and _reference_inserts_semi(tokens[-1]):
                if not closers:
                    decl_start = len(tokens) + 1
                append(_Token("op", ";", line))
            line += value.count("\n")
            continue
        if kind == "comment_block":
            continue
        if kind == "ident":
            if value in GO_KEYWORDS:
                kind = "keyword"
                if skip_bodies and not closers and value in _REFERENCE_DECL_KEYWORDS:
                    decl_start = len(tokens)
        elif kind == "open":
            kind = "op"
            if (
                skip_bodies
                and value == "{"
                and not closers
                and decl_start < len(tokens)
                and tokens[decl_start].text == "func"
                and tokens[-1].text not in ("struct", "interface")
            ):
                append(_Token("op", "{", line))
                start = pos
                pos = lexer_module._skip_body(text, pos)
                if pos < 0:
                    raise _Misnested  # unterminated body
                line += text.count("\n", start, pos)
                append(_Token("op", "}", line))
                continue
            if skip_bodies:
                closers.append(_REFERENCE_CLOSERS[value])
        elif kind == "close":
            kind = "op"
            if skip_bodies and (not closers or closers.pop() != value):
                raise _Misnested
        elif kind == "op" and value == ";" and not closers:
            decl_start = len(tokens) + 1
        append(_Token(kind, value, line))
        if "\n" in value:  # raw strings may span lines
            line += value.count("\n")
    if closers:
        raise _Misnested
    if tokens and _reference_inserts_semi(tokens[-1]):
        append(_Token("op", ";", line))
    append(_Token("eof", "", line))
    return tokens


def _reference_tokens(src: str, skip_bodies: bool = False) -> list[_Token]:
    """The reference tokens of src, a leading byte order mark dropped. By
    default every token, from the full lexer, which raises its own lexical
    errors. With skip_bodies, function bodies are skipped, and a file whose
    brackets do not nest raises _Misnested."""
    return _reference_lex(src.removeprefix("\ufeff"), skip_bodies)


def _as_tokens(reference: list[_Token]) -> _Tokens:
    """Reference tokens as the lexer gives tokens: their texts, with the
    index of the first token on each line after the first."""
    tokens = _Tokens(t.text for t in reference)
    tokens.lines = []
    for k, tok in enumerate(reference):
        tokens.lines += [k] * (tok.line - (reference[k - 1].line if k else 1))
    return tokens


def _lexed(src: str) -> list[str]:
    """The token texts of the whole of src, as parse_go_file lexes them: the
    header's from tokenize, then each chunk's from one _lex call."""
    tokens = tokenize(src)
    text = src.removeprefix("\ufeff")
    texts, pos = tokens[:-1], tokens.end
    while pos < len(text):
        chunk, _ = lexer_module._lex(text, pos, lexer_module._next_cut(text, pos))
        texts += chunk[:-1]
        pos = chunk.end
    return texts + [""]


def _outcome(fn, src: str):
    try:
        return fn(src)
    except GoSyntaxError as exc:
        return f"GoSyntaxError: {exc}"


def _parse(src: str):
    return parse_go_file(src, PKG)


def _assert_as_before(src: str) -> None:
    """The lexer, parse_go_file and parse_imports against the reference lexer.

    A lexical error is the reference's, everywhere. Where the brackets nest
    outside function bodies, the header and the chunks lexed as
    parse_go_file lexes them give the reference's token texts, and
    parse_go_file what parsing the reference tokens gives, error strings and
    their lines included; where they do not, parse_go_file raises.
    parse_imports gives the imports of every file parse_go_file accepts, and
    raises only the error parse_go_file raises, since it parses what
    parse_go_file parses first. Only an input that some entry point rejects
    is lexed in full by the reference: _check_lexable accepts what the full
    lexer accepts (see _assert_check_agrees_with_lexer).
    """
    tokens = _outcome(_lexed, src)
    parsed = _outcome(_parse, src)
    imports = _outcome(parse_imports, src)
    if isinstance(tokens, str) or isinstance(parsed, str) or isinstance(imports, str):
        lexical_error = _outcome(_reference_tokens, src)
        if isinstance(lexical_error, str):
            assert tokens == parsed == imports == lexical_error, src
            return
    try:
        skipped = _reference_tokens(src, skip_bodies=True)
    except _Misnested:
        assert isinstance(parsed, str), src
    else:
        assert tokens == [t.text for t in skipped], src
        assert parsed == _outcome(lambda _: _Parser(_as_tokens(skipped), PKG).parse_file(), src), src
    if isinstance(imports, str):
        assert imports == parsed, src
    elif not isinstance(parsed, str):
        assert imports == parsed.imports, src


@st.composite
def _mutants(draw) -> str:
    """A fixture source with a few hostile fragments inserted anywhere."""
    src = draw(st.sampled_from(_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(_HOSTILE)) + src[at:]
    return src


# Named shapes where the body skip could go wrong.
_SHAPES = {
    "brace-in-string": 'package p\n\nfunc F() string { return "}" }\n\nfunc G() {}\n',
    "brace-in-rune": "package p\n\nfunc F() rune { return '}' }\n\nfunc G() {}\n",
    "brace-in-raw-string": "package p\n\nfunc F() string {\n\treturn `}\n{`\n}\n\nfunc G() {}\n",
    "brace-in-block-comment": "package p\n\nfunc F() { /* } */ }\n\nfunc G() {}\n",
    "brace-in-line-comment": "package p\n\nfunc F() { // }\n}\n\nfunc G() {}\n",
    "brace-pair-in-string": 'package p\n\nfunc F() { s := "} {" }\n',
    "brace-pair-in-line-comment": "package p\n\nfunc F() { // } {\n}\n",
    "brace-pair-in-block-comment": "package p\n\nfunc F() { /* } { */ }\n",
    "quotes-in-comment": "package p\n\nfunc F() {\n\t// it's \"quoted\" `raw\n}\n",
    "unterminated-block-comment": "package p\n\nfunc F() { x /* }\n\nfunc G() {}\n",
    "struct-result": "package p\n\nfunc F() struct{X int} { return struct{X int}{} }\n",
    "interface-result": "package p\n\nfunc F() interface{ M() } { return nil }\n",
    "map-of-struct-result": "package p\n\nfunc F() map[string]struct{} { return nil }\n",
    "func-result": "package p\n\nfunc F() func() int { return func() int { return 1 } }\n",
    "method": "package p\n\ntype T struct{}\n\nfunc (t *T) M(x []int) (n int) { for range x { n++ }; return }\n",
    "array-length-literal": "package p\n\nfunc F(x [len(T{1, 2})]int) {}\n",
    "func-literal-var": "package p\n\nvar F = func() { x() }\n",
    "func-literal-const": "package p\n\nconst C = func() { x }\n",
    "decl-after-body": "package p\n\nfunc F() {} const C = func() { a }\n",
    "decl-after-bodiless-func": "package p\n\nfunc F() int const C = func() { a }\n",
    "two-bodies-one-line": "package p\n\nfunc F() { a } func G() { b }\n",
    "extra-block-after-body": "package p\n\nfunc F() {} { x }\n",
    "body-on-next-line": "package p\n\nfunc F()\n{\n}\n",
    "unterminated-body": "package p\n\nfunc F() {\n\tx := 1\n",
    "unterminated-string-in-body": 'package p\n\nfunc F() {\n\ts := "}\n}\n',
    "body-lexing-error": "package p\n\nfunc F() {\n\tx := 1\n\ty := @\n}\n",
    "misnested-paren": "package p\n\nfunc F() ) { x }\n",
    "misnested-bracket": "package p\n\nfunc F(] { x }\n",
    "misnested-brace": "package p\n\nfunc F() }{ x }\n",
    "unclosed-paren": "package p\n\nvar x = (\n\nfunc F() { y }\n",
    "bom": "﻿package p\n\nfunc F() { ﻿ }\n",
    "misnested-before-body-lexing-error": "package p\n\nfunc F() ) {\n\tx := 1\n\ty := @\n}\n",
}


def _assert_check_agrees_with_lexer(src: str) -> None:
    checked = _outcome(_check_lexable, src.removeprefix("\ufeff"))
    lexed = _outcome(_reference_tokens, src)
    assert checked == (lexed if isinstance(lexed, str) else None), src


_HEADER_FRAGMENTS = _HOSTILE + (
    "import ", "package ", "func", "type ", "var ", "const ", '"a/b"', "\ufeff", "\x00", "\u00e9",
)
# _LEXABLE_RE as it was while it took every word character, and a text that
# is not all ASCII was checked in two passes.
_REFERENCE_LEXABLE_RE = re.compile(
    rf"(?:[\w \t\r\n+\-*%&|^<>=!:;,.()\[\]{{}}~]++|{_REFERENCE_LITERAL}|/(?!\*))*+"
)


class _RecordingPattern:
    """A stand-in for a compiled pattern that records the arguments of each
    match and findall call, with the pattern's name, in calls."""

    def __init__(self, pattern: re.Pattern, name: str, calls: list):
        self.pattern, self.name, self.calls = pattern, name, calls

    def match(self, *args):
        self.calls.append((self.name, args))
        return self.pattern.match(*args)

    def findall(self, *args):
        self.calls.append((self.name, args))
        return self.pattern.findall(*args)


# (source, error): a lexical error behind errors that a scan meets first, or
# that only the check of the whole file finds.
_LEXICAL_PRECEDENCE = {
    "after-a-bracket-error": ("package p\n\nvar A = )\n\nvar B = @\n", "line 5: unexpected character '@'"),
    "after-a-header-syntax-error": ("package p\n\nimport 5\n\nvar B = $\n", "line 5: unexpected character '$'"),
    "after-a-header-bracket-error": ("package p\n\nimport ( ]\n\nvar B = @\n", "line 5: unexpected character '@'"),
    "in-a-function-body": ("package p\n\nvar A 5\n\nfunc F() {\n\tx := `a\nb` @\n}\n", "line 7: unexpected character '@'"),
    "nul-in-a-string": ('package p\n\nvar A 5\n\nconst B = "a\x00b"\n', "line 5: illegal character NUL"),
    "nul-in-a-body-comment": ("package p\n\nvar A = )\n\nfunc F() { /* \x00 */ }\n", "line 5: illegal character NUL"),
    "bom-mid-file": ('package p\n\nvar A 5\n\nvar B = "﻿"\n', "line 5: illegal byte order mark"),
    "foreign-character-after-the-header": (
        'package p\n\nimport "a/b"\n\nvar A = )\n\nvar x² int\n', "line 7: unexpected character '²'"
    ),
    "unterminated-comment-after-an-unclosed-paren": ("package p\n\nvar A = (\n\nvar B /* x\n", "line 5: comment not terminated"),
}
