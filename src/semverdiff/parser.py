"""Declaration-level parser for Go source files.

The tokenizer understands full Go lexing (strings, runes, comments, automatic
semicolon insertion). It first checks the whole file for lexical errors with
one bounded regex, without building tokens; that check is the one place a
lexical error is raised. Then it lexes the file, keeping the braces of each
top-level function body and building no tokens between them: a small regex,
string-, rune- and comment-aware, scans to the matching brace. A file whose
brackets do not nest is lexed again in full, because there the lexer cannot
tell what is top level. Import binding asks for the header only: tokens up to
the first const, func, type or var keyword.
blank_literals blanks the comments and literals of a file with one regex built
from the lexer's sub-patterns, for scans that need no tokens. The parser
itself only covers what an API surface needs: the package clause, imports, and
top-level const/var/type/func declarations, including generic type
parameters. One parser with one cursor reads each file: parameter,
type-argument and type-parameter lists are parsed item by item where they
stand, looking ahead only to tell a name from a type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .gotypes import (
    Array,
    Basic,
    Chan,
    FieldDef,
    Func,
    Interface,
    Map,
    MethodSig,
    Named,
    Pointer,
    Slice,
    Struct,
    TypeExpr,
    TypeParamDef,
    TypeParamRef,
    UnionTerm,
    is_exported,
    render_type_expr,
)


class GoSyntaxError(ValueError):
    """The file cannot be parsed at declaration level."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class Token(NamedTuple):
    kind: str
    text: str
    line: int


GO_KEYWORDS = frozenset(
    "break case chan const continue default defer else fallthrough for func go goto "
    "if import interface map package range return select struct switch type var".split()
)

# Predeclared identifiers that resolve to basic types rather than package names.
PREDECLARED_TYPES = frozenset(
    "bool byte complex64 complex128 error float32 float64 int int8 int16 int32 int64 "
    "rune string uint uint8 uint16 uint32 uint64 uintptr any comparable".split()
)

# Sub-patterns the token, body and blanking regexes share: inside the first
# five a brace is text, not a bracket. A string or rune is unrolled, so sre
# keeps no backtracking state for the characters between escapes.
_COMMENT_LINE = r"//[^\n]*"
_COMMENT_BLOCK = r"/\*(?s:.*?)\*/"
_RAW_STRING = r"`[^`]*`"
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
_RUNE = r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
_LITERAL = f"{_COMMENT_LINE}|{_COMMENT_BLOCK}|{_RAW_STRING}|{_STRING}|{_RUNE}"
_FLOAT = (
    r"(?:\d[\d_]*\.[\d_]*(?:[eE][+-]?\d[\d_]*)?|\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"
    r"|\d[\d_]*[eE][+-]?\d[\d_]*|0[xX][\da-fA-F_]*(?:\.[\da-fA-F_]*)?[pP][+-]?\d[\d_]*)i?"
)
_INT = r"(?:0[xX][\da-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+|\d[\d_]*)i?"
_NUMBER = rf"(?:{_FLOAT}|{_INT})"
_IDENT = r"[^\W\d]\w*"

_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>[ \t\r]+)
    | (?P<newline>\n)
    | (?P<comment_line>{_COMMENT_LINE})
    | (?P<comment_block>{_COMMENT_BLOCK})
    | (?P<raw_string>{_RAW_STRING})
    | (?P<string>{_STRING})
    | (?P<rune>{_RUNE})
    | (?P<float>{_FLOAT})
    | (?P<int>{_INT})
    | (?P<ident>{_IDENT})
    | (?P<open>[(\[{{])
    | (?P<close>[)\]}}])
    | (?P<op><<=|>>=|&\^=|\.\.\.|&&|\|\||<-|\+\+|--|==|!=|<=|>=|:=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|&\^|[+\-*/%&|^<>=!:;,.~])
    """,
    re.VERBOSE,
)

# Function-body text up to the next brace: runs of characters that can start
# no string, comment or brace, each string, rune and comment, and a lone "/".
# It scans only text _check_lexable accepted, so it validates nothing: a match
# ends at a brace, at the end of the text or at the repeat bound.
_BODY_RE = re.compile(rf"(?:[^{{}}\"'`/]+|{_LITERAL}|/){{0,1024}}")

# The text _TOKEN_RE accepts: the same alternatives, with every character the
# lexer accepts outside a literal in the run class. A match ends where the
# lexer would fail. Both repeats are bounded because sre keeps backtracking
# state for every iteration of a repeated group, so an unbounded one would
# grow with the file; the callers match again where a match ends.
_LEXABLE_RE = re.compile(rf"(?:[\w \t\r\n+\-*%&|^<>=!:;,.()\[\]{{}}~]+|{_LITERAL}|/){{1,1024}}")

_CLOSERS = {"(": ")", "[": "]", "{": "}"}
# Keywords of the declarations that are one spec or a group of specs.
_GEN_DECL_KEYWORDS = frozenset({"const", "import", "type", "var"})
# Keywords that start a top-level declaration other than a function.
_DECL_KEYWORDS = _GEN_DECL_KEYWORDS | {"package"}
# Keywords that end the import header of a file.
_HEADER_END_KEYWORDS = frozenset({"const", "func", "type", "var"})
_SEMI_AFTER_OPS = frozenset({")", "]", "}", "++", "--"})
_SEMI_AFTER_KEYWORDS = frozenset({"break", "continue", "fallthrough", "return"})
_LITERAL_KINDS = frozenset({"int", "float", "string", "raw_string", "rune"})


def _inserts_semi(tok: Token) -> bool:
    if tok.kind == "ident" or tok.kind in _LITERAL_KINDS:
        return True
    if tok.kind == "keyword":
        return tok.text in _SEMI_AFTER_KEYWORDS
    return tok.kind == "op" and tok.text in _SEMI_AFTER_OPS


class _Misnested(Exception):
    """Brackets do not nest, so the lexer cannot tell what is top level."""


def tokenize(text: str, *, imports_only: bool = False) -> list[Token]:
    """Lex Go source into tokens, applying the semicolon-insertion rule.

    The whole file is first checked for lexical errors without building
    tokens. Then the braces of each top-level function body are kept and the
    tokens between them are not built. A file whose brackets do not nest is
    lexed again in full, because there the lexer cannot tell what is top
    level.

    With imports_only, tokens are built only up to and including the first
    const, func, type or var keyword, then the final eof: all that the
    package clause and the imports can be parsed from.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    _check_lexable(text)
    try:
        return _lex(text, True, imports_only)
    except _Misnested:
        return _lex(text, False, imports_only)


def _check_lexable(text: str) -> None:
    """Raise the lexer's GoSyntaxError if the lexer would fail on text."""
    match = _LEXABLE_RE.match
    pos = 0
    size = len(text)
    while pos < size:
        m = match(text, pos)
        if m is None:
            raise GoSyntaxError(f"unexpected character {text[pos]!r}", text.count("\n", 0, pos) + 1)
        pos = m.end()


def _lex(text: str, skip_bodies: bool, header_only: bool = False) -> list[Token]:
    """The tokens of text. With skip_bodies, text must be one _check_lexable
    accepts. Without it this is the full lexer, which raises its own lexical
    errors; the tests use it as the reference the other paths are held to."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    size = len(text)
    closers: list[str] = []  # expected closing brackets, innermost last
    # Index of the first token of the current top-level declaration: the token
    # after a ";" at bracket depth 0, or a const/import/package/type/var
    # keyword at depth 0, since the parser needs no ";" between declarations.
    decl_start = 0
    while pos < size:
        m = match(text, pos)
        if m is None:
            raise GoSyntaxError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup or ""
        value = m.group()
        pos = m.end()
        if kind == "ws" or kind == "comment_line":
            continue
        if kind == "newline" or (kind == "comment_block" and "\n" in value):
            if tokens and _inserts_semi(tokens[-1]):
                if not closers:
                    decl_start = len(tokens) + 1
                append(Token("op", ";", line))
            line += value.count("\n")
            continue
        if kind == "comment_block":
            continue
        if kind == "ident":
            if value in GO_KEYWORDS:
                kind = "keyword"
                if header_only and value in _HEADER_END_KEYWORDS:
                    append(Token(kind, value, line))
                    break
                if skip_bodies and not closers and value in _DECL_KEYWORDS:
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
                append(Token("op", "{", line))
                start = pos
                pos = _skip_body(text, pos)
                line += text.count("\n", start, pos)
                append(Token("op", "}", line))
                continue
            if skip_bodies:
                closers.append(_CLOSERS[value])
        elif kind == "close":
            kind = "op"
            if skip_bodies and (not closers or closers.pop() != value):
                raise _Misnested
        elif kind == "op" and value == ";" and not closers:
            decl_start = len(tokens) + 1
        append(Token(kind, value, line))
        if "\n" in value:  # raw strings may span lines
            line += value.count("\n")
    if closers:
        raise _Misnested
    if tokens and _inserts_semi(tokens[-1]):
        append(Token("op", ";", line))
    append(Token("eof", "", line))
    return tokens


def _skip_body(text: str, pos: int) -> int:
    """Return the offset just past the "}" that closes the body whose "{" ends at pos."""
    match = _BODY_RE.match
    depth = 1
    while True:
        pos = match(text, pos).end()
        char = text[pos : pos + 1]
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return pos + 1
        elif not char:
            raise _Misnested  # unterminated body
        else:
            continue  # the scan stopped at its bound
        pos += 1


# Each comment, string, rune, number and "..." token, split as the lexer
# splits them: a number starts outside an identifier, or at a "." followed by
# a digit, and a number right after a number (0b12 lexes as 0b1 and 2) is
# part of the match. The lookahead lets the regex skip other text quickly.
_BLANK_RE = re.compile(
    rf"(?=[/\"'`\d.])(?:{_LITERAL}|(?:(?<!\w)|(?=\.\d)){_NUMBER}(?:(?=\d){_NUMBER})*|\.\.\.)"
)


def _blank(m: re.Match) -> str:
    text = m.group()
    newlines = text.count("\n")
    if text[0] == "/":
        return "\n" * newlines or " "
    return "#" + "\n" * newlines


def blank_literals(text: str) -> str:
    """Go source with its comments, literals and "..." tokens blanked.

    A comment becomes whitespace and every other blanked token a "#", each
    keeping its newlines, so identifiers stay on their lines and every "."
    left is a "." token. The text must be one the lexer accepts; a leading
    byte order mark is dropped, as tokenize drops it.
    """
    if text.startswith("﻿"):
        text = text[1:]
    return _BLANK_RE.sub(_blank, text)


@dataclass(frozen=True)
class ImportSpec:
    path: str
    alias: str | None = None
    dot: bool = False
    blank: bool = False


@dataclass(frozen=True)
class ConstSpec:
    name: str
    type: TypeExpr
    value: str | None


@dataclass(frozen=True)
class VarSpec:
    name: str
    type: TypeExpr


@dataclass(frozen=True)
class TypeSpec:
    name: str
    type: TypeExpr
    type_params: tuple[TypeParamDef, ...] = ()
    alias: bool = False


@dataclass(frozen=True)
class FuncDecl:
    name: str
    sig: Func
    receiver: str | None = None


@dataclass
class GoFile:
    package_name: str
    imports: list[ImportSpec] = field(default_factory=list)
    consts: list[ConstSpec] = field(default_factory=list)
    vars: list[VarSpec] = field(default_factory=list)
    types: list[TypeSpec] = field(default_factory=list)
    funcs: list[FuncDecl] = field(default_factory=list)


# Deepest type nesting (pointers, slices, maps, funcs, structs, generic
# arguments, ...) a file may use. Parsing, rendering and the structural form
# each recurse a few frames per level; the bound keeps all of them well inside
# Python's default recursion limit, so a hostile file is a syntax error rather
# than a RecursionError.
MAX_TYPE_NESTING = 50

_TYPE_START_KEYWORDS = frozenset({"chan", "map", "func", "struct", "interface"})
_TYPE_START_OPS = frozenset({"(", "[", "*", "<-"})
# What follows the "[...]" of a generic type that makes up a whole parameter,
# or a whole struct field: op texts, and token kinds for a tag.
_PARAM_ENDERS = frozenset({",", ")"})
_FIELD_ENDERS = frozenset({";", "}", "string", "raw_string"})


def _starts_type(tok: Token) -> bool:
    if tok.kind == "ident":
        return True
    if tok.kind == "keyword":
        return tok.text in _TYPE_START_KEYWORDS
    return tok.kind == "op" and tok.text in _TYPE_START_OPS


def _make_interface(methods: list[MethodSig], embeds: list[UnionTerm]) -> Interface:
    # Canonical form: method and embed order is not significant in Go.
    methods.sort(key=lambda m: m.name)
    embeds.sort(key=lambda e: (render_type_expr(e.type), e.tilde))
    return Interface(methods=tuple(methods), embeds=tuple(embeds))


class _Parser:
    def __init__(self, tokens: list[Token], package_path: str):
        self.toks = tokens
        self.i = 0
        self.package_path = package_path
        self.import_map: dict[str, str] = {}
        self.depth = 0  # type nesting of the type being parsed

    # -- cursor helpers ----------------------------------------------------

    def cur(self) -> Token:
        return self.toks[self.i]

    def peek(self) -> Token:
        """The token after the current one; at the end, the final eof."""
        return self.toks[min(self.i + 1, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.cur()
        return tok.kind == "op" and tok.text == text

    def at_keyword(self, text: str) -> bool:
        tok = self.cur()
        return tok.kind == "keyword" and tok.text == text

    def expect_op(self, text: str) -> Token:
        tok = self.cur()
        if not (tok.kind == "op" and tok.text == text):
            raise GoSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.cur()
        if tok.kind != "ident":
            raise GoSyntaxError(f"expected identifier, found {tok.text!r}", tok.line)
        return self.advance()

    def skip_semis(self) -> None:
        while self.at_op(";"):
            self.advance()

    def _elements(self, open_: str, block: str, element: str) -> Iterator[Token]:
        """Yield at the first token of each element of the ";"-separated group
        or body that opens at the cursor, and consume its closing bracket.

        Empty elements are skipped. After each element the caller parsed, a
        ";" or the closing bracket must follow, as in Go; at the end of the
        tokens the group is unterminated.
        """
        self.expect_op(open_)
        close = _CLOSERS[open_]
        while True:
            self.skip_semis()
            tok = self.cur()
            if tok.kind == "op" and tok.text == close:
                self.advance()
                return
            if tok.kind == "eof":
                raise GoSyntaxError(f"unterminated {block}", tok.line)
            yield tok
            tok = self.cur()
            if not (tok.kind == "eof" or (tok.kind == "op" and tok.text in (";", close))):
                raise GoSyntaxError(f"unexpected {tok.text!r} after {element}", tok.line)

    def _items(self, open_: str) -> Iterator[Token]:
        """Yield at the first token of each item of the ","-separated list
        that opens at the cursor, and consume its closing bracket. A trailing
        comma is allowed."""
        self.expect_op(open_)
        close = _CLOSERS[open_]
        while not self.at_op(close):
            yield self.cur()
            if not self.at_op(close):
                self.expect_op(",")
        self.advance()

    def _nest(self) -> None:
        """Count one more level of type nesting; the caller undoes it."""
        if self.depth >= MAX_TYPE_NESTING:
            raise GoSyntaxError(f"type nested deeper than {MAX_TYPE_NESTING} levels", self.cur().line)
        self.depth += 1

    def _scan_list(self, j: int) -> list[int]:
        """Look ahead over the bracketed list that opens at j, without moving.

        Returns the indices of its top-level commas, then of its closing
        bracket (of the final eof if it never closes).
        """
        marks: list[int] = []
        depth = 0
        for k in range(j, len(self.toks)):
            tok = self.toks[k]
            if tok.kind == "op":
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
                    if depth == 0:
                        marks.append(k)
                        return marks
                elif tok.text == "," and depth == 1:
                    marks.append(k)
        marks.append(len(self.toks) - 1)
        return marks

    def _bracket_ends(self, j: int, enders: frozenset[str]) -> bool:
        """Whether the "[" at j closes right before an op whose text, or a
        token whose kind, is in enders.

        Tells a generic instantiation that makes up a whole field or parameter
        (List[T]) from a name followed by an array or slice type (Name [3]T).
        """
        after = self.toks[min(self._scan_list(j)[-1] + 1, len(self.toks) - 1)]
        return after.kind in enders or (after.kind == "op" and after.text in enders)

    # -- file --------------------------------------------------------------

    def _parse_package_clause(self) -> GoFile:
        self.skip_semis()
        if not self.at_keyword("package"):
            raise GoSyntaxError("missing package clause", self.cur().line)
        self.advance()
        return GoFile(package_name=self.expect_ident().text)

    def parse_file(self) -> GoFile:
        gofile = self._parse_package_clause()
        while True:
            self.skip_semis()
            tok = self.cur()
            if tok.kind == "eof":
                break
            if tok.kind == "keyword" and tok.text in _GEN_DECL_KEYWORDS:
                self._parse_gen_decl(tok.text, gofile)
            elif self.at_keyword("func"):
                self._parse_func_decl(gofile)
            else:
                raise GoSyntaxError(f"unexpected token {tok.text!r} at top level", tok.line)
        return gofile

    # -- imports -----------------------------------------------------------

    def _parse_one_import(self, gofile: GoFile) -> None:
        alias: str | None = None
        dot = blank = False
        tok = self.cur()
        if tok.kind == "ident":
            if tok.text == "_":
                blank = True
            else:
                alias = tok.text
            self.advance()
        elif self.at_op("."):
            dot = True
            self.advance()
        tok = self.cur()
        if tok.kind not in ("string", "raw_string"):
            raise GoSyntaxError(f"expected import path string, found {tok.text!r}", tok.line)
        self.advance()
        path = tok.text[1:-1]
        gofile.imports.append(ImportSpec(path=path, alias=alias, dot=dot, blank=blank))
        if not dot and not blank:
            local = alias if alias else path.rsplit("/", 1)[-1]
            self.import_map[local] = path

    # -- import/const/var/type ---------------------------------------------

    def _parse_gen_decl(self, kw: str, gofile: GoFile) -> None:
        self.advance()
        if self.at_op("("):
            prev: tuple[TypeExpr | None, list[str]] | None = None
            for _ in self._elements("(", f"{kw} block", f"{kw} spec"):
                prev = self._parse_spec(kw, gofile, prev, in_block=True)
        else:
            self._parse_spec(kw, gofile, None, in_block=False)

    def _parse_spec(
        self,
        kw: str,
        gofile: GoFile,
        prev: tuple[TypeExpr | None, list[str]] | None,
        in_block: bool,
    ) -> tuple[TypeExpr | None, list[str]] | None:
        if kw == "import":
            self._parse_one_import(gofile)
            return None
        if kw == "type":
            self._parse_type_spec(gofile)
            return None
        names = [self.expect_ident().text]
        while self.at_op(","):
            self.advance()
            names.append(self.expect_ident().text)
        declared: TypeExpr | None = None
        if not self.at_op("=") and not self.at_op(";") and not self.at_op(")") and self.cur().kind != "eof":
            declared = self._parse_type(frozenset())
        values: list[tuple[int, int]] = []
        if self.at_op("="):
            self.advance()
            values = self._collect_expr_list(in_block)
        if kw == "const" and declared is None and not values and prev is not None:
            declared, spelled = prev
            spelled_values = list(spelled)
        else:
            spelled_values = [_spell(self.toks[start:end]) for start, end in values]

        for idx, name in enumerate(names):
            start, end = values[idx] if idx < len(values) else (self.i, self.i)
            spelled = spelled_values[idx] if idx < len(spelled_values) else None
            if kw == "const":
                ctype = declared if declared is not None else _infer_const_type(self.toks[start:end])
                gofile.consts.append(ConstSpec(name=name, type=ctype, value=spelled))
            else:
                vtype = declared if declared is not None else self._infer_var_type(start, end)
                gofile.vars.append(VarSpec(name=name, type=vtype))
        return (declared, spelled_values) if kw == "const" else None

    def _collect_expr_list(self, in_block: bool) -> list[tuple[int, int]]:
        """Skip an expression list up to the end of the spec, returning the
        token index range of each expression between top-level commas."""
        ranges: list[tuple[int, int]] = []
        start = self.i
        depth = 0
        while True:
            tok = self.cur()
            if tok.kind == "eof":
                break
            if depth == 0 and tok.kind == "op":
                if tok.text == ";":
                    break
                if tok.text == ")" and in_block:
                    break
                if tok.text == ",":
                    ranges.append((start, self.i))
                    self.advance()
                    start = self.i
                    continue
            if tok.kind == "op":
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
            self.advance()
        ranges.append((start, self.i))
        return [(start, end) for start, end in ranges if start < end]

    def _infer_var_type(self, start: int, end: int) -> TypeExpr:
        """Light, literal-level type inference for untyped var declarations,
        from the value's tokens start:end. A func literal's signature and a
        composite literal's type are parsed where the value stands, and the
        cursor is put back."""
        if start == end:
            return Basic("untyped")
        first = self.toks[start]
        if end - start == 1:
            return _literal_type(first) or Basic("untyped")
        second = self.toks[start + 1]
        saved = self.i
        try:
            if first.kind == "op" and first.text == "&":
                self._nest()
                try:
                    inner = self._infer_var_type(start + 1, end)
                finally:
                    self.depth -= 1
                return inner if isinstance(inner, Basic) else Pointer(inner)
            if first.kind == "keyword" and first.text == "func":
                self.i = start + 1
                params, variadic, results = self._parse_signature_tail(frozenset())
                return Func(params=params, results=results, variadic=variadic)
            if first.kind == "ident":
                # Composite literal T{...} or pkg.T{...}.
                if second.kind == "op" and second.text == "{":
                    return self._resolve_name(first.text, frozenset())
                if (
                    end - start >= 4
                    and second.kind == "op"
                    and second.text == "."
                    and self.toks[start + 2].kind == "ident"
                    and self.toks[start + 3].kind == "op"
                    and self.toks[start + 3].text == "{"
                ):
                    return Named(self.import_map.get(first.text, first.text), self.toks[start + 2].text)
            if (first.kind == "op" and first.text == "[") or (
                first.kind == "keyword" and first.text in ("map", "chan")
            ):
                self.i = start
                expr = self._parse_type(frozenset())
                if self.at_op("{"):
                    return expr
        except GoSyntaxError:
            pass
        finally:
            self.i = saved
        return Basic("untyped")

    def _parse_type_spec(self, gofile: GoFile) -> None:
        name = self.expect_ident().text
        type_params: tuple[TypeParamDef, ...] = ()
        if self.at_op("[") and self._looks_like_type_params():
            type_params = self._parse_type_param_group(frozenset())
        alias = False
        if self.at_op("="):
            alias = True
            self.advance()
        tparams = frozenset(tp.name for tp in type_params)
        expr = self._parse_type(tparams)
        gofile.types.append(TypeSpec(name=name, type=expr, type_params=type_params, alias=alias))

    def _looks_like_type_params(self) -> bool:
        # Disambiguates `type A[T any] ...` from `type A [N]Elem`, as go/parser
        # does: a type parameter list starts with an identifier followed by
        # the beginning of a constraint, never by "]". An index expression is
        # never a constant length, so "[" starts a constraint too. After "*"
        # or "(" the list could still be a length (N * M, f(N)). It is a type
        # parameter list when a top-level comma follows, as in [T *int,], or,
        # by go/parser's isTypeElem, when the operand after the "*" or "(",
        # or a term of a top-level union, is a type element: [T *[]int],
        # [T *E | ~int].
        nxt = self.peek()
        if nxt.kind != "ident":
            return False
        after = self.toks[self.i + 2]
        if after.kind == "ident":
            return True
        if after.kind == "keyword" and after.text in _TYPE_START_KEYWORDS:
            return True
        if after.kind != "op":
            return False
        if after.text in (",", "~", "["):
            return True
        if after.text not in ("*", "("):
            return False
        marks = self._scan_list(self.i)
        if len(marks) > 1:
            return True
        operands = [self.i + 3]
        depth = 0
        for k in range(self.i + 2, marks[-1]):
            tok = self.toks[k]
            if tok.kind != "op":
                continue
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == "|" and depth == 0:
                operands.append(k + 1)
        return any(self._starts_type_elem(j) for j in operands)

    def _starts_type_elem(self, j: int) -> bool:
        """Whether the expression at j can only be a type element: an array,
        slice, struct, func, interface, map or chan type, or a ~ term,
        possibly in parentheses."""
        while self.toks[j].kind == "op" and self.toks[j].text == "(":
            j += 1
        tok = self.toks[j]
        if tok.kind == "keyword":
            return tok.text in _TYPE_START_KEYWORDS
        if tok.kind != "op":
            return False
        if tok.text == "<-":
            return self.toks[j + 1].text == "chan"
        return tok.text in ("[", "~")

    # -- functions ----------------------------------------------------------

    def _parse_func_decl(self, gofile: GoFile) -> None:
        self.advance()
        receiver: str | None = None
        receiver_tparams: list[str] = []
        if self.at_op("("):
            receiver, receiver_tparams = self._parse_receiver()
        name = self.expect_ident().text
        type_params: tuple[TypeParamDef, ...] = ()
        if self.at_op("["):
            type_params = self._parse_type_param_group(frozenset(receiver_tparams))
        tparams = frozenset(receiver_tparams) | {tp.name for tp in type_params}
        params, variadic, results = self._parse_signature_tail(tparams)
        sig = Func(params=params, results=results, variadic=variadic, type_params=type_params)
        if self.at_op("{"):
            self._skip_balanced_braces()
        gofile.funcs.append(FuncDecl(name=name, sig=sig, receiver=receiver))

    def _parse_receiver(self) -> tuple[str, list[str]]:
        """Parse (name *Base[P, Q]), returning the base type name and the
        names of its type parameters."""
        self.expect_op("(")
        nxt = self.peek()
        if self.cur().kind == "ident" and not (nxt.kind == "op" and nxt.text in (".", "[", ",", ")")):
            self.advance()  # receiver variable name
        if self.at_op("*"):
            self.advance()
        tok = self.cur()
        if tok.kind != "ident":
            raise GoSyntaxError("malformed receiver type", tok.line)
        self.advance()
        tparams: list[str] = []
        if self.at_op("["):
            for _ in self._items("["):
                tparams.append(self.expect_ident().text)
        if self.at_op(","):
            self.advance()
        self.expect_op(")")
        return tok.text, tparams

    def _skip_balanced_braces(self) -> None:
        start = self.expect_op("{")
        depth = 1
        while depth > 0:
            tok = self.advance()
            if tok.kind == "eof":
                raise GoSyntaxError("unterminated function body", start.line)
            if tok.kind == "op":
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    depth -= 1

    # -- signatures and parameter lists --------------------------------------

    def _parse_signature_tail(self, tparams: frozenset[str]) -> tuple[tuple[TypeExpr, ...], bool, tuple[TypeExpr, ...]]:
        params, variadic = self._parse_params(tparams)
        results: tuple[TypeExpr, ...] = ()
        if self.at_op("("):
            results, _ = self._parse_params(tparams, results=True)
        elif _starts_type(self.cur()):
            results = (self._parse_type(tparams),)
        return params, variadic, results

    def _parse_params(self, tparams: frozenset[str], results: bool = False) -> tuple[tuple[TypeExpr, ...], bool]:
        """Parse a parenthesised parameter or result list, each item once.

        An item is a bare identifier, `name Type` or `Type`. Within a list
        either every parameter is named or none is: a bare identifier is a
        name when some item is `name Type`, and then takes the type of the
        next item that carries one (a, b int); otherwise it is a type. Only
        the final parameter may be variadic, and no result.
        """
        items: list[tuple[str, TypeExpr | None]] = []  # (name or "", type) or (bare identifier, None)
        variadic = False
        for tok in self._items("("):
            if variadic:
                raise GoSyntaxError("can only use ... with final parameter in list", tok.line)
            nxt = self.peek()
            if tok.kind == "ident" and nxt.kind == "op" and nxt.text in (",", ")"):
                self.advance()
                items.append((tok.text, None))
            else:
                name = ""
                if tok.kind == "ident" and not (
                    nxt.kind == "op"
                    and (nxt.text == "." or (nxt.text == "[" and self._bracket_ends(self.i + 1, _PARAM_ENDERS)))
                ):
                    name = self.advance().text
                if self.at_op("..."):
                    if results:
                        raise GoSyntaxError("cannot use ... in result list", self.cur().line)
                    self.advance()
                    variadic = True
                items.append((name, self._parse_type(tparams)))
        named = any(name and t is not None for name, t in items)
        if named and (items[-1][1] is None or any(not name for name, _ in items)):
            raise GoSyntaxError("mixed named and unnamed parameters", self.toks[self.i - 1].line)

        types: list[TypeExpr] = []
        carry: TypeExpr | None = None
        for ident, t in reversed(items):
            if t is not None:
                carry = t
            elif named and carry is not None:
                t = carry
            else:
                t = self._resolve_name(ident, tparams)
            types.append(t)
        types.reverse()
        return tuple(types), variadic

    # -- type parameters ------------------------------------------------------

    def _parse_type_param_group(self, outer: frozenset[str]) -> tuple[TypeParamDef, ...]:
        # A constraint may refer to any parameter of the group, so the names
        # come first: each is the token after the "[" or a top-level comma.
        starts = [self.i] + self._scan_list(self.i)[:-1]
        scope = outer | {self.toks[j + 1].text for j in starts if self.toks[j + 1].kind == "ident"}
        defs: list[tuple[str, TypeExpr | None]] = []
        for _ in self._items("["):
            name = self.expect_ident().text
            constraint: TypeExpr | None = None
            if not (self.at_op(",") or self.at_op("]")):
                terms = self._parse_union(scope)
                constraint = terms[0].type if len(terms) == 1 and not terms[0].tilde else _make_interface([], terms)
            defs.append((name, constraint))

        carry: TypeExpr | None = None
        out: list[TypeParamDef] = []
        for name, constraint in reversed(defs):
            if constraint is not None:
                carry = constraint
            if carry is None:
                raise GoSyntaxError("type parameter without constraint", self.toks[self.i - 1].line)
            out.append(TypeParamDef(name=name, constraint=carry))
        out.reverse()
        return tuple(out)

    def _parse_union(self, tparams: frozenset[str]) -> list[UnionTerm]:
        """Parse ~T | U, the terms of a constraint or an interface embed."""
        terms: list[UnionTerm] = []
        while True:
            tilde = self.at_op("~")
            if tilde:
                self.advance()
            terms.append(UnionTerm(type=self._parse_type(tparams), tilde=tilde))
            if not self.at_op("|"):
                return terms
            self.advance()

    # -- types ------------------------------------------------------------------

    def _resolve_name(self, name: str, tparams: frozenset[str]) -> TypeExpr:
        if name in tparams:
            return TypeParamRef(name)
        if name in PREDECLARED_TYPES:
            return Basic(name)
        return Named(self.package_path, name)

    def _parse_type(self, tparams: frozenset[str]) -> TypeExpr:
        self._nest()
        try:
            return self._parse_type_at_depth(tparams)
        finally:
            self.depth -= 1

    def _parse_type_at_depth(self, tparams: frozenset[str]) -> TypeExpr:
        tok = self.cur()
        if tok.kind == "op":
            if tok.text == "*":
                self.advance()
                return Pointer(self._parse_type(tparams))
            if tok.text == "(":
                self.advance()
                inner = self._parse_type(tparams)
                self.expect_op(")")
                return inner
            if tok.text == "[":
                self.advance()
                if self.at_op("]"):
                    self.advance()
                    return Slice(self._parse_type(tparams))
                length = self._parse_array_length()
                return Array(length=length, elem=self._parse_type(tparams))
            if tok.text == "<-":
                self.advance()
                if not self.at_keyword("chan"):
                    raise GoSyntaxError("expected chan after <-", tok.line)
                self.advance()
                return Chan(direction="recv", elem=self._parse_type(tparams))
        if tok.kind == "keyword":
            if tok.text == "chan":
                self.advance()
                direction = "both"
                if self.at_op("<-"):
                    direction = "send"
                    self.advance()
                return Chan(direction=direction, elem=self._parse_type(tparams))
            if tok.text == "map":
                self.advance()
                self.expect_op("[")
                key = self._parse_type(tparams)
                self.expect_op("]")
                return Map(key=key, value=self._parse_type(tparams))
            if tok.text == "func":
                self.advance()
                params, variadic, results = self._parse_signature_tail(tparams)
                return Func(params=params, results=results, variadic=variadic)
            if tok.text == "struct":
                self.advance()
                return self._parse_struct_body(tparams)
            if tok.text == "interface":
                self.advance()
                return self._parse_interface_body(tparams)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            package: str | None = None
            if self.at_op(".") and self.peek().kind == "ident":
                self.advance()
                member = self.expect_ident().text
                package = self.import_map.get(name, name)
                name = member
            args: list[TypeExpr] = []
            if self.at_op("["):
                for _ in self._items("["):
                    args.append(self._parse_type(tparams))
            if package is not None:
                return Named(package, name, tuple(args))
            base = self._resolve_name(name, tparams)
            if args and isinstance(base, Named):
                return Named(base.package, base.name, tuple(args))
            return base
        raise GoSyntaxError(f"expected type, found {tok.text!r}", tok.line)

    def _parse_array_length(self) -> int | str:
        start = self.i
        depth = 0
        while True:
            tok = self.cur()
            if tok.kind == "eof":
                raise GoSyntaxError("unterminated array length", tok.line)
            if depth == 0 and tok.kind == "op" and tok.text == "]":
                break
            if tok.kind == "op":
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
            self.advance()
        end = self.i
        self.advance()
        # Parentheses around the whole length do not change it: [(N)] is [N],
        # and a literal length is a number however it is spelled: [0x10], [(16)].
        while (
            end - start > 2
            and self.toks[start].text == "("
            and self.toks[end - 1].text == ")"
            and self._scan_list(start)[-1] == end - 1
        ):
            start += 1
            end -= 1
        tokens = self.toks[start:end]
        if len(tokens) == 1 and tokens[0].kind == "int":
            return int(tokens[0].text.replace("_", ""), 0)
        return _spell(tokens)

    def _parse_struct_body(self, tparams: frozenset[str]) -> Struct:
        fields: list[FieldDef] = []
        for tok in self._elements("{", "struct body", "struct field"):
            start = self.i
            embedded = False
            if tok.kind == "op" and tok.text == "*":
                embedded = True
            elif tok.kind == "ident":
                names = [self.advance().text]
                while self.at_op(","):
                    self.advance()
                    names.append(self.expect_ident().text)
                nxt = self.cur()
                if len(names) == 1 and (
                    nxt.kind in ("string", "raw_string")
                    or (nxt.kind == "op" and nxt.text in (";", "}", "."))
                    or (nxt.kind == "op" and nxt.text == "[" and self._bracket_ends(self.i, _FIELD_ENDERS))
                ):
                    embedded = True
                    self.i = start
                else:
                    ftype = self._parse_type(tparams)
                    tag = self._parse_tag()
                    for n in names:
                        fields.append(
                            FieldDef(name=n, type=ftype, tag=tag, anonymous=False, exported=is_exported(n))
                        )
            else:
                raise GoSyntaxError(f"unexpected token {tok.text!r} in struct", tok.line)

            if embedded:
                ftype = self._parse_type(tparams)
                tag = self._parse_tag()
                name = _embedded_name(ftype)
                fields.append(
                    FieldDef(name=name, type=ftype, tag=tag, anonymous=True, exported=is_exported(name))
                )
        return Struct(fields=tuple(fields))

    def _parse_tag(self) -> str | None:
        tok = self.cur()
        if tok.kind == "raw_string":
            self.advance()
            return tok.text[1:-1]
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1]
        return None

    def _parse_interface_body(self, tparams: frozenset[str]) -> Interface:
        methods: list[MethodSig] = []
        embeds: list[UnionTerm] = []
        for tok in self._elements("{", "interface body", "interface element"):
            nxt = self.peek()
            if tok.kind == "ident" and nxt.kind == "op" and nxt.text == "(":
                self.advance()
                params, variadic, results = self._parse_signature_tail(tparams)
                methods.append(
                    MethodSig(name=tok.text, sig=Func(params=params, results=results, variadic=variadic))
                )
            else:
                embeds += self._parse_union(tparams)
        return _make_interface(methods, embeds)


_NO_SPACE_BEFORE = frozenset({".", ",", ")", "]", "}", "{", ";"})
_NO_SPACE_AFTER = frozenset({"(", "[", "{", "."})


def _spell(tokens: list[Token]) -> str:
    parts: list[str] = []
    prev: Token | None = None
    for tok in tokens:
        if parts and not (
            (tok.kind == "op" and tok.text in _NO_SPACE_BEFORE)
            or (prev is not None and prev.kind == "op" and prev.text in _NO_SPACE_AFTER)
        ):
            parts.append(" ")
        parts.append(tok.text)
        prev = tok
    return "".join(parts)


def _literal_type(tok: Token) -> Basic | None:
    if tok.kind == "int":
        return Basic("complex128") if tok.text.endswith("i") else Basic("int")
    if tok.kind == "float":
        return Basic("complex128") if tok.text.endswith("i") else Basic("float64")
    if tok.kind in ("string", "raw_string"):
        return Basic("string")
    if tok.kind == "rune":
        return Basic("rune")
    if tok.kind == "ident" and tok.text in ("true", "false"):
        return Basic("bool")
    return None


def _infer_const_type(value: list[Token]) -> Basic:
    if len(value) == 1:
        lit = _literal_type(value[0])
        if lit is not None:
            return Basic("untyped " + {"float64": "float", "complex128": "complex"}.get(lit.name, lit.name))
    return Basic("untyped")


def _embedded_name(t: TypeExpr) -> str:
    if isinstance(t, Pointer):
        return _embedded_name(t.base)
    if isinstance(t, Named):
        return t.name
    if isinstance(t, Basic):
        return t.name
    if isinstance(t, TypeParamRef):
        return t.name
    raise GoSyntaxError(f"cannot embed {t!r}")


def parse_go_file(text: str, package_path: str = "") -> GoFile:
    """Parse one source file at declaration level."""
    parser = _Parser(tokenize(text), package_path)
    return parser.parse_file()


def parse_imports(text: str) -> list[ImportSpec]:
    """The imports of one source file. The whole file is checked for lexical
    errors, so one anywhere in it is a GoSyntaxError; only the header is lexed."""
    parser = _Parser(tokenize(text, imports_only=True), "")
    gofile = parser._parse_package_clause()
    while True:
        parser.skip_semis()
        if not parser.at_keyword("import"):
            return gofile.imports
        parser._parse_gen_decl("import", gofile)
