"""Declaration-level parser for Go source files.

The tokenizer understands full Go lexing (strings, runes, comments, automatic
semicolon insertion). A token is its text, which implies its kind; the last
token, the end of the text lexed, is "". The lexer's scans stop at the first
ASCII character that go/scanner rejects outside a literal, and at a literal
that never ends or is malformed, and raise that lexical error at its line.
As in go/scanner, a "/*", string, raw string or rune that never ends is an
error at its line, with go/scanner's message. tokenize first checks the whole file
for lexical errors with one possessive regex, so that an error anywhere in
it fails import binding; then it lexes the header: the text up to the first
candidate cut, a newline before const, func, type or var at column 0, where
the lexer is clean (outside any literal and bracket, after a ";"), or the
whole text if there is none. A number takes only ASCII digits and an
identifier only letters, "_" and decimal digits, and a NUL is illegal even
inside a literal; the scans take every non-ASCII character and every
character inside a literal, so only the whole-file check finds these, and a
file that is not all ASCII or holds a NUL is checked whole before it is
scanned. The check scans for a word character that breaks the rule only in
a file that is not all ASCII. The lexer lexes the text up to each
brace outside a literal with one findall call, and one pass over those
strings inserts semicolons, drops comments and tracks brackets, so that the
body of each top-level function is skipped to its closing brace without
building tokens. A closing bracket that does not match outside function
bodies is a syntax error, as in Go. Lines are kept only for error messages.
Import binding parses the header's package clause and imports; each import
is an ImportSpec of its path and its name (None, ".", "_" or an alias), as in
go/ast, and ImportSpec.binds is the one home of the rule for the name an
import binds, which the parser's import map and impact's bindings both use.
find_selectors finds the selectors of a file, and then bare_identifiers the
identifiers that are no members, in the source text itself, for scans that
need no tokens: one regex built from the lexer's sub-patterns confirms that
each candidate lies outside every literal, and the lexer lexes only the few
words that may hold a number. The parser itself only covers
what an API surface needs: the package clause, imports, and top-level
const/var/type/func declarations, including generic type parameters. One
parser with one cursor reads each file: parameter, type-argument and
type-parameter lists are parsed item by item where they stand, looking ahead
only to tell a name from a type. parse_go_file checks the whole file first
only where it is not all ASCII or holds a NUL. It lexes the header, walks
the rest of the file chunk by chunk, and then parses the header and the
chunks: a chunk runs from one clean cut to the next. It looks each chunk up
in a DeclMemo by its whole text, up to the next candidate: a chunk met
before under the same package path and header was lexed clean when it was
stored, so it is neither checked, lexed nor parsed, and no function body in
it is scanned; its specs are reused. Each other chunk is lexed by one call
of the lexer, which knows nothing of the memo. So a lexical error anywhere
is raised by the walk, before any syntax error; where a scan meets a bracket
that does not match, the whole file is checked first, since a lexical error
after it outranks it. The chunks are parsed in order after the walk, and a
bracket error in one is raised only if the chunks before it parse, so errors
come in source order across chunks. A GoFile holds its specs (Decl) in one
list in source order, as go/ast's File.Decls holds declarations, and a chunk
the memo finds adds its stored tuple of specs to that list. The specs are
immutable and are the surface's objects themselves, so a chunk found gives
the very spec objects it gave before, and a surface built from them shares
them with the surface it was first parsed for. Within a file, the parser
builds each leaf type once: a Named without type arguments and a
TypeParamRef are one object wherever they stand.

A function body is skipped with one regex match over its brace groups nested
up to _SKIP_NESTING deep; a loop counts only the braces past that depth and
the body's closing brace.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Iterator

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
        self.message = message
        self.line = line


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
# five a brace is text, not a bracket. A string is unrolled and possessive,
# so sre keeps no backtracking state for its characters or escapes. A string
# and a rune take only the escapes Go defines, each with its own quote, and a
# rune holds one character or escape. A \u or \U escape must name a Unicode
# code point: at most 10FFFF, and no surrogate (D800 to DFFF).
_COMMENT_LINE = r"//[^\n]*"
_COMMENT_BLOCK = r"/\*(?s:.*?)\*/"
_RAW_STRING = r"`[^`]*`"
_ESCAPE = (
    r"\\(?:[abfnrtv\\%s]|[0-3][0-7]{2}|x[0-9a-fA-F]{2}|u(?![dD][89a-fA-F])[0-9a-fA-F]{4}"
    r"|U(?!0000[dD][89a-fA-F])00(?:0[0-9a-fA-F]|10)[0-9a-fA-F]{4})"
)
_STRING_ESCAPE = _ESCAPE % '"'
_RUNE_ESCAPE = _ESCAPE % "'"
_STRING = rf'"[^"\\\n]*+(?:{_STRING_ESCAPE}[^"\\\n]*+)*+"'
_RUNE = rf"'(?:[^'\\\n]|{_RUNE_ESCAPE})'"
_LITERAL = f"{_COMMENT_LINE}|{_COMMENT_BLOCK}|{_RAW_STRING}|{_STRING}|{_RUNE}"
_FLOAT = (
    r"(?:\d[\d_]*\.[\d_]*(?:[eE][+-]?\d[\d_]*)?|\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"
    r"|\d[\d_]*[eE][+-]?\d[\d_]*|0[xX][\da-fA-F_]*(?:\.[\da-fA-F_]*)?[pP][+-]?\d[\d_]*)i?"
)
_INT = r"(?:0[xX][\da-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+|\d[\d_]*)i?"
_NUMBER = rf"(?:{_FLOAT}|{_INT})"
_IDENT = r"[^\W\d]\w*"
# Go's operators and punctuation, longest first, so that the lexer takes the
# longest one that matches.
_OPERATORS = (
    "<<= >>= &^= ... && || <- ++ -- == != <= >= := += -= *= /= %= &= |= ^= << >> &^ "
    "+ - * / % & | ^ < > = ! : ; , . ~ ( ) [ ] { }"
).split()

# The punctuation that starts no longer token: no operator or number starts
# with one of these.
_PUNCTUATION = "( ) [ ] { } , ;".split()

# One token after blanks and at most one line comment: a bracket, "," or ";",
# an identifier, a newline, a block comment, a literal, a number or an
# operator; a comment is tried before "/" and a number before ".". An ASCII
# identifier that no non-ASCII character follows is matched with an explicit
# class, which sre tests faster than \w, and any other by _IDENT. Where only
# blanks or a line comment are left before the end of the text scanned, the
# group matches "".
_TOKEN_RE = re.compile(
    rf"[ \t\r]*(?:{_COMMENT_LINE})?([{re.escape(''.join(_PUNCTUATION))}]|[A-Za-z_][0-9A-Za-z_]*+(?![^\x00-\x7f])"
    rf"|{_IDENT}|\n|{_COMMENT_BLOCK}|{_RAW_STRING}|{_STRING}|{_RUNE}|{_NUMBER}"
    rf"|{'|'.join(re.escape(op) for op in _OPERATORS if op not in _PUNCTUATION)}|\Z)"
)
_IDENT_RE = re.compile(_IDENT)
_INT_RE = re.compile(_INT)

# The ASCII characters other than letters, digits, "_", braces and "/" that
# the lexer takes outside a literal: blanks, newlines and the characters of
# operators.
_RUN_CHARS = r" \t\r\n+\-*%&|^<>=!:;,.()\[\]~"

# The alternatives of lexable text up to the next brace: a run of characters
# that start no literal, are no brace and are taken by the lexer outside a
# literal, each string, rune and comment, and a "/" that starts no block
# comment. _BODY_RE repeats them, and _SKIP_RE repeats them with balanced
# brace groups. A match ends at a brace, at the end of the text scanned, at a
# "/*" or "`" whose literal a scan up to a limit cuts (block comments and raw
# strings are the only literals that span lines), or where the lexer fails:
# at an ASCII character it takes nowhere outside a literal, or at a literal
# that never ends or is malformed. The run class lists the ASCII characters
# the lexer takes there, and a last alternative takes any run of non-ASCII
# characters: a text that is not all ASCII is scanned only after
# _check_lexable accepted it, so a non-ASCII character outside a literal is
# known to be legal there. sre finds a character of a listed ASCII class with
# one bitmap lookup, where \w or a negated class takes it a further step, and
# a class that lists a range up to U+10FFFF takes long to compile: on the
# bodies of the seed-23 check-bodies modules (5.7 MB), _SKIP_RE took 1.4
# times as long with the class negated, and with \x80-\U0010ffff in the class
# it took about 10 ms longer to compile (2 vCPU x86_64, Python 3.11). Their
# repeats are possessive, so sre keeps no backtracking state for them and one
# match may run over a whole file.
_BODY_RUN = rf"[0-9A-Za-z_{_RUN_CHARS}]++|{_LITERAL}|/(?!\*)|[^\x00-\x7f]++"
_BODY_RE = re.compile(rf"(?:{_BODY_RUN})*+")
_LITERAL_RE = re.compile(_LITERAL)
# How deep _SKIP_RE nests brace groups, by the count of regex calls and the
# time to skip the bodies of a 1.55 MB generated module: the benchmark's
# bodies nest groups 2 deep, so 2 takes one call per body where 0, one call
# per brace, took 49 (49,272 for 1,012 bodies), and 3 to 6 were no faster.
# Each level adds about 0.8 ms to compiling the pattern at import.
_SKIP_NESTING = 2
# Body text up to the body's closing "}" or to the "{" of a group nested more
# than _SKIP_NESTING deep: _BODY_RE's alternatives, or a balanced group of
# them nested one level less. A group that holds a deeper one does not match,
# so the match ends at its "{".
_skip_pattern = _BODY_RE.pattern
for _ in range(_SKIP_NESTING):
    _skip_pattern = rf"(?:{_BODY_RUN}|\{{{_skip_pattern}\}})*+"
_SKIP_RE = re.compile(_skip_pattern)

# The text the lexer accepts: the same alternatives, with every character the
# lexer accepts outside a literal in the run class. A match ends where the
# lexer would fail: a "/*" that never ends is no "/", as in go/scanner.
_LEXABLE_RE = re.compile(rf"(?:[\w{_RUN_CHARS}{{}}]++|{_LITERAL}|/(?!\*))*+")
# A string or rune as go/scanner delimits it, before it checks the escapes
# and, in a rune, the number of characters: a backslash escapes any character.
_DELIMITED_RE = {quote: re.compile(rf"{quote}(?:[^{quote}\\\n]|\\.)*+{quote}") for quote in "\"'"}
_VALID_ESCAPE_RE = {'"': re.compile(_STRING_ESCAPE), "'": re.compile(_RUNE_ESCAPE)}
# An escape in a string or rune, well formed or not.
_ESCAPE_RE = re.compile(r"\\(?:[0-7]{3}|x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.?)", re.DOTALL)
# go/scanner's message for a literal that its opening character cannot close.
_UNTERMINATED = {
    '"': "string literal not terminated",
    "`": "raw string literal not terminated",
    "'": "rune literal not terminated",
    "/": "comment not terminated",
}
# Python's \w and \d, which the patterns above use, take more than Go does:
# Go's numbers take only ASCII digits, and its identifiers only letters, "_"
# and, after the first character, decimal digits. In a file that is not all
# ASCII, this ends a match at each non-ASCII word character outside literals
# as well, so that the token around it can be checked. Its word class is
# spelled out, as in _BODY_RUN, which sre tests faster than \w. On ASCII text
# it matches what _LEXABLE_RE matches, and faster, so it checks that text
# alone.
_ASCII_LEXABLE_RE = re.compile(rf"(?:[0-9A-Za-z_{_RUN_CHARS}{{}}]++|{_LITERAL}|/(?!\*))*+")
# The ASCII characters that may stand inside a number or an identifier. The
# token around a non-ASCII character is lexed from the last character before
# it that is none of these.
_WORDISH = frozenset(string.ascii_letters + string.digits + "_.+-")

_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_OPENING = frozenset(_CLOSERS)
_CLOSING = frozenset(_CLOSERS.values())
# Keywords of the declarations that are one spec or a group of specs.
_GEN_DECL_KEYWORDS = frozenset({"const", "import", "type", "var"})
# Keywords that start a top-level declaration other than a function.
_DECL_KEYWORDS = _GEN_DECL_KEYWORDS | {"package"}
# Keywords that start every top-level declaration after the imports.
_HEADER_END_KEYWORDS = frozenset({"const", "func", "type", "var"})
# A candidate cut between top-level declarations: a newline followed by one
# of those keywords at column 0.
_CUT_RE = re.compile(rf"\n(?=(?:{'|'.join(sorted(_HEADER_END_KEYWORDS))})\b)")
# The tokens after which a newline inserts no semicolon: all operators and
# keywords but these. After an identifier or a literal, it does.
_SEMI_AFTER = frozenset({")", "]", "}", "++", "--", "break", "continue", "fallthrough", "return"})
_NO_SEMI_AFTER = (frozenset(_OPERATORS) | GO_KEYWORDS) - _SEMI_AFTER
# The tokens the lexer's pass acts on, besides comments and raw strings: a
# newline, the "" that ends a run, brackets, ";" and declaration keywords.
_LEXER_ACTS = frozenset({"\n", "", "(", "[", ")", "]", ";"}) | _DECL_KEYWORDS
# The keywords before a brace that opens a type's body, not a function's.
_BODYLESS = frozenset({"struct", "interface"})


class _Tokens(list):
    """Tokens, ending with "", with lines: the index of the first token on
    each line after the first; and end: where in the text the lexer stopped."""

    __slots__ = ("lines", "end")


def tokenize(text: str) -> _Tokens:
    """Check the whole text for lexical errors, then lex its header.

    A candidate cut is a newline followed by const, func, type or var at
    column 0; the header is the text up to the first one where the lexer
    is clean (see _lex), or the whole text if there is none. A leading byte
    order mark is dropped, and the tokens' end is an offset in the text
    without it. From the clean state at the header's end, the tokens of each
    chunk after it follow from the chunk's text alone (see parse_go_file).
    """
    text = text.removeprefix("\ufeff")
    _check_lexable(text)
    return _lex(text, 0, _next_cut(text, 0))[0]


def _lex(text: str, pos: int, cut: int) -> tuple[_Tokens, bool]:
    """Lex text from pos, where the lexer is clean, up to the first candidate
    cut at or after cut where it is clean again, or to the end of the text,
    where a final ";" is inserted; return the tokens and whether the chunk's
    key, its text from pos to cut, holds.

    The lexer is clean at a candidate if it is outside any literal and
    bracket, and its last token is a ";". The text up to each brace outside
    a literal, or to cut, is lexed with one findall call. The braces of each
    top-level function body are kept and no token between them is built. A
    closing bracket that does not match is a GoSyntaxError, its line counted
    from the line of pos; one left open at the end is left for the parser
    to report. Where a scan stops at an ASCII character the lexer takes
    nowhere outside a literal, or at a literal that never ends or is
    malformed, the lexical error is a GoSyntaxError at its line in the whole
    text, and so is one in a skipped function body. The scans take every
    non-ASCII character and every character inside a literal, so text that
    is not all ASCII or holds a NUL must have passed _check_lexable. Every
    run ends at cut, so the lexer is checked for cleanliness where a run
    stops. Where it is not clean at cut, or a literal or a function body
    holds cut, cut moves on to the next candidate and the key no longer
    holds. At the end of the text it holds only if the lexer is clean there.
    """
    tokens = _Tokens()
    lines = tokens.lines = []
    append = tokens.append
    findall = _TOKEN_RE.findall
    scan = _BODY_RE.match
    acts = _LEXER_ACTS
    size = len(text)
    closers: list[str] = []  # expected closing brackets, innermost last
    # Index of the first token of the current top-level declaration: the token
    # after a ";" at bracket depth 0, or a const/import/package/type/var
    # keyword at depth 0, since the parser needs no ";" between declarations.
    decl_start = 0
    holds = True
    while True:
        # The first brace outside a literal; or cut, if none comes before it;
        # or the start of a block comment or raw string that holds cut.
        stop = scan(text, pos, cut).end()
        for tok in findall(text, pos, stop):
            if tok in acts:
                if tok == "\n":
                    newlines = 1
                elif not tok:  # the end of the run
                    continue
                else:
                    if tok in _CLOSERS:
                        closers.append(_CLOSERS[tok])
                    elif tok in _CLOSING:
                        expected = closers.pop() if closers else ""
                        if expected != tok:
                            raise _bracket_error(expected, tok, len(lines) + 1)
                    elif not closers:  # ";" or a keyword at depth 0
                        if tok == ";":
                            decl_start = len(tokens) + 1
                        elif tok in _DECL_KEYWORDS:
                            decl_start = len(tokens)
                    append(tok)
                    continue
            elif tok[0] not in "/`":
                append(tok)
                continue
            elif tok[:2] != "/*":  # "/", "/=" or a raw string, which may span lines
                append(tok)
                lines += [len(tokens)] * tok.count("\n")
                continue
            elif "\n" in tok:  # a block comment that spans lines is a newline
                newlines = tok.count("\n")
            else:
                continue
            if tokens and tokens[-1] not in _NO_SEMI_AFTER:
                if not closers:
                    decl_start = len(tokens) + 1
                append(";")
            lines += [len(tokens)] * newlines
        if stop == cut:  # the run ended at the candidate at cut, or at the end
            if cut == size and tokens and tokens[-1] not in _NO_SEMI_AFTER:
                append(";")
            clean = not closers and bool(tokens) and tokens[-1] == ";"
            if clean or cut == size:
                tokens.end = cut
                append("")
                return tokens, holds and clean
            holds = False
            pos = cut
            cut = _next_cut(text, cut)
            continue
        char = text[stop]
        if char == "`" or char == "/":  # a literal holds the candidate at cut
            literal = _LITERAL_RE.match(text, stop)
            if literal is None:  # or it never ends
                raise _lexical_error(text, stop)
            holds = False
            cut = _next_cut(text, literal.end())
            pos = stop
            continue
        if char == "}":
            expected = closers.pop() if closers else ""
            if expected != "}":
                raise _bracket_error(expected, "}", len(lines) + 1)
        elif char != "{":
            raise _lexical_error(text, stop)
        elif closers or decl_start == len(tokens) or tokens[decl_start] != "func" or tokens[-1] in _BODYLESS:
            closers.append("}")
        else:  # the body of a top-level function
            append("{")
            end = _skip_body(text, stop + 1)
            if end < 0:
                raise GoSyntaxError("unterminated function body", len(lines) + 1)
            if cut < end:  # the body holds the candidate at cut
                holds = False
                cut = _next_cut(text, end)
            lines += [len(tokens)] * text.count("\n", stop, end)
            append("}")
            pos = end
            continue
        append(char)
        pos = stop + 1


def _next_cut(text: str, pos: int) -> int:
    """The first candidate cut after pos, or the end of the text."""
    m = _CUT_RE.search(text, pos)
    return m.end() if m else len(text)


def _bracket_error(expected: str, tok: str, line: int) -> GoSyntaxError:
    return GoSyntaxError(f"expected {expected!r}, found {tok!r}" if expected else f"unmatched {tok!r}", line)


def _check_lexable(text: str) -> None:
    """Raise the lexer's GoSyntaxError if the lexer would fail on text.

    As in go/scanner, a NUL or a byte order mark is illegal anywhere, even
    in a comment or literal; text is what follows an optional leading byte
    order mark. Of two errors, the one that starts first is raised; a
    literal or block comment that never ends is an error at its first
    character, with go/scanner's message. A word character that Go takes in
    no token where it stands is looked for only in text that is not all
    ASCII.
    """
    size = len(text)
    illegal = min(k for k in (text.find("\x00"), text.find("\ufeff"), size) if k >= 0)
    if text.isascii():
        end = _ASCII_LEXABLE_RE.match(text).end()
    else:
        end = _foreign_character(text, _LEXABLE_RE.match(text).end())
    if end < illegal:
        raise _lexical_error(text, end)
    if illegal < size:
        what = "character NUL" if text[illegal] == "\x00" else "byte order mark"
        raise GoSyntaxError(f"illegal {what}", text.count("\n", 0, illegal) + 1)


def _lexical_error(text: str, end: int) -> GoSyntaxError:
    """The lexer's GoSyntaxError at end, where no token starts, at its line
    in the whole text."""
    return GoSyntaxError(_lexing_error(text, end), text.count("\n", 0, end) + 1)


def _lexing_error(text: str, end: int) -> str:
    """The message for the lexical error at end, where no token starts.

    A string or rune that ends on its line is wrong in an escape or, for a
    rune, in its number of characters; the first escape Go does not define
    is the error, as _ESCAPE_RE splits the escapes; a \\u or \\U escape with
    all its digits is wrong only in its code point.
    """
    char = text[end]
    literal = _DELIMITED_RE[char].match(text, end) if char in _DELIMITED_RE else None
    if literal is None:
        return _UNTERMINATED.get(char) or f"unexpected character {char!r}"
    body = literal.group()[1:-1]
    for escape in _ESCAPE_RE.findall(body):
        if not _VALID_ESCAPE_RE[char].fullmatch(escape):
            if escape[1] in "uU" and len(escape) > 2:
                return f"escape sequence {escape!r} is an invalid Unicode code point"
            return f"unknown escape sequence {escape!r}"
    if body:
        return "more than one character in rune literal"
    return "empty rune literal or unescaped ' in rune literal"


def _foreign_character(text: str, end: int) -> int:
    """The offset of the first character before end, outside literals, that
    Go takes in no token where it stands, or end if there is none.

    Each non-ASCII word character is lexed with the tokens around it, from
    a point before it where a token starts: after the last character that
    stands in no number or identifier, or at the end of the last token
    lexed here.
    """
    match, token = _ASCII_LEXABLE_RE.match, _TOKEN_RE.match
    pos = 0
    while (stop := match(text, pos, end).end()) < end:
        start = stop
        while start > pos and text[start - 1] in _WORDISH:
            start -= 1
        while start <= stop or start < end and not text[start].isascii():
            m = token(text, start, end)
            tok, start = m.group(1), m.end()
            if not tok.isascii() and (bad := _foreign_offset(tok)) >= 0:
                return m.start(1) + bad
        pos = start
    return end


def _foreign_offset(tok: str) -> int:
    """The offset in a token of the first character Go does not take there,
    or -1."""
    first = tok[0]
    if first.isdecimal() or first == ".":  # a number
        return next(i for i, c in enumerate(tok) if not c.isascii())
    for i, c in enumerate(tok):  # an identifier
        if not (c.isalpha() or c == "_" or i and c.isdecimal()):
            return i
    return -1


def _skip_body(text: str, pos: int) -> int:
    """Return the offset just past the "}" that closes the body whose "{" ends
    at pos, or -1 if the text ends first. Where the lexer fails before that,
    raise its GoSyntaxError.

    Each match runs over the groups nested at most _SKIP_NESTING deep, so
    the loop turns only at the closing "}" and at deeper braces.
    """
    match = _SKIP_RE.match
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
        elif char:
            raise _lexical_error(text, end)
        else:
            return -1
        pos = end + 1


# Comments, strings, runes, raw strings and a "/" that starts none. A line
# comment takes its newline, so a match that a limit cuts does not end in one.
_NOT_CODE = rf"//[^\n]*+\n|{_COMMENT_BLOCK}|`[^`]*+`|{_STRING}|{_RUNE}|/(?![/*])"
# The code between literals: a match from a point outside any literal ends at
# the limit it is given only if the limit is outside every literal too.
_CODE_RE = re.compile(rf"(?:[^\"'`/]++|{_NOT_CODE})*+")
# The same, with the last run of word characters captured. The captured
# alternative comes last: before the "/" alternatives, Python 3.11's sre
# raises SystemError on the group's span when a match ends at "/".
_LAST_WORD_RE = re.compile(rf"(?:[^\w\"'`/]++|{_NOT_CODE}|(\w++))*+")
# A "." followed by blanks and a name, or by a comment, which may hide one.
_DOT_RE = re.compile(rf"\.(?=[ \t\r\n]*+(?:({_IDENT})|/[/*]))")
# Blanks and comments, then the name they may hide.
_NAME_AFTER_RE = re.compile(rf"(?:[ \t\r\n]++|{_COMMENT_LINE}|{_COMMENT_BLOCK})*+({_IDENT})?")
# What may stand between a selector's base and its ".": blanks and block
# comments, none of them a newline, which would insert a ";".
_SPACE_RE = re.compile(r"(?:[ \t\r]++|/\*[^\n]*?\*/)*+")


class _Lexer:
    """The lexer's token at an offset of code, lexed only around it.

    Only a number, which may hold "." and, after an exponent's letter, a sign,
    joins word characters across anything but a word character. So a token
    starts where a run of word characters, "." and such signs starts, or
    where the last token lexed here ended; the lexer starts at the later of
    the two. Asked for offsets in increasing order, as the scans ask, it
    lexes each character at most once.
    """

    __slots__ = ("text", "start", "end", "token")

    def __init__(self, text: str):
        self.text = text
        self.start = self.end = 0
        self.token = ""

    def token_at(self, k: int) -> tuple[int, int, str]:
        """(start, end, text) of the token that holds offset k."""
        if not self.start <= k < self.end:
            text = self.text
            stop = self.end if k >= self.end else 0
            pos = k
            while pos > stop:
                char = text[pos - 1]
                if not (char.isalnum() or char in "_." or char in "+-" and pos > 1 and text[pos - 2] in "eEpP"):
                    break
                pos -= 1
            match = _TOKEN_RE.match
            while pos <= k:
                m = match(text, pos)
                start, pos = m.span(1)
            self.start, self.end, self.token = start, pos, m.group(1)
        return self.start, self.end, self.token


class Selectors(list):
    """(base, member, line of member) for each selector of a text, from
    find_selectors, with what bare_identifiers reads: the text; the offset
    of each name after a "." outside literals, with the "."'s offset
    (members); and each "." right after a number or inside one, where the
    lexer found no identifier before it (number_dots)."""

    __slots__ = ("text", "members", "number_dots")

    def bare_identifiers(self, names: Collection[str]) -> list[tuple[str, int]]:
        """(name, line) for each identifier of the text in names that is not
        a member: the token before it is no "." token.

        One regex finds the candidates: each name in names at the end of a
        word, and each word that starts with a digit and holds a letter (1x
        lexes as 1 and x). A name that ends a longer word is a token only if
        that word follows a "." of number_dots (1.e5x lexes as 1.e5 and x).
        The lexer decides only for those, and for a "." before a name that
        may be part of a number or of "...".
        """
        if not names:
            return []
        text, members, numbers = self.text, self.members, self.number_dots
        candidates = _candidates_re(frozenset(names)).finditer
        lexer = _Lexer(text)
        code = _CODE_RE.match
        bares: list[tuple[str, int]] = []
        line, counted = 1, 0
        pos = 0
        while pos < len(text):
            for m in candidates(text, pos):
                start, end = m.span()
                word = _word_start(text, start)
                exact = text[start].isdecimal() or word - 1 in numbers
                if word < start and not exact:
                    continue  # the end of a longer identifier
                stop = code(text, pos, start).end()
                if stop < start:  # a literal holds the word
                    pos = _literal_end(text, stop)
                    break
                pos = start
                dot = members.get(start) if word == start else None
                if dot and (text[dot - 1] == "." or dot in numbers):
                    dot_start, _end, tok = lexer.token_at(dot)
                    if dot_start != dot or tok != ".":
                        dot = None
                if exact:
                    tok_start, tok_end, name = lexer.token_at(end - 1)
                    if tok_end != end or not _IDENT_RE.match(name):
                        continue
                    if tok_start > word:  # after a number in the same word
                        dot = None
                else:
                    name = text[start:end]
                if dot is not None or name not in names or name in GO_KEYWORDS:
                    continue
                line += text.count("\n", counted, start)
                counted = start
                bares.append((name, line))
            else:
                break
        return bares


@lru_cache(maxsize=32)
def _candidates_re(names: frozenset[str]) -> re.Pattern:
    """Each name in names at the end of a word, and each word that starts
    with a digit and holds a letter, unless the word starts a number token
    that ends where no word character follows (0x137, 1e5, 0b101): that
    token holds the whole word. Where a "." or an exponent's sign stands
    before the word, a number may have started before it (1.0x5 lexes as
    1.0 and x5), so the word stays a candidate."""
    alternatives = "|".join(sorted(map(re.escape, names), key=lambda name: (-len(name), name)))
    # Tried only once the lookahead found the word's letter, so that digit
    # words without one, the most common, cost no number match.
    number = rf"(?:(?<=\.\d)|(?<=[eEpP][+-]\d)|(?<!(?={_NUMBER}(?!\w))\d))"
    return re.compile(rf"\d(?<!\w\d)(?=[\d_]*+[^\W\d_]){number}\w*+|(?:{alternatives})(?!\w)")


def find_selectors(text: str) -> Selectors:
    """The selectors (base.member) of Go source the lexer accepts, found in
    the text itself, with the semicolon-insertion rule kept.

    A candidate is each "." followed by blanks or comments and a name. One
    match of _CODE_RE, resumed where the last one stopped, confirms it lies
    outside every literal. Its base is the word just before it, past blanks
    and block comments without a newline; only where a comment stands there
    is the code since the last "." parsed again to find the word. The word
    is an identifier token unless it starts with a digit or follows a "."
    of number_dots (1.e5.x); only there the lexer decides.
    """
    selectors = Selectors()
    selectors.text = text
    members = selectors.members = {}
    numbers = selectors.number_dots = set()
    lexer = _Lexer(text)
    code = _CODE_RE.match
    line, counted = 1, 0
    pos = last = 0  # where the scan resumes; the last "." outside literals
    while pos < len(text):
        for m in _DOT_RE.finditer(text, pos):
            dot = m.start()
            stop = code(text, pos, dot).end()
            if stop < dot:  # a literal holds the "."
                pos = _literal_end(text, stop)
                break
            pos = dot
            member = m.group(1)
            if member is not None:
                at = m.start(1)
            else:
                after = _NAME_AFTER_RE.match(text, dot + 1)
                member, at = after.group(1), after.start(1)
            since, last = last, dot
            if member is None:
                continue
            members[at] = dot
            end = dot
            while end and text[end - 1] in " \t\r":
                end -= 1
            char = text[end - 1 : end]
            if char.isalnum() or char == "_":
                start = _word_start(text, end - 1)
            elif char == "/":  # a comment may end there
                start, end = _LAST_WORD_RE.match(text, since, dot).span(1)
                if end < 0 or not _SPACE_RE.fullmatch(text, end, dot):
                    continue
            else:
                continue
            if text[start].isdecimal() or start - 1 in numbers:
                start, tok_end, base = lexer.token_at(end - 1)
                if tok_end != end or not _IDENT_RE.match(base):
                    if end == dot:
                        numbers.add(dot)
                    continue
            else:
                base = text[start:end]
            if base in GO_KEYWORDS or member in GO_KEYWORDS:
                continue
            line += text.count("\n", counted, at)
            counted = at
            selectors.append((base, member, line))
        else:
            break
    return selectors


def _word_start(text: str, pos: int) -> int:
    """The start of the run of word characters that ends at pos."""
    while pos and (text[pos - 1].isalnum() or text[pos - 1] == "_"):
        pos -= 1
    return pos


def _literal_end(text: str, pos: int) -> int:
    """The end of the literal at pos; past pos if none starts there, which
    only text the lexer rejects has."""
    m = _LITERAL_RE.match(text, pos)
    return m.end() if m else pos + 1


@dataclass(frozen=True, slots=True)
class ImportSpec:
    """An import, as go/ast holds it: its path, and its name, which is None,
    ".", "_" or an alias."""

    path: str
    name: str | None = None

    @property
    def binds(self) -> str | None:
        """The identifier the import binds in its file, or None for a dot or
        blank import: the alias, or else the path's last element."""
        if self.name is None:
            return self.path.rsplit("/", 1)[-1]
        return None if self.name in (".", "_") else self.name


class Decl:
    """A top-level const, var, type or func spec, as the surface holds it.

    An exported spec is the surface's object itself, so a spec the memo finds
    is one object in every surface that holds it. Besides its fields, each
    spec gives what the surface and the differ read: kind, key, type, value,
    receiver and type_params. Those that are not fields of a spec are class
    attributes and properties, so a spec's repr and equality are its fields'.
    The specs are slotted, and so is this base: a spec has no instance dict.
    """

    __slots__ = ()
    value = None
    receiver = None
    type_params = ()

    @property
    def key(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ConstSpec(Decl):
    name: str
    type: TypeExpr
    value: str | None
    kind = "const"


@dataclass(frozen=True, slots=True)
class VarSpec(Decl):
    name: str
    type: TypeExpr
    kind = "var"


@dataclass(frozen=True, slots=True)
class TypeSpec(Decl):
    name: str
    type: TypeExpr
    type_params: tuple[TypeParamDef, ...] = ()
    alias: bool = False
    kind = "type"


@dataclass(frozen=True, slots=True)
class FuncDecl(Decl):
    name: str
    type: Func
    receiver: str | None = None

    @property
    def kind(self) -> str:
        return "func" if self.receiver is None else "method"

    @property
    def key(self) -> str:
        return self.name if self.receiver is None else f"{self.receiver}.{self.name}"


@dataclass
class GoFile:
    package_name: str
    imports: list[ImportSpec] = field(default_factory=list)
    decls: list[Decl] = field(default_factory=list)  # in source order


# Deepest type nesting (pointers, slices, maps, funcs, structs, generic
# arguments, ...) a file may use. Parsing, rendering and the structural form
# each recurse a few frames per level; the bound keeps all of them well inside
# Python's default recursion limit, so a hostile file is a syntax error rather
# than a RecursionError.
MAX_TYPE_NESTING = 50

_TYPE_START_KEYWORDS = frozenset({"chan", "map", "func", "struct", "interface"})
# The tokens other than an identifier that can start a type.
_TYPE_STARTS = _TYPE_START_KEYWORDS | {"(", "[", "*", "<-"}
# The quote a string literal token starts with.
_STRING_QUOTES = ('"', "`")
_SIMPLE_ESCAPES = dict(zip('abfnrtv\\"', b'\a\b\f\n\r\t\v\\"'))


def _is_ident(tok: str) -> bool:
    """Whether tok, a token of the lexer, is an identifier and no keyword.

    No operator, number or literal passes isidentifier, so it is exact for
    ASCII tokens; but the lexer's identifiers may also hold characters, such
    as "²", that Python's may not.
    """
    return (tok.isidentifier() or not tok.isascii() and _IDENT_RE.fullmatch(tok) is not None) and tok not in GO_KEYWORDS


def _unquote(tok: str) -> str:
    """The value of a string literal token, by Go's rules.

    A raw string drops its carriage returns. An interpreted string decodes
    its escapes, which the lexer checked, into bytes; bytes that are not
    UTF-8 are kept as backslash escapes.
    """
    if tok[0] == "`":
        return tok[1:-1].replace("\r", "")
    if "\\" not in tok:
        return tok[1:-1]
    value = bytearray()
    pos = 1
    for m in _ESCAPE_RE.finditer(tok, 1, len(tok) - 1):
        value += tok[pos : m.start()].encode()
        escape = m.group()
        kind = escape[1:2]
        if kind in _SIMPLE_ESCAPES:
            value.append(_SIMPLE_ESCAPES[kind])
        elif len(escape) == 4:  # \xhh or \ooo
            value.append(int(escape[2:], 16) if kind == "x" else int(escape[1:], 8))
        else:  # \uhhhh or \Uhhhhhhhh
            value += chr(int(escape[2:], 16)).encode()
        pos = m.end()
    value += tok[pos:-1].encode()
    return value.decode("utf-8", "backslashreplace")


# One shared instance of each predeclared basic type: types are immutable.
_BASICS = {name: Basic(name) for name in PREDECLARED_TYPES}


def _make_interface(methods: list[MethodSig], embeds: list[UnionTerm]) -> Interface:
    # Canonical form: method and embed order is not significant in Go.
    methods.sort(key=lambda m: m.name)
    embeds.sort(key=lambda e: (render_type_expr(e.type), e.tilde))
    return Interface(methods=tuple(methods), embeds=tuple(embeds))


class _Parser:
    def __init__(self, tokens: _Tokens, package_path: str):
        self.package_path = package_path
        self.import_map: dict[str, str] = {}
        self.depth = 0  # type nesting of the type being parsed
        # The file's one instance of each leaf type met so far: a Named
        # without type arguments by (package, name), a TypeParamRef by name.
        # Types are immutable and nothing decides by their identity, so equal
        # leaves share one object, which is cheaper to keep than many.
        self.leaves: dict[tuple[str, str] | str, Named | TypeParamRef] = {}
        self.read(tokens)

    def read(self, tokens: _Tokens) -> None:
        """Put the cursor on the first of tokens, whose lines count from the
        line the lexer started on."""
        # A plain list, which indexes faster than its subclass, with one more
        # "" at the end, so that the token after the current one exists.
        self.toks = tokens + [""]
        self.lines = tokens.lines
        self.i = 0

    # -- cursor helpers ----------------------------------------------------

    def _line(self, k: int) -> int:
        return bisect_right(self.lines, k) + 1

    def _error(self, message: str, k: int | None = None) -> GoSyntaxError:
        """A GoSyntaxError at the line of token k, by default the current one."""
        return GoSyntaxError(message, self._line(self.i if k is None else k))

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self._error(f"expected {text!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def expect_ident(self) -> str:
        tok = self.toks[self.i]
        if not _is_ident(tok):
            raise self._error(f"expected identifier, found {tok!r}")
        self.i += 1
        return tok

    def skip_semis(self) -> None:
        while self.toks[self.i] == ";":
            self.i += 1

    def expect_semi(self) -> None:
        """A declaration ends in ";" or at the end of the tokens, as go/parser's expectSemi requires."""
        tok = self.toks[self.i]
        if tok and tok != ";":
            raise self._error(f"expected ';', found {tok!r}")

    def _elements(self, open_: str, block: str, element: str) -> Iterator[str]:
        """Yield at the first token of each element of the ";"-separated group
        or body that opens at the cursor, and consume its closing bracket.

        Empty elements are skipped. After each element the caller parsed, a
        ";" or the closing bracket must follow, as in Go; at the end of the
        tokens the group is unterminated.
        """
        self.expect(open_)
        close = _CLOSERS[open_]
        toks = self.toks
        while True:
            self.skip_semis()
            tok = toks[self.i]
            if tok == close:
                self.i += 1
                return
            if not tok:
                raise self._error(f"unterminated {block}")
            yield tok
            tok = toks[self.i]
            if tok and tok != ";" and tok != close:
                raise self._error(f"unexpected {tok!r} after {element}")

    def _items(self, open_: str) -> Iterator[str]:
        """Yield at the first token of each item of the ","-separated list
        that opens at the cursor, and consume its closing bracket. A trailing
        comma is allowed."""
        self.expect(open_)
        close = _CLOSERS[open_]
        toks = self.toks
        while toks[self.i] != close:
            yield toks[self.i]
            if toks[self.i] != close:
                self.expect(",")
        self.i += 1

    def _scan_list(self, j: int) -> list[int]:
        """Look ahead over the bracketed list that opens at j, without moving.

        Returns the indices of its top-level commas, then of its closing
        bracket (of the final "" if it never closes).
        """
        marks: list[int] = []
        depth = 0
        toks = self.toks
        for k in range(j, len(toks)):
            tok = toks[k]
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
                if depth == 0:
                    marks.append(k)
                    return marks
            elif tok == "," and depth == 1:
                marks.append(k)
        marks.append(len(toks) - 1)
        return marks

    def _after_list(self, j: int) -> str:
        """The token after the bracketed list that opens at j.

        Tells a generic instantiation that makes up a whole field or parameter
        (List[T]) from a name followed by an array or slice type (Name [3]T).
        """
        return self.toks[min(self._scan_list(j)[-1] + 1, len(self.toks) - 1)]

    # -- file --------------------------------------------------------------

    def parse_imports(self) -> GoFile:
        """Parse the package clause and the import declarations after it."""
        self.skip_semis()
        if self.toks[self.i] != "package":
            raise self._error("missing package clause")
        self.i += 1
        gofile = GoFile(package_name=self.expect_ident())
        while True:
            self.expect_semi()
            self.skip_semis()
            if self.toks[self.i] != "import":
                return gofile
            self._parse_gen_decl("import", gofile)

    def parse_file(self) -> GoFile:
        """Parse the tokens as the start of a file, up to their end."""
        gofile = self.parse_imports()
        self.parse_decls(gofile)
        return gofile

    def parse_decls(self, gofile: GoFile) -> None:
        """Parse const, func, type and var declarations into gofile, up to
        the end of the tokens."""
        toks = self.toks
        while True:
            self.skip_semis()
            tok = toks[self.i]
            if not tok:
                return
            if tok == "import":
                raise self._error("imports must appear before other declarations")
            if tok not in _HEADER_END_KEYWORDS:
                raise self._error(f"unexpected token {tok!r} at top level")
            self._parse_decl(tok, gofile)
            self.expect_semi()

    def _parse_decl(self, kw: str, gofile: GoFile) -> None:
        if kw == "func":
            self._parse_func_decl(gofile)
        else:
            self._parse_gen_decl(kw, gofile)

    # -- imports -----------------------------------------------------------

    def _parse_one_import(self, gofile: GoFile) -> None:
        name: str | None = self.toks[self.i]
        if name == "." or _is_ident(name):
            self.i += 1
        else:
            name = None
        tok = self.toks[self.i]
        if tok[:1] not in _STRING_QUOTES:
            raise self._error(f"expected import path string, found {tok!r}")
        spec = ImportSpec(_unquote(tok), name)
        self.i += 1
        gofile.imports.append(spec)
        if (local := spec.binds) is not None:
            self.import_map[local] = spec.path

    # -- import/const/var/type ---------------------------------------------

    def _parse_gen_decl(self, kw: str, gofile: GoFile) -> None:
        self.i += 1
        if self.toks[self.i] == "(":
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
        names = [self.expect_ident()]
        while self.toks[self.i] == ",":
            self.i += 1
            names.append(self.expect_ident())
        declared: TypeExpr | None = None
        if self.toks[self.i] not in ("=", ";", ")", ""):
            declared = self._parse_type(frozenset())
        values: list[tuple[int, int]] = []
        if self.toks[self.i] == "=":
            self.i += 1
            values = self._collect_expr_list(in_block)
        if kw != "const":
            spelled_values = []  # a var's value is not kept
        elif declared is None and not values and prev is not None:
            declared, spelled = prev
            spelled_values = list(spelled)
        else:
            spelled_values = [_spell(self.toks[start:end]) for start, end in values]

        for idx, name in enumerate(names):
            start, end = values[idx] if idx < len(values) else (self.i, self.i)
            if kw == "const":
                spelled = spelled_values[idx] if idx < len(spelled_values) else None
                ctype = declared if declared is not None else _infer_const_type(self.toks[start:end])
                gofile.decls.append(ConstSpec(name=name, type=ctype, value=spelled))
            else:
                vtype = declared if declared is not None else self._infer_var_type(start, end)
                gofile.decls.append(VarSpec(name=name, type=vtype))
        return (declared, spelled_values) if kw == "const" else None

    def _collect_expr_list(self, in_block: bool) -> list[tuple[int, int]]:
        """Skip an expression list up to the end of the spec, returning the
        token index range of each expression between top-level commas. A
        bracket still open at the end of the tokens is an error."""
        ranges: list[tuple[int, int]] = []
        toks = self.toks
        start = i = self.i
        depth = 0
        while True:
            tok = toks[i]
            if not tok:
                if depth:
                    self.i = i
                    raise self._error("unterminated expression")
                break
            if depth == 0:
                if tok == ";" or (tok == ")" and in_block):
                    break
                if tok == ",":
                    ranges.append((start, i))
                    i += 1
                    start = i
                    continue
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
            i += 1
        self.i = i
        ranges.append((start, i))
        return [(start, end) for start, end in ranges if start < end]

    def _infer_var_type(self, start: int, end: int) -> TypeExpr:
        """Light, literal-level type inference for untyped var declarations,
        from the value's tokens start:end. A func literal's signature and a
        composite literal's type are parsed where the value stands, and the
        cursor is put back."""
        if start == end:
            return Basic("untyped")
        toks = self.toks
        first = toks[start]
        if end - start == 1:
            return _literal_type(first) or Basic("untyped")
        second = toks[start + 1]
        saved = self.i, self.depth
        try:
            if first == "&":
                if self.depth >= MAX_TYPE_NESTING:
                    return Basic("untyped")
                self.depth += 1
                inner = self._infer_var_type(start + 1, end)
                return inner if isinstance(inner, Basic) else Pointer(inner)
            if first == "func":
                self.i = start + 1
                params, variadic, results = self._parse_signature_tail(frozenset())
                return Func(params=params, results=results, variadic=variadic)
            if _is_ident(first):
                # Composite literal T{...} or pkg.T{...}.
                if second == "{":
                    return self._resolve_name(first, frozenset())
                if end - start >= 4 and second == "." and _is_ident(toks[start + 2]) and toks[start + 3] == "{":
                    return self._named(self.import_map.get(first, first), toks[start + 2])
            if first in ("[", "map", "chan"):
                self.i = start
                expr = self._parse_type(frozenset())
                if self.toks[self.i] == "{":
                    return expr
        except GoSyntaxError:
            pass
        finally:
            self.i, self.depth = saved
        return Basic("untyped")

    def _parse_type_spec(self, gofile: GoFile) -> None:
        name = self.expect_ident()
        type_params: tuple[TypeParamDef, ...] = ()
        if self.toks[self.i] == "[" and self._looks_like_type_params():
            type_params = self._parse_type_param_group(frozenset())
        alias = False
        if self.toks[self.i] == "=":
            alias = True
            self.i += 1
        tparams = frozenset(tp.name for tp in type_params)
        expr = self._parse_type(tparams)
        gofile.decls.append(TypeSpec(name=name, type=expr, type_params=type_params, alias=alias))

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
        toks = self.toks
        if not _is_ident(toks[self.i + 1]):
            return False
        after = toks[self.i + 2]
        if _is_ident(after) or after in _TYPE_START_KEYWORDS or after in (",", "~", "["):
            return True
        if after != "*" and after != "(":
            return False
        marks = self._scan_list(self.i)
        if len(marks) > 1:
            return True
        operands = [self.i + 3]
        depth = 0
        for k in range(self.i + 2, marks[-1]):
            tok = toks[k]
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
            elif tok == "|" and depth == 0:
                operands.append(k + 1)
        return any(self._starts_type_elem(j) for j in operands)

    def _starts_type_elem(self, j: int) -> bool:
        """Whether the expression at j can only be a type element: an array,
        slice, struct, func, interface, map or chan type, or a ~ term,
        possibly in parentheses."""
        toks = self.toks
        while toks[j] == "(":
            j += 1
        tok = toks[j]
        if tok == "<-":
            return toks[j + 1] == "chan"
        return tok in _TYPE_START_KEYWORDS or tok in ("[", "~")

    # -- functions ----------------------------------------------------------

    def _parse_func_decl(self, gofile: GoFile) -> None:
        self.i += 1
        receiver: str | None = None
        receiver_tparams: list[str] = []
        if self.toks[self.i] == "(":
            receiver, receiver_tparams = self._parse_receiver()
        name = self.expect_ident()
        type_params: tuple[TypeParamDef, ...] = ()
        if self.toks[self.i] == "[":
            type_params = self._parse_type_param_group(frozenset(receiver_tparams))
        tparams = frozenset(receiver_tparams) | {tp.name for tp in type_params}
        params, variadic, results = self._parse_signature_tail(tparams)
        sig = Func(params=params, results=results, variadic=variadic, type_params=type_params)
        if self.toks[self.i] == "{":  # the lexer keeps only the braces of a body
            self.i += 2
        gofile.decls.append(FuncDecl(name=name, type=sig, receiver=receiver))

    def _parse_receiver(self) -> tuple[str, list[str]]:
        """Parse (name *Base[P, Q]), returning the base type name and the
        names of its type parameters."""
        self.expect("(")
        toks = self.toks
        if _is_ident(toks[self.i]) and self.toks[self.i + 1] not in (".", "[", ",", ")"):
            self.i += 1  # receiver variable name
        if toks[self.i] == "*":
            self.i += 1
        base = toks[self.i]
        if not _is_ident(base):
            raise self._error("malformed receiver type")
        self.i += 1
        tparams: list[str] = []
        if toks[self.i] == "[":
            for _ in self._items("["):
                tparams.append(self.expect_ident())
        if toks[self.i] == ",":
            self.i += 1
        self.expect(")")
        return base, tparams

    # -- signatures and parameter lists --------------------------------------

    def _parse_signature_tail(self, tparams: frozenset[str]) -> tuple[tuple[TypeExpr, ...], bool, tuple[TypeExpr, ...]]:
        params, variadic = self._parse_params(tparams)
        results: tuple[TypeExpr, ...] = ()
        tok = self.toks[self.i]
        if tok == "(":
            results, _ = self._parse_params(tparams, results=True)
        elif tok in _TYPE_STARTS or _is_ident(tok):
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
                raise self._error("can only use ... with final parameter in list")
            ident = _is_ident(tok)
            nxt = self.toks[self.i + 1]
            if ident and (nxt == "," or nxt == ")"):
                self.i += 1
                items.append((tok, None))
            else:
                name = ""
                if ident and nxt != "." and not (nxt == "[" and self._after_list(self.i + 1) in (",", ")")):
                    name = tok
                    self.i += 1
                if self.toks[self.i] == "...":
                    if results:
                        raise self._error("cannot use ... in result list")
                    self.i += 1
                    variadic = True
                items.append((name, self._parse_type(tparams)))
        named = any(name and t is not None for name, t in items)
        if named and (items[-1][1] is None or any(not name for name, _ in items)):
            raise self._error("mixed named and unnamed parameters", self.i - 1)

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
        toks = self.toks
        starts = [self.i] + self._scan_list(self.i)[:-1]
        scope = outer | {toks[j + 1] for j in starts if _is_ident(toks[j + 1])}
        defs: list[tuple[str, TypeExpr | None]] = []
        for _ in self._items("["):
            name = self.expect_ident()
            constraint: TypeExpr | None = None
            if toks[self.i] != "," and toks[self.i] != "]":
                terms = self._parse_union(scope)
                constraint = terms[0].type if len(terms) == 1 and not terms[0].tilde else _make_interface([], terms)
            defs.append((name, constraint))

        carry: TypeExpr | None = None
        out: list[TypeParamDef] = []
        for name, constraint in reversed(defs):
            if constraint is not None:
                carry = constraint
            if carry is None:
                raise self._error("type parameter without constraint", self.i - 1)
            out.append(TypeParamDef(name=name, constraint=carry))
        out.reverse()
        return tuple(out)

    def _parse_union(self, tparams: frozenset[str]) -> list[UnionTerm]:
        """Parse ~T | U, the terms of a constraint or an interface embed."""
        terms: list[UnionTerm] = []
        while True:
            tilde = self.toks[self.i] == "~"
            if tilde:
                self.i += 1
            terms.append(UnionTerm(type=self._parse_type(tparams), tilde=tilde))
            if self.toks[self.i] != "|":
                return terms
            self.i += 1

    # -- types ------------------------------------------------------------------

    def _resolve_name(self, name: str, tparams: frozenset[str]) -> TypeExpr:
        if name in tparams:
            t = self.leaves.get(name)
            if t is None:
                t = self.leaves[name] = TypeParamRef(name)
            return t
        return _BASICS.get(name) or self._named(self.package_path, name)

    def _named(self, package: str, name: str) -> Named:
        """The file's one Named for package and name, without type arguments."""
        key = (package, name)
        t = self.leaves.get(key)
        if t is None:
            t = self.leaves[key] = Named(package, name)
        return t

    def _parse_type(self, tparams: frozenset[str]) -> TypeExpr:
        """Parse a type, one level of nesting deeper. After a GoSyntaxError
        the depth is not restored: a caller that goes on restores it."""
        if self.depth >= MAX_TYPE_NESTING:
            raise self._error(f"type nested deeper than {MAX_TYPE_NESTING} levels")
        self.depth += 1
        t = self._parse_type_at_depth(tparams)
        self.depth -= 1
        return t

    def _parse_type_at_depth(self, tparams: frozenset[str]) -> TypeExpr:
        toks = self.toks
        tok = toks[self.i]
        if _is_ident(tok):
            self.i += 1
            name = tok
            package: str | None = None
            if toks[self.i] == "." and _is_ident(self.toks[self.i + 1]):
                self.i += 1
                member = self.expect_ident()
                package = self.import_map.get(name, name)
                name = member
            args: list[TypeExpr] = []
            if toks[self.i] == "[":
                for _ in self._items("["):
                    args.append(self._parse_type(tparams))
            if package is not None:
                return Named(package, name, tuple(args)) if args else self._named(package, name)
            base = self._resolve_name(name, tparams)
            if args and isinstance(base, Named):
                return Named(base.package, base.name, tuple(args))
            return base
        if tok == "*":
            self.i += 1
            return Pointer(self._parse_type(tparams))
        if tok == "[":
            self.i += 1
            if toks[self.i] == "]":
                self.i += 1
                return Slice(self._parse_type(tparams))
            length = self._parse_array_length()
            return Array(length=length, elem=self._parse_type(tparams))
        if tok == "(":
            self.i += 1
            inner = self._parse_type(tparams)
            self.expect(")")
            return inner
        if tok == "func":
            self.i += 1
            params, variadic, results = self._parse_signature_tail(tparams)
            return Func(params=params, results=results, variadic=variadic)
        if tok == "map":
            self.i += 1
            self.expect("[")
            key = self._parse_type(tparams)
            self.expect("]")
            return Map(key=key, value=self._parse_type(tparams))
        if tok == "chan":
            self.i += 1
            direction = "both"
            if toks[self.i] == "<-":
                direction = "send"
                self.i += 1
            return Chan(direction=direction, elem=self._parse_type(tparams))
        if tok == "<-":
            self.i += 1
            if toks[self.i] != "chan":
                raise self._error("expected chan after <-", self.i - 1)
            self.i += 1
            return Chan(direction="recv", elem=self._parse_type(tparams))
        if tok == "struct":
            self.i += 1
            return self._parse_struct_body(tparams)
        if tok == "interface":
            self.i += 1
            return self._parse_interface_body(tparams)
        raise self._error(f"expected type, found {tok!r}")

    def _parse_array_length(self) -> int | str:
        toks = self.toks
        start = self.i
        end = self._scan_list(start - 1)[-1]
        if not toks[end]:
            raise self._error("unterminated array length", end)
        self.i = end + 1
        # Parentheses around the whole length do not change it: [(N)] is [N],
        # and a literal length is a number however it is spelled: [0x10], [(16)].
        while end - start > 2 and toks[start] == "(" and toks[end - 1] == ")" and self._scan_list(start)[-1] == end - 1:
            start += 1
            end -= 1
        if end - start == 1 and _INT_RE.fullmatch(toks[start]) and toks[start][-1] != "i":
            return _int_value(toks[start], self._line(start))
        return _spell(toks[start:end])

    def _parse_struct_body(self, tparams: frozenset[str]) -> Struct:
        fields: list[FieldDef] = []
        toks = self.toks
        for tok in self._elements("{", "struct body", "struct field"):
            start = self.i
            if _is_ident(tok):
                names = [tok]
                self.i += 1
                while toks[self.i] == ",":
                    self.i += 1
                    names.append(self.expect_ident())
                # A lone name before "." or the end of the field, or a tag,
                # even after a "[...]" of type arguments, is an embedded type.
                nxt = toks[self.i]
                after = self._after_list(self.i) if nxt == "[" else nxt
                if len(names) > 1 or not (nxt == "." or after in (";", "}") or after[:1] in _STRING_QUOTES):
                    ftype = self._parse_type(tparams)
                    tag = self._parse_tag()
                    for n in names:
                        fields.append(FieldDef(name=n, type=ftype, tag=tag, anonymous=False, exported=is_exported(n)))
                    continue
                self.i = start
            elif tok != "*":
                raise self._error(f"unexpected token {tok!r} in struct")
            # An embedded field: a type name, possibly behind a "*".
            ftype = self._parse_type(tparams)
            tag = self._parse_tag()
            name = _embedded_name(ftype)
            if name is None:
                k = start
                while toks[k] in ("*", "("):
                    k += 1
                raise self._error(f"embedded field must be a type name, found {toks[k]!r}", start)
            fields.append(FieldDef(name=name, type=ftype, tag=tag, anonymous=True, exported=is_exported(name)))
        return Struct(fields=tuple(fields))

    def _parse_tag(self) -> str | None:
        tok = self.toks[self.i]
        if tok[:1] not in _STRING_QUOTES:
            return None
        tag = _unquote(tok)
        self.i += 1
        return tag

    def _parse_interface_body(self, tparams: frozenset[str]) -> Interface:
        methods: list[MethodSig] = []
        embeds: list[UnionTerm] = []
        for tok in self._elements("{", "interface body", "interface element"):
            if _is_ident(tok) and self.toks[self.i + 1] == "(":
                self.i += 1
                params, variadic, results = self._parse_signature_tail(tparams)
                methods.append(MethodSig(name=tok, sig=Func(params=params, results=results, variadic=variadic)))
            else:
                embeds += self._parse_union(tparams)
        return _make_interface(methods, embeds)


_NO_SPACE_BEFORE = frozenset({".", ",", ")", "]", "}", "{", ";"})
_NO_SPACE_AFTER = frozenset({"(", "[", "{", "."})


def _spell(tokens: list[str]) -> str:
    parts: list[str] = []
    prev = ""
    for tok in tokens:
        if parts and tok not in _NO_SPACE_BEFORE and prev not in _NO_SPACE_AFTER:
            parts.append(" ")
        parts.append(tok)
        prev = tok
    return "".join(parts)


def _int_value(tok: str, line: int) -> int:
    """The value of an integer literal token without an imaginary suffix;
    a leading 0 followed by digits makes it octal, as in Go."""
    digits = tok.replace("_", "")
    if digits[0] != "0" or not digits.isdecimal():
        return int(digits, 0)
    if digits.strip("01234567"):
        raise GoSyntaxError(f"invalid digit in octal literal {tok!r}", line)
    return int(digits, 8)


def _literal_type(tok: str) -> Basic | None:
    """The type of a literal token, or of true or false; None for any other token."""
    first = tok[:1]
    if first in _STRING_QUOTES:
        return Basic("string")
    if first == "'":
        return Basic("rune")
    if tok == "true" or tok == "false":
        return Basic("bool")
    if first.isdecimal() or (first == "." and tok[1:2].isdecimal()):
        if tok[-1] == "i":
            return Basic("complex128")
        return Basic("int") if _INT_RE.fullmatch(tok) else Basic("float64")
    return None


def _infer_const_type(value: list[str]) -> Basic:
    if len(value) == 1:
        lit = _literal_type(value[0])
        if lit is not None:
            return Basic("untyped " + {"float64": "float", "complex128": "complex"}.get(lit.name, lit.name))
    return Basic("untyped")


def _embedded_name(t: TypeExpr) -> str | None:
    """The field name of an embedded type; None if t is no (pointer to a) type name."""
    if isinstance(t, Pointer):
        return _embedded_name(t.base)
    if isinstance(t, (Named, Basic, TypeParamRef)):
        return t.name
    return None


class DeclMemo:
    """Top-level declaration chunks already parsed, so that one met again in
    another file is neither lexed nor parsed again.

    Per scope, (package path, header text), each chunk's key, its whole
    text up to the next candidate cut (see parse_go_file), maps to the specs
    it gave, which are immutable and so are shared by every file that holds
    the chunk. The header holds every import a file may have, so it fixes
    the import map. Entries live in two generations:
    next_generation drops the older one, and a hit in the previous
    generation moves into the current one, so a declaration kept through a
    chain of versions keeps hitting while the memo holds at most two
    generations' entries.
    """

    __slots__ = ("previous", "current")

    def __init__(self) -> None:
        self.previous: dict[tuple[str, str], dict[str, tuple]] = {}
        self.current: dict[tuple[str, str], dict[str, tuple]] = {}

    def next_generation(self) -> None:
        self.previous, self.current = self.current, {}

    def tables(self, scope: tuple[str, str]) -> tuple[dict[str, tuple], dict[str, tuple]]:
        """The current generation's table for scope, made if missing, and the
        previous generation's."""
        return self.current.setdefault(scope, {}), self.previous.get(scope, {})


def parse_go_file(text: str, package_path: str = "", *, memo: DeclMemo | None = None) -> GoFile:
    """Parse one source file at declaration level, reusing and adding to the
    parses in memo if one is given; the result is the same either way.

    The whole text is checked for lexical errors first only where it is not
    all ASCII or holds a NUL; elsewhere the _lex calls find them. The header
    (see tokenize) is lexed first, then the chunks after it in turn, and
    then the header and the chunks are parsed. A chunk's key is its text up
    to the next candidate cut. A chunk the memo holds for the package path
    and the header text adds the specs it gave before, and is not scanned:
    it was lexed clean when it was stored. Each other chunk is lexed by one
    _lex call and parsed, and its specs are stored only if _lex stopped
    clean at that candidate, or clean at the end of the text. Lexing the
    same text from the same clean state stops clean at the same place, so a
    key found ends where its chunk would. Where _lex raises, the whole text
    is checked, so that a lexical error anywhere outranks a bracket error.
    Without a memo the tables are empty, so the walk is the same. A chunk's
    lines count from its first; the lines before it are counted only if it
    raises.
    """
    text = text.removeprefix("\ufeff")
    if not text.isascii() or "\x00" in text:
        _check_lexable(text)
    try:
        header = _lex(text, 0, _next_cut(text, 0))[0]
    except GoSyntaxError:
        _check_lexable(text)
        raise
    pos = header.end
    table, previous = memo.tables((package_path, text[:pos])) if memo else ({}, {})
    # Every chunk is looked up, and lexed if the memo lacks it, before any is
    # parsed: parsing each chunk right after lexing it made a cold parse
    # slower, by 19 % in the median of 10 alternating rounds and in every
    # round, on the old side of the seed-7 check-decls pairs (37 files,
    # 2.1 MB), with the collector paused as extract_surface pauses it (2 vCPU
    # x86_64, Python 3.11). A bracket error ends the walk and is raised only
    # if the chunks before it parse, so errors come in source order.
    chunks = []  # (start, specs found, tokens lexed, key if it holds)
    error = None
    while pos < len(text):
        cut = _next_cut(text, pos)
        key = text[pos:cut]
        hit = table.get(key)
        if hit is None and key in previous:
            hit = table[key] = previous.pop(key)  # moved into this generation
        if hit is not None:
            chunks.append((pos, hit, None, None))
            pos = cut
            continue
        try:
            tokens, holds = _lex(text, pos, cut)
        except GoSyntaxError as exc:
            # _check_lexable raises every lexical error that _lex finds, at
            # its line in the whole text, so only a bracket error gets past
            # it, and its line counts from the chunk's first.
            _check_lexable(text)
            error = exc
            break
        chunks.append((pos, None, tokens, key if holds else None))
        pos = tokens.end
    parser = _Parser(header, package_path)
    gofile = parser.parse_file()
    decls = gofile.decls
    for start, hit, tokens, key in chunks:
        if hit is not None:
            decls += hit
            continue
        n = len(decls)
        try:
            parser.read(tokens)
            parser.parse_decls(gofile)
        except GoSyntaxError as exc:
            error, pos = exc, start
            break
        if key is not None:
            table[key] = tuple(decls[n:])
    if error is not None:
        raise GoSyntaxError(error.message, error.line + text.count("\n", 0, pos)) from None
    return gofile


def parse_imports(text: str) -> list[ImportSpec]:
    """The imports of one source file. The whole file is checked for lexical
    errors, so one anywhere in it is a GoSyntaxError; only the header is
    lexed, and a bracket in it that does not match is a GoSyntaxError too."""
    return _Parser(tokenize(text), "").parse_imports().imports
