"""Lexer for Go source files: the job of go/scanner.

The lexer understands full Go lexing (strings, runes, comments, automatic
semicolon insertion). A token is its text, which implies its kind; the last
token, the end of the text lexed, is "". The lexer's scans stop at the first
ASCII character that go/scanner rejects outside a literal, and at a literal
that never ends or is malformed, and raise that lexical error at its line.
As in go/scanner, a "/*", string, raw string or rune that never ends is an
error at its line, with go/scanner's message. A number takes only ASCII
digits and an identifier only letters, "_" and decimal digits, and a NUL is
illegal even inside a literal; the scans take every non-ASCII character and
every character inside a literal, so only _check_lexable, which checks a
text whole, finds these. A text that is not all ASCII or holds a NUL must
pass it before it is scanned. tokenize checks the whole file, then lexes
its header (see tokenize). The lexer lexes the text up to each brace outside
a literal with one findall call, and one pass over those strings inserts
semicolons, drops comments and tracks brackets, so that the body of each
top-level function is skipped to its closing brace without building tokens.
A closing bracket that does not match outside function bodies is a syntax
error, as in Go. Lines are kept only for error messages. _Lexer lexes only
around an offset, for scans that need few tokens.

A function body is skipped with one regex match over its brace groups nested
up to _SKIP_NESTING deep; a loop counts only the braces past that depth and
the body's closing brace.
"""

from __future__ import annotations

import re


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


# Sub-patterns the token, body and scan regexes share: inside the first
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

# The text the lexer accepts up to the first non-ASCII character outside a
# literal: the same alternatives, with braces in the run class. A match ends
# where the lexer would fail: a "/*" that never ends is no "/", as in
# go/scanner. Python's \w and \d, which the patterns above use, take more
# than Go does: Go's numbers take only ASCII digits, and its identifiers only
# letters, "_" and, after the first character, decimal digits. So a match
# also ends at each non-ASCII character, and where that is a letter or digit,
# the token around it is checked (see _foreign_character). Its word class is
# spelled out, as in _BODY_RUN, which sre tests faster than \w.
_ASCII_LEXABLE_RE = re.compile(rf"(?:[0-9A-Za-z_{_RUN_CHARS}{{}}]++|{_LITERAL}|/(?!\*))*+")
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

_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_OPENING = frozenset(_CLOSERS)
_CLOSING = frozenset(_CLOSERS.values())
# Keywords that start a top-level declaration other than a function.
_DECL_KEYWORDS = frozenset({"const", "import", "package", "type", "var"})
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
    character, with go/scanner's message.
    """
    size = len(text)
    illegal = min(k for k in (text.find("\x00"), text.find("\ufeff"), size) if k >= 0)
    end = _foreign_character(text)
    if end < illegal:
        raise _lexical_error(text, end)
    if illegal < size:
        what = "character NUL" if text[illegal] == "\x00" else "byte order mark"
        raise GoSyntaxError(f"illegal {what}", text.count("\n", 0, illegal) + 1)


def _lexical_error(text: str, end: int) -> GoSyntaxError:
    """The lexer's GoSyntaxError at end, where no token starts, at its line
    in the whole text.

    A string or rune that ends on its line is wrong in an escape or, for a
    rune, in its number of characters; the first escape Go does not define
    is the error, as _ESCAPE_RE splits the escapes; a \\u or \\U escape with
    all its digits is wrong only in its code point.
    """
    char = text[end]
    literal = _DELIMITED_RE[char].match(text, end) if char in _DELIMITED_RE else None
    if literal is None:
        message = _UNTERMINATED.get(char) or f"unexpected character {char!r}"
    else:
        body = literal.group()[1:-1]
        valid = _VALID_ESCAPE_RE[char].fullmatch
        escape = next((escape for escape in _ESCAPE_RE.findall(body) if not valid(escape)), None)
        if escape is None:
            message = "more than one character in rune literal" if body else "empty rune literal or unescaped ' in rune literal"
        elif escape[1] in "uU" and len(escape) > 2:
            message = f"escape sequence {escape!r} is an invalid Unicode code point"
        else:
            message = f"unknown escape sequence {escape!r}"
    return GoSyntaxError(message, text.count("\n", 0, end) + 1)


def _foreign_character(text: str) -> int:
    """The offset of the first character, outside literals, where the lexer
    fails, or the end of the text if there is none.

    The scan stops at each character outside literals that _ASCII_LEXABLE_RE
    does not take. A stop at a letter or digit, which is not ASCII, is lexed
    with the tokens around it, and is an error only where Go takes it in no
    token; any other stop is where the lexer fails.
    """
    match, lexer, size = _ASCII_LEXABLE_RE.match, _Lexer(text), len(text)
    pos = 0
    while (stop := match(text, pos).end()) < size and text[stop].isalnum():
        start, pos, tok = lexer.token_at(stop)
        if (bad := _foreign_offset(tok)) >= 0:
            return start + bad
    return stop


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


def _is_ident(tok: str) -> bool:
    """Whether tok, a token of the lexer, is an identifier and no keyword.

    No operator, number or literal passes isidentifier, so it is exact for
    ASCII tokens; but the lexer's identifiers may also hold characters, such
    as "²", that Python's may not.
    """
    return (tok.isidentifier() or not tok.isascii() and _IDENT_RE.fullmatch(tok) is not None) and tok not in GO_KEYWORDS


_SIMPLE_ESCAPES = dict(zip('abfnrtv\\"', b'\a\b\f\n\r\t\v\\"'))


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


def _int_value(tok: str, line: int) -> int:
    """The value of an integer literal token without an imaginary suffix;
    a leading 0 followed by digits makes it octal, as in Go."""
    digits = tok.replace("_", "")
    if digits[0] != "0" or not digits.isdecimal():
        return int(digits, 0)
    if digits.strip("01234567"):
        raise GoSyntaxError(f"invalid digit in octal literal {tok!r}", line)
    return int(digits, 8)
