"""Client-side impact analysis for a library's breaking changes.

A client is scanned as a ClientCheckout, named by its module and version,
which is walked (by surface.walk_go_files, the walker surface extraction
uses too), read and import-bound on its first scan; every breaking upgrade
it is scanned for is matched against that read. analyze_impact makes each
client given by its root into one, and drops it after its scan.
Files whose imports are disjoint from the breaking packages are skipped
without being scanned. In each surviving file, selectors (alias.Name,
x.Method) are found once, on the file's first match, in the source text
itself, outside its comments, strings, runes and numbers, with the
semicolon-insertion rule kept; bare identifiers are collected only when a
breaking package is dot-imported, and only those with the name of a node of
such a package or of its receiver. Through the file's import bindings, each
match becomes one reference (package, name, line, label), and one lookup per
reference finds its breaking node. No tokens are built, and no copy of the text is made:
find_selectors and bare_identifiers match the lexer's sub-patterns; one
resumed match skips the code and literals up to each "." find_selectors
takes, _in_code confirms that each candidate of the bare scan lies outside
every literal, and one rule, _identifier, finds the identifier that ends a
word for both scans: the lexer lexes only the few words that may hold a
number.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Collection, Iterator

from .diff import ChangeRecord
from .lexer import (
    _COMMENT_BLOCK,
    _COMMENT_LINE,
    _IDENT,
    _IDENT_RE,
    _LITERAL,
    _LITERAL_RE,
    _RUNE,
    _STRING,
    GO_KEYWORDS,
    GoSyntaxError,
    _Lexer,
)
from .manifest import MANIFEST_NAME, MalformedManifest, parse_manifest
from .parser import parse_imports
from .surface import ApiSurface, ParseFailure, read_go_file, walk_go_files

logger = logging.getLogger(__name__)

@dataclass(frozen=True, slots=True)
class BreakingNode:
    package: str
    key: str
    category: str
    condition: str
    record: ChangeRecord


@dataclass
class ImportBinding:
    """A file's imports by what they bring into its scope: a name bound to a
    package path, or a dot-imported package's names. A blank import brings
    nothing."""

    bindings: dict[str, str] = field(default_factory=dict)
    dot_imports: set[str] = field(default_factory=set)

    @property
    def package_paths(self) -> set[str]:
        """p(c) for the file: blank imports expose no identifiers."""
        return set(self.bindings.values()) | self.dot_imports


@dataclass(frozen=True, slots=True)
class ClientUsage:
    client_module: str
    client_version: str | None
    file: str
    line: int
    qualified_name: str
    node: BreakingNode

    @property
    def client_id(self) -> tuple[str, str | None]:
        return (self.client_module, self.client_version)


@dataclass
class ScanReport:
    """A client's .go files by outcome: scanned, skipped by their imports, or
    failed to read, decode or lex."""

    scanned: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)


@dataclass
class ImpactResult:
    usages: list[ClientUsage]
    nodes: list[BreakingNode]
    reports: list[ScanReport] = field(default_factory=list)


def collect_breaking_nodes(
    records: list[ChangeRecord], old_surface: ApiSurface | None = None
) -> list[BreakingNode]:
    """One node per breaking record, deduplicated by (package, key).

    A Package/Remove record expands to every exported object key the package
    had in the old surface.
    """
    nodes: dict[tuple[str, str], BreakingNode] = {}
    for record in sorted(records, key=lambda r: (r.package, r.node, r.category, r.condition)):
        if not record.breaking:
            continue
        if record.category == "Package" and record.condition == "Remove":
            pkg = old_surface.packages.get(record.package) if old_surface is not None else None
            keys = sorted(pkg.objects) if pkg is not None else ()
        else:
            keys = (record.node,) if record.node else ()
        for key in keys:
            nodes.setdefault(
                (record.package, key),
                BreakingNode(record.package, key, record.category, record.condition, record),
            )
    return list(nodes.values())


def bind_imports(source_file: str, file: str = "") -> ImportBinding:
    """Extract the import bindings of one source file.

    Each import binds the name ImportSpec.binds gives, as the parser's
    import map does; "." imports land in dot_imports, and "_" imports are
    dropped. The whole file is checked for lexical errors, so one anywhere
    in it is a ParseFailure; only the import header is lexed.
    """
    try:
        imports = parse_imports(source_file)
    except GoSyntaxError as exc:
        raise ParseFailure(f"{file or '<source>'}: {exc}") from exc

    binding = ImportBinding()
    for spec in imports:
        if spec.name == ".":
            binding.dot_imports.add(spec.path)
        elif (name := spec.binds) is not None:
            binding.bindings[name] = spec.path
    return binding


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
# Code and literals up to the next "." followed by blanks and a name, which
# is captured, or by a comment, which may hide one. A quote or "/" that starts
# no literal, which only text the lexer rejects holds, is code.
_NEXT_DOT_RE = re.compile(
    rf"(?:[^\"'`/.]++|{_LITERAL}|\.(?![ \t\r\n]*+(?:[^\W\d]|/[/*]))|[\"'`/])*+"
    rf"\.(?=[ \t\r\n]*+(?:({_IDENT})|/[/*]))"
)
# Blanks and comments, then the name they may hide.
_NAME_AFTER_RE = re.compile(rf"(?:[ \t\r\n]++|{_COMMENT_LINE}|{_COMMENT_BLOCK})*+({_IDENT})?")
# What may stand between a selector's base and its ".": blanks and block
# comments, none of them a newline, which would insert a ";".
_SPACE_RE = re.compile(r"(?:[ \t\r]++|/\*[^\n]*?\*/)*+")


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

        The candidates are the names in names at the end of a word; the
        identifier that ends each word (see _identifier) counts if it is in
        names, so 1e5x gives x, whichever name matched. The lexer decides
        only for words a number may start, and for a "." before a name that
        may be part of a number or of "...".
        """
        if not names:
            return []
        text, members, numbers = self.text, self.members, self.number_dots
        lexer = _Lexer(text)
        bares: list[tuple[str, int]] = []
        line, counted = 1, 0
        for m in _in_code(_candidates_re(frozenset(names)), text):
            word, end = _word_start(text, m.start()), m.end()
            # The lexer is asked in increasing offsets: the "." before the word, then its end.
            dot = members.get(word)
            if dot and (text[dot - 1] == "." or dot in numbers):
                dot_start, _end, tok = lexer.token_at(dot)
                if dot_start != dot or tok != ".":
                    dot = None
            found = _identifier(text, lexer, numbers, word, end)
            if found is None:
                continue
            start, name = found
            if dot is not None and start == word or name not in names or name in GO_KEYWORDS:
                continue
            line += text.count("\n", counted, start)
            counted = start
            bares.append((name, line))
        return bares


@lru_cache(maxsize=32)
def _candidates_re(names: frozenset[str]) -> re.Pattern:
    """Each name in names at the end of a word, the longest first."""
    alternatives = "|".join(sorted(map(re.escape, names), key=lambda name: (-len(name), name)))
    return re.compile(rf"(?:{alternatives})(?!\w)")


def _identifier(text: str, lexer: _Lexer, numbers: set[int], word: int, end: int) -> tuple[int, str] | None:
    """(start, name) of the identifier token that ends the word text[word:end],
    or None where a number ends it.

    An identifier takes every word character after its first, so it ends its
    word, and a word holds at most one. The word is that one token unless it
    starts with a digit or follows a "." of numbers, where a number may hold
    its start (1x, 1.e5x); only there the lexer decides.
    """
    if not (text[word].isdecimal() or word - 1 in numbers):
        return word, text[word:end]
    start, tok_end, name = lexer.token_at(end - 1)
    if tok_end != end or not _IDENT_RE.match(name):
        return None
    return start, name


def find_selectors(text: str) -> Selectors:
    """The selectors (base.member) of Go source the lexer accepts, found in
    the text itself, with the semicolon-insertion rule kept.

    A candidate is each "." outside every literal that is followed by
    blanks or comments and a name: one match of _NEXT_DOT_RE, resumed past
    the last candidate, skips the code and literals up to the next one. Its
    base is the identifier (see _identifier) that ends the word just before
    it, past blanks and block comments without a newline; only where a
    comment stands there is the code since the last candidate parsed again
    to find the word.
    """
    selectors = Selectors()
    selectors.text = text
    members = selectors.members = {}
    numbers = selectors.number_dots = set()
    lexer = _Lexer(text)
    line, counted = 1, 0
    last = 0  # the last candidate
    next_dot = _NEXT_DOT_RE.match
    pos = 0
    while m := next_dot(text, pos):
        pos = m.end()
        dot = pos - 1
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
        found = _identifier(text, lexer, numbers, start, end)
        if found is None:
            if end == dot:
                numbers.add(dot)
            continue
        base = found[1]
        if base in GO_KEYWORDS or member in GO_KEYWORDS:
            continue
        line += text.count("\n", counted, at)
        counted = at
        selectors.append((base, member, line))
    return selectors


def _word_start(text: str, pos: int) -> int:
    """The start of the run of word characters that ends at pos."""
    while pos and (text[pos - 1].isalnum() or text[pos - 1] == "_"):
        pos -= 1
    return pos


def _in_code(pattern: re.Pattern, text: str) -> Iterator[re.Match]:
    """The matches of pattern in text that start outside every literal.

    One match of _CODE_RE, resumed where the last one stopped, confirms each
    match; where a literal holds one, the search resumes past the literal.
    """
    code = _CODE_RE.match
    pos = 0
    while pos < len(text):
        for m in pattern.finditer(text, pos):
            start = m.start()
            stop = code(text, pos, start).end()
            if stop < start:  # a literal holds the match
                literal = _LITERAL_RE.match(text, stop)
                pos = literal.end() if literal else stop + 1  # none starts there only in text the lexer rejects
                break
            pos = start
            yield m
        else:
            return


# Matching entry point, kept as a module global so the short-circuit is
# observable: skipped files must never reach it. It finds the selectors in
# the text, and then, under a dot import, the bare identifiers.
tokenize = find_selectors


@dataclass(slots=True)
class ClientFile:
    """One .go file of a client checkout, read and bound once: its text and
    import binding, or no binding where it failed to read, decode or lex.
    Its selectors are found on its first match and kept for the next."""

    rel_file: str
    text: str = ""
    binding: ImportBinding | None = None
    selectors: Selectors | None = None


@dataclass
class ClientCheckout:
    """A client checkout, named by its module and version. Its .go files, in
    walk order (what go build leaves out is left out; _test.go files are
    read), are read and bound on its first scan and shared by every later
    one, so the breaking upgrades that pin a client are all matched against
    one read of it. A file that fails is logged and kept without a binding."""

    root: Path
    module: str = ""
    version: str | None = None

    @cached_property
    def files(self) -> list[ClientFile]:
        files = []
        for _rel_dir, rel_file, path in walk_go_files(self.root):
            try:
                text = read_go_file(path)
                files.append(ClientFile(rel_file, text, bind_imports(text, rel_file)))
            except (OSError, UnicodeDecodeError, ParseFailure) as exc:
                # Named as os.walk's Path(dirpath) / name named it, "./" dropped.
                logger.warning("skipping client file %s: %s", Path(path), exc)
                files.append(ClientFile(rel_file))
        return files


def _match_file(
    file: ClientFile,
    nodes_by_package: dict[str, dict[str, BreakingNode]],
    client_module: str,
    client_version: str | None,
) -> list[ClientUsage]:
    if file.selectors is None:
        file.selectors = tokenize(file.text)
    selectors, binding = file.selectors, file.binding
    alias_packages = {alias: pkg for alias, pkg in binding.bindings.items() if pkg in nodes_by_package}
    dot_packages = sorted(binding.dot_imports & nodes_by_package.keys())

    # (package, name, line, label) for each name the file takes from a
    # breaking package: through an alias, or bare under a dot import.
    refs = [
        (alias_packages[base], member, line, f"{base}.{member}")
        for base, member, line in selectors
        if base in alias_packages
    ]
    if dot_packages:
        # Only a name a node of these packages has, or the receiver of one.
        names = {key.partition(".")[0] for pkg in dot_packages for key in nodes_by_package[pkg]}
        refs += [(pkg, name, line, name) for name, line in selectors.bare_identifiers(names) for pkg in dot_packages]

    # A method node "T.M" counts at each selector x.M when the file names T
    # from the same package; it is labelled with the package's smallest alias.
    named = {(pkg, name) for pkg, name, _line, _label in refs}
    for pkg in {pkg for pkg, _name in named}:
        alias = min((a for a, p in alias_packages.items() if p == pkg), default=None)
        for key in nodes_by_package[pkg]:
            recv, dot, method = key.partition(".")
            if dot and (pkg, recv) in named:
                label = f"{alias}.{key}" if alias else key
                refs += [(pkg, key, line, label) for _base, member, line in selectors if member == method]

    usages = []
    for pkg, name, line, label in refs:
        node = nodes_by_package[pkg].get(name)
        if node is not None:
            usages.append(ClientUsage(client_module, client_version, file.rel_file, line, label, node))
    usages.sort(key=lambda u: (u.line, u.qualified_name, u.node.key, u.node.package))
    return usages


def scan_client(
    client: ClientCheckout, nodes: list[BreakingNode], report: ScanReport | None = None
) -> list[ClientUsage]:
    """Find usages of breaking nodes in one client checkout, each named by
    the checkout's module and version.

    The checkout is read on its first scan and shared by every later one,
    so a client scanned for several upgrades is walked, read and bound once.
    Stage 1 skips every file whose imported package paths are disjoint from
    the breaking packages; only surviving files are scanned and matched, and
    each file's selectors are found once, on its first match.
    """
    nodes_by_package: dict[str, dict[str, BreakingNode]] = {}
    for node in nodes:
        nodes_by_package.setdefault(node.package, {})[node.key] = node

    if report is None:
        report = ScanReport()
    usages: list[ClientUsage] = []
    for file in client.files:
        if file.binding is None:
            report.failed.append(file.rel_file)
        elif file.binding.package_paths.isdisjoint(nodes_by_package):
            report.skipped.append(file.rel_file)
        else:
            report.scanned.append(file.rel_file)
            usages.extend(_match_file(file, nodes_by_package, client.module, client.version))
    return usages


def _client_identity(root: Path) -> str:
    """The module path of the client's go.mod, or else the last element of
    the root's absolute path, so "." names a directory; no symlink is resolved."""
    manifest_path = root / MANIFEST_NAME
    if manifest_path.is_file():
        try:
            return parse_manifest(manifest_path.read_text(encoding="utf-8")).module_path
        except (OSError, UnicodeDecodeError, MalformedManifest):
            pass
    return os.path.basename(os.path.abspath(root))


def analyze_impact(
    library_records: list[ChangeRecord],
    clients: list[str | Path | ClientCheckout],
    old_surface: ApiSurface | None = None,
) -> ImpactResult:
    """Run the client scan for every client and concatenate the results. A
    client given by its root is scanned as a ClientCheckout named by
    _client_identity, with no version, which is dropped after its scan."""
    nodes = collect_breaking_nodes(library_records, old_surface)
    result = ImpactResult(usages=[], nodes=nodes)
    if not nodes:
        return result
    for client in clients:
        if not isinstance(client, ClientCheckout):
            root = Path(client)
            client = ClientCheckout(root, _client_identity(root))
        report = ScanReport()
        result.usages.extend(scan_client(client, nodes, report))
        result.reports.append(report)
    return result


def usage_to_dict(usage: ClientUsage) -> dict:
    client = usage.client_module
    if usage.client_version:
        client = f"{client}@{usage.client_version}"
    return {
        "client": client,
        "file": usage.file,
        "line": usage.line,
        "name": usage.qualified_name,
        "package": usage.node.package,
        "condition": usage.node.condition,
    }
