"""Client matching as it was before one list of references fed every match,
and selector scanning as it was before selectors were found in the source
text itself: `collect_breaking_nodes`, `_match_file`, `blank_literals` (with
`_BLANK_RE` and `_blank`), `_selectors` and `_bare_identifiers` kept
verbatim, as the reference the matcher and the scan must agree with, usages
and their order included."""

from __future__ import annotations

import re

from semverdiff.diff import ChangeRecord
from semverdiff.impact import BreakingNode, ClientUsage, ImportBinding
from semverdiff.lexer import _IDENT, _LITERAL, _NUMBER, GO_KEYWORDS
from semverdiff.surface import ApiSurface

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
    return _BLANK_RE.sub(_blank, text.removeprefix("\ufeff"))


# Matching entry point, kept as a module global so the short-circuit is
# observable: skipped files must never reach it. It blanks comments and
# literals; selectors and identifiers are then found in the text it returns.
tokenize = blank_literals

# In blanked text every "." is a "." token, and a word never starts with a
# digit, since numbers are blanked. A selector is base.member where only
# spaces fall between base and ".", because a newline there would insert a
# ";"; a newline may follow the ".".
_DOT_MEMBER_RE = re.compile(rf"\.(?=[ \t\r\n]*({_IDENT}))")
# Matched in the reversed text just before a ".": the base, spelled backwards.
_BASE_BEFORE_RE = re.compile(r"[ \t\r]*(\w+)")
# An identifier, with the "." before it when it is a member.
_IDENT_RE = re.compile(rf"(\.[ \t\r\n]*)?(?<!\w)({_IDENT})")


def _selectors(blanked: str) -> list[tuple[str, str, int]]:
    """(base, member, line of member) for each selector in text blanked by tokenize."""
    backwards = blanked[::-1]
    end = len(blanked)
    selectors: list[tuple[str, str, int]] = []
    line = 1
    pos = 0
    for m in _DOT_MEMBER_RE.finditer(blanked):
        before = _BASE_BEFORE_RE.match(backwards, end - m.start())
        if before is None:
            continue
        base = before.group(1)[::-1]
        member = m.group(1)
        if base in GO_KEYWORDS or member in GO_KEYWORDS:
            continue
        at = m.start(1)
        line += blanked.count("\n", pos, at)
        pos = at
        selectors.append((base, member, line))
    return selectors


def _bare_identifiers(blanked: str) -> list[tuple[str, int]]:
    """(name, line) for each identifier in text blanked by tokenize that is not a member."""
    bares: list[tuple[str, int]] = []
    line = 1
    pos = 0
    for m in _IDENT_RE.finditer(blanked):
        dot, name = m.groups()
        if dot is not None or name in GO_KEYWORDS:
            continue
        at = m.start(2)
        line += blanked.count("\n", pos, at)
        pos = at
        bares.append((name, line))
    return bares


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
            if old_surface is None:
                continue
            pkg = old_surface.packages.get(record.package)
            if pkg is None:
                continue
            for key in sorted(pkg.objects):
                nodes.setdefault(
                    (record.package, key),
                    BreakingNode(record.package, key, record.category, record.condition, record),
                )
            continue
        if not record.node:
            continue
        nodes.setdefault(
            (record.package, record.node),
            BreakingNode(record.package, record.node, record.category, record.condition, record),
        )
    return list(nodes.values())


def _match_file(
    rel_file: str,
    text: str,
    binding: ImportBinding,
    nodes_by_package: dict[str, dict[str, BreakingNode]],
    client_module: str,
    client_version: str | None,
) -> list[ClientUsage]:
    blanked = tokenize(text)
    selectors = _selectors(blanked)

    alias_packages = {
        alias: pkg for alias, pkg in binding.bindings.items() if pkg in nodes_by_package
    }
    dot_packages = sorted(binding.dot_imports & set(nodes_by_package))

    # Package-qualified type mentions, used as witnesses for method nodes.
    qualified_uses: set[tuple[str, str]] = set()
    for base, member, _line in selectors:
        pkg = alias_packages.get(base)
        if pkg is not None:
            qualified_uses.add((pkg, member))
    bares = _bare_identifiers(blanked) if dot_packages else []
    for pkg in dot_packages:
        for name, _line in bares:
            qualified_uses.add((pkg, name))

    usages: list[ClientUsage] = []

    def add(node: BreakingNode, line: int, qualified_name: str) -> None:
        usages.append(
            ClientUsage(
                client_module=client_module,
                client_version=client_version,
                file=rel_file,
                line=line,
                qualified_name=qualified_name,
                node=node,
            )
        )

    for base, member, line in selectors:
        pkg = alias_packages.get(base)
        if pkg is None:
            continue
        node = nodes_by_package[pkg].get(member)
        if node is not None:
            add(node, line, f"{base}.{member}")
    for pkg in dot_packages:
        pkg_nodes = nodes_by_package[pkg]
        for name, line in bares:
            node = pkg_nodes.get(name)
            if node is not None:
                add(node, line, name)

    # Method nodes ("T.M"): a selector x.M counts when the file also mentions
    # the receiver type through the same package.
    method_nodes: list[tuple[str, BreakingNode]] = []
    for pkg, keyed in nodes_by_package.items():
        for key, node in keyed.items():
            if "." in key:
                method_nodes.append((pkg, node))
    for pkg, node in sorted(method_nodes, key=lambda x: (x[0], x[1].key)):
        recv, method = node.key.split(".", 1)
        if (pkg, recv) not in qualified_uses:
            continue
        alias = next((a for a in sorted(alias_packages) if alias_packages[a] == pkg), None)
        for base, member, line in selectors:
            if member == method:
                label = f"{alias}.{node.key}" if alias is not None else node.key
                add(node, line, label)

    usages.sort(key=lambda u: (u.file, u.line, u.qualified_name, u.node.key))
    return usages
