"""Module manifest (go.mod) parsing and dependency-edge extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

from .versions import InvalidVersion, SemanticVersion, parse_version

MANIFEST_NAME = "go.mod"

# Directives with block forms. replace/exclude/retract are kept opaque.
_BLOCK_DIRECTIVES = {"require", "replace", "exclude", "retract"}


class MalformedManifest(ValueError):
    """The manifest cannot be parsed; the module version is invalid."""


@dataclass(frozen=True, slots=True)
class Requirement:
    path: str
    version: str
    indirect: bool = False


@dataclass
class ModuleManifest:
    module_path: str
    language_version: str | None = None
    requires: list[Requirement] = field(default_factory=list)
    opaque_directives: list[str] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    source_path: str
    source_version: SemanticVersion
    target_path: str
    target_version_raw: str
    target_version: SemanticVersion | None


def _unquote(token: str) -> str:
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return token[1:-1]
    return token


def _split_comment(line: str) -> tuple[str, str]:
    """Split a manifest line into code and comment text, quote-aware."""
    in_string = False
    i = 0
    while i < len(line) - 1:
        ch = line[i]
        if ch == '"':
            in_string = not in_string
        elif not in_string and ch == "/" and line[i + 1] == "/":
            return line[:i], line[i + 2 :]
        i += 1
    return line, ""


def _parse_requirement(code: str, comment: str) -> Requirement:
    fields = code.split()
    if len(fields) != 2:
        raise MalformedManifest(f"bad require entry: {code.strip()!r}")
    indirect = comment.strip() == "indirect"
    return Requirement(path=_unquote(fields[0]), version=fields[1], indirect=indirect)


def parse_manifest(text: str) -> ModuleManifest:
    """Parse a go.mod document.

    Handles single-line and block directives, line comments, and the
    "// indirect" marker. replace/exclude/retract are preserved opaquely and
    contribute no requirements.
    """
    module_path: str | None = None
    language_version: str | None = None
    requires: list[Requirement] = []
    opaque: list[str] = []
    block: str | None = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        code, comment = _split_comment(rawline)
        stripped = code.strip()
        if not stripped:
            continue

        if block is not None:
            if stripped == ")":
                block = None
            elif block == "require":
                requires.append(_parse_requirement(stripped, comment))
            else:
                opaque.append(f"{block} {stripped}")
            continue

        fields = stripped.split(None, 1)
        directive, rest = fields[0], fields[1] if len(fields) > 1 else ""
        if directive == "module":
            if not rest:
                raise MalformedManifest(f"line {lineno}: module directive without a path")
            module_path = _unquote(rest.strip())
        elif directive == "go":
            language_version = rest.strip() or None
        elif directive in _BLOCK_DIRECTIVES and rest.strip() == "(":
            block = directive
        elif directive == "require":
            requires.append(_parse_requirement(rest, comment))
        else:
            opaque.append(stripped)

    if block is not None:
        raise MalformedManifest(f"unterminated {block} block")
    if not module_path:
        raise MalformedManifest("missing module directive")

    # Later entries win on duplicate paths so the merge keeps one requirement
    # per dependency.
    merged: dict[str, Requirement] = {}
    for req in requires:
        if req.path == module_path:
            continue
        merged[req.path] = req

    return ModuleManifest(
        module_path=module_path,
        language_version=language_version,
        requires=list(merged.values()),
        opaque_directives=opaque,
    )


def extract_edges(manifest: ModuleManifest, version: SemanticVersion) -> list[DependencyEdge]:
    """One edge per direct requirement; indirect requirements yield none.

    Requirement versions that fail to parse keep the edge with an
    unparsed-version marker (target_version None) so the graph stays
    connected while the target is excluded from upgrade analysis.
    """
    edges = []
    for req in manifest.requires:
        if req.indirect:
            continue
        try:
            target = parse_version(req.version)
        except InvalidVersion:
            target = None
        edges.append(
            DependencyEdge(
                source_path=manifest.module_path,
                source_version=version,
                target_path=req.path,
                target_version_raw=req.version,
                target_version=target,
            )
        )
    return edges
