"""Client-side impact analysis for a library's breaking changes.

Files whose imports are disjoint from the breaking packages are skipped
without being scanned. In each surviving file, selectors (alias.Name,
x.Method) are found in the source text itself, outside its comments,
strings, runes and numbers, with the semicolon-insertion rule kept; bare
identifiers are collected only when a breaking package is dot-imported, and
only those with the name of a node of such a package or of its receiver.
Through the file's import bindings, each match becomes one reference
(package, name, line, label), and one lookup per reference finds its
breaking node. No tokens are built, and no copy of the text is made.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import parser as _goparser
from .diff import ChangeRecord
from .manifest import MANIFEST_NAME, MalformedManifest, parse_manifest
from .parser import GoSyntaxError
from .surface import ApiSurface, ParseFailure, go_build_ignores

logger = logging.getLogger(__name__)

# Matching entry point, kept as a module global so the short-circuit is
# observable: skipped files must never reach it. It finds the selectors in
# the text, and then, under a dot import, the bare identifiers.
tokenize = _goparser.find_selectors


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
        imports = _goparser.parse_imports(source_file)
    except GoSyntaxError as exc:
        raise ParseFailure(f"{file or '<source>'}: {exc}") from exc

    binding = ImportBinding()
    for spec in imports:
        if spec.name == ".":
            binding.dot_imports.add(spec.path)
        elif (name := spec.binds) is not None:
            binding.bindings[name] = spec.path
    return binding


def _match_file(
    rel_file: str,
    text: str,
    binding: ImportBinding,
    nodes_by_package: dict[str, dict[str, BreakingNode]],
    client_module: str,
    client_version: str | None,
) -> list[ClientUsage]:
    selectors = tokenize(text)
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
            usages.append(ClientUsage(client_module, client_version, rel_file, line, label, node))
    usages.sort(key=lambda u: (u.line, u.qualified_name, u.node.key, u.node.package))
    return usages


def scan_client(
    client_root: str | Path,
    nodes: list[BreakingNode],
    client_module: str = "",
    client_version: str | None = None,
    report: ScanReport | None = None,
) -> list[ClientUsage]:
    """Find usages of breaking nodes in one client checkout.

    Stage 1 skips every file whose imported package paths are disjoint from
    the breaking packages; only surviving files are scanned and matched.
    As go build does, the walk leaves out vendor/ and testdata/ directories,
    and the directories and files whose names start with "." or "_";
    _test.go files are scanned.
    """
    root = Path(client_root)
    nodes_by_package: dict[str, dict[str, BreakingNode]] = {}
    for node in nodes:
        nodes_by_package.setdefault(node.package, {})[node.key] = node

    usages: list[ClientUsage] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not go_build_ignores(d))
        for fn in sorted(filenames):
            if not fn.endswith(".go") or go_build_ignores(fn):
                continue
            path = Path(dirpath) / fn
            rel_file = path.relative_to(root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
                binding = bind_imports(text, rel_file)
            except (OSError, UnicodeDecodeError, ParseFailure) as exc:
                logger.warning("skipping client file %s: %s", path, exc)
                if report is not None:
                    report.failed.append(rel_file)
                continue
            if binding.package_paths.isdisjoint(nodes_by_package):
                if report is not None:
                    report.skipped.append(rel_file)
                continue
            if report is not None:
                report.scanned.append(rel_file)
            usages.extend(
                _match_file(rel_file, text, binding, nodes_by_package, client_module, client_version)
            )
    return usages


def _client_identity(root: Path) -> str:
    manifest_path = root / MANIFEST_NAME
    if manifest_path.is_file():
        try:
            return parse_manifest(manifest_path.read_text(encoding="utf-8")).module_path
        except (OSError, UnicodeDecodeError, MalformedManifest):
            pass
    return root.name


def analyze_impact(
    library_records: list[ChangeRecord],
    clients: list[str | Path],
    old_surface: ApiSurface | None = None,
    client_ids: list[tuple[str, str | None]] | None = None,
) -> ImpactResult:
    """Run the client scan for every client root and concatenate the results."""
    nodes = collect_breaking_nodes(library_records, old_surface)
    result = ImpactResult(usages=[], nodes=nodes)
    if not nodes:
        return result
    for idx, client_root in enumerate(clients):
        root = Path(client_root)
        if client_ids is not None and idx < len(client_ids):
            module, version = client_ids[idx]
        else:
            module, version = _client_identity(root), None
        report = ScanReport()
        result.usages.extend(
            scan_client(root, nodes, client_module=module, client_version=version, report=report)
        )
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
