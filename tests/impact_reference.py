"""Client matching as it was before one list of references fed every match:
`collect_breaking_nodes` and `_match_file` kept verbatim, as the reference
the matcher must agree with, usages and their order included."""

from __future__ import annotations

from semverdiff.diff import ChangeRecord
from semverdiff.impact import (
    BreakingNode,
    ClientUsage,
    ImportBinding,
    _bare_identifiers,
    _selectors,
    tokenize,
)
from semverdiff.surface import ApiSurface


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
