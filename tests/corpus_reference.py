"""Reference corpus analysis: one impact scan per breaking upgrade.

`analyze_corpus` as it ran before client checkouts were shared: each
breaking non-major upgrade calls `analyze_impact` on the paths of the
clients that pin its old version, so each call walks, reads, binds and
scans those clients again. The tests compare the shared-scan pipeline with
it, usage lists and report files alike.
"""

from __future__ import annotations

from pathlib import Path

from semverdiff.corpus import (
    CorpusAnalysis,
    CorpusEntry,
    UpgradeAnalysis,
    build_graph,
    ingest_corpus,
    validate_corpus,
)
from semverdiff.diff import diff_surfaces
from semverdiff.impact import analyze_impact
from semverdiff.surface import _drop_declarations
from semverdiff.versions import NON_MAJOR_LEVELS, UpgradeLevel, classify_upgrade, sort_and_pair


def analyze_corpus(root: str | Path, *, include_prerelease: bool = False) -> CorpusAnalysis:
    entries = ingest_corpus(root)
    surfaces = validate_corpus(entries)
    _drop_declarations()
    graph = build_graph(entries)

    tpl_modules = {m for (m, _v), role in graph.roles.items() if role["tpl"]}
    entry_by_key = {e.node_key: e for e in entries if e.is_valid}
    clients_of: dict[tuple[str, str], list[CorpusEntry]] = {}
    for src, dst in graph.edges:
        if src in entry_by_key:
            clients_of.setdefault(dst, []).append(entry_by_key[src])

    by_module: dict[str, dict] = {}
    for e in entries:
        if e.is_valid and e.version is not None:
            by_module.setdefault(e.module_path, {}).setdefault(e.version, e)

    upgrades = []
    for module_path in sorted(by_module):
        if module_path not in tpl_modules:
            continue
        versioned = by_module[module_path]
        for v_from, v_to in sort_and_pair(list(versioned)):
            level = classify_upgrade(v_from, v_to)
            if level is UpgradeLevel.PRERELEASE_BUILD and not include_prerelease:
                continue
            from_entry, to_entry = versioned[v_from], versioned[v_to]
            old_surface = surfaces[from_entry.node_key]
            records = diff_surfaces(old_surface, surfaces[to_entry.node_key])
            usages = []
            if level in NON_MAJOR_LEVELS and any(r.breaking for r in records):
                client_entries = sorted(clients_of.get(from_entry.node_key, ()), key=lambda e: e.node_key)
                if client_entries:
                    usages = analyze_impact(
                        records,
                        [e.checkout_dir for e in client_entries],
                        old_surface=old_surface,
                        client_ids=[(e.module_path, e.version_raw) for e in client_entries],
                    ).usages
            upgrades.append(UpgradeAnalysis(module_path, from_entry, to_entry, level, records, usages))

    return CorpusAnalysis(entries=entries, graph=graph, upgrades=upgrades, include_prerelease=include_prerelease)
