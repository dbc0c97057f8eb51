"""Offline corpus ingestion, dependency graph, and ecosystem statistics.

The corpus layout is corpus/<module-id>/<version-tag>/ where each version
directory holds a checkout (manifest plus sources) and a meta.json document
{module_path, version, released_at}. The dependency graph is persisted as a
single JSON file instead of an external database.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import date
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .diff import CATALOGUE, ChangeRecord, diff_surfaces
from .impact import ClientCheckout, ClientUsage, analyze_impact
from .manifest import (
    MANIFEST_NAME,
    MalformedManifest,
    ModuleManifest,
    extract_edges,
    parse_manifest,
)
from .surface import ApiSurface, NoSourceFiles, SurfaceEmpty, _drop_declarations, extract_surface
from .versions import (
    NON_MAJOR_LEVELS,
    InvalidVersion,
    SemanticVersion,
    UpgradeLevel,
    classify_upgrade,
    parse_version,
    sort_and_pair,
)

logger = logging.getLogger(__name__)

META_NAME = "meta.json"
# The one form of meta.json's released_at: date.fromisoformat also takes
# 20200101 and week dates such as 2020-W01-1.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class LayoutError(ValueError):
    """The corpus tree does not follow the expected layout."""


def percent_display(part: int, whole: int) -> str:
    """One-decimal percentage with half-up rounding, as printed in reports."""
    if whole == 0:
        return "0.0"
    value = Decimal(part) * 100 / Decimal(whole)
    return str(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass
class CorpusEntry:
    module_path: str
    version: SemanticVersion | None
    version_raw: str
    checkout_dir: Path
    released_at: date | None
    module_dir_id: str
    invalid_reason: str | None = None
    # The parsed go.mod, kept by validate_corpus for build_graph.
    manifest: ModuleManifest | None = None

    @property
    def is_valid(self) -> bool:
        return self.invalid_reason is None

    @property
    def node_key(self) -> tuple[str, str]:
        version = self.version.render() if self.version is not None else self.version_raw
        return (self.module_path, version)


def ingest_corpus(root: str | Path) -> list[CorpusEntry]:
    """Load one entry per (module, version) directory.

    Versions that fail to parse and entries without usable metadata are
    marked invalid. Duplicate module paths keep only the directory whose
    latest release is newest.
    """
    base = Path(root)
    if not base.is_dir():
        raise LayoutError(f"corpus root {base} is not a directory")

    entries: list[CorpusEntry] = []
    for module_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        for version_dir in sorted(p for p in module_dir.iterdir() if p.is_dir()):
            entries.append(_load_entry(module_dir.name, version_dir))

    _dedup_module_paths(entries)
    return entries


def _load_entry(module_dir_id: str, version_dir: Path) -> CorpusEntry:
    module_path = module_dir_id
    released_at: date | None = None
    invalid_reason: str | None = None

    meta_path = version_dir / META_NAME
    if not meta_path.is_file():
        invalid_reason = "missing metadata"
    else:
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta["module_path"], str):
                raise TypeError(f"module_path {meta['module_path']!r} is not a string")
            module_path = meta["module_path"]
            released = meta["released_at"]
            day = date.fromisoformat(released)
            if not _DATE_RE.fullmatch(released):
                raise ValueError(f"released_at {released!r} is not in the form YYYY-MM-DD")
            released_at = day
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("bad metadata in %s: %s", meta_path, exc)
            invalid_reason = "bad metadata"

    version: SemanticVersion | None = None
    try:
        version = parse_version(version_dir.name)
    except InvalidVersion:
        if invalid_reason is None:
            invalid_reason = "bad version"

    return CorpusEntry(
        module_path=module_path,
        version=version,
        version_raw=version_dir.name,
        checkout_dir=version_dir,
        released_at=released_at,
        module_dir_id=module_dir_id,
        invalid_reason=invalid_reason,
    )


def _dedup_module_paths(entries: list[CorpusEntry]) -> None:
    by_path: dict[str, dict[str, list[CorpusEntry]]] = {}
    for e in entries:
        if e.invalid_reason is None:
            by_path.setdefault(e.module_path, {}).setdefault(e.module_dir_id, []).append(e)
    for _path, dirs in by_path.items():
        if len(dirs) < 2:
            continue

        def latest(dir_id: str) -> date:
            dates = [e.released_at for e in dirs[dir_id] if e.released_at is not None]
            return max(dates) if dates else date.min

        keep = max(sorted(dirs), key=latest)
        for dir_id, dir_entries in dirs.items():
            if dir_id != keep:
                for e in dir_entries:
                    e.invalid_reason = "duplicate module path"


def _validate_and_extract(entry: CorpusEntry) -> tuple[str | None, ApiSurface | None]:
    """Return the invalid reason or the surface, keeping the parsed go.mod on the entry."""
    if entry.invalid_reason is not None:
        return entry.invalid_reason, None
    root = entry.checkout_dir
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        return "missing manifest", None
    try:
        manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, MalformedManifest) as exc:
        return f"malformed manifest: {exc}", None
    if manifest.module_path != entry.module_path:
        return "module path mismatch", None
    entry.manifest = manifest
    try:
        surface = extract_surface(root, entry.module_path, entry.version)
    except NoSourceFiles:
        return "no go files", None
    except SurfaceEmpty:
        return "empty surface", None
    return None, surface


def validate_corpus(entries: list[CorpusEntry]) -> dict[tuple[str, str], ApiSurface]:
    """Apply all cleaning rules in place and return the extracted surfaces."""
    surfaces: dict[tuple[str, str], ApiSurface] = {}
    for entry in entries:
        reason, surface = _validate_and_extract(entry)
        entry.invalid_reason = reason
        if surface is not None:
            surfaces[entry.node_key] = surface

    counts: dict[str, int] = {}
    for entry in entries:
        if entry.is_valid:
            counts[entry.module_path] = counts.get(entry.module_path, 0) + 1
    for entry in entries:
        if entry.is_valid and counts.get(entry.module_path, 0) < 2:
            entry.invalid_reason = "too few valid versions"
    return surfaces


# -- dependency graph ---------------------------------------------------------


@dataclass
class DependencyGraph:
    nodes: dict[tuple[str, str], dict] = field(default_factory=dict)
    edges: list[tuple[tuple[str, str], tuple[str, str]]] = field(default_factory=list)
    roles: dict[tuple[str, str], dict] = field(default_factory=dict)


def build_graph(entries: list[CorpusEntry]) -> DependencyGraph:
    """Graph over valid entries; edge targets outside the corpus become stubs.

    Edges come from the manifests validate_corpus stored on the entries, so
    the entries must have been validated first; a valid entry without one
    raises ValueError.
    """
    g = DependencyGraph()
    valid = [e for e in entries if e.is_valid and e.version is not None]
    for entry in valid:
        g.nodes[entry.node_key] = {"stub": False, "unparsed_version": False}
    for entry in valid:
        if entry.manifest is None:
            raise ValueError(f"{entry.checkout_dir}: entry has no manifest; run validate_corpus first")
        for edge in extract_edges(entry.manifest, entry.version):
            if edge.target_version is not None:
                target = (edge.target_path, edge.target_version.render())
                unparsed = False
            else:
                target = (edge.target_path, edge.target_version_raw)
                unparsed = True
            if target not in g.nodes:
                g.nodes[target] = {"stub": True, "unparsed_version": unparsed}
            g.edges.append((entry.node_key, target))
    g.edges = sorted(set(g.edges))
    identify_roles(g)
    return g


def identify_roles(g: DependencyGraph) -> DependencyGraph:
    """TPL flag for nodes with in-degree >= 1, Client flag for out-degree >= 1."""
    indeg: dict[tuple[str, str], int] = {}
    outdeg: dict[tuple[str, str], int] = {}
    for src, dst in g.edges:
        outdeg[src] = outdeg.get(src, 0) + 1
        indeg[dst] = indeg.get(dst, 0) + 1
    g.roles = {
        key: {"tpl": indeg.get(key, 0) >= 1, "client": outdeg.get(key, 0) >= 1}
        for key in sorted(g.nodes)
    }
    return g


def persist_graph(g: DependencyGraph, path: str | Path) -> None:
    doc = {
        "nodes": [
            {"module": m, "version": v, **g.nodes[(m, v)]} for m, v in sorted(g.nodes)
        ],
        "edges": [
            {"from": list(src), "to": list(dst)} for src, dst in sorted(set(g.edges))
        ],
        "roles": [
            {"module": m, "version": v, **g.roles[(m, v)]} for m, v in sorted(g.roles)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


# -- corpus-wide analysis -----------------------------------------------------


@dataclass
class UpgradeAnalysis:
    module_path: str
    from_entry: CorpusEntry
    to_entry: CorpusEntry
    level: UpgradeLevel
    records: list[ChangeRecord]
    usages: list[ClientUsage] = field(default_factory=list)

    @property
    def breaking(self) -> bool:
        return any(r.breaking for r in self.records)


@dataclass
class CorpusAnalysis:
    entries: list[CorpusEntry]
    graph: DependencyGraph
    upgrades: list[UpgradeAnalysis]
    include_prerelease: bool = False


def analyze_corpus(root: str | Path, *, include_prerelease: bool = False) -> CorpusAnalysis:
    """Run the full pipeline: ingest, clean, graph, diff upgrades, impact.

    Upgrades are the consecutive valid version pairs of every TPL module.
    Pre-release/build upgrades are skipped unless include_prerelease is set;
    impact analysis runs for breaking non-major upgrades against the clients
    that require the exact pre-upgrade version. Every upgrade is diffed
    first; then each client checkout is scanned once per run: it is walked,
    read and import-bound on its first scan, matched against every breaking
    upgrade that pins it, and dropped before the next client is read.
    """
    entries = ingest_corpus(root)
    surfaces = validate_corpus(entries)
    _drop_declarations()  # the last extraction is done
    graph = build_graph(entries)

    tpl_modules = {m for (m, _v), role in graph.roles.items() if role["tpl"]}
    entry_by_key = {e.node_key: e for e in entries if e.is_valid}
    clients_of: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for src, dst in graph.edges:
        if src in entry_by_key:
            clients_of.setdefault(dst, []).append(src)

    by_module: dict[str, dict[SemanticVersion, CorpusEntry]] = {}
    for e in entries:
        if e.is_valid and e.version is not None:
            by_module.setdefault(e.module_path, {}).setdefault(e.version, e)

    upgrades: list[UpgradeAnalysis] = []
    pinned_by: dict[tuple[str, str], list[UpgradeAnalysis]] = {}  # client key -> breaking upgrades to scan
    for module_path in sorted(by_module):
        if module_path not in tpl_modules:
            continue
        versioned = by_module[module_path]
        for v_from, v_to in sort_and_pair(list(versioned)):
            level = classify_upgrade(v_from, v_to)
            if level is UpgradeLevel.PRERELEASE_BUILD and not include_prerelease:
                continue
            from_entry = versioned[v_from]
            to_entry = versioned[v_to]
            records = diff_surfaces(surfaces[from_entry.node_key], surfaces[to_entry.node_key])
            upgrade = UpgradeAnalysis(
                module_path=module_path,
                from_entry=from_entry,
                to_entry=to_entry,
                level=level,
                records=records,
            )
            upgrades.append(upgrade)
            if level in NON_MAJOR_LEVELS and upgrade.breaking:
                for client_key in clients_of.get(from_entry.node_key, ()):
                    pinned_by.setdefault(client_key, []).append(upgrade)

    # The scans read only the old surfaces of their upgrades; the rest are freed.
    surfaces = {u.from_entry.node_key: surfaces[u.from_entry.node_key] for ups in pinned_by.values() for u in ups}
    # Clients in key order give each upgrade's usages in the order of one
    # scan of its clients sorted by key.
    for client_key in sorted(pinned_by):
        client = entry_by_key[client_key]
        checkout = ClientCheckout(client.checkout_dir, client.module_path, client.version_raw)
        for upgrade in pinned_by[client_key]:
            result = analyze_impact(upgrade.records, [checkout], old_surface=surfaces[upgrade.from_entry.node_key])
            upgrade.usages.extend(result.usages)

    return CorpusAnalysis(
        entries=entries, graph=graph, upgrades=upgrades, include_prerelease=include_prerelease
    )


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LevelStats:
    label: str
    total: int
    breaking: int


@dataclass
class UpgradeStats:
    levels: dict[str, LevelStats]
    grand_total: int


_LEVEL_ORDER = ("Major", "Minor", "Patch", "Development")


def aggregate_upgrade_stats(upgrades: list[UpgradeAnalysis], include_prerelease: bool = False) -> UpgradeStats:
    """Per-level totals and breaking counts, plus Non-Major and Total rows."""
    totals: dict[str, int] = {}
    breaking: dict[str, int] = {}
    for u in upgrades:
        label = u.level.label
        totals[label] = totals.get(label, 0) + 1
        if u.breaking:
            breaking[label] = breaking.get(label, 0) + 1

    order = list(_LEVEL_ORDER)
    if include_prerelease:
        order.append(UpgradeLevel.PRERELEASE_BUILD.label)

    levels: dict[str, LevelStats] = {}
    for label in order:
        levels[label] = LevelStats(label, totals.get(label, 0), breaking.get(label, 0))
    non_major = LevelStats(
        "Non-Major",
        levels["Minor"].total + levels["Patch"].total,
        levels["Minor"].breaking + levels["Patch"].breaking,
    )
    levels["Non-Major"] = non_major
    grand_total = sum(totals.get(label, 0) for label in order)
    levels["Total"] = LevelStats(
        "Total", grand_total, sum(breaking.get(label, 0) for label in order)
    )
    return UpgradeStats(levels=levels, grand_total=grand_total)


def condition_table(upgrades: list[tuple[list[ChangeRecord], list[ClientUsage]]]) -> list[dict]:
    """Per-condition distribution with client-usage columns.

    Takes one (records, usages) pair per upgrade. B counts breaking
    records; U counts breaking records whose node is used by at least one
    client; the affected column counts distinct (client, node) pairs
    reaching records of the condition.
    """
    b_counts: dict[tuple[str, str], int] = {key: 0 for key in CATALOGUE}
    u_counts: dict[tuple[str, str], int] = {key: 0 for key in CATALOGUE}
    pair_sets: dict[tuple[str, str], set] = {key: set() for key in CATALOGUE}

    for records, usages in upgrades:
        used_keys: set[tuple[str, str]] = set()
        used_pairs: set[tuple[tuple, str, str]] = set()
        for usage in usages:
            used_keys.add((usage.node.package, usage.node.key))
            used_pairs.add((usage.client_id, usage.node.package, usage.node.key))

        for record in records:
            if not record.breaking:
                continue
            cond = (record.category, record.condition)
            if cond not in b_counts:
                continue
            b_counts[cond] += 1
            if record.category == "Package" and record.condition == "Remove":
                matching = {k for k in used_keys if k[0] == record.package}
            else:
                matching = {(record.package, record.node)} & used_keys
            if matching:
                u_counts[cond] += 1
                for pair in used_pairs:
                    if (pair[1], pair[2]) in matching:
                        pair_sets[cond].add(pair)

    total_b = sum(b_counts.values())
    total_u = sum(u_counts.values())
    total_a = sum(len(s) for s in pair_sets.values())

    def row(index: int, category: str, condition: str, b: int, u: int, a: int) -> dict:
        return {
            "index": index,
            "category": category,
            "condition": condition,
            "breaking": b,
            "breaking_pct": percent_display(b, total_b),
            "usage": u,
            "usage_pct": percent_display(u, total_u),
            "usage_per_breaking_pct": percent_display(u, b),
            "affected": a,
            "affected_pct": percent_display(a, total_a),
        }

    rows = [
        row(idx, *key, b_counts[key], u_counts[key], len(pair_sets[key]))
        for idx, key in enumerate(CATALOGUE, start=1)
    ]
    rows.append(row(len(CATALOGUE) + 1, "Total", "", total_b, total_u, total_a))
    return rows


@dataclass(frozen=True, slots=True)
class TimeSeriesPoint:
    year: int
    month: int
    level: str
    total: int
    breaking: int


def time_series(upgrades: list[UpgradeAnalysis]) -> list[TimeSeriesPoint]:
    """Monthly totals per level (plus Non-Major); empty months are omitted.

    An upgrade's month is the release month of its target version.
    """
    buckets: dict[tuple[int, int, str], list[int]] = {}

    def bump(year: int, month: int, label: str, breaking: bool) -> None:
        cell = buckets.setdefault((year, month, label), [0, 0])
        cell[0] += 1
        if breaking:
            cell[1] += 1

    for u in upgrades:
        released = u.to_entry.released_at
        if released is None:
            continue
        bump(released.year, released.month, u.level.label, u.breaking)
        if u.level in NON_MAJOR_LEVELS:
            bump(released.year, released.month, "Non-Major", u.breaking)

    label_order = {label: i for i, label in enumerate((*_LEVEL_ORDER, UpgradeLevel.PRERELEASE_BUILD.label, "Non-Major"))}
    points = [
        TimeSeriesPoint(year=y, month=m, level=label, total=cell[0], breaking=cell[1])
        for (y, m, label), cell in buckets.items()
    ]
    points.sort(key=lambda p: (p.year, p.month, label_order.get(p.level, 99)))
    return points


# -- CSV emission -------------------------------------------------------------

UPGRADE_STATS_HEADER = ["Level", "Total Count", "Total %", "Breaking Count", "Breaking %"]
CONDITION_STATS_HEADER = [
    "Index",
    "Category",
    "Condition",
    "Breaking Change Number (B)",
    "Breaking Change %",
    "Usage Number (U)",
    "Usage %",
    "% (U/B)",
    "Affected Client Number",
    "Affected Client %",
]
TIME_SERIES_HEADER = ["Month", "Level", "Total", "Breaking", "Rate"]


def upgrade_stats_rows(stats: UpgradeStats) -> list[list[str]]:
    labels = [label for label in stats.levels if label != "Total"] + ["Total"]
    rows = []
    for label in labels:
        row = stats.levels[label]
        rows.append(
            [
                label,
                str(row.total),
                percent_display(row.total, stats.grand_total),
                str(row.breaking),
                percent_display(row.breaking, row.total),
            ]
        )
    return rows


def write_upgrade_stats_csv(stats: UpgradeStats, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(UPGRADE_STATS_HEADER)
    writer.writerows(upgrade_stats_rows(stats))


def write_condition_stats_csv(rows: list[dict], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(CONDITION_STATS_HEADER)
    for row in rows:
        writer.writerow(
            [
                str(row["index"]),
                row["category"],
                row["condition"],
                str(row["breaking"]),
                row["breaking_pct"],
                str(row["usage"]),
                row["usage_pct"],
                row["usage_per_breaking_pct"],
                str(row["affected"]),
                row["affected_pct"],
            ]
        )


def write_time_series_csv(points: list[TimeSeriesPoint], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(TIME_SERIES_HEADER)
    for p in points:
        writer.writerow(
            [
                f"{p.year:04d}-{p.month:02d}",
                p.level,
                str(p.total),
                str(p.breaking),
                percent_display(p.breaking, p.total),
            ]
        )


def write_reports(analysis: CorpusAnalysis, out_dir: str | Path) -> list[Path]:
    """Emit the three report CSVs into out_dir and return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats = aggregate_upgrade_stats(analysis.upgrades, analysis.include_prerelease)
    conditions = condition_table([(u.records, u.usages) for u in analysis.upgrades])
    points = time_series(analysis.upgrades)

    paths = []
    for name, writer_fn, payload in (
        ("upgrade_stats.csv", write_upgrade_stats_csv, stats),
        ("condition_stats.csv", write_condition_stats_csv, conditions),
        ("time_series.csv", write_time_series_csv, points),
    ):
        path = out / name
        with path.open("w", encoding="utf-8", newline="") as fp:
            writer_fn(payload, fp)
        paths.append(path)
    return paths
