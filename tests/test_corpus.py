from __future__ import annotations

import io
import json
import shutil
from collections import Counter

import pytest

import planted_corpus as pc
import semverdiff.corpus as corpus_module
import semverdiff.surface as surface_module
from conftest import write_tree
from semverdiff.corpus import (
    LayoutError,
    aggregate_upgrade_stats,
    analyze_corpus,
    build_graph,
    condition_table,
    identify_roles,
    ingest_corpus,
    percent_display,
    persist_graph,
    time_series,
    upgrade_stats_rows,
    validate_corpus,
    write_condition_stats_csv,
    write_upgrade_stats_csv,
)
from semverdiff.diff import CATALOGUE, ChangeRecord
from semverdiff.impact import BreakingNode, ClientUsage


def _pct(part: int, whole: int) -> str:
    """Independent half-up one-decimal percentage via integer arithmetic."""
    if whole == 0:
        return "0.0"
    tenths = (2000 * part + whole) // (2 * whole)
    return f"{tenths // 10}.{tenths % 10}"


def _mini_corpus(tmp_path, *, versions=("v1.0.0", "v1.1.0")):
    for module, pkg in (("mod-a", "example.com/a"), ("mod-b", "example.com/b")):
        for i, tag in enumerate(versions):
            files = {
                "go.mod": f"module {pkg}\n\ngo 1.19\n"
                + ("require example.com/b v1.0.0\n" if pkg == "example.com/a" else ""),
                "lib.go": f"package {module.replace('-', '')}\n\nfunc F{i}() {{}}\n",
                "meta.json": json.dumps(
                    {"module_path": pkg, "version": tag, "released_at": f"2021-0{i + 1}-15"}
                ),
            }
            write_tree(tmp_path / "corpus" / module / tag, files)
    return tmp_path / "corpus"


class TestIngest:
    def test_entries_per_module_version(self, tmp_path):
        root = _mini_corpus(tmp_path, versions=("v1.0.0", "v1.1.0", "v1.2.0"))
        entries = ingest_corpus(root)
        assert len(entries) == 6
        assert all(e.is_valid for e in entries)

    def test_bad_version_directory(self, tmp_path):
        root = _mini_corpus(tmp_path)
        write_tree(
            root / "mod-c" / "1.2",
            {"meta.json": json.dumps({"module_path": "example.com/c", "version": "1.2", "released_at": "2021-01-01"})},
        )
        entries = {e.version_raw: e for e in ingest_corpus(root)}
        assert entries["1.2"].invalid_reason == "bad version"

    def test_missing_metadata(self, tmp_path):
        root = _mini_corpus(tmp_path)
        write_tree(root / "mod-c" / "v1.0.0", {"lib.go": "package c\n"})
        entry = next(e for e in ingest_corpus(root) if e.module_dir_id == "mod-c")
        assert entry.invalid_reason == "missing metadata"

    @pytest.mark.parametrize(
        "meta",
        [
            "{not json",
            json.dumps({"version": "v1.0.0"}),
            json.dumps({"module_path": "example.com/c", "released_at": "spring"}),
            # Only JSON strings, and released_at only as YYYY-MM-DD, which
            # date.fromisoformat alone does not enforce.
            json.dumps({"module_path": "example.com/c", "released_at": 20200101}),
            json.dumps({"module_path": "example.com/c", "released_at": "20200101"}),
            json.dumps({"module_path": "example.com/c", "released_at": "2020-W01-1"}),
            json.dumps({"module_path": 7, "released_at": "2020-01-01"}),
            json.dumps({"module_path": None, "released_at": "2020-01-01"}),
        ],
    )
    def test_bad_metadata(self, tmp_path, meta):
        root = _mini_corpus(tmp_path)
        write_tree(root / "mod-c" / "v1.0.0", {"lib.go": "package c\n", "meta.json": meta})
        entry = next(e for e in ingest_corpus(root) if e.module_dir_id == "mod-c")
        assert entry.invalid_reason == "bad metadata"

    def test_layout_error(self, tmp_path):
        with pytest.raises(LayoutError):
            ingest_corpus(tmp_path / "missing")

    def test_duplicate_module_path_keeps_latest(self, tmp_path):
        root = _mini_corpus(tmp_path)
        for tag, date in (("v9.0.0", "2020-01-01"), ("v9.1.0", "2020-02-01")):
            write_tree(
                root / "mod-a-fork" / tag,
                {
                    "go.mod": "module example.com/a\n",
                    "lib.go": "package a\n\nfunc Old() {}\n",
                    "meta.json": json.dumps(
                        {"module_path": "example.com/a", "version": tag, "released_at": date}
                    ),
                },
            )
        entries = ingest_corpus(root)
        forked = [e for e in entries if e.module_dir_id == "mod-a-fork"]
        original = [e for e in entries if e.module_dir_id == "mod-a"]
        assert all(e.invalid_reason == "duplicate module path" for e in forked)
        assert all(e.is_valid for e in original)


class TestValidate:
    def test_too_few_versions(self, tmp_path):
        root = _mini_corpus(tmp_path)
        write_tree(
            root / "mod-single" / "v1.0.0",
            {
                "go.mod": "module example.com/single\n",
                "lib.go": "package single\n\nfunc F() {}\n",
                "meta.json": json.dumps(
                    {"module_path": "example.com/single", "version": "v1.0.0", "released_at": "2021-01-01"}
                ),
            },
        )
        entries = ingest_corpus(root)
        validate_corpus(entries)
        single = [e for e in entries if e.module_path == "example.com/single"]
        assert [e.invalid_reason for e in single] == ["too few valid versions"]

    def test_missing_manifest(self, tmp_path):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "go.mod").unlink()
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert entry.invalid_reason == "missing manifest"

    def test_no_go_files(self, tmp_path):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "lib.go").unlink()
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert entry.invalid_reason == "no go files"

    @pytest.mark.parametrize(
        "files",
        [
            {"lib_test.go": "package a\n\nfunc TestF() {}\n"},
            {"internal/x.go": "package x\n\nfunc F() {}\n"},
            {"vendor/example.com/v/v.go": "package v\n\nfunc F() {}\n"},
            {"sub/go.mod": "module example.com/a/sub\n", "sub/s.go": "package sub\n\nfunc F() {}\n"},
        ],
        ids=["test-files", "internal", "vendor", "nested-module"],
    )
    def test_go_files_that_extraction_skips_are_no_go_files(self, tmp_path, files):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "lib.go").unlink()
        write_tree(root / "mod-a" / "v1.0.0", files)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert entry.invalid_reason == "no go files"

    @pytest.mark.parametrize(
        "manifest,reason",
        [(None, "missing manifest"), ("module example.com/other\n", "module path mismatch"), ("require (\n", "malformed manifest")],
    )
    def test_manifest_reason_comes_before_no_go_files(self, tmp_path, manifest, reason):
        root = _mini_corpus(tmp_path)
        checkout = root / "mod-a" / "v1.0.0"
        (checkout / "lib.go").unlink()
        (checkout / "go.mod").unlink()
        if manifest is not None:
            (checkout / "go.mod").write_text(manifest)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert (entry.invalid_reason or "").startswith(reason)

    def test_empty_surface(self, tmp_path):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "lib.go").write_text("package a\n\nfunc F( {}\n")
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert entry.invalid_reason == "empty surface"

    def test_malformed_manifest(self, tmp_path):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "go.mod").write_text("module example.com/a\nrequire (\n")
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert (entry.invalid_reason or "").startswith("malformed manifest")

    def test_module_path_mismatch(self, tmp_path):
        root = _mini_corpus(tmp_path)
        (root / "mod-a" / "v1.0.0" / "go.mod").write_text("module example.com/other\n")
        entries = ingest_corpus(root)
        validate_corpus(entries)
        entry = next(e for e in entries if e.module_dir_id == "mod-a" and e.version_raw == "v1.0.0")
        assert entry.invalid_reason == "module path mismatch"

    def test_well_formed_module_is_valid(self, tmp_path):
        root = _mini_corpus(tmp_path)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        assert all(e.is_valid for e in entries)


class TestGraph:
    def test_nodes_edges_and_roles(self, tmp_path):
        root = _mini_corpus(tmp_path)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        assert ("example.com/a", "1.0.0") in g.nodes
        assert (("example.com/a", "1.0.0"), ("example.com/b", "1.0.0")) in g.edges
        assert g.roles[("example.com/b", "1.0.0")] == {"tpl": True, "client": False}
        assert g.roles[("example.com/a", "1.0.0")] == {"tpl": False, "client": True}
        assert g.roles[("example.com/b", "1.1.0")] == {"tpl": False, "client": False}

    def test_reads_the_manifests_validation_parsed(self, tmp_path, monkeypatch):
        entries = ingest_corpus(_mini_corpus(tmp_path))
        validate_corpus(entries)
        calls = []
        monkeypatch.setattr(corpus_module, "parse_manifest", calls.append)
        g = build_graph(entries)
        assert calls == []
        assert (("example.com/a", "1.0.0"), ("example.com/b", "1.0.0")) in g.edges

    def test_requires_validated_entries(self, tmp_path):
        entries = ingest_corpus(_mini_corpus(tmp_path))
        with pytest.raises(ValueError, match="run validate_corpus first"):
            build_graph(entries)

    def test_external_requirement_becomes_stub(self, tmp_path):
        root = _mini_corpus(tmp_path)
        gomod = root / "mod-a" / "v1.0.0" / "go.mod"
        gomod.write_text("module example.com/a\n\nrequire example.com/external v3.0.0\n")
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        assert g.nodes[("example.com/external", "3.0.0")]["stub"] is True
        assert g.roles[("example.com/external", "3.0.0")] == {"tpl": True, "client": False}

    def test_unparsed_requirement_version_becomes_marked_stub(self, tmp_path):
        root = _mini_corpus(tmp_path)
        gomod = root / "mod-a" / "v1.0.0" / "go.mod"
        gomod.write_text("module example.com/a\n\nrequire example.com/external master\n")
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        assert g.nodes[("example.com/external", "master")] == {"stub": True, "unparsed_version": True}
        assert (("example.com/a", "1.0.0"), ("example.com/external", "master")) in g.edges

    def test_chain_gives_both_roles(self, tmp_path):
        root = tmp_path / "corpus"
        chain = {"a": "b", "b": "c", "c": None}
        for name, dep in chain.items():
            for tag in ("v1.0.0", "v1.1.0"):
                req = f"require example.com/{dep} v1.0.0\n" if dep else ""
                write_tree(
                    root / name / tag,
                    {
                        "go.mod": f"module example.com/{name}\n{req}",
                        "lib.go": f"package {name}\n\nfunc F() {{}}\n",
                        "meta.json": json.dumps(
                            {"module_path": f"example.com/{name}", "version": tag, "released_at": "2021-01-01"}
                        ),
                    },
                )
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        assert g.roles[("example.com/b", "1.0.0")] == {"tpl": True, "client": True}

    def test_roles_recomputed_identically(self, tmp_path):
        root = _mini_corpus(tmp_path)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        before = dict(g.roles)
        identify_roles(g)
        assert g.roles == before

    def test_persisted_graph_holds_every_node_edge_and_role(self, tmp_path):
        root = _mini_corpus(tmp_path)
        entries = ingest_corpus(root)
        validate_corpus(entries)
        g = build_graph(entries)
        assert g.edges and g.roles
        path = tmp_path / "graph.json"
        persist_graph(g, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        nodes = {(n.pop("module"), n.pop("version")): n for n in doc["nodes"]}
        assert len(nodes) == len(doc["nodes"]) and nodes == g.nodes
        edges = [(tuple(e["from"]), tuple(e["to"])) for e in doc["edges"]]
        assert edges == sorted(set(g.edges))
        roles = {(r.pop("module"), r.pop("version")): r for r in doc["roles"]}
        assert len(roles) == len(doc["roles"]) and roles == g.roles


class TestPlantedCorpusPipeline:
    def test_every_entry_valid(self, planted_analysis):
        assert all(e.is_valid for e in planted_analysis.entries)
        assert len(planted_analysis.entries) == sum(len(m.versions) for m in pc.MODULES)

    def test_upgrade_set_matches_construction(self, planted_analysis):
        got = {
            (u.module_path, u.to_entry.version_raw, u.level.label, u.breaking)
            for u in planted_analysis.upgrades
        }
        expected = {
            (path, v.tag, v.level, v.breaking) for path, v in pc.counted_upgrades()
        }
        assert got == expected

    def test_planted_records_found_exactly(self, planted_analysis):
        by_to = {(u.module_path, u.to_entry.version_raw): u for u in planted_analysis.upgrades}
        for path, version in pc.counted_upgrades():
            upgrade = by_to[(path, version.tag)]
            got = sorted(
                (r.category, r.condition, r.node) for r in upgrade.records if r.breaking
            )
            assert got == sorted(version.planted), (path, version.tag)

    def test_level_stats_match_recount(self, planted_analysis):
        totals: Counter = Counter()
        breaking: Counter = Counter()
        for _path, v in pc.counted_upgrades():
            totals[v.level] += 1
            breaking[v.level] += int(v.breaking)
        stats = aggregate_upgrade_stats(planted_analysis.upgrades)
        for label in ("Major", "Minor", "Patch", "Development"):
            assert stats.levels[label].total == totals[label], label
            assert stats.levels[label].breaking == breaking[label], label
        assert stats.levels["Non-Major"].total == totals["Minor"] + totals["Patch"]
        assert stats.levels["Non-Major"].breaking == breaking["Minor"] + breaking["Patch"]
        assert stats.levels["Total"].total == sum(totals.values())
        assert stats.levels["Total"].breaking == sum(breaking.values())

    def test_minor_breaking_rate_is_thirty_percent(self, planted_analysis):
        stats = aggregate_upgrade_stats(planted_analysis.upgrades)
        minor = stats.levels["Minor"]
        assert (minor.total, minor.breaking) == (10, 3)
        assert percent_display(minor.breaking, minor.total) == "30.0"

    def test_stats_csv_cells_match_recount(self, planted_analysis):
        totals: Counter = Counter()
        breaking: Counter = Counter()
        for _path, v in pc.counted_upgrades():
            totals[v.level] += 1
            breaking[v.level] += int(v.breaking)
        totals["Non-Major"] = totals["Minor"] + totals["Patch"]
        breaking["Non-Major"] = breaking["Minor"] + breaking["Patch"]
        grand = sum(totals[k] for k in ("Major", "Minor", "Patch", "Development"))
        grand_breaking = sum(breaking[k] for k in ("Major", "Minor", "Patch", "Development"))
        totals["Total"], breaking["Total"] = grand, grand_breaking

        rows = upgrade_stats_rows(aggregate_upgrade_stats(planted_analysis.upgrades))
        assert [r[0] for r in rows] == ["Major", "Minor", "Patch", "Development", "Non-Major", "Total"]
        for label, total, total_pct, brk, brk_pct in rows:
            assert int(total) == totals[label]
            assert int(brk) == breaking[label]
            assert total_pct == _pct(totals[label], grand)
            assert brk_pct == _pct(breaking[label], totals[label])

    def test_condition_table_matches_recount(self, planted_analysis):
        b_expected: Counter = Counter()
        for _path, v in pc.counted_upgrades():
            for category, condition, _node in v.planted:
                b_expected[(category, condition)] += 1
        used_expected: Counter = Counter()
        pairs_expected: Counter = Counter()
        for category, condition, _client, _node in pc.EXPECTED_USED:
            used_expected[(category, condition)] += 1
            pairs_expected[(category, condition)] += 1

        pairs = [(u.records, u.usages) for u in planted_analysis.upgrades]
        rows = {(r["category"], r["condition"]): r for r in condition_table(pairs)}
        for key in CATALOGUE:
            row = rows[key]
            assert row["breaking"] == b_expected[key], key
            assert row["usage"] == used_expected[key], key
            assert row["affected"] == pairs_expected[key], key
        total_row = rows[("Total", "")]
        assert total_row["breaking"] == sum(b_expected.values())
        assert total_row["usage"] == len(pc.EXPECTED_USED)

    def test_condition_percentages_match_recount(self, planted_analysis):
        rows = condition_table([(u.records, u.usages) for u in planted_analysis.upgrades])
        total_b = sum(r["breaking"] for r in rows if r["category"] != "Total")
        for row in rows:
            if row["category"] == "Total":
                continue
            assert row["breaking_pct"] == _pct(row["breaking"], total_b)
            assert row["usage_per_breaking_pct"] == _pct(row["usage"], row["breaking"])

    def test_usages_point_at_expected_clients(self, planted_analysis):
        got = set()
        for u in planted_analysis.upgrades:
            for usage in u.usages:
                got.add(
                    (
                        usage.node.category,
                        usage.node.condition,
                        (usage.client_module, usage.client_version),
                        (usage.node.package, usage.node.key),
                    )
                )
        assert got == set(pc.EXPECTED_USED)

    def test_time_series_matches_recount_and_sums_to_totals(self, planted_analysis):
        buckets: dict[tuple[str, str], list[int]] = {}
        for _path, v in pc.counted_upgrades():
            month = v.released[:7]
            for label in (v.level, "Non-Major") if v.level in ("Minor", "Patch") else (v.level,):
                cell = buckets.setdefault((month, label), [0, 0])
                cell[0] += 1
                cell[1] += int(v.breaking)

        points = time_series(planted_analysis.upgrades)
        got = {(f"{p.year:04d}-{p.month:02d}", p.level): [p.total, p.breaking] for p in points}
        assert got == buckets

        stats = aggregate_upgrade_stats(planted_analysis.upgrades)
        sums: Counter = Counter()
        for p in points:
            sums[p.level] += p.total
        for label in ("Major", "Minor", "Patch", "Development", "Non-Major"):
            assert sums[label] == stats.levels[label].total, label

    def test_prerelease_upgrades_excluded_by_default(self, planted_analysis):
        assert all(u.level.label != "Pre-release/Build" for u in planted_analysis.upgrades)

    def test_declaration_memo_is_empty_after_the_analysis(self, planted_root):
        analyze_corpus(planted_root)
        assert not surface_module._DECLS.previous and not surface_module._DECLS.current

    def test_include_prerelease_adds_the_rc_upgrade(self, planted_root):
        analysis = analyze_corpus(planted_root, include_prerelease=True)
        prb = [u for u in analysis.upgrades if u.level.label == "Pre-release/Build"]
        assert len(prb) == 1
        assert prb[0].to_entry.version_raw == "v1.2.1-rc.1"
        stats = aggregate_upgrade_stats(analysis.upgrades, include_prerelease=True)
        assert stats.levels["Pre-release/Build"].total == 1
        assert stats.levels["Total"].total == 41

    def test_cleaning_monotonicity(self, planted_root, tmp_path):
        copy = tmp_path / "corpus"
        shutil.copytree(planted_root, copy)
        write_tree(
            copy / "lonely" / "v1.0.0",
            {
                "go.mod": "module example.com/lonely\n",
                "lib.go": "package lonely\n\nfunc F() {}\n",
                "meta.json": json.dumps(
                    {"module_path": "example.com/lonely", "version": "v1.0.0", "released_at": "2021-02-02"}
                ),
            },
        )
        write_tree(copy / "broken" / "not-a-version", {"lib.go": "package broken\n"})

        def csv_reports(root):
            analysis = analyze_corpus(root)
            stats_buf, cond_buf = io.StringIO(), io.StringIO()
            write_upgrade_stats_csv(aggregate_upgrade_stats(analysis.upgrades), stats_buf)
            pairs = [(u.records, u.usages) for u in analysis.upgrades]
            write_condition_stats_csv(condition_table(pairs), cond_buf)
            return stats_buf.getvalue(), cond_buf.getvalue()

        assert csv_reports(copy) == csv_reports(planted_root)


def test_empty_level_has_undefined_rate_flag():
    stats = aggregate_upgrade_stats([])
    row = stats.levels["Major"]
    assert row.total == 0
    assert percent_display(row.breaking, row.total) == "0.0"


def test_condition_table_counts_clients_of_a_removed_package():
    def record(package, node, category, condition):
        return ChangeRecord("example.com/lib", "v1.0.0", "v2.0.0", package, node, category, condition, True, "")

    def usage(client, key, rec):
        node = BreakingNode(rec.package, key, rec.category, rec.condition, rec)
        return ClientUsage(client, None, "main.go", 1, f"x.{key}", node)

    removed = record("example.com/lib/old", "", "Package", "Remove")
    gone = record("example.com/lib", "F", "Function", "Remove")
    usages = [
        usage("example.com/c1", "A", removed),
        usage("example.com/c1", "A", removed),
        usage("example.com/c1", "B", removed),
        usage("example.com/c2", "A", removed),
        usage("example.com/c2", "F", gone),
    ]
    rows = {(r["category"], r["condition"]): r for r in condition_table([([removed, gone], usages)])}
    assert [rows[("Package", "Remove")][k] for k in ("breaking", "usage", "affected")] == [1, 1, 3]
    assert [rows[("Function", "Remove")][k] for k in ("breaking", "usage", "affected")] == [1, 1, 1]
    assert [rows[("Total", "")][k] for k in ("breaking", "usage", "affected")] == [2, 2, 4]


class TestPercentDisplay:
    def test_paper_style_rounding(self):
        assert percent_display(1147, 1926) == "59.6"
        assert percent_display(165, 4132) == "4.0"
        assert percent_display(131565, 363428) == "36.2"

    def test_half_up(self):
        assert percent_display(1, 8) == "12.5"
        assert percent_display(25, 1000) == "2.5"
        assert percent_display(5, 200) == "2.5"
        assert percent_display(15, 1000) == "1.5"
        assert percent_display(25, 2000) == "1.3"

    def test_zero_denominator(self):
        assert percent_display(0, 0) == "0.0"
