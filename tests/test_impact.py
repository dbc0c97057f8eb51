from __future__ import annotations

from collections import Counter

import pytest

import impact_fixtures as fx
import semverdiff.impact as impact_module
from oracles import textual_search_oracle
from conftest import write_module, write_tree
from semverdiff.diff import ChangeRecord, diff_surfaces
from semverdiff.impact import (
    ScanReport,
    analyze_impact,
    bind_imports,
    collect_breaking_nodes,
    scan_client,
)
from semverdiff.surface import ParseFailure, extract_surface
from semverdiff.versions import parse_version

MOD = "example.com/brklib"


def _record(package=MOD, node="OldThing", category="Function", condition="Remove", breaking=True):
    return ChangeRecord(
        module=MOD,
        from_version="v1.0.0",
        to_version="v1.1.0",
        package=package,
        node=node,
        category=category,
        condition=condition,
        breaking=breaking,
        message="",
    )


@pytest.fixture()
def library_pair(tmp_path):
    old_dir = write_module(tmp_path / "lib" / "v1.0.0", MOD, fx.LIBRARY_OLD)
    new_dir = write_module(tmp_path / "lib" / "v1.1.0", MOD, fx.LIBRARY_NEW)
    old = extract_surface(old_dir, MOD, parse_version("v1.0.0"))
    new = extract_surface(new_dir, MOD, parse_version("v1.1.0"))
    return old, new


@pytest.fixture()
def client_roots(tmp_path):
    roots = {}
    for name, files in fx.CLIENTS.items():
        roots[name] = write_tree(tmp_path / "clients" / name, files)
    return roots


class TestCollectNodes:
    def test_one_node_per_breaking_record(self):
        nodes = collect_breaking_nodes([_record()])
        assert [(n.package, n.key) for n in nodes] == [(MOD, "OldThing")]

    def test_empty(self):
        assert collect_breaking_nodes([]) == []

    def test_dedup_by_package_and_key(self):
        records = [
            _record(condition="Param Change"),
            _record(condition="Return Change"),
        ]
        nodes = collect_breaking_nodes(records)
        assert len(nodes) == 1

    def test_non_breaking_ignored(self):
        assert collect_breaking_nodes([_record(breaking=False)]) == []

    def test_package_remove_expands_to_old_surface_objects(self, library_pair):
        old, _ = library_pair
        record = _record(node="", category="Package", condition="Remove")
        nodes = collect_breaking_nodes([record], old_surface=old)
        assert {n.key for n in nodes} == {"OldThing", "DoWork", "SafeThing"}
        assert all(n.record is record for n in nodes)


# A valid import header and, inside a function body, a character that starts no Go token.
_BODY_LEXING_ERROR = (
    "package main\n\n"
    'import "example.com/brklib"\n\n'
    "func main() {\n"
    "\tbrklib.OldThing() @\n"
    "}\n"
)


class TestBindImports:
    def test_explicit_alias(self):
        b = bind_imports('package main\n\nimport pb "example.com/lib/protobuf"\n')
        assert b.bindings == {"pb": "example.com/lib/protobuf"}

    def test_default_alias_is_last_segment(self):
        b = bind_imports('package main\n\nimport "example.com/lib/protobuf"\n')
        assert b.bindings == {"protobuf": "example.com/lib/protobuf"}

    def test_dot_and_blank_imports(self):
        src = 'package main\n\nimport (\n\t. "example.com/lib"\n\t_ "example.com/side"\n)\n'
        b = bind_imports(src)
        assert b.dot_imports == {"example.com/lib"}
        assert b.blank_imports == {"example.com/side"}
        assert b.package_paths == {"example.com/lib"}

    def test_parse_failure(self):
        with pytest.raises(ParseFailure):
            bind_imports("not a go file at all ???")

    def test_lexing_error_in_a_function_body(self):
        with pytest.raises(ParseFailure, match=r"^main.go: line 6: unexpected character '@'$"):
            bind_imports(_BODY_LEXING_ERROR, "main.go")


class TestScanClient:
    def test_matches_equal_oracle_per_client(self, library_pair, client_roots):
        old, new = library_pair
        records = diff_surfaces(old, new)
        nodes = collect_breaking_nodes(records, old_surface=old)
        for name, root in client_roots.items():
            usages = scan_client(root, nodes, client_module=name)
            got = sorted((u.file, u.line, u.qualified_name, u.node.key) for u in usages)
            assert got == textual_search_oracle(root, nodes), name

    def test_non_importing_client_is_skipped(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        usages = scan_client(client_roots["client-none"], nodes, report=report)
        assert usages == []
        assert report.scanned == []
        assert report.skipped == ["main.go"]

    def test_blank_import_does_not_enter_pc(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        assert scan_client(client_roots["client-blank"], nodes, report=report) == []
        assert report.skipped == ["main.go"]

    def test_skipped_files_never_tokenized(self, library_pair, client_roots, monkeypatch):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        calls = []
        real = impact_module.tokenize

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(impact_module, "tokenize", spy)
        for name in fx.SKIPPED_CLIENTS:
            scan_client(client_roots[name], nodes)
        assert calls == []
        scan_client(client_roots["client-default"], nodes)
        assert len(calls) == 1

    def test_file_with_lexing_error_is_neither_scanned_nor_skipped(self, tmp_path, library_pair):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        root = write_tree(
            tmp_path / "client",
            {"bad.go": _BODY_LEXING_ERROR, "good.go": fx.CLIENTS["client-default"]["main.go"]},
        )
        report = ScanReport()
        usages = scan_client(root, nodes, report=report)
        assert report.scanned == ["good.go"]
        assert report.skipped == []
        assert {u.file for u in usages} == {"good.go"}

    def test_unaffected_importing_client(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        assert scan_client(client_roots["client-unaffected"], nodes, report=report) == []
        assert report.scanned == ["main.go"]

    def test_method_node_requires_type_witness(self, tmp_path, library_pair):
        nodes = collect_breaking_nodes(
            [_record(node="Conn.Close", category="Function", condition="Remove")]
        )
        with_witness = write_tree(
            tmp_path / "with",
            {
                "main.go": (
                    "package main\n\n"
                    'import "example.com/brklib"\n\n'
                    "func main() {\n"
                    "\tvar c brklib.Conn\n"
                    "\tc.Close()\n"
                    "}\n"
                )
            },
        )
        without_witness = write_tree(
            tmp_path / "without",
            {
                "main.go": (
                    "package main\n\n"
                    'import "example.com/brklib"\n'
                    'import "example.com/filelib"\n\n'
                    "func main() {\n"
                    "\tbrklib.SafeThing()\n"
                    "\tf := filelib.Open()\n"
                    "\tf.Close()\n"
                    "}\n"
                )
            },
        )
        (usage,) = scan_client(with_witness, nodes)
        assert usage.qualified_name == "brklib.Conn.Close"
        assert usage.line == 7
        assert scan_client(without_witness, nodes) == []

    def test_usage_lines_are_accurate(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        (usage,) = scan_client(client_roots["client-aliased"], nodes)
        assert usage.file == "main.go"
        assert usage.line == 6
        assert usage.qualified_name == "bl.DoWork"


class TestAnalyzeImpact:
    def test_full_corpus(self, library_pair, client_roots):
        old, new = library_pair
        records = diff_surfaces(old, new)
        result = analyze_impact(records, [client_roots[n] for n in sorted(fx.CLIENTS)], old_surface=old)
        by_client = {}
        for u in result.usages:
            by_client.setdefault(u.client_module, []).append(u.qualified_name)
        assert by_client == {
            "example.com/client-default": ["brklib.OldThing"],
            "example.com/client-aliased": ["bl.DoWork"],
            "example.com/client-dot": ["OldThing"],
        }

    def test_zero_breaking_records(self, client_roots):
        result = analyze_impact([], [client_roots["client-default"]])
        assert result.usages == [] and result.nodes == []

    def test_condition_usage_counts(self, library_pair, client_roots):
        old, new = library_pair
        records = diff_surfaces(old, new)
        result = analyze_impact(records, [client_roots[n] for n in sorted(fx.CLIENTS)], old_surface=old)
        counts = Counter((u.node.category, u.node.condition) for u in result.usages)
        assert counts[("Function", "Remove")] == 2  # default + dot clients
        assert counts[("Function", "Param Change")] == 1
