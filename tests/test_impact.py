from __future__ import annotations

import importlib
import logging
import math
import re
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import impact_fixtures as fx
import impact_reference as reference
import semverdiff.impact as impact_module
from oracles import textual_search_oracle
from conftest import symlink_or_skip, write_module, write_tree
from semverdiff.gotypes import Named
from semverdiff.lexer import GoSyntaxError, tokenize
from semverdiff.parser import _Parser, parse_go_file
from lexer_reference import _HOSTILE, _SOURCES, _mutants, _reference_tokens
from semverdiff.diff import ChangeRecord, diff_surfaces
from semverdiff.impact import (
    BreakingNode,
    ClientCheckout,
    ClientFile,
    ClientUsage,
    ImportBinding,
    ScanReport,
    analyze_impact,
    bind_imports,
    collect_breaking_nodes,
    find_selectors,
    scan_client,
)
from semverdiff.surface import ApiSurface, PackageSurface, ParseFailure, extract_surface
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
        # A blank import binds no name and exposes no package.
        assert b.bindings == {}
        assert b.package_paths == {"example.com/lib"}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((None, ".", "_", "a", "lib", "x")),
                st.sampled_from(("a", "lib", "x/a", "example.com/lib", "example.com/x/b", "c/go-yaml", "gopkg.in/yaml.v3")),
            ),
            max_size=6,
        ),
        st.booleans(),
    )
    def test_bindings_are_the_import_map_the_parser_resolves_by(self, imports, grouped):
        specs = [f'{name} "{path}"' if name else f'"{path}"' for name, path in imports]
        if grouped:
            header = "import (\n" + "".join(f"\t{spec}\n" for spec in specs) + ")\n"
        else:
            header = "".join(f"import {spec}\n" for spec in specs)
        bindings = bind_imports(f"package main\n\n{header}").bindings
        # Each name that can qualify a type, and one that no import binds.
        names = sorted(name for name in bindings if name.isidentifier()) + ["unbound"]
        src = f"package main\n\n{header}\n" + "".join(f"var V{i} {name}.T\n" for i, name in enumerate(names))
        parser = _Parser(tokenize(src), "example.com/main")
        parser.parse_imports()
        assert parser.import_map == bindings
        gofile = parse_go_file(src, "example.com/main")
        assert [spec.type for spec in gofile.decls] == [Named(bindings.get(name, name), "T") for name in names]

    def test_parse_failure(self):
        with pytest.raises(ParseFailure):
            bind_imports("not a go file at all ???")

    def test_lexing_error_in_a_function_body(self):
        with pytest.raises(ParseFailure, match=r"^main.go: line 6: unexpected character '@'$"):
            bind_imports(_BODY_LEXING_ERROR, "main.go")

    def test_misnesting_in_the_header_after_the_imports(self):
        # The header runs to the first newline before a declaration keyword
        # at column 0, so the var on the import's line is lexed with it.
        src = 'package main\n\nimport "example.com/brklib"; var x = (]\n\nfunc main() {}\n'
        with pytest.raises(ParseFailure, match=r"^main.go: line 3: expected '\)', found '\]'$"):
            bind_imports(src, "main.go")


class TestScanClient:
    def test_matches_equal_oracle_per_client(self, library_pair, client_roots):
        old, new = library_pair
        records = diff_surfaces(old, new)
        nodes = collect_breaking_nodes(records, old_surface=old)
        for name, root in client_roots.items():
            usages = scan_client(ClientCheckout(root, name), nodes)
            got = sorted((u.file, u.line, u.qualified_name, u.node.key) for u in usages)
            assert got == textual_search_oracle(root, nodes), name

    def test_non_importing_client_is_skipped(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        usages = scan_client(ClientCheckout(client_roots["client-none"]), nodes, report=report)
        assert usages == []
        assert report.scanned == []
        assert report.skipped == ["main.go"]

    def test_blank_import_does_not_enter_pc(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        assert scan_client(ClientCheckout(client_roots["client-blank"]), nodes, report=report) == []
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
            scan_client(ClientCheckout(client_roots[name]), nodes)
        assert calls == []
        scan_client(ClientCheckout(client_roots["client-default"]), nodes)
        assert len(calls) == 1

    def test_file_with_lexing_error_is_neither_scanned_nor_skipped(self, tmp_path, library_pair):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        root = write_tree(
            tmp_path / "client",
            {"bad.go": _BODY_LEXING_ERROR, "good.go": fx.CLIENTS["client-default"]["main.go"]},
        )
        report = ScanReport()
        usages = scan_client(ClientCheckout(root), nodes, report=report)
        assert report.scanned == ["good.go"]
        assert report.skipped == []
        assert report.failed == ["bad.go"]
        assert {u.file for u in usages} == {"good.go"}

    def test_vendor_and_testdata_are_not_walked(self, tmp_path):
        nodes = collect_breaking_nodes([_record()])
        src = 'package main\n\nimport "example.com/brklib"\n\nfunc main() {\n\tbrklib.OldThing()\n}\n'
        root = write_tree(tmp_path / "client", {"c.go": src, "testdata/t.go": src, "vendor/x/x.go": src})
        report = ScanReport()
        (usage,) = scan_client(ClientCheckout(root), nodes, report=report)
        assert (usage.file, usage.line, usage.qualified_name) == ("c.go", 6, "brklib.OldThing")
        assert (report.scanned, report.skipped, report.failed) == (["c.go"], [], [])

    def test_names_starting_with_dot_or_underscore_are_not_walked(self, tmp_path):
        nodes = collect_breaking_nodes([_record()])
        src = 'package main\n\nimport "example.com/brklib"\n\nfunc main() {\n\tbrklib.OldThing()\n}\n'
        files = {"c.go": src, "_x.go": src, ".y.go": src, "_old/o.go": src, ".hidden/h.go": src}
        root = write_tree(tmp_path / "client", files)
        report = ScanReport()
        (usage,) = scan_client(ClientCheckout(root), nodes, report=report)
        assert (usage.file, usage.line, usage.qualified_name) == ("c.go", 6, "brklib.OldThing")
        assert (report.scanned, report.skipped, report.failed) == (["c.go"], [], [])

    def test_a_directory_symlink_loop_is_not_followed_and_a_symlinked_file_is_read(self, tmp_path):
        nodes = collect_breaking_nodes([_record()])
        src = 'package main\n\nimport "example.com/brklib"\n\nfunc main() {\n\tbrklib.OldThing()\n}\n'
        root = write_tree(tmp_path / "client", {"c.go": src, "a/a.go": src})
        write_tree(tmp_path / "elsewhere", {"x.go": src})
        symlink_or_skip("..", root / "a" / "up", directory=True)
        symlink_or_skip("../elsewhere/x.go", root / "link.go")
        report = ScanReport()
        usages = scan_client(ClientCheckout(root), nodes, report=report)
        assert [(u.file, u.line) for u in usages] == [("c.go", 6), ("link.go", 6), ("a/a.go", 6)]
        assert (report.scanned, report.skipped, report.failed) == (["c.go", "link.go", "a/a.go"], [], [])

    def test_unaffected_importing_client(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        report = ScanReport()
        assert scan_client(ClientCheckout(client_roots["client-unaffected"]), nodes, report=report) == []
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
        (usage,) = scan_client(ClientCheckout(with_witness), nodes)
        assert usage.qualified_name == "brklib.Conn.Close"
        assert usage.line == 7
        assert scan_client(ClientCheckout(without_witness), nodes) == []

    def test_usage_lines_are_accurate(self, library_pair, client_roots):
        old, new = library_pair
        nodes = collect_breaking_nodes(diff_surfaces(old, new), old_surface=old)
        (usage,) = scan_client(ClientCheckout(client_roots["client-aliased"]), nodes)
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

    @pytest.mark.parametrize("manifest", [None, "require (\n", b"module \xff\n"])
    def test_client_without_a_readable_manifest_is_named_by_its_directory(self, library_pair, tmp_path, manifest):
        old, new = library_pair
        root = write_tree(tmp_path / "app-dir", {"main.go": fx.CLIENTS["client-default"]["main.go"]})
        if isinstance(manifest, str):
            (root / "go.mod").write_text(manifest, encoding="utf-8")
        elif manifest is not None:
            (root / "go.mod").write_bytes(manifest)
        result = analyze_impact(diff_surfaces(old, new), [root], old_surface=old)
        assert [(u.client_module, u.client_version, u.qualified_name) for u in result.usages] == [
            ("app-dir", None, "brklib.OldThing")
        ]

    def test_each_client_given_by_its_root_is_dropped_before_the_next_is_walked(
        self, library_pair, client_roots, monkeypatch
    ):
        old, new = library_pair
        made: list[weakref.ref] = []
        alive_at_walks: list[list[bool]] = []
        real_walk = impact_module.walk_go_files

        class Tracked(ClientCheckout):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        def walk(top, *args):
            alive_at_walks.append([ref() is not None for ref in made])
            return real_walk(top, *args)

        monkeypatch.setattr(impact_module, "ClientCheckout", Tracked)
        monkeypatch.setattr(impact_module, "walk_go_files", walk)
        roots = [client_roots[n] for n in sorted(fx.CLIENTS)]
        result = analyze_impact(diff_surfaces(old, new), roots, old_surface=old)
        assert alive_at_walks == [[False] * k + [True] for k in range(len(roots))]
        assert len(result.usages) == 3

    @staticmethod
    def _scan_as_given(records, clients, old_surface, caplog) -> tuple[list, list, list[str]]:
        """Usages, scan reports and client log lines of one analyze_impact call."""
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=impact_module.__name__):
            result = analyze_impact(records, clients, old_surface=old_surface)
        return result.usages, result.reports, [r.getMessage() for r in caplog.records]

    def test_roots_scan_as_checkouts_named_by_hand(self, library_pair, client_roots, tmp_path, caplog):
        old, new = library_pair
        records = diff_surfaces(old, new)
        broken = write_tree(
            tmp_path / "client-broken",
            {"bad.go": _BODY_LEXING_ERROR, "good.go": fx.CLIENTS["client-default"]["main.go"]},
        )
        names = sorted(fx.CLIENTS)
        roots = [client_roots[n] for n in names] + [broken]
        checkouts = [ClientCheckout(client_roots[n], f"example.com/{n}") for n in names]
        checkouts.append(ClientCheckout(broken, "client-broken"))
        given_roots = self._scan_as_given(records, roots, old, caplog)
        assert given_roots == self._scan_as_given(records, checkouts, old, caplog)
        usages, reports, lines = given_roots
        assert [(u.client_module, u.file, u.qualified_name) for u in usages][-1] == ("client-broken", "good.go", "brklib.OldThing")
        assert reports[-1] == ScanReport(scanned=["good.go"], failed=["bad.go"])
        assert lines == [f"skipping client file {broken / 'bad.go'}: bad.go: line 6: unexpected character '@'"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_roots_scan_as_checkouts_named_by_hand(self, seed, tmp_path, monkeypatch, caplog):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        truth = gen.generate("impact-clients", seed, tmp_path)
        found = 0
        for op in truth["ops"]:
            module = (tmp_path / op["lib_old"] / "go.mod").read_text(encoding="utf-8").split()[1]
            old = extract_surface(tmp_path / op["lib_old"], module, parse_version(op["from"]))
            records = diff_surfaces(old, extract_surface(tmp_path / op["lib_new"], module, parse_version(op["to"])))
            roots = [tmp_path / client for client in op["clients"]]
            checkouts = [
                ClientCheckout(root, (root / "go.mod").read_text(encoding="utf-8").split()[1]) for root in roots
            ]
            given_roots = self._scan_as_given(records, roots, old, caplog)
            assert given_roots == self._scan_as_given(records, checkouts, old, caplog)
            found += len(given_roots[0])
        assert found == sum(len(op["usages"]) for op in truth["ops"]) > 0

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


# -- the selector scanner against the lexer ------------------------------------


def _reference_occurrences(text: str) -> tuple[list[tuple[str, str, int]], list[tuple[str, int]]]:
    """(base, member, line) selector pairs and bare identifier uses, from tokens.

    The reference the scanner must agree with: a selector is ident "."
    ident in the lexer's token stream, with the member's line, and a bare
    use is an identifier whose previous token is not ".".
    """
    tokens = _reference_tokens(text)
    selectors: list[tuple[str, str, int]] = []
    bares: list[tuple[str, int]] = []
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "ident":
            continue
        prev_is_dot = i > 0 and tokens[i - 1].kind == "op" and tokens[i - 1].text == "."
        next_is_dot = i + 2 < n and tokens[i + 1].kind == "op" and tokens[i + 1].text == "." and tokens[i + 2].kind == "ident"
        if next_is_dot:
            selectors.append((tok.text, tokens[i + 2].text, tokens[i + 2].line))
        if not prev_is_dot:
            bares.append((tok.text, tok.line))
    return selectors, bares


def _every_name(text: str) -> set[str]:
    """Each identifier the lexer finds in text, and each word of it, so that
    words in comments and literals are candidates of the bare scan too."""
    return {tok.text for tok in _reference_tokens(text) if tok.kind == "ident"} | set(re.findall(r"\w+", text))


def _scanned(text: str) -> tuple[list[tuple[str, str, int]], list[tuple[str, int]]]:
    selectors = impact_module.tokenize(text)
    return list(selectors), selectors.bare_identifiers(_every_name(text))


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The scanner's selectors, after checking that it agrees with the tokens."""
    scanned = _scanned(text)
    assert scanned == _reference_occurrences(text), text
    return scanned[0]


def _assert_scan_agrees(text: str) -> None:
    try:
        reference = _reference_occurrences(text)
    except GoSyntaxError:
        assume(False)
    assert _scanned(text) == reference, text


# Fragments that stress the scanner's rules: dots, numbers, newlines, comments.
_SCAN_FRAGMENTS = (
    ".", "...", "x.", ".Y", "\n", " ", "\t", "x", "_", "9", "0b12", "0x1p-2", "1.e5", ".5", "1_0i",
    "/* c */", "/*\n*/", "// c\n", "`a\nb`", '"s"', "'r'", "type", "func", "return",
)


@st.composite
def _scan_mutants(draw) -> str:
    """A fixture source with a few scanner-stressing fragments inserted anywhere."""
    src = draw(st.sampled_from(_SOURCES))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(_SCAN_FRAGMENTS + _HOSTILE)) + src[at:]
    return src


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestSelectorScan:
    def test_fixture_sources(self):
        for src in _SOURCES:
            _scan(src)

    def test_generated_client_files(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        gen.generate("impact-clients", 1, tmp_path)
        files = sorted(tmp_path.rglob("*.go"))
        assert len(files) > 100
        for path in files:
            _scan(path.read_text(encoding="utf-8"))

    @settings(max_examples=300, deadline=None)
    @given(_mutants())
    def test_hostile_mutants(self, src):
        _assert_scan_agrees(src)

    @settings(max_examples=300, deadline=None)
    @given(_scan_mutants())
    def test_scanner_mutants(self, src):
        _assert_scan_agrees(src)

    def test_newline_after_the_dot_keeps_the_selector(self):
        assert _scan("x.\nY") == [("x", "Y", 2)]

    @pytest.mark.parametrize("src", ["x\n.Y", "x // c\n.Y", "x /*\n*/ .Y"])
    def test_semicolon_before_the_dot_ends_the_selector(self, src):
        assert _scan(src) == []

    def test_comment_without_newline_is_space(self):
        assert _scan("x /* c */ .Y") == [("x", "Y", 1)]

    def test_keywords_are_neither_base_nor_member(self):
        assert _scan("x.type\ntype.Y\nfunc.Z") == []

    def test_chained_selector_gives_both_pairs(self):
        assert _scan("a.b.c") == [("a", "b", 1), ("b", "c", 1)]

    @pytest.mark.parametrize("src", ["a...b", "f(a...)\ng(x ...Y)", "x....Y"])
    def test_ellipsis_is_not_a_selector(self, src):
        assert _scan(src) == []

    @pytest.mark.parametrize("src", ["1.e5.Foo", "0x1p-2", "x.5.Y", "0b12.Y", "...0x1p2"])
    def test_numbers_give_no_selectors(self, src):
        assert _scan(src) == []

    def test_digits_at_the_end_of_an_identifier_belong_to_it(self):
        assert _scan("x1.Y2\nv12e5.F") == [("x1", "Y2", 1), ("v12e5", "F", 2)]

    def test_literals_break_a_selector(self):
        assert _scan('x "s".Y\nx `a\nb`.Y\nx \'r\'.Y\nx 1.Y') == []

    def test_leading_byte_order_mark_is_dropped(self):
        assert impact_module.tokenize("\ufeffx.Y") == [("x", "Y", 1)]
        assert _scan("\ufeffx.Y") == [("x", "Y", 1)]

    def test_selector_reports_the_line_of_its_member(self):
        assert _scan("`\n`\n/*\n\n*/ a.\n\nb.\n// c\nc") == [("a", "b", 7), ("b", "c", 9)]

    @pytest.mark.parametrize("src", ["1x.Y", "0b12x.Y", "1.e5x.Y", "1e+5.x.Y", "1.i1.e5p1.Y", "x /* a.b */ .Y", "x /**/ /* c.d */ .Y"])
    def test_identifiers_after_numbers_and_comments(self, src):
        assert [member for _base, member, _line in _scan(src)] == ["Y"]

    def test_a_word_that_is_one_number_token_is_no_candidate(self):
        text = "x := 0x137 + 1e5 + 0b101 + 1x + Foo + 0x1g + 1.e5x + 1.0x5 + 1e+0x5\n"
        assert _scanned(text) == _reference_occurrences(text)
        hexes = "var _ = []int{" + ", ".join(f"0x{k:x}" for k in range(10_000)) + "}\n"
        assert _scanned(hexes) == _reference_occurrences(hexes)

    def test_bare_scan_takes_only_the_names_asked(self):
        text = "package p\n\nvar _ = Foo(Bar, x.Foo, 1Foo, 1.e5Foo, a...Foo, \"Foo\")\n"
        assert impact_module.tokenize(text).bare_identifiers({"Foo"}) == [("Foo", 3)] * 4
        assert impact_module.tokenize(text).bare_identifiers(set()) == []
        # Both names end the word 1e5x, which lexes as 1e5 and x: the
        # candidate is e5x, the longer, but the identifier is x.
        text = "package p\n\nvar _ = 1e5x + e5x\n"
        assert impact_module.tokenize(text).bare_identifiers({"e5x", "x"}) == [("x", 3), ("e5x", 3)]


@pytest.mark.parametrize("workload", ["impact-clients", "corpus-report"])
@pytest.mark.parametrize("seed", [1, 2])
def test_scan_agrees_with_blanking_on_generated_files(workload, seed, tmp_path, monkeypatch):
    """The scan gives the selectors and bare identifiers that blanking the
    literals and scanning the blanked text gave, on every generated file."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    gen.generate(workload, seed, tmp_path)
    files = sorted(tmp_path.rglob("*.go"))
    assert len(files) > 100
    for path in files:
        text = path.read_text(encoding="utf-8")
        blanked = reference.blank_literals(text)
        selectors = impact_module.tokenize(text)
        assert list(selectors) == reference._selectors(blanked), path
        bares = reference._bare_identifiers(blanked)
        names = {name for name, _line in bares} | set(re.findall(r"\w+", text))
        assert selectors.bare_identifiers(names) == bares, path


# Hostile inputs for the selector and bare-identifier scan, each built from
# one unit repeated to about the given size: long chains of selectors and of
# numbers the lexer must split, and literals and comments full of selectors.
_SCAN_HOSTILE = {
    "selector-chain": ("a.", 1_000_000),
    "float-chain": ("1.e5.x", 1_000_000),
    "number-dot-chain": ("1.e.x.", 250_000),
    "block-comment": ("x.Y ", 2_000_000),
    "raw-string": ("x.Y ", 2_000_000),
    "comment-before-dot": ("x /* c */ .Y\n", 1_300_000),
}


def _scan_hostile(kind: str, size: int) -> str:
    unit, _size = _SCAN_HOSTILE[kind]
    body = unit * (size // len(unit))
    if kind == "block-comment":
        return f"/* {body} */\nx.Y\n"
    if kind == "raw-string":
        return f"var s = `{body}`\nx.Y\n"
    return body


class TestScanTime:
    @pytest.mark.parametrize("kind", sorted(_SCAN_HOSTILE))
    def test_time_grows_linearly(self, kind):
        """Four times the input takes at most five times as long, selectors
        and bare identifiers both, in one of three rounds that each time the
        large and the small input one after the other. Times are this
        process's CPU time, so that other processes count for less, and a
        short scan is repeated until the small input takes a tenth of a
        second. A scan that grows quadratically fails every round."""
        size = _SCAN_HOSTILE[kind][1]
        small, large = _scan_hostile(kind, size // 4), _scan_hostile(kind, size)
        names = {"a", "x", "Y", "e", "e5"}

        def cpu_time(text: str, repeats: int) -> float:
            start = time.process_time()
            for _ in range(repeats):
                find_selectors(text).bare_identifiers(names)
            return time.process_time() - start

        repeats = max(1, math.ceil(0.1 / max(cpu_time(small, 1), 1e-3)))
        assert any(cpu_time(large, repeats) <= 5 * cpu_time(small, repeats) for _ in range(3))


# -- the matcher against the reference -----------------------------------------


def _by_package(nodes: list[BreakingNode]) -> dict[str, dict[str, BreakingNode]]:
    by_package: dict[str, dict[str, BreakingNode]] = {}
    for node in nodes:
        by_package.setdefault(node.package, {})[node.key] = node
    return by_package


def _nodes(records: list[ChangeRecord], old_surface: ApiSurface | None) -> list[BreakingNode]:
    """collect_breaking_nodes, after checking that it agrees with the reference."""
    nodes = collect_breaking_nodes(records, old_surface)
    assert nodes == reference.collect_breaking_nodes(records, old_surface)
    return nodes


def _assert_match_agrees(rel_file: str, text: str, binding: ImportBinding, nodes: list[BreakingNode]) -> list[ClientUsage]:
    """The file's usages, after checking that the reference gives the same list."""
    args = (_by_package(nodes), "example.com/client", "v1.0.0")
    usages = impact_module._match_file(ClientFile(rel_file, text, binding), *args)
    assert usages == reference._match_file(rel_file, text, binding, *args), text
    return usages


def _package_remove(package: str) -> ChangeRecord:
    return _record(package=package, node="", category="Package", condition="Remove")


_POOL_PACKAGES = ("example.com/a", "example.com/x/a", "example.com/other")
_POOL_KEYS = ("Foo", "T", "Conn", "T.M", "T.Close", "Conn.Close", "Conn.Foo")
_POOL_KINDS = (
    ("Function", "Remove"),
    ("Function", "Param Change"),
    ("Struct", "Field Type Change"),
    ("Package", "Remove"),
)
_POOL_ALIASES = ("a", "b", "x", "y")
_POOL_NAMES = ("Foo", "Bar", "T", "Conn", "M", "Close")
_POOL_SEPARATORS = (" ", "\n", "(", ")", ".", "; ", '"s" ', "1 ")


@st.composite
def _match_cases(draw) -> tuple[str, ImportBinding, list[ChangeRecord], ApiSurface]:
    """Random client text, import binding, breaking records and old surface
    over a few packages and keys that alias, dot-import and receive methods."""
    packages = st.sampled_from(_POOL_PACKAGES)
    bindings = draw(st.dictionaries(st.sampled_from(_POOL_ALIASES), packages, min_size=1, max_size=4))
    dots = draw(st.sets(packages, max_size=4))
    binding = ImportBinding(bindings=bindings, dot_imports=dots)
    record = st.tuples(packages, st.sampled_from(_POOL_KEYS + ("",)), st.sampled_from(_POOL_KINDS), st.sampled_from((True, True, False)))
    records = [
        _record(package=package, node=key, category=category, condition=condition, breaking=breaking)
        for package, key, (category, condition), breaking in draw(st.lists(record, min_size=2, max_size=12))
    ]
    objects = draw(st.dictionaries(packages, st.sets(st.sampled_from(_POOL_KEYS)), max_size=3))
    old_surface = ApiSurface(
        module_path="example.com",
        version=None,
        packages={pkg: PackageSurface(pkg, dict.fromkeys(sorted(keys))) for pkg, keys in objects.items()},
    )
    # Selectors on aliases and on a variable, and bare names, between separators.
    words = st.one_of(
        st.sampled_from(_POOL_NAMES),
        st.tuples(st.sampled_from(_POOL_ALIASES + ("v",)), st.sampled_from(_POOL_NAMES)).map(".".join),
    )
    text = "".join(draw(st.lists(st.tuples(words, st.sampled_from(_POOL_SEPARATORS)).map("".join), min_size=4, max_size=30)))
    return text, binding, records, old_surface


def _method_nodes(old_surface: ApiSurface, package: str, methods: list[str]) -> list[BreakingNode]:
    """A breaking method node T.M for each object T of package and each M."""
    record = _record(package=package, node="", condition="Remove")
    return [
        BreakingNode(package, f"{key}.{method}", "Function", "Remove", record)
        for key in sorted(old_surface.packages[package].objects)
        if "." not in key
        for method in methods
    ]


class TestAgainstTheReference:
    def test_fixture_clients(self, library_pair, client_roots):
        old, new = library_pair
        records = diff_surfaces(old, new)
        node_sets = [
            _nodes(records, old),
            _nodes(records + [_package_remove(MOD)], old),
            _nodes(records, old) + _method_nodes(old, MOD, ["OldThing", "DoWork", "Use"]),
        ]
        for root in client_roots.values():
            for path in sorted(root.rglob("*.go")):
                text = path.read_text(encoding="utf-8")
                binding = bind_imports(text, path.name)
                for nodes in node_sets:
                    _assert_match_agrees(path.name, text, binding, nodes)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_client_files(self, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        truth = gen.generate("impact-clients", seed, tmp_path)
        kinds = Counter()
        for op in truth["ops"]:
            module = (tmp_path / op["lib_old"] / "go.mod").read_text(encoding="utf-8").split()[1]
            old = extract_surface(tmp_path / op["lib_old"], module, parse_version(op["from"]))
            new = extract_surface(tmp_path / op["lib_new"], module, parse_version(op["to"]))
            records = diff_surfaces(old, new)
            core = f"{module}/corekit"
            node_sets = [
                _nodes(records, old),
                _nodes(records + [_package_remove(core)], old) + _method_nodes(old, core, ["ToUpper", "TrimSpace"]),
            ]
            for client in op["clients"]:
                for path in sorted((tmp_path / client).rglob("*.go")):
                    text = path.read_text(encoding="utf-8")
                    binding = bind_imports(text, path.name)
                    for nodes in node_sets:
                        usages = _assert_match_agrees(path.name, text, binding, nodes)
                        kinds.update("method" if "." in u.node.key else "direct" for u in usages)
        assert kinds["direct"] > 10 and kinds["method"] > 10

    @settings(max_examples=500, deadline=None)
    @given(_match_cases())
    def test_random_bindings_records_and_text(self, case):
        text, binding, records, old_surface = case
        _assert_match_agrees("c.go", text, binding, _nodes(records, old_surface))
        _assert_match_agrees("c.go", text, binding, _nodes(records, None))

    def test_tied_usages_are_ordered_by_package(self):
        """Dot-imported packages that share a key give usages that tie on
        file, line, name and key; they come in package order, whatever the
        hash seed."""
        packages = [f"example.com/p{i}" for i in range(6)]
        record = _record(node="Foo")
        nodes = [BreakingNode(pkg, key, "Function", "Remove", record) for pkg in packages for key in ("Foo", "T.M")]
        text = "package main\n\nfunc main() {\n\tvar t T\n\tFoo()\n\tt.M()\n}\n"
        binding = ImportBinding(dot_imports=set(packages))
        usages = impact_module._match_file(ClientFile("main.go", text, binding), _by_package(nodes), "example.com/c", None)
        assert [(u.line, u.qualified_name, u.node.package) for u in usages] == [
            (line, name, pkg) for line, name in ((5, "Foo"), (6, "T.M")) for pkg in packages
        ]
