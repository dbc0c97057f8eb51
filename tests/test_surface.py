from __future__ import annotations

import gc
import json

import pytest
from hypothesis import given, strategies as st

from conftest import symlink_or_skip, write_module
from semverdiff.diff import diff_surfaces
from semverdiff.surface import (
    FILTERED_LAYOUT_DIRS,
    SurfaceEmpty,
    extract_surface,
    filter_layout,
    go_build_ignores,
    is_exported,
    surface_to_dict,
    surface_to_json,
)
from semverdiff import surface as surface_module
from semverdiff.gotypes import Func
from semverdiff.parser import ConstSpec, FuncDecl, parse_go_file
from semverdiff.versions import parse_version

MOD = "example.com/lib"


class TestIsExported:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("NewAgentClient", True),
            ("newAgentClient", False),
            ("Überschrift", True),
            ("_Private", False),
            ("x", False),
            ("日本語", False),
            ("", False),
        ],
    )
    def test_cases(self, name, expected):
        assert is_exported(name) is expected

    @given(st.characters(min_codepoint=0x41, max_codepoint=0x2FFF), st.text("abcXYZ09_", max_size=4))
    def test_matches_uppercase_category_oracle(self, first, rest):
        import unicodedata

        name = first + rest
        assert is_exported(name) is (unicodedata.category(first) == "Lu")


class TestFilterLayout:
    @pytest.mark.parametrize("dirname", sorted(FILTERED_LAYOUT_DIRS))
    def test_all_nine_directories(self, dirname):
        assert filter_layout(dirname) is True
        assert filter_layout(f"{dirname}/auth") is True
        assert filter_layout(f"x/{dirname}/y") is True

    def test_normal_paths_kept(self):
        assert filter_layout("pkg/api") is False
        assert filter_layout("") is False
        assert filter_layout(".") is False

    def test_extra_exclusions(self):
        assert filter_layout("gen/proto", {"gen"}) is True
        assert filter_layout("gen/proto") is False

    def test_segment_must_match_exactly(self):
        assert filter_layout("internals/auth") is False
        assert filter_layout("mycmd") is False


class TestExtractSurface:
    def test_only_exported_objects(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\nfunc Foo() {}\n\nfunc bar() {}\n"})
        surface = extract_surface(tmp_path, MOD)
        assert list(surface.packages[MOD].objects) == ["Foo"]

    def test_empty_tree_raises(self, tmp_path):
        with pytest.raises(SurfaceEmpty):
            extract_surface(tmp_path, MOD)

    def test_struct_fields_exported_flags(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\ntype T struct {\n\tA int\n\tb int\n}\n"})
        surface = extract_surface(tmp_path, MOD)
        fields = surface.packages[MOD].objects["T"].type.fields
        assert [(f.name, f.exported) for f in fields] == [("A", True), ("b", False)]

    def test_methods_of_exported_types(self, tmp_path):
        src = (
            "package lib\n\n"
            "type Tree struct{}\n\n"
            "type hidden struct{}\n\n"
            "func (t *Tree) Grow() {}\n\n"
            "func (t *Tree) prune() {}\n\n"
            "func (h *hidden) Grow() {}\n"
        )
        write_module(tmp_path, MOD, {"lib.go": src})
        surface = extract_surface(tmp_path, MOD)
        keys = set(surface.packages[MOD].objects)
        assert keys == {"Tree", "Tree.Grow"}
        method = surface.packages[MOD].objects["Tree.Grow"]
        assert method.kind == "method" and method.receiver == "Tree"

    def test_filtered_directories_are_not_walked(self, tmp_path):
        files = {"lib.go": "package lib\n\nfunc Keep() {}\n"}
        for d in FILTERED_LAYOUT_DIRS:
            files[f"{d}/code.go"] = f"package {d}\n\nfunc Planted() {{}}\n"
        write_module(tmp_path, MOD, files)
        surface = extract_surface(tmp_path, MOD)
        assert set(surface.packages) == {MOD}

    def test_nested_module_excluded(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {
                "lib.go": "package lib\n\nfunc Keep() {}\n",
                "sub/go.mod": "module example.com/lib/sub\n",
                "sub/sub.go": "package sub\n\nfunc Nested() {}\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert set(surface.packages) == {MOD}

    def test_test_files_excluded(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {
                "lib.go": "package lib\n\nfunc Keep() {}\n",
                "lib_test.go": "package lib\n\nfunc TestOnly() {}\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert list(surface.packages[MOD].objects) == ["Keep"]

    def test_what_go_build_ignores_is_not_walked(self, tmp_path):
        files = {"a.go": "package m\n\nfunc A() {}\n", "pkg/p.go": "package pkg\n\nfunc P() {}\n"}
        for rel, name in [("_u.go", "U"), (".d.go", "D"), ("testdata/fix/f.go", "F"), ("_old/o.go", "O"), (".hidden/h.go", "H")]:
            files[rel] = f"package m\n\nfunc {name}() {{}}\n"
        write_module(tmp_path, "example.com/m", files)
        surface = extract_surface(tmp_path, "example.com/m")
        objects = {path: list(pkg.objects) for path, pkg in surface.packages.items()}
        assert objects == {"example.com/m": ["A"], "example.com/m/pkg": ["P"]}

    def test_an_edit_under_testdata_gives_no_record(self, tmp_path):
        old = {"lib.go": "package lib\n\nfunc F() {}\n", "testdata/fix/f.go": "package fix\n\nfunc G(int) {}\n"}
        new = {**old, "testdata/fix/f.go": "package fix\n\nfunc G(string) {}\n\nvar H int\n"}
        write_module(tmp_path / "old", MOD, old)
        write_module(tmp_path / "new", MOD, new)
        assert diff_surfaces(extract_surface(tmp_path / "old", MOD), extract_surface(tmp_path / "new", MOD)) == []

    @pytest.mark.parametrize(
        "name,ignored",
        [("testdata", True), ("vendor", True), (".git", True), ("_old", True), ("_u.go", True), (".d.go", True),
         ("a.go", False), ("a_test.go", False), ("pkg", False), ("test", False), ("testdata2", False)],
    )
    def test_go_build_ignores(self, name, ignored):
        assert go_build_ignores(name) is ignored

    def test_a_directory_symlink_loop_is_not_followed(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\nfunc A() {}\n", "a/a.go": "package a\n\nfunc B() {}\n"})
        (tmp_path / "a" / "b").mkdir()
        symlink_or_skip("..", tmp_path / "a" / "up", directory=True)  # the module root
        symlink_or_skip("..", tmp_path / "a" / "b" / "up", directory=True)  # a/, which holds no go.mod
        surface = extract_surface(tmp_path, MOD)
        assert {path: list(pkg.objects) for path, pkg in surface.packages.items()} == {MOD: ["A"], f"{MOD}/a": ["B"]}

    def test_a_symlinked_source_file_is_read(self, tmp_path):
        write_module(tmp_path / "m", MOD, {"lib.go": "package lib\n\nfunc A() {}\n"})
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "x.go").write_text("package lib\n\nfunc X() {}\n", encoding="utf-8")
        symlink_or_skip("../elsewhere/x.go", tmp_path / "m" / "link.go")
        assert list(extract_surface(tmp_path / "m", MOD).packages[MOD].objects) == ["A", "X"]

    def test_build_constrained_files_unioned(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {
                "a_linux.go": "//go:build linux\n\npackage lib\n\nfunc OnLinux() {}\n",
                "a_windows.go": "//go:build windows\n\npackage lib\n\nfunc OnWindows() {}\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert set(surface.packages[MOD].objects) == {"OnLinux", "OnWindows"}

    def test_parse_failure_recorded_and_skipped(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {
                "good.go": "package lib\n\nfunc Keep() {}\n",
                "bad.go": "package lib\n\nfunc ( broken\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert list(surface.packages[MOD].objects) == ["Keep"]
        assert [path for path, _ in surface.parse_failures] == ["bad.go"]

    @pytest.mark.parametrize("nesting", ["*", "[]", "map[int]", "func() "])
    def test_hostile_type_nesting_is_a_parse_failure(self, tmp_path, nesting):
        write_module(
            tmp_path,
            MOD,
            {
                "deep.go": f"package lib\n\ntype Deep {nesting * 5000}int\n",
                "good.go": "package lib\n\nfunc Keep() {}\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert list(surface.packages[MOD].objects) == ["Keep"]
        ((path, reason),) = surface.parse_failures
        assert path == "deep.go" and "nested deeper than" in reason

    def test_subpackage_import_paths(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {
                "lib.go": "package lib\n\nfunc Root() {}\n",
                "api/v2/api.go": "package v2\n\nfunc Call() {}\n",
            },
        )
        surface = extract_surface(tmp_path, MOD)
        assert set(surface.packages) == {MOD, f"{MOD}/api/v2"}

    def test_deterministic(self, tmp_path):
        files = {"lib.go": "package lib\n\nfunc A() {}\n"}
        for i in range(6):
            files[f"p{i}/p.go"] = f"package p{i}\n\nfunc P{i}() {{}}\n"
        write_module(tmp_path, MOD, files)
        docs = [surface_to_json(extract_surface(tmp_path, MOD, parse_version("v1.0.0"))) for _ in range(2)]
        assert docs[0] == docs[1]


class TestDeclarationMemo:
    def test_memo_holds_the_last_two_extractions(self, tmp_path):
        src = "package lib\n\ntype T struct{ A int }\n\nfunc F() T { return T{} }\n"
        for name in ("a", "b", "c"):
            write_module(tmp_path / name, f"example.com/{name}", {"lib.go": src, "sub/s.go": "package sub\n\nvar V int\n"})
            extract_surface(tmp_path / name, f"example.com/{name}")
        memo = surface_module._DECLS
        assert {path for path, _header in memo.previous} == {"example.com/b", "example.com/b/sub"}
        assert {path for path, _header in memo.current} == {"example.com/c", "example.com/c/sub"}
        assert {header for _path, header in memo.current} == {"package lib\n\n", "package sub\n\n"}
        assert all(memo.current.values())

    def test_unchanged_declarations_are_shared_along_a_chain_of_versions(self, tmp_path):
        src = "package lib\n\ntype T struct{ A int }\n\nfunc F() T { return T{} }\n"
        chain = []
        for k, body in enumerate(["T{}", "T{A: 1}", "T{A: 2}"]):
            write_module(tmp_path / f"v{k}", MOD, {"lib.go": src.replace("T{}", body)})
            chain.append(extract_surface(tmp_path / f"v{k}", MOD).packages[MOD].objects)
        first, _, last = chain
        # Each version edits F's body, so only T's chunk is found.
        assert last["T"].type is first["T"].type and last["F"].type == first["F"].type


class TestSharedObjects:
    def test_objects_of_a_module_whose_chunks_all_hit_are_the_previous_objects(self, tmp_path):
        src = (
            "package lib\n\nconst C = 1\n\nvar V int\n\ntype T[E any] struct{ A E }\n\n"
            "func F() T[int] { return T[int]{} }\n\nfunc (t T[E]) M() {}\n"
        )
        write_module(tmp_path, MOD, {"lib.go": src, "sub/s.go": "package sub\n\ntype I interface{ M() }\n"})
        first = extract_surface(tmp_path, MOD)
        second = extract_surface(tmp_path, MOD)
        assert set(first.packages[MOD].objects) == {"C", "V", "T", "F", "T.M"}
        for path, pkg in first.packages.items():
            assert pkg.objects.keys() == second.packages[path].objects.keys()
            assert all(obj is second.packages[path].objects[key] for key, obj in pkg.objects.items())

    def test_an_object_is_its_spec(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\nconst C int = 1\n\nfunc (T) M() {}\n\ntype T int\n"})
        objects = extract_surface(tmp_path, MOD).packages[MOD].objects
        assert isinstance(objects["C"], ConstSpec) and objects["C"].value == "1"
        method = objects["T.M"]
        assert isinstance(method, FuncDecl) and (method.kind, method.key, method.receiver) == ("method", "T.M", "T")
        assert isinstance(method.type, Func) and method.type_params == ()


class TestOneNameDeclaredTwice:
    """Invalid Go that declares one name under two kinds: the surface keeps
    the first declaration in source order, files in name order, whether the
    specs are parsed or found in the memo."""

    def _objects(self, root):
        surface_module._drop_declarations()
        cold = extract_surface(root, MOD).packages[MOD].objects
        warm = extract_surface(root, MOD).packages[MOD].objects
        assert all(warm[key] is obj for key, obj in cold.items())  # every chunk found
        return cold, warm

    def test_within_one_file(self, tmp_path):
        src = "package lib\n\nfunc X() {}\n\nconst X = 1\n\ntype Y int\n\nvar Y int\n\nvar Z int\n\nconst Z = 2\n"
        write_module(tmp_path, MOD, {"lib.go": src})
        for objects in self._objects(tmp_path):
            assert {key: obj.kind for key, obj in objects.items()} == {"X": "func", "Y": "type", "Z": "var"}

    def test_across_two_files(self, tmp_path):
        a = "package lib\n\nfunc X() {}\n\nvar Y int\n"
        b = "package lib\n\nconst X = 1\n\nconst Y = 2\n\ntype Y int\n"
        write_module(tmp_path, MOD, {"a.go": a, "b.go": b})
        for objects in self._objects(tmp_path):
            assert {key: obj.kind for key, obj in objects.items()} == {"X": "func", "Y": "var"}


class TestCollectorPause:
    def _module(self, tmp_path):
        return write_module(tmp_path, MOD, {"lib.go": "package lib\n\nfunc F() {}\n"})

    def test_collector_is_paused_during_the_extraction_and_enabled_after(self, tmp_path, monkeypatch):
        seen = []

        def parse(*args, **kwargs):
            seen.append(gc.isenabled())
            return parse_go_file(*args, **kwargs)

        monkeypatch.setattr(surface_module, "parse_go_file", parse)
        assert gc.isenabled()
        extract_surface(self._module(tmp_path), MOD)
        assert seen == [False] and gc.isenabled()

    def test_collector_left_disabled_stays_disabled(self, tmp_path):
        gc.disable()
        try:
            extract_surface(self._module(tmp_path), MOD)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_enabled_again_when_the_extraction_raises(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\nvar V = @\n"})
        assert gc.isenabled()
        with pytest.raises(SurfaceEmpty):
            extract_surface(tmp_path, MOD)
        assert gc.isenabled()


class TestSerialization:
    def test_document_shape(self, tmp_path):
        write_module(
            tmp_path,
            MOD,
            {"lib.go": 'package lib\n\nconst Limit int = 10\n\nfunc Run(name string) error { return nil }\n'},
        )
        surface = extract_surface(tmp_path, MOD, parse_version("v1.2.3"))
        doc = surface_to_dict(surface)
        assert doc["module"] == MOD
        assert doc["version"] == "v1.2.3"
        (pkg,) = doc["packages"]
        assert pkg["path"] == MOD
        by_key = {o["key"]: o for o in pkg["objects"]}
        assert by_key["Limit"]["kind"] == "const"
        assert by_key["Limit"]["value"] == "10"
        assert by_key["Limit"]["type"]["render"] == "int"
        assert by_key["Run"]["type"]["render"] == "func(string) error"
        assert by_key["Run"]["type"]["structure"]["kind"] == "func"

    def test_json_round_trips_through_loads(self, tmp_path):
        write_module(tmp_path, MOD, {"lib.go": "package lib\n\nfunc A() {}\n"})
        surface = extract_surface(tmp_path, MOD)
        assert json.loads(surface_to_json(surface))["module"] == MOD
