from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from catalogue_fixtures import FIXTURES
from conftest import write_module
from semverdiff.diff import (
    ADD_CONDITION,
    CATALOGUE,
    ChangeRecord,
    _FIELD_RULES,
    _RULES,
    ModuleMismatch,
    check_compliance,
    diff_surfaces,
    record_to_dict,
    records_to_ndjson,
    records_to_text,
)
from semverdiff import diff as diff_module, surface as surface_module
from semverdiff.manifest import parse_manifest
from semverdiff.surface import extract_surface
from semverdiff.versions import UpgradeLevel, parse_version

MOD = "example.com/lib"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _surfaces(tmp_path, old_files, new_files, module=MOD):
    old = write_module(tmp_path / "old", module, old_files)
    new = write_module(tmp_path / "new", module, new_files)
    return (
        extract_surface(old, module, parse_version("v1.0.0")),
        extract_surface(new, module, parse_version("v1.1.0")),
    )


def test_catalogue_has_forty_rows():
    assert len(CATALOGUE) == 40
    assert len(frozenset(CATALOGUE)) == 40
    categories = {c for c, _ in CATALOGUE}
    assert len(categories) == 14


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f"{f.index:02d}-{f.condition}")
def test_catalogue_fixture_exact_records(fixture, catalogue_corpus):
    _, old_dir, new_dir = catalogue_corpus[fixture.index]
    old = extract_surface(old_dir, fixture.module_path, parse_version("v1.0.0"))
    new = extract_surface(new_dir, fixture.module_path, parse_version("v1.1.0"))
    records = diff_surfaces(old, new)
    got = [(r.category, r.condition, r.node) for r in records]
    assert got == sorted(fixture.expected, key=lambda e: (e[2], e[0], e[1]))
    assert all(r.breaking for r in records)
    assert all((r.category, r.condition) in frozenset(CATALOGUE) for r in records)


GOLDEN_RECORDS = Path(__file__).resolve().parent / "golden" / "catalogue_records.ndjson"


def test_catalogue_records_match_the_golden_file(catalogue_corpus):
    """Every record of the 40 fixtures, messages included, as NDJSON."""
    out = []
    for fixture, old_dir, new_dir in sorted(catalogue_corpus.values(), key=lambda c: c[0].index):
        old = extract_surface(old_dir, fixture.module_path, parse_version("v1.0.0"))
        new = extract_surface(new_dir, fixture.module_path, parse_version("v1.1.0"))
        out.append(records_to_ndjson(diff_surfaces(old, new)))
    assert "".join(out) == GOLDEN_RECORDS.read_text(encoding="utf-8")


def test_rule_tables_use_catalogue_conditions():
    pairs = {(category, condition) for category, rules in _RULES.items() for condition, _ in rules}
    pairs |= {("Struct", condition) for condition, _ in _FIELD_RULES}
    assert pairs <= frozenset(CATALOGUE)
    # Every object category has rules: in the table or in a method of its own.
    covered = set(_RULES) | {"Struct", "Interface", "Package", "TypeParam", "Category Change"}
    assert covered == {category for category, _ in CATALOGUE}


def test_fixture_corpus_covers_all_conditions():
    seen = {(cat, cond) for f in FIXTURES for cat, cond, _ in f.expected}
    assert seen == set(CATALOGUE)


def test_identical_surfaces_empty(tmp_path):
    files = {"lib.go": "package lib\n\nfunc F(x int) {}\n"}
    old, new = _surfaces(tmp_path, files, files)
    assert diff_surfaces(old, new) == []


def test_self_diff_empty(tmp_path):
    files = {"lib.go": "package lib\n\ntype T struct{ A int }\n\nfunc F() {}\n"}
    old, _ = _surfaces(tmp_path, files, files)
    assert diff_surfaces(old, old) == []


def test_module_mismatch(tmp_path):
    old = write_module(tmp_path / "a", "example.com/a", {"a.go": "package a\n"})
    new = write_module(tmp_path / "b", "example.com/b", {"b.go": "package b\n"})
    sa = extract_surface(old, "example.com/a")
    sb = extract_surface(new, "example.com/b")
    with pytest.raises(ModuleMismatch):
        diff_surfaces(sa, sb)


def test_compatible_add_records(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nfunc A() {}\n"},
        {"lib.go": "package lib\n\nfunc A() {}\n\nfunc B() {}\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.category, record.condition, record.breaking) == ("Function", ADD_CONDITION, False)


def test_added_package_is_compatible(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nfunc A() {}\n"},
        {"lib.go": "package lib\n\nfunc A() {}\n", "extra/x.go": "package extra\n\nfunc X() {}\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.category, record.condition, record.breaking) == ("Package", ADD_CONDITION, False)


def _object_removals(records):
    # TypeParam/Remove drops a type parameter from a surviving object, so it
    # has no Add counterpart; antisymmetry is an object-level property.
    return {(r.package, r.node) for r in records if r.condition == "Remove" and r.category != "TypeParam"}


def test_remove_add_antisymmetry_on_fixture_corpus(catalogue_corpus):
    for fixture, old_dir, new_dir in catalogue_corpus.values():
        old = extract_surface(old_dir, fixture.module_path, parse_version("v1.0.0"))
        new = extract_surface(new_dir, fixture.module_path, parse_version("v1.1.0"))
        forward = diff_surfaces(old, new)
        backward = diff_surfaces(new, old)
        bwd_added = {(r.package, r.node) for r in backward if r.condition == ADD_CONDITION}
        fwd_added = {(r.package, r.node) for r in forward if r.condition == ADD_CONDITION}
        assert _object_removals(forward) <= bwd_added
        assert _object_removals(backward) <= fwd_added


def test_output_is_deterministic(tmp_path):
    files_old = {f"p{i}/p.go": f"package p{i}\n\nfunc Old{i}() {{}}\n" for i in range(5)}
    files_new = {f"p{i}/p.go": f"package p{i}\n\nfunc New{i}() {{}}\n" for i in range(5)}
    first = diff_surfaces(*_surfaces(tmp_path / "first", files_old, files_new))
    second = diff_surfaces(*_surfaces(tmp_path / "second", files_old, files_new))
    assert first and first == second


def test_multiple_conditions_on_one_function(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nfunc F(a int) int { return a }\n"},
        {"lib.go": 'package lib\n\nfunc F(a string) string { return a }\n'},
    )
    records = diff_surfaces(old, new)
    assert [(r.condition) for r in records] == ["Param Change", "Return Change"]


def test_const_type_and_value_change_together(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nconst C int = 1\n"},
        {"lib.go": "package lib\n\nconst C int64 = 2\n"},
    )
    records = diff_surfaces(old, new)
    assert [r.condition for r in records] == ["Type Change", "Value Change"]


def test_var_and_type_declarations_share_category(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nvar M map[string]int\n\ntype N map[string]int\n"},
        {"lib.go": "package lib\n\nvar M map[bool]int\n\ntype N map[bool]int\n"},
    )
    records = diff_surfaces(old, new)
    assert [(r.node, r.category, r.condition) for r in records] == [
        ("M", "Map", "Key Change"),
        ("N", "Map", "Key Change"),
    ]


def test_sealed_interface_addition_is_compatible(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\ntype I interface {\n\tM()\n\tseal()\n}\n"},
        {"lib.go": "package lib\n\ntype I interface {\n\tM()\n\tN()\n\tseal()\n}\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.condition, record.breaking) == (ADD_CONDITION, False)


def test_method_removal_is_function_remove(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\ntype T struct{}\n\nfunc (t T) M() {}\n"},
        {"lib.go": "package lib\n\ntype T struct{}\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.node, record.category, record.condition) == ("T.M", "Function", "Remove")


def test_type_param_count_increase_reports_detail(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\ntype Box[T any] struct{}\n"},
        {"lib.go": "package lib\n\ntype Box[T any, U any] struct{}\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.category, record.condition) == ("TypeParam", "Type Change")
    assert "type parameter added" in record.message


def test_type_param_shadowing_a_predeclared_type_is_a_param_change(tmp_path):
    # `int` in the new signature is the type parameter, not the basic type,
    # though both render as `int`.
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\nfunc F(x int) {}\n"},
        {"lib.go": "package lib\n\nfunc F[int any](x int) {}\n"},
    )
    records = diff_surfaces(old, new)
    assert [(r.category, r.condition, r.message) for r in records] == [
        ("Function", "Param Change", "func(int) -> func[int any](int)"),
        ("TypeParam", "Type Change", "[] -> [int any] (type parameter added)"),
    ]


def test_struct_comparability_follows_an_in_package_field_type(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": "package lib\n\ntype Inner struct{ A int }\n\ntype T struct{ F Inner }\n"},
        {"lib.go": "package lib\n\ntype Inner struct {\n\tA int\n\tB []int\n}\n\ntype T struct{ F Inner }\n"},
    )
    records = diff_surfaces(old, new)
    assert [(r.node, r.category, r.condition, r.message) for r in records] == [
        ("Inner", "Struct", "Comparability Change", "comparable -> non-comparable"),
        ("T", "Struct", "Comparability Change", "comparable -> non-comparable"),
    ]


def test_a_deep_chain_of_struct_types_is_walked_once(tmp_path):
    # T0 holds T1, ..., T1999 holds T2000; only T2000's field changes.
    chain = "package lib\n\n" + "".join(f"type T{k} struct{{ F T{k + 1} }}\n" for k in range(2000))
    old_files = {"lib.go": chain + "type T2000 struct{ X int }\n"}
    old, same = _surfaces(tmp_path / "same", old_files, old_files)
    assert diff_surfaces(old, same) == []
    old, new = _surfaces(tmp_path / "changed", old_files, {"lib.go": chain + "type T2000 struct{ X []int }\n"})
    records = diff_surfaces(old, new)
    comparability = [r for r in records if r.condition == "Comparability Change"]
    assert sorted(r.node for r in comparability) == sorted(f"T{k}" for k in range(2001))
    assert {(r.category, r.message) for r in comparability} == {("Struct", "comparable -> non-comparable")}
    assert [(r.node, r.category, r.condition, r.message) for r in records if r not in comparability] == [
        ("T2000", "Struct", "Field Type Change", "X int -> X []int"),
    ]


def test_tag_holding_a_backquote_is_not_mistaken_for_two_tags(tmp_path):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": 'package lib\n\nvar V *struct{ A int "x`; B int `y" }\n'},
        {"lib.go": "package lib\n\nvar V *struct{ A int `x`; B int `y` }\n"},
    )
    (record,) = diff_surfaces(old, new)
    assert (record.category, record.condition) == ("Pointer", "Base Change")
    assert record.message == '*struct{A int "x`; B int `y"} -> *struct{A int `x`; B int `y`}'


def test_tags_are_compared_by_their_unquoted_values(tmp_path):
    escaped = 'package lib\n\ntype T struct {\n\tA int "a\\"b"\n}\n'
    old, new = _surfaces(tmp_path / "raw", {"lib.go": escaped}, {"lib.go": escaped.replace('"a\\"b"', "`a\\\"b`")})
    (record,) = diff_surfaces(old, new)
    assert (record.category, record.condition, record.node) == ("Struct", "Field Tag Change", "T")
    old, new = _surfaces(tmp_path / "same", {"lib.go": escaped}, {"lib.go": escaped.replace('"a\\"b"', '`a"b`')})
    assert diff_surfaces(old, new) == []
    old, new = _surfaces(tmp_path / "newline", {"lib.go": escaped}, {"lib.go": escaped.replace('"a\\"b"', '"a\\nb"')})
    (record,) = diff_surfaces(old, new)
    assert record.message == 'A int `a"b` -> A int "a\\nb"'


@pytest.mark.parametrize(
    "old_length,length",
    [("16", "(16)"), ("16", "((16))"), ("16", "0x10"), ("N", "(N)")],
    ids=["(16)", "((16))", "0x10", "(N)"],
)
def test_same_array_length_spelled_differently_is_no_change(tmp_path, old_length, length):
    old, new = _surfaces(
        tmp_path,
        {"lib.go": f"package lib\n\nconst N = 16\n\ntype A [{old_length}]byte\n"},
        {"lib.go": f"package lib\n\nconst N = 16\n\ntype A [{length}]byte\n"},
    )
    assert diff_surfaces(old, new) == []


def test_fig2_style_message(tmp_path):
    module = "github.com/pinpoint-apm/pinpoint-go-agent"
    old_files = {
        "protobuf/agent.go": (
            "package protobuf\n\n"
            'import "google.golang.org/grpc"\n\n'
            "type AgentClient interface{}\n\n"
            "func NewAgentClient(cc grpc.ClientConnInterface) AgentClient { return nil }\n"
        )
    }
    new_files = {
        "protobuf/agent.go": (
            "package protobuf\n\n"
            'import "google.golang.org/grpc"\n\n'
            "type AgentClient interface{}\n\n"
            "func NewAgentClient(cc *grpc.ClientConn) AgentClient { return nil }\n"
        )
    }
    old_dir = write_module(tmp_path / "old", module, old_files)
    new_dir = write_module(tmp_path / "new", module, new_files)
    old = extract_surface(old_dir, module, parse_version("v1.1.3"))
    new = extract_surface(new_dir, module, parse_version("v1.2.0"))
    (record,) = diff_surfaces(old, new)
    assert record.message == (
        "func(google.golang.org/grpc.ClientConnInterface) AgentClient"
        " -> func(*google.golang.org/grpc.ClientConn) AgentClient"
    )
    text = records_to_text([record])
    assert text == (
        "Module: github.com/pinpoint-apm/pinpoint-go-agent\n"
        "Library Upgrade: v1.1.3 -> v1.2.0, Minor Upgrade\n"
        "Package: github.com/pinpoint-apm/pinpoint-go-agent/protobuf\n"
        "Change Node: NewAgentClient\n"
        "Change Category: Function\n"
        "Change Condition: Param Change\n"
        "Change Message: func(google.golang.org/grpc.ClientConnInterface) AgentClient"
        " -> func(*google.golang.org/grpc.ClientConn) AgentClient"
    )


def test_record_serialization_shape():
    record = ChangeRecord(
        module=MOD,
        from_version="v1.0.0",
        to_version="v1.1.0",
        package=MOD,
        node="F",
        category="Function",
        condition="Remove",
        breaking=True,
        message="func()",
    )
    doc = record_to_dict(record)
    assert set(doc) == {"module", "from", "to", "package", "node", "category", "condition", "breaking", "message"}


def test_records_of_several_upgrades_each_get_their_own_upgrade_line(monkeypatch):
    """One call may mix records of several upgrades, and of versions that
    make none; each distinct (from, to) pair is parsed once."""
    pairs = [("v1.0.0", "v1.1.0"), ("v1.0.0", "v2.0.0"), ("v1.0.0", "v1.1.0"), (None, "v1.0.0"), ("v2.0.0", "v1.0.0"),
             ("v1.0.0", "bad"), ("v0.1.0", "v0.2.0"), ("v1.0.0", "v2.0.0")]
    records = [ChangeRecord(MOD, a, b, MOD, f"F{i}", "Function", "Remove", True, "m") for i, (a, b) in enumerate(pairs)]
    lines = {
        ("v1.0.0", "v1.1.0"): "Library Upgrade: v1.0.0 -> v1.1.0, Minor Upgrade\n",
        ("v1.0.0", "v2.0.0"): "Library Upgrade: v1.0.0 -> v2.0.0, Major Upgrade\n",
        ("v0.1.0", "v0.2.0"): "Library Upgrade: v0.1.0 -> v0.2.0, Development\n",
    }
    parsed = []
    real = diff_module.parse_version
    monkeypatch.setattr(diff_module, "parse_version", lambda text: parsed.append(text) or real(text))
    diff_module._upgrade_line.cache_clear()
    assert records_to_text(records) == "\n\n".join(
        f"Module: {MOD}\n{lines.get((a, b), '')}Package: {MOD}\nChange Node: F{i}\n"
        "Change Category: Function\nChange Condition: Remove\nChange Message: m"
        for i, (a, b) in enumerate(pairs)
    )
    assert len(parsed) == 2 * len({pair for pair in pairs if None not in pair})


class TestCompliance:
    def _breaking(self, n):
        return [
            ChangeRecord(MOD, "v1.0.0", "v1.1.0", MOD, f"F{i}", "Function", "Remove", True, "m")
            for i in range(n)
        ]

    def test_minor_with_breaking_is_noncompliant(self):
        verdict = check_compliance(UpgradeLevel.MINOR, self._breaking(1))
        assert not verdict.compliant and verdict.breaking_count == 1

    def test_major_with_breaking_is_compliant(self):
        assert check_compliance(UpgradeLevel.MAJOR, self._breaking(5)).compliant

    def test_development_with_breaking_is_compliant(self):
        assert check_compliance(UpgradeLevel.DEVELOPMENT, self._breaking(2)).compliant

    def test_patch_with_only_adds_is_compliant(self):
        adds = [
            ChangeRecord(MOD, "v1.0.0", "v1.0.1", MOD, f"A{i}", "Function", ADD_CONDITION, False, "m")
            for i in range(3)
        ]
        verdict = check_compliance(UpgradeLevel.PATCH, adds)
        assert verdict.compliant and verdict.breaking_count == 0


# -- objects shared by identity ------------------------------------------------


def _shared_objects(old, new) -> int:
    return sum(
        obj is new.packages[path].objects.get(key)
        for path, pkg in old.packages.items()
        if path in new.packages
        for key, obj in pkg.objects.items()
    )


def _assert_sharing_changes_no_record(old_dir: Path, new_dir: Path, module: str) -> int:
    """diff_surfaces on the old and the new surface extracted one after the
    other, which share every declaration the memo finds, equals
    diff_surfaces on the two extracted with the memo emptied before each.
    Returns the number of objects shared."""
    v1, v2 = parse_version("v1.0.0"), parse_version("v1.1.0")
    surface_module._drop_declarations()
    old, new = extract_surface(old_dir, module, v1), extract_surface(new_dir, module, v2)
    surface_module._drop_declarations()
    cold_old = extract_surface(old_dir, module, v1)
    surface_module._drop_declarations()
    cold_new = extract_surface(new_dir, module, v2)
    assert _shared_objects(cold_old, cold_new) == 0
    assert diff_surfaces(old, new) == diff_surfaces(cold_old, cold_new)
    return _shared_objects(old, new)


@pytest.fixture(scope="module")
def generated_check_pairs(tmp_path_factory) -> list[tuple[str, Path, Path]]:
    """The old and new module of every seed-1 and seed-2 check-bodies and
    check-decls pair of the benchmark's generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    pairs = []
    for workload in ("check-bodies", "check-decls"):
        for seed in (1, 2):
            root = tmp_path_factory.mktemp(f"{workload}-{seed}")
            for op in gen.generate(workload, seed, root)["ops"]:
                pairs.append((f"{workload}-{seed}", root / op["old"], root / op["new"]))
    return pairs


class TestSharedObjects:
    def test_catalogue_fixtures_in_both_directions(self, catalogue_corpus):
        shared = 0
        for fixture, old_dir, new_dir in catalogue_corpus.values():
            shared += _assert_sharing_changes_no_record(old_dir, new_dir, fixture.module_path)
            shared += _assert_sharing_changes_no_record(new_dir, old_dir, fixture.module_path)
        assert shared > 0

    def test_generated_check_pairs(self, generated_check_pairs):
        for name, old_dir, new_dir in generated_check_pairs:
            module = parse_manifest((old_dir / "go.mod").read_text(encoding="utf-8")).module_path
            assert _assert_sharing_changes_no_record(old_dir, new_dir, module) > 0, name

    def test_shared_struct_gets_its_comparability_change(self, tmp_path):
        # S's chunk is the same on both sides, so S is one object; Inner,
        # which S holds, stops being comparable.
        s = "package lib\n\ntype S struct{ F Inner }\n"
        old, new = _surfaces(
            tmp_path,
            {"lib.go": s + "\ntype Inner struct{ A int }\n"},
            {"lib.go": s + "\ntype Inner struct{ A []int }\n"},
        )
        assert old.packages[MOD].objects["S"] is new.packages[MOD].objects["S"]
        got = [(r.node, r.category, r.condition, r.message) for r in diff_surfaces(old, new)]
        assert got == [
            ("Inner", "Struct", "Comparability Change", "comparable -> non-comparable"),
            ("Inner", "Struct", "Field Type Change", "A int -> A []int"),
            ("S", "Struct", "Comparability Change", "comparable -> non-comparable"),
        ]

    def test_equal_structs_with_a_repeated_field_name_give_no_record(self, tmp_path):
        # Go rejects the repeated name; the parser keeps both fields.
        s = "type S struct{ A int; A string }\n"
        old, new = _surfaces(tmp_path, {"lib.go": "package lib\n\n" + s}, {"lib.go": "package lib\n\nvar V int\n\n" + s})
        surface_module._drop_declarations()
        cold_new = extract_surface(tmp_path / "new", MOD, parse_version("v1.1.0"))
        assert old.packages[MOD].objects["S"] is new.packages[MOD].objects["S"]
        assert old.packages[MOD].objects["S"] is not cold_new.packages[MOD].objects["S"]
        assert [r.node for r in diff_surfaces(old, new)] == [r.node for r in diff_surfaces(old, cold_new)] == ["V"]
