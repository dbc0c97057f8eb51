from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import catalogue_fixtures
import impact_fixtures
import planted_corpus
from semverdiff.gotypes import (
    Basic,
    Interface,
    Named,
    Pointer,
    Struct,
    is_comparable,
    render_type_expr,
    type_to_structure,
)
from semverdiff.parser import MAX_TYPE_NESTING, GoSyntaxError, _Parser, parse_go_file, tokenize

PKG = "example.com/lib"


def _first_type(src: str):
    return parse_go_file(src, PKG).types[0].type


def _first_func(src: str):
    return parse_go_file(src, PKG).funcs[0]


class TestTokenizer:
    def test_semicolon_insertion_after_identifier(self):
        toks = tokenize("a\nb")
        assert [t.text for t in toks[:-1]] == ["a", ";", "b", ";"]

    def test_no_semicolon_after_comma(self):
        toks = tokenize("f(a,\nb)")
        assert ";" not in [t.text for t in toks[:4]]

    def test_comments_are_skipped(self):
        toks = tokenize("// line comment\n/* block */ x")
        assert [t.text for t in toks if t.kind != "eof"] == ["x", ";"]

    def test_strings_hide_comment_markers(self):
        toks = tokenize('s := "http://example.com"')
        assert any(t.kind == "string" and "http" in t.text for t in toks)

    def test_raw_string_spans_lines(self):
        toks = tokenize("s := `line1\nline2`\nx")
        raw = next(t for t in toks if t.kind == "raw_string")
        assert "line1\nline2" in raw.text
        x = next(t for t in toks if t.text == "x")
        assert x.line == 3

    def test_multiline_block_comment_inserts_semicolon(self):
        toks = tokenize("x /* spans\nlines */ y")
        assert [t.text for t in toks[:3]] == ["x", ";", "y"]

    def test_rune_with_escape(self):
        toks = tokenize(r"r := '\''")
        assert any(t.kind == "rune" for t in toks)


class TestDeclarations:
    def test_missing_package_clause(self):
        with pytest.raises(GoSyntaxError):
            parse_go_file("func F() {}\n", PKG)

    def test_function_body_with_nested_braces_is_skipped(self):
        src = (
            "package lib\n\n"
            'func F() {\n\tif true {\n\t\ts := "}"\n\t\t_ = s\n\t}\n\t// }\n}\n\n'
            "func G() {}\n"
        )
        f = parse_go_file(src, PKG)
        assert [fn.name for fn in f.funcs] == ["F", "G"]

    def test_function_without_body(self):
        f = parse_go_file("package lib\n\nfunc Abs(x float64) float64\n", PKG)
        assert f.funcs[0].name == "Abs"

    def test_method_receiver(self):
        fn = _first_func("package lib\n\nfunc (t *Tree) Walk(depth int) {}\n")
        assert fn.receiver == "Tree"
        assert render_type_expr(fn.sig) == "func(int)"

    def test_generic_receiver(self):
        fn = _first_func("package lib\n\nfunc (l *List[T]) Push(v T) {}\n")
        assert fn.receiver == "List"
        assert render_type_expr(fn.sig) == "func(T)"

    def test_unnamed_receiver(self):
        fn = _first_func("package lib\n\nfunc (Tree) Leaf() bool { return true }\n")
        assert fn.receiver == "Tree"

    def test_const_block_iota_repetition(self):
        src = "package lib\n\nconst (\n\tA Kind = iota\n\tB\n\tC\n)\n"
        f = parse_go_file(src, PKG)
        assert [(c.name, c.value) for c in f.consts] == [("A", "iota"), ("B", "iota"), ("C", "iota")]
        assert all(c.type == Named(PKG, "Kind") for c in f.consts)

    def test_const_untyped_inference(self):
        f = parse_go_file('package lib\n\nconst S = "x"\nconst N = 42\nconst F = 1.5\n', PKG)
        assert [c.type.name for c in f.consts] == ["untyped string", "untyped int", "untyped float"]

    def test_multi_name_spec(self):
        f = parse_go_file("package lib\n\nconst X, Y int = 1, 2\n", PKG)
        assert [(c.name, c.value) for c in f.consts] == [("X", "1"), ("Y", "2")]

    def test_var_func_literal_inference(self):
        f = parse_go_file("package lib\n\nvar H = func(x int) error { return nil }\n", PKG)
        assert render_type_expr(f.vars[0].type) == "func(int) error"

    def test_var_composite_inference(self):
        f = parse_go_file("package lib\n\nvar P = Point{1, 2}\nvar Q = &Point{}\n", PKG)
        assert f.vars[0].type == Named(PKG, "Point")
        assert f.vars[1].type == Pointer(Named(PKG, "Point"))

    def test_type_alias(self):
        f = parse_go_file('package lib\n\nimport "io"\n\ntype R = io.Reader\n', PKG)
        spec = f.types[0]
        assert spec.alias
        assert spec.type == Named("io", "Reader")

    def test_import_aliases_resolve(self):
        src = (
            "package lib\n\n"
            'import (\n\tpb "example.com/dep/protobuf"\n\t"google.golang.org/grpc"\n)\n\n'
            "var A pb.Message\nvar B grpc.ClientConn\n"
        )
        f = parse_go_file(src, PKG)
        assert f.vars[0].type == Named("example.com/dep/protobuf", "Message")
        assert f.vars[1].type == Named("google.golang.org/grpc", "ClientConn")

    def test_unresolvable_qualifier_renders_as_written(self):
        f = parse_go_file("package lib\n\nvar X mystery.Thing\n", PKG)
        assert render_type_expr(f.vars[0].type) == "mystery.Thing"


class TestTypeExpressions:
    @pytest.mark.parametrize(
        "src,expect",
        [
            ("type T []byte", "[]byte"),
            ("type T [4]string", "[4]string"),
            ("type T map[string][]int", "map[string][]int"),
            ("type T *int", "*int"),
            ("type T chan int", "chan int"),
            ("type T chan<- int", "chan<- int"),
            ("type T <-chan int", "<-chan int"),
            ("type T func(int, string) (bool, error)", "func(int, string) (bool, error)"),
            ("type T func(...int)", "func(...int)"),
            ("type T func() func() int", "func() func() int"),
            ("type T [][]float64", "[][]float64"),
        ],
    )
    def test_renderings(self, src, expect):
        assert render_type_expr(_first_type(f"package lib\n\n{src}\n")) == expect

    def test_named_params_share_type(self):
        fn = _first_func("package lib\n\nfunc F(a, b int, c string) {}\n")
        assert render_type_expr(fn.sig) == "func(int, int, string)"

    def test_unnamed_qualified_params(self):
        src = 'package lib\n\nimport "io"\n\nfunc F(io.Reader, io.Writer) {}\n'
        fn = _first_func(src)
        assert render_type_expr(fn.sig) == "func(io.Reader, io.Writer)"

    def test_named_result_params(self):
        fn = _first_func("package lib\n\nfunc F() (n int, err error) { return }\n")
        assert render_type_expr(fn.sig) == "func() (int, error)"

    def test_variadic_named_param(self):
        fn = _first_func("package lib\n\nfunc F(prefix string, parts ...[]byte) {}\n")
        assert fn.sig.variadic
        assert render_type_expr(fn.sig) == "func(string, ...[]byte)"

    def test_struct_fields_record_export_and_order(self):
        t = _first_type("package lib\n\ntype T struct {\n\tA int\n\tb int\n}\n")
        assert isinstance(t, Struct)
        assert [(f.name, f.exported) for f in t.fields] == [("A", True), ("b", False)]

    def test_struct_embedded_pointer(self):
        t = _first_type("package lib\n\ntype T struct {\n\t*Base\n}\n")
        field = t.fields[0]
        assert field.anonymous and field.name == "Base"
        assert field.type == Pointer(Named(PKG, "Base"))

    def test_struct_tag_captured(self):
        t = _first_type('package lib\n\ntype T struct {\n\tName string `json:"name"`\n}\n')
        assert t.fields[0].tag == 'json:"name"'

    def test_anonymous_struct_field_type(self):
        t = _first_type("package lib\n\ntype T struct {\n\tInner struct{ X int }\n}\n")
        assert render_type_expr(t.fields[0].type) == "struct{X int}"

    def test_interface_method_order_is_canonical(self):
        a = _first_type("package lib\n\ntype I interface {\n\tB()\n\tA()\n}\n")
        b = _first_type("package lib\n\ntype I interface {\n\tA()\n\tB()\n}\n")
        assert a == b
        assert render_type_expr(a) == "interface{A(); B()}"

    def test_interface_embeds_and_unions(self):
        t = _first_type('package lib\n\nimport "io"\n\ntype I interface {\n\tio.Closer\n\t~int | ~string\n}\n')
        assert isinstance(t, Interface)
        assert render_type_expr(t) == "interface{~int; io.Closer; ~string}"

    def test_interface_unexported_method_flag(self):
        t = _first_type("package lib\n\ntype I interface {\n\tM()\n\tseal()\n}\n")
        assert t.has_unexported_method

    def test_generic_type_declaration(self):
        f = parse_go_file("package lib\n\ntype Pair[K comparable, V any] struct {\n\tKey K\n\tVal V\n}\n", PKG)
        spec = f.types[0]
        assert [tp.name for tp in spec.type_params] == ["K", "V"]
        assert render_type_expr(spec.type_params[0].constraint) == "comparable"

    def test_grouped_type_params(self):
        f = parse_go_file("package lib\n\nfunc F[K, V any](k K, v V) {}\n", PKG)
        tps = f.funcs[0].sig.type_params
        assert [(tp.name, render_type_expr(tp.constraint)) for tp in tps] == [("K", "any"), ("V", "any")]

    def test_union_constraint_is_canonical_interface(self):
        f = parse_go_file("package lib\n\nfunc F[T int | string](x T) {}\n", PKG)
        constraint = f.funcs[0].sig.type_params[0].constraint
        assert render_type_expr(constraint) == "interface{int; string}"

    def test_generic_instantiation_as_param(self):
        f = parse_go_file("package lib\n\ntype List[T any] struct{}\n\nfunc F(l List[int]) {}\n", PKG)
        fn = f.funcs[0]
        assert render_type_expr(fn.sig, PKG) == "func(List[int])"

    def test_array_of_named_length(self):
        t = _first_type("package lib\n\ntype T [Size]byte\n")
        assert render_type_expr(t) == "[Size]byte"

    def test_parenthesized_type(self):
        t = _first_type("package lib\n\ntype T (int)\n")
        assert t == Basic("int")


class TestRenderDirect:
    def test_pointer_to_qualified_named(self):
        t = Pointer(Named("google.golang.org/grpc", "ClientConn"))
        assert render_type_expr(t) == "*google.golang.org/grpc.ClientConn"

    def test_slice_of_basic(self):
        from semverdiff.gotypes import Slice

        assert render_type_expr(Slice(Basic("byte"))) == "[]byte"

    def test_variadic_func(self):
        from semverdiff.gotypes import Func

        t = Func(params=(Basic("int"),), results=(), variadic=True)
        assert render_type_expr(t) == "func(...int)"

    def test_same_package_named_renders_bare(self):
        t = Named(PKG, "AgentClient")
        assert render_type_expr(t, PKG) == "AgentClient"
        assert render_type_expr(t) == f"{PKG}.AgentClient"

    def test_render_equality_matches_structural_equality(self):
        a = _first_type("package lib\n\ntype T struct{ A int; B []string }\n")
        b = _first_type("package lib\n\ntype T struct {\n\tA int\n\tB []string\n}\n")
        assert a == b
        assert render_type_expr(a) == render_type_expr(b)


class TestComparability:
    @pytest.mark.parametrize(
        "src,comparable",
        [
            ("type T struct{ A int }", True),
            ("type T struct{ A []int }", False),
            ("type T struct{ A map[string]int }", False),
            ("type T struct{ A func() }", False),
            ("type T struct{ A [4]string }", True),
            ("type T struct{ A struct{ B []byte } }", False),
            ("type T struct{ A *[]int }", True),
            ("type T struct{ A chan []int }", True),
            ("type T struct{ A interface{ M() } }", True),
        ],
    )
    def test_struct_comparability(self, src, comparable):
        assert is_comparable(_first_type(f"package lib\n\n{src}\n")) is comparable

    def test_named_resolution(self):
        f = parse_go_file("package lib\n\ntype Inner []int\n\ntype T struct{ A Inner }\n", PKG)
        types = {spec.name: spec.type for spec in f.types}

        def resolve(named):
            return types.get(named.name) if named.package == PKG else None

        assert is_comparable(types["T"], resolve) is False
        assert is_comparable(types["T"]) is True


# (prefix, suffix) that wrap a type in one more level of nesting.
_NESTINGS = {
    "pointer": ("*", ""),
    "slice": ("[]", ""),
    "array": ("[3]", ""),
    "map": ("map[int]", ""),
    "chan": ("chan ", ""),
    "paren": ("(", ")"),
    "func-result": ("func() ", ""),
    "func-param": ("func(x ", ")"),
    "generic-arg": ("List[", "]"),
    "struct": ("struct{ X ", " }"),
    "interface": ("interface{ M() ", " }"),
}


def _nested(shape: str, levels: int) -> str:
    """Source of a type nested `levels` deep, counting the innermost `int`."""
    prefix, suffix = _NESTINGS[shape]
    return prefix * (levels - 1) + "int" + suffix * (levels - 1)


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(_NESTINGS))
    def test_type_at_the_limit_parses(self, shape):
        t = _first_type(f"package lib\n\ntype T {_nested(shape, MAX_TYPE_NESTING)}\n")
        assert _first_type(f"package lib\n\ntype T {render_type_expr(t, PKG)}\n") == t
        json.dumps(type_to_structure(t), indent=2)
        is_comparable(t)

    @pytest.mark.parametrize("shape", sorted(_NESTINGS))
    def test_one_level_past_the_limit_is_a_syntax_error(self, shape):
        with pytest.raises(GoSyntaxError, match="nested deeper than"):
            parse_go_file(f"package lib\n\ntype T {_nested(shape, MAX_TYPE_NESTING + 1)}\n", PKG)

    def test_address_of_chain_in_var_initializer(self):
        shallow = parse_go_file("package lib\n\nvar V = & T{}\n", PKG).vars[0].type
        assert shallow == Pointer(Named(PKG, "T"))
        deep = parse_go_file("package lib\n\nvar V = " + "& " * 5000 + "T{}\n", PKG).vars[0].type
        assert deep == Basic("untyped")


def _fixture_sources() -> list[str]:
    """Every Go source of the catalogue, impact and planted-corpus fixtures."""
    trees: list[dict[str, str]] = []
    for fixture in catalogue_fixtures.FIXTURES:
        trees += [fixture.old, fixture.new]
    trees += [impact_fixtures.LIBRARY_OLD, impact_fixtures.LIBRARY_NEW, *impact_fixtures.CLIENTS.values()]
    for module in planted_corpus.MODULES:
        trees += [version.files for version in module.versions]
    return [text for tree in trees for rel, text in sorted(tree.items()) if rel.endswith(".go")]


_SOURCES = _fixture_sources()

_HOSTILE = (
    "@", "$", "\\", '"', "'", "`", "/*", "*/", "//", "{", "}", "(", ")", "[", "]",
    "﻿", "func ", "struct", "interface", "\n", ";", "var V = func() { ", "const C = ",
)


def _parse_outcome(src: str, skip_bodies: bool):
    try:
        return _Parser(tokenize(src, skip_bodies=skip_bodies), PKG).parse_file()
    except GoSyntaxError as exc:
        return f"GoSyntaxError: {exc}"


def _assert_skipping_is_invisible(src: str) -> None:
    assert _parse_outcome(src, True) == _parse_outcome(src, False), src


@st.composite
def _mutants(draw) -> str:
    """A fixture source with a few hostile fragments inserted anywhere."""
    src = draw(st.sampled_from(_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(_HOSTILE)) + src[at:]
    return src


# Named shapes where the body skip could go wrong.
_SHAPES = {
    "brace-in-string": 'package p\n\nfunc F() string { return "}" }\n\nfunc G() {}\n',
    "brace-in-rune": "package p\n\nfunc F() rune { return '}' }\n\nfunc G() {}\n",
    "brace-in-raw-string": "package p\n\nfunc F() string {\n\treturn `}\n{`\n}\n\nfunc G() {}\n",
    "brace-in-block-comment": "package p\n\nfunc F() { /* } */ }\n\nfunc G() {}\n",
    "brace-in-line-comment": "package p\n\nfunc F() { // }\n}\n\nfunc G() {}\n",
    "brace-pair-in-string": 'package p\n\nfunc F() { s := "} {" }\n',
    "brace-pair-in-line-comment": "package p\n\nfunc F() { // } {\n}\n",
    "brace-pair-in-block-comment": "package p\n\nfunc F() { /* } { */ }\n",
    "quotes-in-comment": "package p\n\nfunc F() {\n\t// it's \"quoted\" `raw\n}\n",
    "unterminated-block-comment": "package p\n\nfunc F() { x /* }\n\nfunc G() {}\n",
    "struct-result": "package p\n\nfunc F() struct{X int} { return struct{X int}{} }\n",
    "interface-result": "package p\n\nfunc F() interface{ M() } { return nil }\n",
    "map-of-struct-result": "package p\n\nfunc F() map[string]struct{} { return nil }\n",
    "func-result": "package p\n\nfunc F() func() int { return func() int { return 1 } }\n",
    "method": "package p\n\ntype T struct{}\n\nfunc (t *T) M(x []int) (n int) { for range x { n++ }; return }\n",
    "array-length-literal": "package p\n\nfunc F(x [len(T{1, 2})]int) {}\n",
    "func-literal-var": "package p\n\nvar F = func() { x() }\n",
    "func-literal-const": "package p\n\nconst C = func() { x }\n",
    "decl-after-body": "package p\n\nfunc F() {} const C = func() { a }\n",
    "decl-after-bodiless-func": "package p\n\nfunc F() int const C = func() { a }\n",
    "two-bodies-one-line": "package p\n\nfunc F() { a } func G() { b }\n",
    "extra-block-after-body": "package p\n\nfunc F() {} { x }\n",
    "body-on-next-line": "package p\n\nfunc F()\n{\n}\n",
    "unterminated-body": "package p\n\nfunc F() {\n\tx := 1\n",
    "unterminated-string-in-body": 'package p\n\nfunc F() {\n\ts := "}\n}\n',
    "body-lexing-error": "package p\n\nfunc F() {\n\tx := 1\n\ty := @\n}\n",
    "misnested-paren": "package p\n\nfunc F() ) { x }\n",
    "misnested-bracket": "package p\n\nfunc F(] { x }\n",
    "misnested-brace": "package p\n\nfunc F() }{ x }\n",
    "unclosed-paren": "package p\n\nvar x = (\n\nfunc F() { y }\n",
    "bom": "﻿package p\n\nfunc F() { ﻿ }\n",
}


class TestSkipBodies:
    def test_fixture_sources(self):
        assert len(_SOURCES) > 100
        for src in _SOURCES:
            _assert_skipping_is_invisible(src)

    @settings(max_examples=400, deadline=None)
    @given(_mutants())
    def test_hostile_mutants(self, src):
        _assert_skipping_is_invisible(src)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_named_shapes(self, shape):
        _assert_skipping_is_invisible(_SHAPES[shape])

    def test_body_tokens_are_not_built(self):
        src = "package p\n\nfunc F() {\n\tx := `a\nb`\n}\n\nvar V int\n"
        toks = tokenize(src, skip_bodies=True)
        assert [(t.text, t.line) for t in toks] == [
            ("package", 1), ("p", 1), (";", 1),
            ("func", 3), ("F", 3), ("(", 3), (")", 3), ("{", 3), ("}", 6), (";", 6),
            ("var", 8), ("V", 8), ("int", 8), (";", 8), ("", 9),
        ]
        full = tokenize(src)
        assert [t for t in full if t.line >= 6] == [t for t in toks if t.line >= 6]

    def test_function_literals_keep_their_tokens(self):
        src = "package p\n\nvar F = func() { x() }\n"
        assert tokenize(src, skip_bodies=True) == tokenize(src)

    def test_body_lexing_error_names_its_line(self):
        with pytest.raises(GoSyntaxError, match=r"^line 5: unexpected character '@'$"):
            tokenize(_SHAPES["body-lexing-error"], skip_bodies=True)

    @pytest.mark.parametrize(
        "shape", ["misnested-paren", "misnested-bracket", "misnested-brace", "unclosed-paren", "unterminated-body"]
    )
    def test_misnested_files_are_lexed_in_full(self, shape):
        assert tokenize(_SHAPES[shape], skip_bodies=True) == tokenize(_SHAPES[shape])

    def test_brackets_are_ops(self):
        assert {t.kind for t in tokenize("f(a[0], T{})") if t.text and t.text in "()[]{}"} == {"op"}
