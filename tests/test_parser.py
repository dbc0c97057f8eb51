from __future__ import annotations

import hashlib
import importlib
import json
import random
import re
from collections import defaultdict
from dataclasses import replace
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catalogue_fixtures
import impact_fixtures
import planted_corpus
import structure_reference
from lexer_reference import (
    _HEADER_FRAGMENTS,
    _HOSTILE,
    _LEXICAL_PRECEDENCE,
    _REFERENCE_LEXABLE_RE,
    _SHAPES,
    _SOURCES,
    PERFBENCH,
    PKG,
    WORKLOADS,
    _as_tokens,
    _assert_as_before,
    _assert_check_agrees_with_lexer,
    _lexed,
    _mutants,
    _outcome,
    _parse,
    _RecordingPattern,
    _reference_tokens,
    generated_sources,
)
from test_object_model import assert_shares_leaves, leaf_types
from semverdiff.gotypes import (
    Array,
    Basic,
    Chan,
    FieldDef,
    Func,
    Interface,
    Map,
    MethodSig,
    Named,
    Pointer,
    Slice,
    Struct,
    TypeParamDef,
    TypeExpr,
    TypeParamRef,
    UnionTerm,
    _VARIANTS,
    is_comparable,
    is_exported,
    render_type_expr,
    type_to_structure,
)
from semverdiff.impact import find_selectors
from semverdiff.lexer import GoSyntaxError, _check_lexable, _Tokens, tokenize
from semverdiff.parser import (
    MAX_TYPE_NESTING,
    PREDECLARED_TYPES,
    ConstSpec,
    DeclMemo,
    FuncDecl,
    ImportSpec,
    TypeSpec,
    VarSpec,
    _Parser,
    parse_go_file,
    parse_imports,
)
from semverdiff import lexer as lexer_module, parser as parser_module


def _first_type(src: str):
    return parse_go_file(src, PKG).decls[0].type


def _first_func(src: str):
    return parse_go_file(src, PKG).decls[0]


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
        assert [fn.name for fn in f.decls] == ["F", "G"]

    def test_function_without_body(self):
        f = parse_go_file("package lib\n\nfunc Abs(x float64) float64\n", PKG)
        assert f.decls[0].name == "Abs"

    def test_method_receiver(self):
        fn = _first_func("package lib\n\nfunc (t *Tree) Walk(depth int) {}\n")
        assert fn.receiver == "Tree"
        assert render_type_expr(fn.type) == "func(int)"

    def test_generic_receiver(self):
        fn = _first_func("package lib\n\nfunc (l *List[T]) Push(v T) {}\n")
        assert fn.receiver == "List"
        assert render_type_expr(fn.type) == "func(T)"

    def test_unnamed_receiver(self):
        fn = _first_func("package lib\n\nfunc (Tree) Leaf() bool { return true }\n")
        assert fn.receiver == "Tree"

    def test_receiver_with_a_trailing_comma(self):
        fn = _first_func("package lib\n\nfunc (r *List[P],) Len() int { return 0 }\n")
        assert fn.receiver == "List"

    def test_type_parameter_without_constraint(self):
        with pytest.raises(GoSyntaxError, match=r"^line 3: type parameter without constraint$"):
            parse_go_file("package lib\n\nfunc F[T]() {}\n", PKG)

    @pytest.mark.parametrize(
        "src,line,found",
        [
            ("package p var a int\n", 1, "var"),
            ('package p\n\nimport "a" import "b"\n', 3, "import"),
            ("package p\n\nvar a int var b int\n", 3, "var"),
            ("package p\n\nvar (\n\ta int\n) const C = 1\n", 5, "const"),
            ("package p\n\ntype T int func F() { x := 1 }\n", 3, "func"),
            ("package p\n\nfunc F() {} func G() {}\n", 3, "func"),
            ("package p\n\nfunc F() int func G() {}\n", 3, "func"),
            ("package p\n\nfunc F() {} { x }\n", 3, "{"),
        ],
    )
    def test_a_top_level_declaration_ends_in_a_semicolon(self, src, line, found):
        with pytest.raises(GoSyntaxError, match=rf"^line {line}: expected ';', found {re.escape(repr(found))}$"):
            parse_go_file(src, PKG)

    def test_const_block_iota_repetition(self):
        src = "package lib\n\nconst (\n\tA Kind = iota\n\tB\n\tC\n)\n"
        f = parse_go_file(src, PKG)
        assert [(c.name, c.value) for c in f.decls] == [("A", "iota"), ("B", "iota"), ("C", "iota")]
        assert all(c.type == Named(PKG, "Kind") for c in f.decls)

    def test_const_untyped_inference(self):
        f = parse_go_file('package lib\n\nconst S = "x"\nconst N = 42\nconst F = 1.5\n', PKG)
        assert [c.type.name for c in f.decls] == ["untyped string", "untyped int", "untyped float"]

    def test_multi_name_spec(self):
        f = parse_go_file("package lib\n\nconst X, Y int = 1, 2\n", PKG)
        assert [(c.name, c.value) for c in f.decls] == [("X", "1"), ("Y", "2")]

    def test_var_func_literal_inference(self):
        f = parse_go_file("package lib\n\nvar H = func(x int) error { return nil }\n", PKG)
        assert render_type_expr(f.decls[0].type) == "func(int) error"

    def test_var_composite_inference(self):
        f = parse_go_file("package lib\n\nvar P = Point{1, 2}\nvar Q = &Point{}\n", PKG)
        assert f.decls[0].type == Named(PKG, "Point")
        assert f.decls[1].type == Pointer(Named(PKG, "Point"))

    @pytest.mark.parametrize(
        "value,expect",
        [
            ("pkg.T{}", Named("example.com/pkg", "T")),
            ("[]int{1}", Slice(Basic("int"))),
            ("map[string]int{}", Map(Basic("string"), Basic("int"))),
            ("'a'", Basic("rune")),
            ("true", Basic("bool")),
            ("1i", Basic("complex128")),
        ],
    )
    def test_var_type_inference(self, value, expect):
        src = f'package lib\n\nimport "example.com/pkg"\n\nvar X = {value}\n'
        assert parse_go_file(src, PKG).decls[0].type == expect

    @pytest.mark.parametrize(
        "group,kw,token",
        [('import ( "a" "b" )', "import", '"b"'), ("var ( A int B string )", "var", "B"), ("type ( A int B string )", "type", "B")],
    )
    def test_group_specs_need_a_separator(self, group, kw, token):
        with pytest.raises(GoSyntaxError, match=rf"^line 3: unexpected {re.escape(repr(token))} after {kw} spec$"):
            parse_go_file(f"package lib\n\n{group}\n", PKG)
        one_line = parse_go_file(f"package lib\n\n{group.replace(' ' + token, '; ' + token)}\n", PKG)
        assert one_line == parse_go_file(f"package lib\n\n{group.replace(' ' + token, chr(10) + token)}\n", PKG)

    @pytest.mark.parametrize(
        "src,error",
        [
            ('import (\n\t"a"\n', "unterminated import block"),
            ("const (\n\tA = 1\n", "unterminated const block"),
            ("type T struct {\n\tA int\n", "unterminated struct body"),
            ("type I interface {\n\tM()\n", "unterminated interface body"),
        ],
    )
    def test_unterminated_groups_and_bodies(self, src, error):
        with pytest.raises(GoSyntaxError, match=f"^line 5: {error}$"):
            parse_go_file(f"package lib\n\n{src}", PKG)

    def test_type_alias(self):
        f = parse_go_file('package lib\n\nimport "io"\n\ntype R = io.Reader\n', PKG)
        spec = f.decls[0]
        assert spec.alias
        assert spec.type == Named("io", "Reader")

    def test_import_aliases_resolve(self):
        src = (
            "package lib\n\n"
            'import (\n\tpb "example.com/dep/protobuf"\n\t"google.golang.org/grpc"\n)\n\n'
            "var A pb.Message\nvar B grpc.ClientConn\n"
        )
        f = parse_go_file(src, PKG)
        assert f.decls[0].type == Named("example.com/dep/protobuf", "Message")
        assert f.decls[1].type == Named("google.golang.org/grpc", "ClientConn")

    def test_unresolvable_qualifier_renders_as_written(self):
        f = parse_go_file("package lib\n\nvar X mystery.Thing\n", PKG)
        assert render_type_expr(f.decls[0].type) == "mystery.Thing"


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
        assert render_type_expr(fn.type) == "func(int, int, string)"

    def test_unnamed_qualified_params(self):
        src = 'package lib\n\nimport "io"\n\nfunc F(io.Reader, io.Writer) {}\n'
        fn = _first_func(src)
        assert render_type_expr(fn.type) == "func(io.Reader, io.Writer)"

    def test_named_result_params(self):
        fn = _first_func("package lib\n\nfunc F() (n int, err error) { return }\n")
        assert render_type_expr(fn.type) == "func() (int, error)"

    def test_variadic_named_param(self):
        fn = _first_func("package lib\n\nfunc F(prefix string, parts ...[]byte) {}\n")
        assert fn.type.variadic
        assert render_type_expr(fn.type) == "func(string, ...[]byte)"

    def test_variadic_only_on_the_final_parameter(self):
        with pytest.raises(GoSyntaxError, match="can only use ... with final parameter"):
            parse_go_file("package lib\n\nfunc F(...int, string) {}\n", PKG)
        fn = _first_func("package lib\n\nfunc F(a string, b ...int,) {}\n")
        assert render_type_expr(fn.type) == "func(string, ...int)"

    @pytest.mark.parametrize("params", ["a, b int, c", "a int, string", "a int, []string", "io.Reader, r int"])
    def test_mixed_named_and_unnamed_parameters_are_rejected(self, params):
        with pytest.raises(GoSyntaxError, match="mixed named and unnamed parameters"):
            parse_go_file(f"package lib\n\nfunc K({params}) {{}}\n", PKG)

    def test_struct_fields_need_a_separator(self):
        with pytest.raises(GoSyntaxError, match="after struct field"):
            parse_go_file("package lib\n\ntype T struct{ A int B int }\n", PKG)
        t = _first_type("package lib\n\ntype T struct{ A int; B int `t` }\n")
        assert [f.name for f in t.fields] == ["A", "B"]

    def test_variadic_result_is_rejected(self):
        for results in ("(...int)", "(n ...int)", "(int, ...int)"):
            with pytest.raises(GoSyntaxError, match=r"^line 3: cannot use \.\.\. in result list$"):
                parse_go_file(f"package lib\n\nfunc F() {results}\n", PKG)
        fn = _first_func("package lib\n\nfunc F(a ...int) (b []int) { return }\n")
        assert render_type_expr(fn.type) == "func(...int) []int"

    def test_interface_methods_need_a_separator(self):
        with pytest.raises(GoSyntaxError, match=r"^line 3: unexpected 'B' after interface element$"):
            parse_go_file("package lib\n\ntype I interface{ A() int B() }\n", PKG)
        one_line = _first_type("package lib\n\ntype I interface{ A() int; B() }\n")
        assert one_line == _first_type("package lib\n\ntype I interface {\n\tA() int\n\tB()\n}\n")
        assert [m.name for m in one_line.methods] == ["A", "B"]

    def test_struct_fields_record_export_and_order(self):
        t = _first_type("package lib\n\ntype T struct {\n\tA int\n\tb int\n}\n")
        assert isinstance(t, Struct)
        assert [(f.name, f.exported) for f in t.fields] == [("A", True), ("b", False)]

    def test_struct_field_names_share_a_type(self):
        t = _first_type('package lib\n\ntype T struct{ A, b int `k:"v"` }\n')
        assert t == Struct((FieldDef("A", Basic("int"), 'k:"v"', False, True), FieldDef("b", Basic("int"), 'k:"v"', False, False)))

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
        spec = f.decls[0]
        assert [tp.name for tp in spec.type_params] == ["K", "V"]
        assert render_type_expr(spec.type_params[0].constraint) == "comparable"

    def test_grouped_type_params(self):
        f = parse_go_file("package lib\n\nfunc F[K, V any](k K, v V) {}\n", PKG)
        tps = f.decls[0].type.type_params
        assert [(tp.name, render_type_expr(tp.constraint)) for tp in tps] == [("K", "any"), ("V", "any")]

    def test_union_constraint_is_canonical_interface(self):
        f = parse_go_file("package lib\n\nfunc F[T int | string](x T) {}\n", PKG)
        constraint = f.decls[0].type.type_params[0].constraint
        assert render_type_expr(constraint) == "interface{int; string}"

    def test_generic_instantiation_as_param(self):
        f = parse_go_file("package lib\n\ntype List[T any] struct{}\n\nfunc F(l List[int]) {}\n", PKG)
        fn = f.decls[1]
        assert render_type_expr(fn.type, PKG) == "func(List[int])"

    def test_type_param_with_slice_constraint_is_generic(self):
        spec = parse_go_file("package lib\n\ntype A[T []int] struct{ X T }\n", PKG).decls[0]
        assert spec.type_params == (TypeParamDef("T", Slice(Basic("int"))),)
        assert spec.type == Struct((FieldDef("X", TypeParamRef("T"), None, False, True),))

    def test_type_param_with_pointer_constraint_and_trailing_comma_is_generic(self):
        spec = parse_go_file("package lib\n\ntype A[T *int,] struct{}\n", PKG).decls[0]
        assert spec.type_params == (TypeParamDef("T", Pointer(Basic("int"))),)
        assert spec.type == Struct(())

    @pytest.mark.parametrize(
        "constraint,expect",
        [
            ("*[]int", Pointer(Slice(Basic("int")))),
            ("*struct{}", Pointer(Struct(()))),
            ("([]int)", Slice(Basic("int"))),
            ("*E | ~int", Interface((), (UnionTerm(Pointer(Named(PKG, "E"))), UnionTerm(Basic("int"), True)))),
            ("*<-chan int", Pointer(Chan("recv", Basic("int")))),
        ],
    )
    def test_type_param_with_a_type_element_after_star_or_paren_is_generic(self, constraint, expect):
        spec = parse_go_file(f"package lib\n\ntype A[T {constraint}] struct{{}}\n", PKG).decls[0]
        assert spec.type_params == (TypeParamDef("T", expect),)
        assert spec.type == Struct(())

    @pytest.mark.parametrize("length,spelled", [("N * M", "N * M"), ("f(1, 2)", "f (1, 2)"), ("N*(M)", "N * (M)")])
    def test_length_expression_without_top_level_comma_is_an_array(self, length, spelled):
        assert _first_type(f"package lib\n\ntype A [{length}]int\n") == Array(spelled, Basic("int"))

    def test_array_of_named_length(self):
        t = _first_type("package lib\n\ntype T [Size]byte\n")
        assert render_type_expr(t) == "[Size]byte"

    def test_parenthesized_type(self):
        t = _first_type("package lib\n\ntype T (int)\n")
        assert t == Basic("int")

    @pytest.mark.parametrize("length", ["16", "0x10", "1_6", "(16)", "((16))", "( 0x10 )"])
    def test_literal_array_length_is_a_number(self, length):
        assert _first_type(f"package lib\n\ntype T [{length}]byte\n") == Array(16, Basic("byte"))

    @pytest.mark.parametrize("length,spelled", [("(N)", "N"), ("(1)+(2)", "(1) + (2)"), ("N * 2", "N * 2")])
    def test_other_array_lengths_are_kept_as_spelled(self, length, spelled):
        assert _first_type(f"package lib\n\ntype T [{length}]byte\n") == Array(spelled, Basic("byte"))


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


# -- render equality <=> structural equality ----------------------------------
#
# Types drawn from the parser's domain (see the gotypes docstring): an array
# length is an int or a spelled string that is not a decimal literal, a named
# type always has a package, and a type parameter never shadows a predeclared
# type. Small alphabets make equal renderings of unequal types likely to be
# drawn if they exist.

_PACKAGES = ("example.com/a", "example.com/b")
_NAMES = ("A", "B", "b")
_TYPE_PARAM_NAMES = ("T", "U")
_LENGTHS = st.one_of(st.integers(0, 2), st.sampled_from(["N", "N + 1", "(N)", "len(x)"]))
_TAGS = st.sampled_from([None, "", "x", 'json:"a"', "x`y", 'x`"y', "a\nb", "a\\nb"])
_TYPE_DEPTH = 4  # composite levels; with the method signatures inside interfaces, far below MAX_TYPE_NESTING

assert not PREDECLARED_TYPES & set(_TYPE_PARAM_NAMES)
assert 2 * _TYPE_DEPTH + 2 <= MAX_TYPE_NESTING


def _sorted_embeds(embeds) -> tuple:
    return tuple(sorted(embeds, key=lambda e: (render_type_expr(e.type), e.tilde)))


def _field(name: str, t, tag, anonymous: bool) -> FieldDef:
    return FieldDef(name, t, tag, anonymous, is_exported(name))


def _tuples(inner, max_size=2):
    return st.lists(inner, max_size=max_size).map(tuple)


@st.composite
def _funcs(draw, inner, generic=True):
    params = draw(_tuples(inner))
    variadic = bool(params) and draw(st.booleans())
    names = draw(st.lists(st.sampled_from(_TYPE_PARAM_NAMES), max_size=2, unique=True)) if generic else []
    type_params = tuple(TypeParamDef(name, draw(inner)) for name in names)
    return Func(params, draw(_tuples(inner)), variadic, type_params)


@st.composite
def _fields(draw, inner):
    tag = draw(_TAGS)
    if draw(st.booleans()):
        return _field(draw(st.sampled_from(_NAMES)), draw(inner), tag, False)
    named = Named(draw(st.sampled_from(_PACKAGES)), draw(st.sampled_from(_NAMES)))
    return _field(named.name, Pointer(named) if draw(st.booleans()) else named, tag, True)


@st.composite
def _interfaces(draw, inner):
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True))
    methods = tuple(MethodSig(name, draw(_funcs(inner, generic=False))) for name in sorted(names))
    embeds = draw(st.lists(st.builds(UnionTerm, inner, st.booleans()), max_size=2))
    return Interface(methods, _sorted_embeds(embeds))


def _types(depth: int):
    leaves = st.one_of(
        st.sampled_from(["int", "string", "any"]).map(Basic),
        st.sampled_from(_TYPE_PARAM_NAMES).map(TypeParamRef),
        st.builds(Named, st.sampled_from(_PACKAGES), st.sampled_from(_NAMES)),
    )
    if depth == 0:
        return leaves
    inner = _types(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Named, st.sampled_from(_PACKAGES), st.sampled_from(_NAMES), _tuples(inner)),
        inner.map(Pointer),
        inner.map(Slice),
        st.builds(Array, _LENGTHS, inner),
        st.builds(Map, inner, inner),
        st.builds(Chan, st.sampled_from(["send", "recv", "both"]), inner),
        _funcs(inner),
        _tuples(_fields(inner)).map(Struct),
        _interfaces(inner),
    )


def _replace_at(items: tuple, i: int, item) -> tuple:
    return items[:i] + (item,) + items[i + 1 :]


def _children(t) -> list:
    """(rebuild, child) for every type directly inside t."""
    out = []
    if isinstance(t, (Pointer, Slice, Array, Chan)):
        attr = "base" if isinstance(t, Pointer) else "elem"
        out.append((lambda c, a=attr: replace(t, **{a: c}), getattr(t, attr)))
    elif isinstance(t, Map):
        out += [(lambda c: Map(c, t.value), t.key), (lambda c: Map(t.key, c), t.value)]
    elif isinstance(t, Named):
        out += [(lambda c, i=i: replace(t, args=_replace_at(t.args, i, c)), a) for i, a in enumerate(t.args)]
    elif isinstance(t, Func):
        out += [(lambda c, i=i: replace(t, params=_replace_at(t.params, i, c)), p) for i, p in enumerate(t.params)]
        out += [(lambda c, i=i: replace(t, results=_replace_at(t.results, i, c)), r) for i, r in enumerate(t.results)]
        out += [
            (lambda c, i=i: replace(t, type_params=_replace_at(t.type_params, i, TypeParamDef(tp.name, c))), tp.constraint)
            for i, tp in enumerate(t.type_params)
        ]
    elif isinstance(t, Struct):
        out += [
            (lambda c, i=i: Struct(_replace_at(t.fields, i, replace(f, type=c))), f.type)
            for i, f in enumerate(t.fields)
            if not f.anonymous
        ]
    elif isinstance(t, Interface):
        out += [
            (lambda c, i=i: replace(t, methods=_replace_at(t.methods, i, MethodSig(m.name, c))), m.sig)
            for i, m in enumerate(t.methods)
        ]
        out += [
            (lambda c, i=i: replace(t, embeds=_sorted_embeds(_replace_at(t.embeds, i, UnionTerm(c, e.tilde)))), e.type)
            for i, e in enumerate(t.embeds)
        ]
    return out


def _edits(t) -> list:
    """Types in the domain that differ from t in one small way; none for most leaves."""
    out = []
    if isinstance(t, Named):
        out += [replace(t, package=p) for p in _PACKAGES] + [replace(t, name=n) for n in _NAMES]
        out += [replace(t, args=t.args[:-1])]
    elif isinstance(t, Pointer):
        out += [t.base]
    elif isinstance(t, Slice):
        out += [Array(0, t.elem), Func((t.elem,), (), True)]
    elif isinstance(t, Array):
        out += [Array(length, t.elem) for length in (0, 1, "N", "(N)")] + [Slice(t.elem)]
    elif isinstance(t, Map):
        out += [Map(t.value, t.key)]
    elif isinstance(t, Chan):
        out += [Chan(d, t.elem) for d in ("send", "recv", "both")]
    elif isinstance(t, Func):
        out += [replace(t, variadic=not t.variadic)] if t.params else []
        out += [replace(t, params=t.params[:-1], variadic=False), replace(t, type_params=())]
        out += [replace(t, params=t.params[:-1], results=t.params[-1:] + t.results, variadic=False)] if t.params else []
        out += [replace(t, params=t.params[:-1] + (Slice(p),), variadic=False) for p in t.params[-1:]]
    elif isinstance(t, Struct):
        for i, f in enumerate(t.fields):
            out.append(Struct(t.fields[:i] + t.fields[i + 1 :]))
            out += [Struct(_replace_at(t.fields, i, replace(f, tag=tag))) for tag in (None, "", "x", "x`y")]
            if f.anonymous:
                out.append(Struct(_replace_at(t.fields, i, _field(f.name, f.type, f.tag, False))))
            elif isinstance(f.type, Named):
                out.append(Struct(_replace_at(t.fields, i, _field(f.type.name, f.type, f.tag, True))))
            else:
                out.append(Struct(_replace_at(t.fields, i, _field("B" if f.name != "B" else "b", f.type, f.tag, False))))
    elif isinstance(t, Interface):
        out += [replace(t, methods=t.methods[:i] + t.methods[i + 1 :]) for i in range(len(t.methods))]
        out += [replace(t, embeds=t.embeds[:i] + t.embeds[i + 1 :]) for i in range(len(t.embeds))]
        out += [
            replace(t, embeds=_sorted_embeds(_replace_at(t.embeds, i, UnionTerm(e.type, not e.tilde))))
            for i, e in enumerate(t.embeds)
        ]
        out += [Interface(embeds=_sorted_embeds(t.embeds + (UnionTerm(m.sig),))) for m in t.methods[:1]]
    return out


_TYPES = _types(_TYPE_DEPTH)


def _nodes(t, path=()):
    """(path of rebuilds from the root, node) for t and every type inside it."""
    yield path, t
    for rebuild, child in _children(t):
        yield from _nodes(child, path + (rebuild,))


@st.composite
def _near_pairs(draw):
    """A type and a copy of it with one node somewhere inside changed a little."""
    a = draw(_TYPES)
    # Pick a kind of node first, so that kinds the strategy draws rarely still get edited.
    sites: dict[type, list] = {}
    for path, node in _nodes(a):
        if _edits(node):
            sites.setdefault(type(node), []).append((path, node))
    path, node = draw(st.sampled_from(draw(st.sampled_from(list(sites.values()) or [[((), a)]]))))
    b = draw(st.sampled_from(_edits(node) or [Pointer(node)]))
    if draw(st.integers(0, 9)) == 0:
        b = draw(st.sampled_from([Basic("int"), TypeParamRef("T"), Named(_PACKAGES[0], "A"), Pointer(node), Slice(node)]))
    for rebuild in reversed(path):
        b = rebuild(b)
    return a, b


class TestRenderIdentity:
    @settings(max_examples=600, deadline=None)
    @given(_TYPES, _TYPES)
    def test_render_equality_iff_structural_equality(self, a, b):
        assert (a == b) == (render_type_expr(a) == render_type_expr(b))

    @settings(max_examples=1500, deadline=None)
    @given(_near_pairs())
    def test_render_equality_iff_structural_equality_for_near_types(self, pair):
        a, b = pair
        assert (a == b) == (render_type_expr(a) == render_type_expr(b))

    def test_tag_holding_a_backquote_renders_quoted(self):
        one = _first_type('package lib\n\ntype T struct{ A int "x`; B int `y" }\n')
        two = _first_type("package lib\n\ntype T struct{ A int `x`; B int `y` }\n")
        assert one != two
        assert render_type_expr(one) == 'struct{A int "x`; B int `y"}'
        assert render_type_expr(two) == "struct{A int `x`; B int `y`}"

    def test_shadowing_type_parameter_is_the_exception(self):
        # Outside the domain: both render as `int`, yet they differ.
        assert TypeParamRef("int") != Basic("int")
        assert render_type_expr(TypeParamRef("int")) == render_type_expr(Basic("int"))


# -- the structural form -------------------------------------------------------
#
# A decoder of the structural form, kept here only: a dict with a kind is the
# variant the table names, and one without is the class its field holds.

_KINDS = {kind: cls for cls, (kind, _category) in _VARIANTS.items()}
_ELEMENT_CLASSES = {"fields": FieldDef, "methods": MethodSig, "embeds": UnionTerm, "type_params": TypeParamDef}


def _from_structure(value, cls=None):
    if isinstance(value, list):
        return tuple(_from_structure(v, cls) for v in value)
    if not isinstance(value, dict):
        return value
    cls = _KINDS[value["kind"]] if "kind" in value else cls
    return cls(**{name: _from_structure(v, _ELEMENT_CLASSES.get(name)) for name, v in value.items() if name != "kind"})


def _assert_structure_round_trips(t) -> None:
    """The form equals the written-out one before it, key order included, and
    decodes back to t."""
    structure = type_to_structure(t)
    assert json.dumps(structure) == json.dumps(structure_reference.type_to_structure(t)), t
    assert _from_structure(json.loads(json.dumps(structure))) == t, t


_GENERICS = """package lib

type List[T any, P interface{ ~*T; M() }] struct{ items []T; next *List[T, P] }

type Number interface{ ~int | ~float64 | string }

func Map[T, U any, N Number](xs []T, f func(T) U, n ...N) (List[U, *U], error) { return List[U, *U]{}, nil }

func (l *List[T, P]) Len() int { return 0 }
"""


def _spec_types(sources, memo: DeclMemo | None = None) -> set:
    """Every spec type and type-parameter constraint parse_go_file gives on
    sources, the ones it rejects skipped."""
    types = set()
    for src in sources:
        try:
            gofile = parse_go_file(src, PKG, memo=memo)
        except GoSyntaxError:
            continue
        for spec in gofile.decls:
            types.add(spec.type)
            types.update(tp.constraint for tp in spec.type_params)
    return types


@pytest.fixture(scope="module")
def generated_types(generated_sources, tmp_path_factory) -> set:
    """The spec types of each benchmark workload's seed-1 and seed-2 files,
    parsed with one memo whose generation turns at each top-level directory
    (a module pair, an impact op or a corpus)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
    trees = list(generated_sources.values())
    for workload in WORKLOADS:
        root = tmp_path_factory.mktemp(f"{workload}-2")
        gen.generate(workload, 2, root)
        trees.append({path.relative_to(root).as_posix(): path.read_text(encoding="utf-8") for path in root.rglob("*.go")})
    types, memo = set(), DeclMemo()
    for tree in trees:
        tops = defaultdict(list)
        for rel in sorted(tree):
            tops[rel.split("/")[0]].append(tree[rel])
        for top in sorted(tops):
            memo.next_generation()
            types |= _spec_types(tops[top], memo)
    return types


class TestStructuralForm:
    def test_generic_function(self):
        f = _first_func("package lib\n\nfunc F[T any, U ~int | string](x T) U {}\n")
        assert json.dumps(type_to_structure(f.type)) == json.dumps({
            "kind": "func",
            "params": [{"kind": "typeparam", "name": "T"}],
            "results": [{"kind": "typeparam", "name": "U"}],
            "variadic": False,
            "type_params": [
                {"name": "T", "constraint": {"kind": "basic", "name": "any"}},
                {"name": "U", "constraint": {"kind": "interface", "methods": [], "embeds": [
                    {"tilde": True, "type": {"kind": "basic", "name": "int"}},
                    {"tilde": False, "type": {"kind": "basic", "name": "string"}},
                ]}},
            ],
        })
        _assert_structure_round_trips(f.type)

    def test_named_without_arguments_has_no_args(self):
        assert type_to_structure(Named(PKG, "T")) == {"kind": "named", "package": PKG, "name": "T"}
        assert type_to_structure(Named(PKG, "T", (Basic("int"),)))["args"] == [{"kind": "basic", "name": "int"}]

    def test_every_variant_has_a_kind_and_a_category(self):
        assert set(_VARIANTS) == set(TypeExpr.__args__)
        assert len(_KINDS) == len(_VARIANTS)

    def test_fixture_types(self):
        types = _spec_types(_SOURCES + [_GENERICS])
        assert any(isinstance(t, Func) and t.type_params for t in types)
        assert set(re.findall(r'"kind": "(\w+)"', json.dumps([type_to_structure(t) for t in types]))) == set(_KINDS)
        for t in sorted(types, key=repr):
            _assert_structure_round_trips(t)

    def test_generated_types(self, generated_types):
        assert len(generated_types) > 1000
        for t in sorted(generated_types, key=repr):
            _assert_structure_round_trips(t)

    @settings(max_examples=600, deadline=None)
    @given(_TYPES)
    def test_drawn_types(self, t):
        _assert_structure_round_trips(t)


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
        types = {spec.name: spec.type for spec in f.decls}

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
        shallow = parse_go_file("package lib\n\nvar V = & T{}\n", PKG).decls[0].type
        assert shallow == Pointer(Named(PKG, "T"))
        deep = parse_go_file("package lib\n\nvar V = " + "& " * 5000 + "T{}\n", PKG).decls[0].type
        assert deep == Basic("untyped")


def _spy(real, calls: list):
    """real, recording the positional arguments of each call in calls."""

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    return spy


def _imports_of(tokens: _Tokens):
    return _Parser(tokens, "").parse_imports().imports


def _reference_parse(src: str):
    """parse_go_file as it was where the brackets nest: a lexical error
    anywhere in the file, else the parse of the tokens with bodies skipped."""
    _reference_tokens(src)
    return _Parser(_as_tokens(_reference_tokens(src, skip_bodies=True)), PKG).parse_file()


def _reference_imports(src: str):
    """parse_imports as it was before only the header was lexed: the whole
    file lexed, here by the reference lexer."""
    return _imports_of(_as_tokens(_reference_tokens(src)))


# One [sha256(input), sha256(repr of its GoFile)] row per input the parser
# accepts, the repr in the form _four_list_repr gives.
GOLDEN_PARSES = Path(__file__).resolve().parent / "golden" / "parse_outcomes.ndjson"


def _golden_inputs() -> list[str]:
    """Every fixture source and named shape, then 2,000 seeded hostile mutants."""
    rng = random.Random(0)
    mutants = []
    for _ in range(2000):
        src = rng.choice(_SOURCES)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(src))
            src = src[:at] + rng.choice(_HOSTILE) + src[at:]
        mutants.append(src)
    return _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)] + mutants


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _four_list_repr(gofile) -> str:
    """The repr of a GoFile in the form the golden file was written in: each
    import as (path, alias, dot, blank), one list of specs per kind, and a
    FuncDecl's type named sig. So the golden rows pin that one list of specs
    in source order holds what the four lists held, in each kind's order."""

    def spec(s) -> str:
        if isinstance(s, FuncDecl):
            return f"FuncDecl(name={s.name!r}, sig={s.type!r}, receiver={s.receiver!r})"
        return repr(s)

    def import_(s) -> str:
        alias = None if s.name in (None, ".", "_") else s.name
        return f"ImportSpec(path={s.path!r}, alias={alias!r}, dot={s.name == '.'}, blank={s.name == '_'})"

    imports = ", ".join(map(import_, gofile.imports))
    consts, vars_, types, funcs = (
        ", ".join(spec(s) for s in gofile.decls if isinstance(s, kind)) for kind in (ConstSpec, VarSpec, TypeSpec, FuncDecl)
    )
    return (
        f"GoFile(package_name={gofile.package_name!r}, imports=[{imports}], consts=[{consts}], "
        f"vars=[{vars_}], types=[{types}], funcs=[{funcs}])"
    )


def _parse_rows() -> dict[str, str]:
    """sha256 of each accepted input -> sha256 of the repr of its GoFile."""
    rows = {}
    for src in _golden_inputs():
        try:
            gofile = parse_go_file(src, PKG)
        except GoSyntaxError:
            continue
        rows[_sha256(src)] = _sha256(_four_list_repr(gofile))
    return rows


class TestParseGolden:
    def test_parses_match_the_golden_file(self):
        golden = dict(json.loads(line) for line in GOLDEN_PARSES.read_text(encoding="utf-8").splitlines())
        rows = _parse_rows()
        assert sorted(rows.keys() - golden.keys()) == [], "accepted, but rejected when the file was written"
        assert sorted(golden.keys() - rows.keys()) == [], "rejected, but accepted when the file was written"
        assert {key for key in rows if rows[key] != golden[key]} == set(), "parsed to a different GoFile"


class TestOnePass:
    def test_a_file_is_parsed_by_one_parser(self, monkeypatch):
        made = []

        class CountingParser(_Parser):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(parser_module, "_Parser", CountingParser)
        for src in _SOURCES:
            parse_go_file(src, PKG)
        assert len(made) == len(_SOURCES)

    def test_parse_imports_gives_the_imports_of_the_file(self):
        for src in _SOURCES:
            assert parse_imports(src) == parse_go_file(src, PKG).imports

    def test_parse_imports_lexes_the_whole_file(self):
        with pytest.raises(GoSyntaxError, match=r"^line 5: unexpected character '@'$"):
            parse_imports(_SHAPES["body-lexing-error"])


# The error of each named shape whose brackets do not nest outside bodies.
_MISNESTED_ERRORS = {
    "misnested-paren": "line 3: unmatched ')'",
    "misnested-bracket": "line 3: expected ')', found ']'",
    "misnested-brace": "line 3: unmatched '}'",
    "unclosed-paren": "line 6: unterminated expression",
    "unterminated-body": "line 3: unterminated function body",
}


class TestSkipBodies:
    def test_fixture_sources(self):
        assert len(_SOURCES) > 100
        for src in _SOURCES:
            _assert_as_before(src)

    @settings(max_examples=400, deadline=None)
    @given(_mutants())
    def test_hostile_mutants(self, src):
        _assert_as_before(src)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_named_shapes(self, shape):
        _assert_as_before(_SHAPES[shape])

    def test_body_tokens_are_not_built(self):
        src = "package p\n\nfunc F() {\n\tx := `a\nb`\n}\n\nvar V int\n"
        assert _lexed(src) == [
            "package", "p", ";", "func", "F", "(", ")", "{", "}", ";", "var", "V", "int", ";", "",
        ]
        with pytest.raises(GoSyntaxError, match=r"^line 8: expected type, found '5'$"):
            parse_go_file(src.replace("int", "5"), PKG)

    def test_function_literals_keep_their_tokens(self):
        src = "package p\n\nvar F = func() { x() }\n"
        assert _lexed(src) == [t.text for t in _reference_tokens(src)]

    def test_body_lexing_error_names_its_line(self):
        with pytest.raises(GoSyntaxError, match=r"^line 5: unexpected character '@'$"):
            tokenize(_SHAPES["body-lexing-error"])

    @pytest.mark.parametrize("shape", sorted(_MISNESTED_ERRORS))
    def test_misnested_files_are_syntax_errors(self, shape):
        with pytest.raises(GoSyntaxError, match=f"^{re.escape(_MISNESTED_ERRORS[shape])}$"):
            parse_go_file(_SHAPES[shape], PKG)

    def test_misnesting_does_not_swallow_the_next_declaration(self):
        # The "(" never closes inside the function literal, so a lexer that
        # let it stay open would read func F as part of X's value.
        src = "package p\n\nvar X = func() { ( }\n\nfunc F() {}\n"
        with pytest.raises(GoSyntaxError, match=r"^line 3: expected '\)', found '}'$"):
            parse_go_file(src, PKG)
        gofile = parse_go_file(src.replace("( }", "() }"), PKG)
        assert [(spec.kind, spec.name) for spec in gofile.decls] == [("var", "X"), ("func", "F")]

    def test_misnested_file_with_a_body_lexing_error_names_its_line(self):
        # The ")" makes the file misnested, so the body is never skipped.
        with pytest.raises(GoSyntaxError, match=r"^line 5: unexpected character '@'$"):
            parse_go_file(_SHAPES["misnested-before-body-lexing-error"], PKG)

    def test_brackets_are_ops(self):
        assert tokenize("f(a[0], T{})") == ["f", "(", "a", "[", "0", "]", ",", "T", "{", "}", ")", ";", ""]


@st.composite
def _header_mutants(draw) -> str:
    """A fixture source with a few hostile or header fragments inserted,
    half of them within its first 300 characters, where the imports are."""
    src = draw(st.sampled_from(_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, min(len(src), 300)) | st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(_HEADER_FRAGMENTS)) + src[at:]
    return src


def _string_heavy_file(size: int) -> str:
    """A file whose bytes past its imports are nearly all literals and
    comments, in one function body, followed by one declaration."""
    line = '\t"a string \\"with\\" escapes", `raw {}`, \'x\', /* c */ // {{ }}\n'
    lines = [line] * (size // len(line))
    return 'package p\n\nimport "a/b"\n\nfunc F() {\n\t_ = []string{\n' + "".join(lines) + "\t}\n}\n\nvar V int\n"


class TestImportsOnly:
    def test_fixture_sources_and_shapes(self):
        for src in _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)]:
            _assert_as_before(src)
            _assert_check_agrees_with_lexer(src)

    @settings(max_examples=400, deadline=None)
    @given(_mutants())
    def test_hostile_mutants(self, src):
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)

    @settings(max_examples=400, deadline=None)
    @given(_header_mutants())
    def test_header_mutants(self, src):
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)

    def test_only_the_header_is_lexed(self, monkeypatch):
        src = 'package p\n\nimport (\n\t"a/b"\n\tc "c/d"\n)\n\nfunc F() { x() }\n\nvar V = 1\n'
        header = tokenize(src)
        full = [t.text for t in _reference_tokens(src)]
        assert header == full[: full.index("func")] + [""]
        assert header.end == src.index("func")
        assert str(_Parser(header, "")._error("end", len(header) - 1)) == "line 8: end"
        lexed = []
        monkeypatch.setattr(lexer_module, "_lex", _spy(lexer_module._lex, lexed))
        assert parse_imports(src) == [ImportSpec("a/b"), ImportSpec("c/d", "c")]
        assert [args[1] for args in lexed] == [0]

    @pytest.mark.parametrize(
        "src", ['package p; import "a/b"; func F() { x }', 'package p\n\nimport "a/b"\n\n func F() { x }\n\nvar V int\n']
    )
    def test_first_declaration_not_at_column_0(self, src):
        # No candidate cut comes before the declaration, so the header runs
        # on past it.
        assert tokenize(src).end > src.index("func")
        assert parse_imports(src) == [ImportSpec("a/b")] == parse_go_file(src, PKG).imports

    def test_lexical_error_after_the_imports_at_top_level(self):
        src = 'package p\n\nimport "a/b"\n\nvar x = 1\nvar y = $\n'
        with pytest.raises(GoSyntaxError, match=r"^line 6: unexpected character '\$'$"):
            parse_imports(src)
        _assert_as_before(src)

    def test_lexical_error_in_a_body_names_its_line(self):
        src = 'package p\n\nimport "a/b"\n\nfunc F() {\n\tx := "}"\n}\n\nfunc G() {\n\ty := 1 @ 2\n}\n'
        with pytest.raises(GoSyntaxError, match=r"^line 10: unexpected character '@'$"):
            parse_imports(src)
        _assert_as_before(src)

    def test_import_block_holding_func(self):
        src = 'package p\n\nimport (\n\t"a/b"\n\tfunc\n)\n'
        with pytest.raises(GoSyntaxError, match=r"^line 5: expected import path string, found 'func'$"):
            parse_imports(src)
        _assert_as_before("package p\n\nimport ( func )\n")

    def test_import_specs_need_a_separator(self):
        with pytest.raises(GoSyntaxError, match=r"""^line 3: unexpected '"b"' after import spec$"""):
            parse_imports('package lib\n\nimport ( "a" "b" )\n')

    def test_file_of_imports_only(self):
        src = 'package p\n\nimport (\n\t"a/b"\n\tc "c/d"\n)\nimport . "e"\nimport _ `f`\n'
        assert parse_imports(src) == [
            ImportSpec("a/b"), ImportSpec("c/d", "c"), ImportSpec("e", "."), ImportSpec("f", "_"),
        ]
        header = tokenize(src)
        assert header == [t.text for t in _reference_tokens(src)] and header.end == len(src)
        with pytest.raises(GoSyntaxError, match=r"^line 5: unterminated import block$"):
            parse_imports('package p\n\nimport (\n\t"a/b"\n')

    def test_byte_order_mark(self):
        assert parse_imports('\ufeffpackage p\n\nimport "a/b"\n') == [ImportSpec("a/b")]
        src = '\ufeffpackage p\n\nimport "a/b"\n\nfunc F() { \ufeff }\n'
        with pytest.raises(GoSyntaxError, match=r"^line 5: illegal byte order mark$"):
            parse_imports(src)
        _assert_as_before(src)

    def test_unterminated_block_comment_is_an_error_at_its_line(self):
        # As in go/scanner, the error is at the "/*", wherever the comment
        # starts and whatever it holds.
        cases = [
            ('package p /* never closed\n\nimport "a/b"\n', 1),  # in the header
            ('package p\n\nimport "a/b"\n\nvar A int\n\nvar B = 1 /* x\n\nfunc F() {}\n', 7),  # in a chunk
            ("package p\n\nfunc F() {\n\tx := 1 /* }\n}\n\nfunc G() {}\n", 4),  # in a function body
            ("package p\n\nvar A int\n/*", 4),  # the last bytes of the file
            ("package p\n\nvar A int\n\n/* a \x00 b\n", 5),  # before an illegal character
        ]
        for src, line in cases:
            for fn in (tokenize, _parse, parse_imports, _reference_tokens):
                assert _outcome(fn, src) == f"GoSyntaxError: line {line}: comment not terminated", (fn, src)
            _assert_as_before(src)
            _assert_check_agrees_with_lexer(src)

    def test_multi_line_raw_string_before_the_error_line(self):
        src = 'package p\n\nimport "a/b"\n\nvar s = `one\ntwo\nthree`\nvar t = ?\n'
        with pytest.raises(GoSyntaxError, match=r"^line 8: unexpected character '\?'$"):
            parse_imports(src)
        _assert_as_before(src)

    def test_string_heavy_file_keeps_memory_bounded(self):
        src = _string_heavy_file(2_000_000)
        assert len(src) > 1_900_000
        tracemalloc.start()
        try:
            imports = parse_imports(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert imports == [ImportSpec("a/b")]
        assert peak < 8_000_000
        # One scan runs over the body's 32,000 lines; the declaration after
        # it is found, and an error after them is at its line.
        gofile = parse_go_file(src, PKG)
        assert [(spec.kind, spec.name) for spec in gofile.decls] == [("func", "F"), ("var", "V")]
        bad = src.replace("\t}\n}\n", "\t}\n@}\n")
        line = bad.count("\n", 0, bad.index("@")) + 1
        assert line > 32_000
        for fn in (tokenize, _parse, parse_imports):
            with pytest.raises(GoSyntaxError, match=rf"^line {line}: unexpected character '@'$"):
                fn(bad)


class TestIllegalCharacters:
    """go/scanner rejects a NUL anywhere, and a byte order mark anywhere but
    at the start of the file, even inside a comment or literal."""

    @pytest.mark.parametrize(
        "src,error",
        [
            ('package p\n\nconst A = "a\x00b"\n', "line 3: illegal character NUL"),
            ("package p\n\n// a\x00\nvar V int\n", "line 3: illegal character NUL"),
            ("package p\n\nvar V int\x00\n", "line 3: illegal character NUL"),
            ('package p\n\nimport "a\ufeffb"\n', "line 3: illegal byte order mark"),
            ("package p\n\n/* a\n\ufeff */\nvar V int\n", "line 4: illegal byte order mark"),
            ("\ufeff\ufeffpackage p\n", "line 1: illegal byte order mark"),
            ("package p\n\nvar V = @\n\nconst A = `\x00`\n", "line 3: unexpected character '@'"),
            ("package p\n\nconst A = `\x00`\n\nvar V = @\n", "line 3: illegal character NUL"),
            ('package p\n\nconst A = "a\x00\n', "line 3: string literal not terminated"),
        ],
    )
    def test_illegal_character_is_a_syntax_error_at_its_line(self, src, error):
        for fn in (tokenize, _parse, parse_imports, _reference_tokens):
            assert _outcome(fn, src) == f"GoSyntaxError: {error}", fn
        _assert_check_agrees_with_lexer(src)

    def test_leading_byte_order_mark_is_dropped(self):
        assert tokenize("\ufeffpackage p\n") == ["package", "p", ";", ""]


# Where a literal that never ends may stand: in the header, in a chunk and in
# a function body, with the line of its opening quote.
_UNTERMINATED_PLACES = {
    "header": ('package p\n\nimport (\n\tQ\n)\n\nvar A int\n', 4),
    "chunk": ("package p\n\nvar A int\n\nvar B = Q\n\nfunc F() {}\n", 5),
    "function-body": ("package p\n\nfunc F() {\n\tx := Q\n}\n\nfunc G() {}\n", 4),
}


class TestUnterminatedLiterals:
    """go/scanner's message for a string, raw string or rune that never ends,
    at the line of its opening quote."""

    @pytest.mark.parametrize("place", sorted(_UNTERMINATED_PLACES))
    @pytest.mark.parametrize(
        "literal,error",
        [
            ('"abc', "string literal not terminated"),
            ("`abc", "raw string literal not terminated"),
            ("'a", "rune literal not terminated"),
        ],
        ids=["string", "raw-string", "rune"],
    )
    def test_unterminated_literal_is_an_error_at_its_line(self, literal, error, place):
        template, line = _UNTERMINATED_PLACES[place]
        src = template.replace("Q", literal)
        for fn in (tokenize, _parse, parse_imports, _reference_tokens):
            assert _outcome(fn, src) == f"GoSyntaxError: line {line}: {error}", (fn, src)
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)

    def test_string_ends_at_its_line_even_after_an_escaped_newline(self):
        src = 'package p\n\nvar S = "a\\\nb"\n'
        assert _outcome(_parse, src) == "GoSyntaxError: line 3: string literal not terminated"
        _assert_check_agrees_with_lexer(src)


class TestGoCharacterClasses:
    """Python's \\w and \\d take more than Go: a Go number takes ASCII digits
    only, and a Go identifier a letter or "_", then letters, "_" and Unicode
    decimal digits."""

    @pytest.mark.parametrize(
        "src,char",
        [
            ("package p\n\ntype T [\u0663]byte\n", "\u0663"),  # ARABIC-INDIC DIGIT THREE (Nd) as a number
            ("package p\n\nvar x\u00b2 int\n", "\u00b2"),  # SUPERSCRIPT TWO (No) in an identifier
            ("package p\n\nvar \u00b2x int\n", "\u00b2"),  # ... and starting one
            ("package p\n\nconst C = 1\u0663\n", "\u0663"),  # a decimal digit after an ASCII one
            ("package p\n\nconst C = 1.e\u0663\n", "\u0663"),  # in a float's exponent
            ("package p\n\nvar \u2167 int\n", "\u2167"),  # ROMAN NUMERAL EIGHT (Nl)
            ("package p\n\nfunc F() {\n\tx := \u0663\n}\n", "\u0663"),  # in a function body
            ("package p\n\nimport (\n\tx\u00b2 \"a/b\"\n)\n", "\u00b2"),  # in the header
        ],
        ids=["arabic-digit-length", "superscript-in-identifier", "superscript-first", "digit-after-digit",
             "digit-in-exponent", "letter-number", "function-body", "header"],
    )
    def test_character_go_does_not_take_is_a_syntax_error(self, src, char):
        line = src[: src.index(char)].count("\n") + 1
        for fn in (tokenize, _parse, parse_imports, _reference_tokens):
            assert _outcome(fn, src) == f"GoSyntaxError: line {line}: unexpected character {char!r}", (fn, src)
        _assert_check_agrees_with_lexer(src)

    @pytest.mark.parametrize(
        "src",
        [
            "package p\n\nvar x\u0663, \u00e9t\u00e9, _\u0663 int\n",  # a decimal digit after a letter or "_"
            "package p\n\nvar V = a\u00e91.e\u0663\n",  # a selector, not a float
            "package p\n\n// \u00b2 \u0663\nconst S = \"\u00b2\u0663\" + `\u2167`\n",  # in comments and literals
            "package p\n\nconst C = '\u0663'\n",
        ],
        ids=["identifiers", "selector", "literals", "rune"],
    )
    def test_characters_go_takes_parse(self, src):
        _parse(src)
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)


_LONG_LITERALS = {
    "string": 'package p\n\nimport "a/b"\n\nvar S = "' + "x" * 2_000_000 + '"\n',
    "raw-string": 'package p\n\nimport "a/b"\n\nvar R = `' + ("x" * 99 + "\n") * 20_000 + '`\n',
    "escapes": 'package p\n\nimport "a/b"\n\nvar S = "' + "\\n" * 1_000_000 + '"\n',
}


class TestLongLiterals:
    @pytest.mark.parametrize("fn", [parse_go_file, parse_imports, find_selectors, tokenize], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("kind", sorted(_LONG_LITERALS))
    def test_one_long_literal_keeps_memory_bounded(self, kind, fn):
        src = _LONG_LITERALS[kind]
        tracemalloc.start()
        try:
            fn(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


# (source, error): errors after text that spans lines without tokens, or
# whose line the lexer must count some other way than by newline tokens.
_ERROR_LINES = {
    "after-multi-line-raw-string": ("package p\n\nvar s = `one\ntwo\nthree`\nvar t 5\n", "line 6: expected type, found '5'"),
    "after-multi-line-block-comment": ("package p\n\n/* one\ntwo\n*/ var t 5\n", "line 5: expected type, found '5'"),
    "after-skipped-body": ("package p\n\nfunc F() {\n\tx := `a\nb`\n\n}\nvar t 5\n", "line 8: expected type, found '5'"),
    "last-line-without-newline": ("package p\n\nvar t 5", "line 3: expected type, found '5'"),
    "end-of-last-line-without-newline": ("package p\n\n/*\n*/ type T =", "line 4: expected type, found ''"),
    "byte-order-mark": ("\ufeffpackage p\n\n/*\n*/\nvar t 5\n", "line 5: expected type, found '5'"),
}


class TestErrorLines:
    @pytest.mark.parametrize("case", sorted(_ERROR_LINES))
    def test_error_names_the_line_the_reference_names(self, case):
        src, error = _ERROR_LINES[case]
        assert _outcome(_parse, src) == f"GoSyntaxError: {error}" == _outcome(_reference_parse, src)

    def test_errors_come_in_source_order_across_chunks(self):
        # The header is parsed before the chunk with the "}" is lexed.
        src = "x\n\nvar A int\n\nvar B = }\n"
        for fn in (_parse, parse_imports):
            with pytest.raises(GoSyntaxError, match=r"^line 1: missing package clause$"):
                fn(src)
        # A chunk's lexical error is raised only after the chunks before it parse.
        with pytest.raises(GoSyntaxError, match=r"^line 3: expected type, found '5'$"):
            _parse("package p\n\nvar A 5\n\nvar B = }\n")
        with pytest.raises(GoSyntaxError, match=r"^line 5: unmatched '}'$"):
            _parse("package p\n\nvar A int\n\nvar B = }\n")

    def test_header_error_names_the_line_the_reference_names(self):
        src = 'package p\n\n/* a\n*/\nimport (\n\t`a\nb`\n\t5\n)\n\nfunc F() {\n}\n'
        error = "GoSyntaxError: line 8: expected import path string, found '5'"
        assert _outcome(parse_imports, src) == error == _outcome(_reference_imports, src)


class TestSharedLeaves:
    """Within one parsed file, equal leaf types are one object."""

    def test_generated_files_of_every_workload(self, generated_sources):
        shared = defaultdict(int)  # leaves that are not the first of their value in their file
        for workload in WORKLOADS:
            for src in sorted(set(generated_sources[workload].values())):
                try:
                    gofile = parse_go_file(src, PKG)
                except GoSyntaxError:
                    continue
                shared[workload] += len(leaf_types(gofile)) - len(assert_shares_leaves(gofile))
        assert min(shared.values()) > 0 and sum(shared.values()) > 10_000, shared


def _tag(literal: str) -> str | None:
    return _first_type(f"package lib\n\ntype T struct {{\n\tA int {literal}\n}}\n").fields[0].tag


class TestStringValues:
    @pytest.mark.parametrize(
        "literal,value",
        [
            (r'"a\"b"', 'a"b'),
            (r'"\a\b\f\n\r\t\v\\"', "\a\b\f\n\r\t\v\\"),
            (r'"\101\x42\u0043\U00000044"', "ABCD"),
            (r'"\xc3\xa9 \u00e9"', "\u00e9 \u00e9"),
            (r'"\xff"', r"\xff"),
            (r"`a\"b`", r"a\"b"),
            ("`a\r\nb`", "a\nb"),
        ],
    )
    def test_tag_value_follows_go(self, literal, value):
        assert _tag(literal) == value

    @pytest.mark.parametrize(
        "literal,error",
        [
            (r'"\q"', "unknown escape sequence {!r}".format("\\q")),
            (r'"\'"', "unknown escape sequence {!r}".format("\\'")),
            (r'"\400"', "unknown escape sequence {!r}".format("\\400")),
            (r'"\x4"', "unknown escape sequence {!r}".format("\\x")),
            (r'"\uD800"', "escape sequence {!r} is an invalid Unicode code point".format("\\uD800")),
            (r'"\U00110000"', "escape sequence {!r} is an invalid Unicode code point".format("\\U00110000")),
        ],
    )
    def test_bad_escape_is_a_syntax_error_at_its_line(self, literal, error):
        with pytest.raises(GoSyntaxError, match=f"^line 4: {re.escape(error)}$"):
            _tag(literal)

    @pytest.mark.parametrize(
        "literal,error",
        [
            ("''", "empty rune literal or unescaped ' in rune literal"),
            ("'''", "empty rune literal or unescaped ' in rune literal"),
            ("'ab'", "more than one character in rune literal"),
            (r"'\n\t'", "more than one character in rune literal"),
            (r"'\q'", "unknown escape sequence {!r}".format("\\q")),
            (r"'ab\q'", "unknown escape sequence {!r}".format("\\q")),
            (r"'\"'", "unknown escape sequence {!r}".format('\\"')),
            (r"'\400'", "unknown escape sequence {!r}".format("\\400")),
            (r'"\q"', "unknown escape sequence {!r}".format("\\q")),
            (r'"a\08"', "unknown escape sequence {!r}".format("\\0")),
            (r'"\u12"', "unknown escape sequence {!r}".format("\\u")),
            (r'"\x٣٣"', "unknown escape sequence {!r}".format("\\x")),
        ],
    )
    def test_literal_go_rejects_is_an_error_at_its_line(self, literal, error):
        for src, line in ((f"package p\n\nconst A = {literal}\n", 3), (f"package p\n\nfunc F() {{\n\t_ = {literal}\n}}\n", 4)):
            with pytest.raises(GoSyntaxError, match=f"^line {line}: {re.escape(error)}$"):
                parse_go_file(src, PKG)

    @pytest.mark.parametrize("literal", [r"'\''", "'\"'", r"'\x41'", r"'\377'", r"'\u00e9'", "'é'", r'"\""', '"\'"', r'"\a\b\f\n\r\t\v\\"'])
    def test_literal_go_accepts(self, literal):
        assert parse_go_file(f"package p\n\nconst A = {literal}\n", PKG).decls[0].value == literal

    def test_import_path_is_unquoted(self):
        src = 'package lib\n\nimport "a\\x2fb"\n\nvar V b.T\n'
        assert parse_imports(src) == [ImportSpec("a/b")]
        assert parse_go_file(src, PKG).decls[0].type == Named("a/b", "T")
        with pytest.raises(GoSyntaxError, match=r"^line 3: unknown escape sequence '\\\\o'$"):
            parse_imports('package lib\n\nimport "a\\ob"\n')


# Where a \\u or \\U escape may stand: a string in a const and in a var, and
# a rune, each in the header (a declaration indented, so no candidate cut),
# in a chunk and in a function body; with the line of the literal.
_ESCAPE_DECLS = {"const": 'const A = "E"', "var": 'var A = "E"', "rune": "const A = 'E'"}
_ESCAPE_PLACES = {
    "header": ("package p\n\n\tD\n\nfunc F() {}\n", 3),
    "chunk": ("package p\n\nvar X int\n\nD\n\nfunc F() {}\n", 5),
    "function-body": ("package p\n\nfunc F() {\n\tD\n}\n\nfunc G() {}\n", 4),
}


class TestCodePointEscapes:
    """A \\u or \\U escape must name a Unicode code point: at most 10FFFF, and
    no surrogate. go/scanner's error otherwise, at the literal's line."""

    @pytest.mark.parametrize("place", sorted(_ESCAPE_PLACES))
    @pytest.mark.parametrize("decl", sorted(_ESCAPE_DECLS))
    @pytest.mark.parametrize("escape", [r"\uD800", r"\uDFFF", r"\U0000D800", r"\U00110000", r"\UFFFFFFFF"])
    def test_escape_that_names_no_code_point_is_an_error(self, escape, decl, place):
        template, line = _ESCAPE_PLACES[place]
        src = template.replace("D", _ESCAPE_DECLS[decl]).replace("E", escape)
        error = f"GoSyntaxError: line {line}: escape sequence {escape!r} is an invalid Unicode code point"
        for fn in (tokenize, _parse, parse_imports, _reference_tokens):
            assert _outcome(fn, src) == error, (fn, src)
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)

    @pytest.mark.parametrize("place", sorted(_ESCAPE_PLACES))
    @pytest.mark.parametrize("decl", sorted(_ESCAPE_DECLS))
    @pytest.mark.parametrize("escape", [r"\uD7FF", r"\uE000", r"\U0000FFFF", r"\U0010FFFF"])
    def test_escape_that_names_a_code_point_parses(self, escape, decl, place):
        template, _ = _ESCAPE_PLACES[place]
        src = template.replace("D", _ESCAPE_DECLS[decl]).replace("E", escape)
        gofile = _parse(src)
        if place != "function-body":
            assert any(spec.kind in ("const", "var") for spec in gofile.decls), src
        _assert_as_before(src)
        _assert_check_agrees_with_lexer(src)

    def test_the_header_holds_the_indented_declaration(self):
        template, _ = _ESCAPE_PLACES["header"]
        assert tokenize(template.replace("D", _ESCAPE_DECLS["const"]))[3:5] == ["const", "A"]


class TestLiteralValues:
    @pytest.mark.parametrize("field", ["*[]int", "*func()", "*(*[]int)"])
    def test_embedded_field_that_is_no_type_name_is_a_syntax_error(self, field):
        found = "func" if "func" in field else "["
        with pytest.raises(GoSyntaxError, match=rf"^line 4: embedded field must be a type name, found '{re.escape(found)}'$"):
            parse_go_file(f"package lib\n\ntype T struct {{\n\t{field}\n}}\n", PKG)

    @pytest.mark.parametrize("length,value", [("017", 15), ("0_17", 15), ("00", 0), ("0", 0), ("1i", "1i")])
    def test_legacy_octal_length_is_a_number(self, length, value):
        assert _first_type(f"package lib\n\ntype T [{length}]byte\n") == Array(value, Basic("byte"))

    def test_octal_length_with_a_decimal_digit_is_a_syntax_error(self):
        with pytest.raises(GoSyntaxError, match=r"^line 3: invalid digit in octal literal '08'$"):
            parse_go_file("package lib\n\ntype T [08]byte\n", PKG)


# -- the declaration memo -----------------------------------------------------


def _memo_outcomes(before: str, src: str) -> list:
    """src parsed twice after before, with one memo: first with before's
    declarations in the previous generation, then in the current one."""
    memo = DeclMemo()
    warm = lambda text: parse_go_file(text, PKG, memo=memo)  # noqa: E731
    _outcome(warm, before)
    memo.next_generation()
    return [_outcome(warm, src), _outcome(warm, src)]


def _assert_memo_changes_nothing(before: str, src: str) -> None:
    """A parse with a warm memo gives what a cold parse gives: the same
    GoFile, or the same error at the same line."""
    cold = _outcome(_parse, src)
    assert _memo_outcomes(before, src) == [cold, cold], src


def _warm_and_cold(before: str, src: str):
    """src parsed after before with one memo, and before parsed cold."""
    memo = DeclMemo()
    cold = parse_go_file(before, PKG, memo=memo)
    memo.next_generation()
    warm = parse_go_file(src, PKG, memo=memo)
    assert warm == parse_go_file(src, PKG)
    return warm, cold


# Fragments that make, break or hide the candidate cuts between chunks.
_CUT_FRAGMENTS = (
    "\nfunc F() {}\n", "\ntype T int\n", "\nvar ", "\nconst ", " =\n", "`\n", "/*\n", "*/\n", "[]func(){\n",
)

# (before, source): shapes where a chunk could be cut, keyed or found wrongly.
_CUT_CASES = {
    "raw-string-spans-a-candidate": (
        "package p\n\nvar S = `\nfunc F() {}\n`\n\nfunc F() {}\n",
        "package p\n\nvar S = `\nfunc F() {}\n`\n\nfunc F() int {}\n",
    ),
    "block-comment-spans-a-candidate": (
        "package p\n\nvar A int /* a\nvar B int\n*/\nvar B string\n",
        "package p\n\nvar A int\nvar B int\n*/\nvar B string\n",
    ),
    "func-literal-after-equals": (
        "package p\n\nvar f =\nfunc() {}\n\nfunc g() {}\n",
        "package p\n\nvar f = 1\nfunc() {}\n\nfunc g() {}\n",
    ),
    "func-literals-in-a-slice": (
        "package p\n\nvar fs = []func(){\nfunc() {},\n}\n\nfunc G() {}\n",
        "package p\n\nvar fs = []func(){\nfunc() {}}\n\nfunc G() {}\n",
    ),
    "func-literal-at-column-0-in-a-body": (
        "package p\n\nfunc F() {\nfunc() {}()\n}\n\nvar V int\n",
        "package p\n\nfunc F() {\nfunc() {}()\nvar x int\n}\n\nvar V int\n",
    ),
    "first-brace-is-no-body": (
        "package p\n\nfunc F() struct{}{}\n\nfunc G() struct{ A int }\n",
        "package p\n\nfunc F() struct{}{ return struct{}{} }\n\nfunc G() struct{ A int }\n",
    ),
    "second-body-on-the-line": (
        "package p\n\nfunc F() {} func G() {\nfunc() {}()\n}\n\nvar V int\n",
        "package p\n\nfunc F() {} func G() {\nfunc() {}()\n}\nvar V int\n",
    ),
    "declaration-after-the-body": (
        "package p\n\nfunc F() {} var X = T{}\n\nvar V int\n",
        "package p\n\nfunc F() {} var X = T{\n}\n\nvar V int\n",
    ),
    "no-newline-at-the-end": (
        "package p\n\nvar A int\nvar B = x",
        "package p\n\nvar A int\nvar B = x\nvar C int",
    ),
    "header-changes": (
        'package p\n\nimport x "a/x"\n\nvar V x.T\n',
        'package p\n\nimport x "b/x"\n\nvar V x.T\n',
    ),
    "header-comment-holds-a-candidate": (
        'package p\n\n/*\nfunc old() {}\n*/\n\nimport x "a/x"\n\nvar V x.T\n\nfunc F() {}\n',
        'package p\n\n/*\nfunc old() {}\n*/\n\nimport x "a/x"\n\nvar V x.T\n\nfunc F() int {}\n',
    ),
    "body-after-a-declaration-holds-a-candidate": (
        "package p\n\nvar A int; func F() {\nvar x int\n}\n\nvar B int\n",
        "package p\n\nvar A string; func F() {\nvar x int\n}\n\nvar B int\n",
    ),
    "no-candidate": (
        "package p; var A int",
        "package p; var A int; var B int",
    ),
    "no-semicolon-at-the-end": (
        "package p\n\nconst C = 1 +\n",
        "package p\n\nconst C = 1 +\nvar D int\n",
    ),
    # A key that left F's body out would read "func F() {\n": the whole text
    # of the after's first chunk, whose "[" is inside F's body. Keys of two
    # kinds in one table would collide here.
    "body-text-is-another-chunk": (
        "package p\n\nfunc F() {}\n",
        "package p\n\nfunc F() {\nconst [}\n",
    ),
    # The before's last chunk ends unclean, so it is not stored: found, it
    # would end at the candidate and declare y.
    "unclean-end-of-the-file": (
        "package p\n\nvar x = 1 +\n",
        "package p\n\nvar x = 1 +\nvar y int\n",
    ),
}


def _fixture_pairs() -> list[tuple[str, str]]:
    """(before, source): each fixture source after itself, and after the same
    file of the neighbouring version of its module, both ways."""
    chains = [[fixture.old, fixture.new] for fixture in catalogue_fixtures.FIXTURES]
    chains.append([impact_fixtures.LIBRARY_OLD, impact_fixtures.LIBRARY_NEW])
    chains += [[version.files for version in module.versions] for module in planted_corpus.MODULES]
    pairs = [(src, src) for src in _SOURCES]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            for rel in sorted(a.keys() & b.keys()):
                if rel.endswith(".go"):
                    pairs += [(a[rel], b[rel]), (b[rel], a[rel])]
    return pairs


# The directory of one version of a module in the generated workloads.
_VERSION_DIR = re.compile(r"/(?:old|new|latest|v\d[^/]*)/")


def _generated_pairs(files: dict[str, str]) -> list[tuple[str, str]]:
    """(before, source): each generated file after itself, and after the file
    at the same place in the neighbouring version of its module, both ways."""
    versions = defaultdict(list)
    for rel in sorted(files):
        versions[_VERSION_DIR.sub("/*/", rel)].append(files[rel])
    pairs = []
    for texts in versions.values():
        pairs += [(src, src) for src in texts]
        for a, b in zip(texts, texts[1:]):
            pairs += [(a, b), (b, a)]
    return pairs


class TestDeclMemo:
    def test_fixture_sources(self):
        pairs = _fixture_pairs()
        assert len(pairs) > 2 * len(_SOURCES)
        for before, src in pairs:
            _assert_memo_changes_nothing(before, src)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_named_shapes(self, shape):
        for before in _SHAPES.values():
            _assert_memo_changes_nothing(before, _SHAPES[shape])

    def test_generated_files_of_every_workload(self, generated_sources):
        for workload in WORKLOADS:
            pairs = _generated_pairs(generated_sources[workload])
            assert len(pairs) > len(generated_sources[workload]), workload
            for before, src in pairs:
                _assert_memo_changes_nothing(before, src)

    def test_seeded_mutants(self):
        rng = random.Random(12)
        sources = _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)]
        fragments = _HEADER_FRAGMENTS + _CUT_FRAGMENTS
        for _ in range(30_000):
            src = original = rng.choice(sources)
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(src))
                src = src[:at] + rng.choice(fragments) + src[at:]
            _assert_memo_changes_nothing(original, src)

    @pytest.mark.parametrize("case", sorted(_CUT_CASES))
    def test_chunk_cuts(self, case):
        before, src = _CUT_CASES[case]
        _assert_memo_changes_nothing(before, src)
        _assert_memo_changes_nothing(src, src)
        _assert_memo_changes_nothing(src, before)

    def test_a_declaration_met_again_is_shared(self):
        src = "package p\n\ntype T struct{ A []int }\n\nfunc F(x T) error\n"
        memo = DeclMemo()
        first = parse_go_file(src, PKG, memo=memo)
        memo.next_generation()
        second = parse_go_file(src, PKG, memo=memo)
        assert second == first
        assert len(second.decls) == 2 and all(s is f for s, f in zip(second.decls, first.decls))

    def test_same_declaration_under_another_package_path_gives_no_hit(self):
        src = "package p\n\ntype T struct{ U }\n"
        memo = DeclMemo()
        a = parse_go_file(src, "example.com/a", memo=memo)
        b = parse_go_file(src, "example.com/b", memo=memo)
        assert b == parse_go_file(src, "example.com/b")
        assert b.decls[0] is not a.decls[0]
        assert b.decls[0].type.fields[0].type == Named("example.com/b", "U")

    def test_same_alias_bound_to_another_import_path_gives_no_hit(self):
        src = 'package p\n\nimport x "a/x"\n\nvar V x.T\n'
        other = src.replace('"a/x"', '"b/x"')
        memo = DeclMemo()
        a = parse_go_file(src, PKG, memo=memo)
        b = parse_go_file(other, PKG, memo=memo)
        assert (a.decls[0].type, b.decls[0].type) == (Named("a/x", "T"), Named("b/x", "T"))
        assert b == parse_go_file(other, PKG)

    def test_an_import_after_a_declaration_is_a_syntax_error(self):
        error = "imports must appear before other declarations"
        for decl in ["var V x.T", "const C = 1", "type T int", "func F() {}", "var ()"]:
            src = f'package p\n\n{decl}\n\nimport x "a/x"\n\nvar W x.T\n'
            with pytest.raises(GoSyntaxError, match=f"^line 5: {error}$"):
                parse_go_file(src, PKG)
            # Also where the declaration before it is found in the memo.
            memo = DeclMemo()
            parse_go_file(f"package p\n\n{decl}\n", PKG, memo=memo)
            with pytest.raises(GoSyntaxError, match=f"^line 5: {error}$"):
                parse_go_file(src, PKG, memo=memo)
            with pytest.raises(GoSyntaxError, match=f"^line 3: {error}$"):
                parse_go_file(f'package p\n\n{decl}; import "a/y"\n', PKG)

    @pytest.mark.parametrize(
        "decl", ["func F() int", "type A [N]int", "var V = x", "type I interface{ M() }", "const C = 1"]
    )
    def test_same_declaration_followed_by_different_tokens_parses_the_same(self, decl):
        # After a newline the next tokens follow a ";" and cannot change the
        # declaration; on the same line they are part of its tokens.
        suffixes = ["", "\n", "\nconst K = 1\n", " const K = 1\n", "\nfunc (T) M()\n", " }\n",
                    "(y)\n", " [2]\n", "\nvar W = [\n", " = 2\n"]
        for before in suffixes:
            for after in suffixes:
                _assert_memo_changes_nothing(f"package p\n\n{decl}{before}", f"package p\n\n{decl}{after}")

    def test_mixed_file_replays_its_specs_in_source_order(self):
        src = (
            "package p\n\nconst A = 1\nvar V int\ntype T int\nfunc F() {}\nconst ( B = iota; C )\n"
            "var W, X = 1, 2\nfunc (T) M() {}\ntype ( U T; S = T )\nfunc G[P any](P) P\nconst D = A\n"
        )
        memo = DeclMemo()
        cold = parse_go_file(src, PKG, memo=memo)
        memo.next_generation()
        warm = parse_go_file(src, PKG, memo=memo)
        assert warm == cold == parse_go_file(src, PKG)
        assert [spec.name for spec in warm.decls] == ["A", "V", "T", "F", "B", "C", "W", "X", "M", "U", "S", "G", "D"]
        assert all(a is b for a, b in zip(warm.decls, cold.decls))

    def test_a_declaration_that_raises_is_not_stored(self):
        memo = DeclMemo()
        with pytest.raises(GoSyntaxError, match=r"^line 4: expected type, found '5'$"):
            parse_go_file("package p\n\nvar A int\nvar B 5\n", PKG, memo=memo)
        (table,) = memo.current.values()
        assert list(table) == ["var A int\n"]

    @pytest.mark.parametrize(
        "value,other", [("`\nfunc F() {}\n`", "`\nfunc F() {}\n`[0]"), ("/*\nfunc F() {}\n*/ 1", '/*\nfunc F() {}\n*/ "s"')]
    )
    def test_a_literal_across_a_candidate_after_a_chunk_found(self, value, other):
        # Each run ends at the next candidate, which here is inside the
        # literal: S's chunk runs on through it and is not stored.
        memo = DeclMemo()
        for v in (value, value, other, value):
            text = f"package p\n\nvar A int\n\nvar S = {v}\n"
            assert parse_go_file(text, PKG, memo=memo) == parse_go_file(text, PKG), text

    def test_a_literal_across_a_candidate_at_the_end_of_the_file(self):
        memo = DeclMemo()
        for text in ("package p\n\nvar S = `\nfunc F() {}\n`", "package p\n\nvar S = `\nfunc F() {}\n`[0]"):
            assert parse_go_file(text, PKG, memo=memo) == parse_go_file(text, PKG), text

    def test_an_edited_doc_comment_misses_only_the_declaration_before_it(self):
        src = "package p\n\nvar A int\n\n// F does x.\nfunc F() {}\n\nvar B int\n"
        warm, cold = _warm_and_cold(src, src.replace("does x", "does y"))
        assert warm.decls[0] is not cold.decls[0]
        assert warm.decls[1] is cold.decls[1] and warm.decls[2] is cold.decls[2]

    def test_an_edited_body_misses_only_its_own_chunk(self):
        src = "package p\n\nfunc F() int {\n\treturn 1\n}\n\nfunc G() {}\n"
        warm, cold = _warm_and_cold(src, src.replace("return 1", "x := 2\n\treturn x"))
        assert warm.decls[0] == cold.decls[0] and warm.decls[1] is cold.decls[1]

    def test_a_chunk_found_is_neither_lexed_nor_parsed(self, monkeypatch):
        src = "package p\n\nimport \"a/x\"\n\nvar V x.T\n\nfunc F() {\n\tg()\n}\n\ntype T struct{ A int }\n"
        lexed, parsed, scanned = [], [], []
        monkeypatch.setattr(parser_module, "_lex", _spy(parser_module._lex, lexed))
        monkeypatch.setattr(_Parser, "_parse_decl", _spy(_Parser._parse_decl, parsed))
        monkeypatch.setattr(lexer_module, "_skip_body", _spy(lexer_module._skip_body, scanned))
        memo = DeclMemo()
        cold = parse_go_file(src, PKG, memo=memo)
        assert [args[1] for args in lexed] == [0] + [src.index(kw) for kw in ("var", "func", "type")]
        assert [args[1] for args in parsed] == ["var", "func", "type"]
        assert [args[1] for args in scanned] == [src.index("{\n\tg") + 1]
        memo.next_generation()
        lexed.clear()
        parsed.clear()
        scanned.clear()
        warm = parse_go_file(src, PKG, memo=memo)
        assert [args[1] for args in lexed] == [0] and parsed == [] and scanned == []
        assert warm == cold
        assert len(warm.decls) == 3 and all(w is c for w, c in zip(warm.decls, cold.decls))


def _bound_source(lines: int) -> str:
    """A var whose value holds one function literal a line: every candidate
    cut in it is inside brackets."""
    return "package p\n\nvar fs = []func(){\n" + "func() {},\n" * lines + "}\n"


class TestChunkBound:
    """A file whose candidate cuts are all inside brackets is one chunk, lexed
    and parsed as in a cold parse, in the same order of time and memory."""

    @pytest.fixture(scope="class")
    def source(self) -> str:
        src = _bound_source(180_000)
        assert len(src) > 1_900_000
        return src

    def test_a_warm_parse_stays_linear(self, source, monkeypatch):
        memo = DeclMemo()
        parse_go_file(source, PKG, memo=memo)
        memo.next_generation()
        with monkeypatch.context() as m:
            lexed = []
            m.setattr(parser_module, "_lex", _spy(parser_module._lex, lexed))
            parse_go_file(source, PKG, memo=memo)
        # The header, then one chunk that is never clean, and so never stored.
        assert [args[1] for args in lexed] == [0, source.index("var")]
        assert memo.current == {(PKG, "package p\n\n"): {}}
        times = {None: [], memo: []}
        for _ in range(3):
            for use in times:
                start = time.perf_counter()
                parse_go_file(source, PKG, memo=use)
                times[use].append(time.perf_counter() - start)
        cold, warm = (min(t) for t in times.values())
        assert warm < 2 * cold, (warm, cold)

    def test_a_warm_parse_keeps_memory_bounded(self):
        # A quarter of the file: the peak grows linearly either way, and
        # tracing each allocation of the whole file takes many seconds.
        src = _bound_source(45_000)
        memo = DeclMemo()
        parse_go_file(src, PKG, memo=memo)
        memo.next_generation()
        peaks = []
        for use in (None, memo):
            tracemalloc.start()
            try:
                parse_go_file(src, PKG, memo=use)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cold, warm = peaks
        assert warm < 2 * cold, (warm, cold)


def _checked_first_parse(src: str):
    """parse_go_file without a memo, as it was while tokenize checked the
    whole file for lexical errors before anything was parsed: then the
    header was parsed, each chunk after it was lexed by one _lex call, which
    finds no lexical error in text the check accepts, and the chunks were
    parsed in order; a bracket error ended the walk and was raised only if
    the chunks before it parsed."""
    header = tokenize(src)
    parser = _Parser(header, PKG)
    gofile = parser.parse_file()
    text = src.removeprefix("﻿")
    chunks, error, pos = [], None, header.end
    while pos < len(text):
        try:
            tokens, _holds = lexer_module._lex(text, pos, lexer_module._next_cut(text, pos))
        except GoSyntaxError as exc:
            error = exc
            break
        chunks.append((pos, tokens))
        pos = tokens.end
    for start, tokens in chunks:
        try:
            parser.read(tokens)
            parser.parse_decls(gofile)
        except GoSyntaxError as exc:
            error, pos = exc, start
            break
    if error is not None:
        raise GoSyntaxError(error.message, error.line + text.count("\n", 0, pos))
    return gofile


def _assert_as_checked_first(src: str, before: str | None = None) -> None:
    """parse_go_file against _checked_first_parse: where _check_lexable
    rejects the file, both raise its error at its line; elsewhere both give
    the same GoFile, or the same syntax error at the same line. parse_go_file
    runs without a memo, and with a memo that parsed before (by default src
    itself) first, so that chunks hit."""
    expected = _outcome(_checked_first_parse, src)
    lexical = _outcome(_check_lexable, src.removeprefix("\ufeff"))
    assert lexical is None or expected == lexical, src
    memo = DeclMemo()
    warm = lambda text: parse_go_file(text, PKG, memo=memo)  # noqa: E731
    _outcome(warm, src if before is None else before)
    memo.next_generation()
    assert [_outcome(_parse, src), _outcome(warm, src)] == [expected] * 2, src


class TestLexicalErrorsInTheScans:
    """parse_go_file finds lexical errors in its own scans of the header and
    of each chunk it lexes, and checks the whole file only where the text is
    not all ASCII or holds a NUL, or where a scan meets a bracket error."""

    def test_fixture_sources(self):
        for before, src in _fixture_pairs():
            _assert_as_checked_first(src, before)

    def test_the_scans_stop_at_each_ascii_character_the_lexer_rejects(self):
        # The scans' run class lists the ASCII characters that the lexer
        # takes outside a literal, and the scans take every non-ASCII one:
        # text that holds one is checked first.
        for char in map(chr, range(128)):
            takes = _REFERENCE_LEXABLE_RE.match(char).end() == 1 and char not in "{}"
            assert (lexer_module._BODY_RE.match(char).end() == 1) == takes, repr(char)
            assert (lexer_module._SKIP_RE.match(char).end() == 1) == takes, repr(char)
        for char in "\u00e9\u00b2\u00b7\u00a0\ufeff":
            assert lexer_module._BODY_RE.match(char).end() == lexer_module._SKIP_RE.match(char).end() == 1

    def test_named_shapes(self):
        for shape in sorted(_SHAPES):
            _assert_as_checked_first(_SHAPES[shape])

    @pytest.mark.parametrize("case", sorted(_LEXICAL_PRECEDENCE))
    def test_a_lexical_error_outranks_every_syntax_error(self, case):
        src, error = _LEXICAL_PRECEDENCE[case]
        assert _outcome(_parse, src) == f"GoSyntaxError: {error}"
        _assert_as_checked_first(src)

    def test_a_lexical_error_in_a_miss_after_hits(self, monkeypatch):
        before = "package p\n\nvar A int\n\nfunc F() {\n\tg()\n}\n\n"
        src = before + "var B = )\n\nvar C = `\n"
        memo = DeclMemo()
        parse_go_file(before, PKG, memo=memo)
        memo.next_generation()
        lexed = []
        monkeypatch.setattr(parser_module, "_lex", _spy(parser_module._lex, lexed))
        with pytest.raises(GoSyntaxError, match=r"^line 11: raw string literal not terminated$"):
            parse_go_file(src, PKG, memo=memo)
        assert [args[1] for args in lexed] == [0, src.index("var B")]
        _assert_as_checked_first(src, before)

    def test_generated_files_of_every_workload(self, generated_sources):
        for workload in WORKLOADS:
            # Each file after the neighbouring version of its module, where
            # some chunks hit and others miss.
            for before, src in _generated_pairs(generated_sources[workload]):
                if before is not src:
                    _assert_as_checked_first(src, before)

    def test_seeded_mutants(self):
        rng = random.Random(23)
        sources = _SOURCES + [_SHAPES[shape] for shape in sorted(_SHAPES)]
        for _ in range(10_000):
            src = original = rng.choice(sources)
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(src))
                src = src[:at] + rng.choice(_HEADER_FRAGMENTS) + src[at:]
            _assert_as_checked_first(src, original)

    @settings(max_examples=300, deadline=None)
    @given(_mutants())
    def test_hostile_mutants(self, src):
        _assert_as_checked_first(src)

    def test_a_warm_parse_scans_only_the_header(self, monkeypatch):
        src = 'package p\n\nimport "a/b"\n\nfunc F() {\n\ts := "}"\n\tif x { g(`{`) }\n}\n\n// T is.\ntype T struct{ A int }\n'
        memo = DeclMemo()
        cold = parse_go_file(src, PKG, memo=memo)
        memo.next_generation()
        names = ("_TOKEN_RE", "_BODY_RE", "_SKIP_RE", "_ASCII_LEXABLE_RE")
        scans = []
        for name in names:
            monkeypatch.setattr(lexer_module, name, _RecordingPattern(getattr(lexer_module, name), name, scans))
        checked = []
        monkeypatch.setattr(parser_module, "_check_lexable", _spy(parser_module._check_lexable, checked))
        warm = parse_go_file(src, PKG, memo=memo)
        assert warm == cold and warm.decls[0] is cold.decls[0]
        header_end = src.index("func")
        assert checked == [] and scans
        assert {name for name, _args in scans} == {"_TOKEN_RE", "_BODY_RE"}
        assert all(args[1] == 0 and args[2] == header_end for _name, args in scans), scans

    def test_the_whole_file_is_checked_only_where_the_scans_cannot_tell(self, monkeypatch):
        checked = []
        monkeypatch.setattr(parser_module, "_check_lexable", _spy(parser_module._check_lexable, checked))
        cases = [
            ("package p\n\nfunc F() { x() }\n", 0),  # ASCII: the scans find every lexical error
            ("package p\n\nvar é int\n", 1),  # not ASCII: a word character Go does not take
            ('package p\n\nconst C = "\x00"\n', 1),  # a NUL, which no scan looks for inside a literal
            ("package p\n\nvar A = )\n", 1),  # a bracket error, which a lexical error after it outranks
        ]
        for src, checks in cases:
            checked.clear()
            _outcome(_parse, src)
            assert len(checked) == checks, src

