"""Declaration-level parser for Go source files: the job of go/parser.

The parser only covers what an API surface needs: the package clause,
imports, and top-level const/var/type/func declarations, including generic
type parameters. One parser with one cursor reads the lexer's tokens:
parameter, type-argument and type-parameter lists are parsed item by item
where they stand, looking ahead only to tell a name from a type. Each import
is an ImportSpec of its path and its name (None, ".", "_" or an alias), as in
go/ast, and ImportSpec.binds is the one home of the rule for the name an
import binds, which the parser's import map and impact's bindings both use.

parse_go_file lexes and parses a file chunk by chunk: a chunk runs from one
clean cut to the next, and one that a DeclMemo holds is neither lexed nor
parsed again. Errors come in source order, and a lexical error anywhere
outranks a syntax error. A GoFile holds its specs (Decl) in one list in
source order, as go/ast's File.Decls holds declarations. The specs are
immutable and are the surface's objects themselves, so a chunk found gives
the very spec objects it gave before, and a surface built from them shares
them with the surface it was first parsed for. Within a file, the parser
builds each leaf type once: a Named without type arguments and a
TypeParamRef are one object wherever they stand.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .gotypes import (
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
    TypeExpr,
    TypeParamDef,
    TypeParamRef,
    UnionTerm,
    is_exported,
    render_type_expr,
)
from .lexer import (
    _CLOSERS,
    _CLOSING,
    _HEADER_END_KEYWORDS,
    _INT_RE,
    _OPENING,
    GoSyntaxError,
    _check_lexable,
    _int_value,
    _is_ident,
    _lex,
    _next_cut,
    _Tokens,
    _unquote,
    tokenize,
)

# Predeclared identifiers that resolve to basic types rather than package names.
PREDECLARED_TYPES = frozenset(
    "bool byte complex64 complex128 error float32 float64 int int8 int16 int32 int64 "
    "rune string uint uint8 uint16 uint32 uint64 uintptr any comparable".split()
)


@dataclass(frozen=True, slots=True)
class ImportSpec:
    """An import, as go/ast holds it: its path, and its name, which is None,
    ".", "_" or an alias."""

    path: str
    name: str | None = None

    @property
    def binds(self) -> str | None:
        """The identifier the import binds in its file, or None for a dot or
        blank import: the alias, or else the path's last element."""
        if self.name is None:
            return self.path.rsplit("/", 1)[-1]
        return None if self.name in (".", "_") else self.name


class Decl:
    """A top-level const, var, type or func spec, as the surface holds it.

    An exported spec is the surface's object itself, so a spec the memo finds
    is one object in every surface that holds it. Besides its fields, each
    spec gives what the surface and the differ read: kind, key, type, value,
    receiver and type_params. Those that are not fields of a spec are class
    attributes and properties, so a spec's repr and equality are its fields'.
    The specs are slotted, and so is this base: a spec has no instance dict.
    """

    __slots__ = ()
    value = None
    receiver = None
    type_params = ()

    @property
    def key(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ConstSpec(Decl):
    name: str
    type: TypeExpr
    value: str | None
    kind = "const"


@dataclass(frozen=True, slots=True)
class VarSpec(Decl):
    name: str
    type: TypeExpr
    kind = "var"


@dataclass(frozen=True, slots=True)
class TypeSpec(Decl):
    name: str
    type: TypeExpr
    type_params: tuple[TypeParamDef, ...] = ()
    alias: bool = False
    kind = "type"


@dataclass(frozen=True, slots=True)
class FuncDecl(Decl):
    name: str
    type: Func
    receiver: str | None = None

    @property
    def kind(self) -> str:
        return "func" if self.receiver is None else "method"

    @property
    def key(self) -> str:
        return self.name if self.receiver is None else f"{self.receiver}.{self.name}"


@dataclass
class GoFile:
    package_name: str
    imports: list[ImportSpec] = field(default_factory=list)
    decls: list[Decl] = field(default_factory=list)  # in source order


# Deepest type nesting (pointers, slices, maps, funcs, structs, generic
# arguments, ...) a file may use. Parsing, rendering and the structural form
# each recurse a few frames per level; the bound keeps all of them well inside
# Python's default recursion limit, so a hostile file is a syntax error rather
# than a RecursionError.
MAX_TYPE_NESTING = 50

_TYPE_START_KEYWORDS = frozenset({"chan", "map", "func", "struct", "interface"})
# The tokens other than an identifier that can start a type.
_TYPE_STARTS = _TYPE_START_KEYWORDS | {"(", "[", "*", "<-"}
# The quote a string literal token starts with.
_STRING_QUOTES = ('"', "`")



# One shared instance of each predeclared basic type: types are immutable.
_BASICS = {name: Basic(name) for name in PREDECLARED_TYPES}


def _make_interface(methods: list[MethodSig], embeds: list[UnionTerm]) -> Interface:
    # Canonical form: method and embed order is not significant in Go.
    methods.sort(key=lambda m: m.name)
    embeds.sort(key=lambda e: (render_type_expr(e.type), e.tilde))
    return Interface(methods=tuple(methods), embeds=tuple(embeds))


class _Parser:
    def __init__(self, tokens: _Tokens, package_path: str):
        self.package_path = package_path
        self.import_map: dict[str, str] = {}
        self.depth = 0  # type nesting of the type being parsed
        # The file's one instance of each leaf type met so far: a Named
        # without type arguments by (package, name), a TypeParamRef by name.
        # Types are immutable and nothing decides by their identity, so equal
        # leaves share one object, which is cheaper to keep than many.
        self.leaves: dict[tuple[str, str] | str, Named | TypeParamRef] = {}
        self.read(tokens)

    def read(self, tokens: _Tokens) -> None:
        """Put the cursor on the first of tokens, whose lines count from the
        line the lexer started on."""
        # A plain list, which indexes faster than its subclass, with one more
        # "" at the end, so that the token after the current one exists.
        self.toks = tokens + [""]
        self.lines = tokens.lines
        self.i = 0

    # -- cursor helpers ----------------------------------------------------

    def _line(self, k: int) -> int:
        return bisect_right(self.lines, k) + 1

    def _error(self, message: str, k: int | None = None) -> GoSyntaxError:
        """A GoSyntaxError at the line of token k, by default the current one."""
        return GoSyntaxError(message, self._line(self.i if k is None else k))

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self._error(f"expected {text!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def expect_ident(self) -> str:
        tok = self.toks[self.i]
        if not _is_ident(tok):
            raise self._error(f"expected identifier, found {tok!r}")
        self.i += 1
        return tok

    def skip_semis(self) -> None:
        while self.toks[self.i] == ";":
            self.i += 1

    def expect_semi(self) -> None:
        """A declaration ends in ";" or at the end of the tokens, as go/parser's expectSemi requires."""
        tok = self.toks[self.i]
        if tok and tok != ";":
            raise self._error(f"expected ';', found {tok!r}")

    def _elements(self, open_: str, block: str, element: str) -> Iterator[str]:
        """Yield at the first token of each element of the ";"-separated group
        or body that opens at the cursor, and consume its closing bracket.

        Empty elements are skipped. After each element the caller parsed, a
        ";" or the closing bracket must follow, as in Go; at the end of the
        tokens the group is unterminated.
        """
        self.expect(open_)
        close = _CLOSERS[open_]
        toks = self.toks
        while True:
            self.skip_semis()
            tok = toks[self.i]
            if tok == close:
                self.i += 1
                return
            if not tok:
                raise self._error(f"unterminated {block}")
            yield tok
            tok = toks[self.i]
            if tok and tok != ";" and tok != close:
                raise self._error(f"unexpected {tok!r} after {element}")

    def _items(self, open_: str) -> Iterator[str]:
        """Yield at the first token of each item of the ","-separated list
        that opens at the cursor, and consume its closing bracket. A trailing
        comma is allowed."""
        self.expect(open_)
        close = _CLOSERS[open_]
        toks = self.toks
        while toks[self.i] != close:
            yield toks[self.i]
            if toks[self.i] != close:
                self.expect(",")
        self.i += 1

    def _scan_list(self, j: int) -> list[int]:
        """Look ahead over the bracketed list that opens at j, without moving.

        Returns the indices of its top-level commas, then of its closing
        bracket (of the final "" if it never closes).
        """
        marks: list[int] = []
        depth = 0
        toks = self.toks
        for k in range(j, len(toks)):
            tok = toks[k]
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
                if depth == 0:
                    marks.append(k)
                    return marks
            elif tok == "," and depth == 1:
                marks.append(k)
        marks.append(len(toks) - 1)
        return marks

    def _after_list(self, j: int) -> str:
        """The token after the bracketed list that opens at j.

        Tells a generic instantiation that makes up a whole field or parameter
        (List[T]) from a name followed by an array or slice type (Name [3]T).
        """
        return self.toks[min(self._scan_list(j)[-1] + 1, len(self.toks) - 1)]

    # -- file --------------------------------------------------------------

    def parse_imports(self) -> GoFile:
        """Parse the package clause and the import declarations after it."""
        self.skip_semis()
        if self.toks[self.i] != "package":
            raise self._error("missing package clause")
        self.i += 1
        gofile = GoFile(package_name=self.expect_ident())
        while True:
            self.expect_semi()
            self.skip_semis()
            if self.toks[self.i] != "import":
                return gofile
            self._parse_gen_decl("import", gofile)

    def parse_file(self) -> GoFile:
        """Parse the tokens as the start of a file, up to their end."""
        gofile = self.parse_imports()
        self.parse_decls(gofile)
        return gofile

    def parse_decls(self, gofile: GoFile) -> None:
        """Parse const, func, type and var declarations into gofile, up to
        the end of the tokens."""
        toks = self.toks
        while True:
            self.skip_semis()
            tok = toks[self.i]
            if not tok:
                return
            if tok == "import":
                raise self._error("imports must appear before other declarations")
            if tok not in _HEADER_END_KEYWORDS:
                raise self._error(f"unexpected token {tok!r} at top level")
            self._parse_decl(tok, gofile)
            self.expect_semi()

    def _parse_decl(self, kw: str, gofile: GoFile) -> None:
        if kw == "func":
            self._parse_func_decl(gofile)
        else:
            self._parse_gen_decl(kw, gofile)

    # -- imports -----------------------------------------------------------

    def _parse_one_import(self, gofile: GoFile) -> None:
        name: str | None = self.toks[self.i]
        if name == "." or _is_ident(name):
            self.i += 1
        else:
            name = None
        tok = self.toks[self.i]
        if tok[:1] not in _STRING_QUOTES:
            raise self._error(f"expected import path string, found {tok!r}")
        spec = ImportSpec(_unquote(tok), name)
        self.i += 1
        gofile.imports.append(spec)
        if (local := spec.binds) is not None:
            self.import_map[local] = spec.path

    # -- import/const/var/type ---------------------------------------------

    def _parse_gen_decl(self, kw: str, gofile: GoFile) -> None:
        self.i += 1
        if self.toks[self.i] == "(":
            prev: tuple[TypeExpr | None, list[str]] | None = None
            for _ in self._elements("(", f"{kw} block", f"{kw} spec"):
                prev = self._parse_spec(kw, gofile, prev, in_block=True)
        else:
            self._parse_spec(kw, gofile, None, in_block=False)

    def _parse_spec(
        self,
        kw: str,
        gofile: GoFile,
        prev: tuple[TypeExpr | None, list[str]] | None,
        in_block: bool,
    ) -> tuple[TypeExpr | None, list[str]] | None:
        if kw == "import":
            self._parse_one_import(gofile)
            return None
        if kw == "type":
            self._parse_type_spec(gofile)
            return None
        names = [self.expect_ident()]
        while self.toks[self.i] == ",":
            self.i += 1
            names.append(self.expect_ident())
        declared: TypeExpr | None = None
        if self.toks[self.i] not in ("=", ";", ")", ""):
            declared = self._parse_type(frozenset())
        values: list[tuple[int, int]] = []
        if self.toks[self.i] == "=":
            self.i += 1
            values = self._collect_expr_list(in_block)
        if kw != "const":
            spelled_values = []  # a var's value is not kept
        elif declared is None and not values and prev is not None:
            declared, spelled = prev
            spelled_values = list(spelled)
        else:
            spelled_values = [_spell(self.toks[start:end]) for start, end in values]

        for idx, name in enumerate(names):
            start, end = values[idx] if idx < len(values) else (self.i, self.i)
            if kw == "const":
                spelled = spelled_values[idx] if idx < len(spelled_values) else None
                ctype = declared if declared is not None else _infer_const_type(self.toks[start:end])
                gofile.decls.append(ConstSpec(name=name, type=ctype, value=spelled))
            else:
                vtype = declared if declared is not None else self._infer_var_type(start, end)
                gofile.decls.append(VarSpec(name=name, type=vtype))
        return (declared, spelled_values) if kw == "const" else None

    def _collect_expr_list(self, in_block: bool) -> list[tuple[int, int]]:
        """Skip an expression list up to the end of the spec, returning the
        token index range of each expression between top-level commas. A
        bracket still open at the end of the tokens is an error."""
        ranges: list[tuple[int, int]] = []
        toks = self.toks
        start = i = self.i
        depth = 0
        while True:
            tok = toks[i]
            if not tok:
                if depth:
                    self.i = i
                    raise self._error("unterminated expression")
                break
            if depth == 0:
                if tok == ";" or (tok == ")" and in_block):
                    break
                if tok == ",":
                    ranges.append((start, i))
                    i += 1
                    start = i
                    continue
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
            i += 1
        self.i = i
        ranges.append((start, i))
        return [(start, end) for start, end in ranges if start < end]

    def _infer_var_type(self, start: int, end: int) -> TypeExpr:
        """Light, literal-level type inference for untyped var declarations,
        from the value's tokens start:end. A func literal's signature and a
        composite literal's type are parsed where the value stands, and the
        cursor is put back."""
        if start == end:
            return Basic("untyped")
        toks = self.toks
        first = toks[start]
        if end - start == 1:
            return _literal_type(first) or Basic("untyped")
        second = toks[start + 1]
        saved = self.i, self.depth
        try:
            if first == "&":
                if self.depth >= MAX_TYPE_NESTING:
                    return Basic("untyped")
                self.depth += 1
                inner = self._infer_var_type(start + 1, end)
                return inner if isinstance(inner, Basic) else Pointer(inner)
            if first == "func":
                self.i = start + 1
                params, variadic, results = self._parse_signature_tail(frozenset())
                return Func(params=params, results=results, variadic=variadic)
            if _is_ident(first):
                # Composite literal T{...} or pkg.T{...}.
                if second == "{":
                    return self._resolve_name(first, frozenset())
                if end - start >= 4 and second == "." and _is_ident(toks[start + 2]) and toks[start + 3] == "{":
                    return self._named(self.import_map.get(first, first), toks[start + 2])
            if first in ("[", "map", "chan"):
                self.i = start
                expr = self._parse_type(frozenset())
                if self.toks[self.i] == "{":
                    return expr
        except GoSyntaxError:
            pass
        finally:
            self.i, self.depth = saved
        return Basic("untyped")

    def _parse_type_spec(self, gofile: GoFile) -> None:
        name = self.expect_ident()
        type_params: tuple[TypeParamDef, ...] = ()
        if self.toks[self.i] == "[" and self._looks_like_type_params():
            type_params = self._parse_type_param_group(frozenset())
        alias = False
        if self.toks[self.i] == "=":
            alias = True
            self.i += 1
        tparams = frozenset(tp.name for tp in type_params)
        expr = self._parse_type(tparams)
        gofile.decls.append(TypeSpec(name=name, type=expr, type_params=type_params, alias=alias))

    def _looks_like_type_params(self) -> bool:
        # Disambiguates `type A[T any] ...` from `type A [N]Elem`, as go/parser
        # does: a type parameter list starts with an identifier followed by
        # the beginning of a constraint, never by "]". An index expression is
        # never a constant length, so "[" starts a constraint too. After "*"
        # or "(" the list could still be a length (N * M, f(N)). It is a type
        # parameter list when a top-level comma follows, as in [T *int,], or,
        # by go/parser's isTypeElem, when the operand after the "*" or "(",
        # or a term of a top-level union, is a type element: [T *[]int],
        # [T *E | ~int].
        toks = self.toks
        if not _is_ident(toks[self.i + 1]):
            return False
        after = toks[self.i + 2]
        if _is_ident(after) or after in _TYPE_START_KEYWORDS or after in (",", "~", "["):
            return True
        if after != "*" and after != "(":
            return False
        marks = self._scan_list(self.i)
        if len(marks) > 1:
            return True
        operands = [self.i + 3]
        depth = 0
        for k in range(self.i + 2, marks[-1]):
            tok = toks[k]
            if tok in _OPENING:
                depth += 1
            elif tok in _CLOSING:
                depth -= 1
            elif tok == "|" and depth == 0:
                operands.append(k + 1)
        return any(self._starts_type_elem(j) for j in operands)

    def _starts_type_elem(self, j: int) -> bool:
        """Whether the expression at j can only be a type element: an array,
        slice, struct, func, interface, map or chan type, or a ~ term,
        possibly in parentheses."""
        toks = self.toks
        while toks[j] == "(":
            j += 1
        tok = toks[j]
        if tok == "<-":
            return toks[j + 1] == "chan"
        return tok in _TYPE_START_KEYWORDS or tok in ("[", "~")

    # -- functions ----------------------------------------------------------

    def _parse_func_decl(self, gofile: GoFile) -> None:
        self.i += 1
        receiver: str | None = None
        receiver_tparams: list[str] = []
        if self.toks[self.i] == "(":
            receiver, receiver_tparams = self._parse_receiver()
        name = self.expect_ident()
        type_params: tuple[TypeParamDef, ...] = ()
        if self.toks[self.i] == "[":
            type_params = self._parse_type_param_group(frozenset(receiver_tparams))
        tparams = frozenset(receiver_tparams) | {tp.name for tp in type_params}
        params, variadic, results = self._parse_signature_tail(tparams)
        sig = Func(params=params, results=results, variadic=variadic, type_params=type_params)
        if self.toks[self.i] == "{":  # the lexer keeps only the braces of a body
            self.i += 2
        gofile.decls.append(FuncDecl(name=name, type=sig, receiver=receiver))

    def _parse_receiver(self) -> tuple[str, list[str]]:
        """Parse (name *Base[P, Q]), returning the base type name and the
        names of its type parameters."""
        self.expect("(")
        toks = self.toks
        if _is_ident(toks[self.i]) and self.toks[self.i + 1] not in (".", "[", ",", ")"):
            self.i += 1  # receiver variable name
        if toks[self.i] == "*":
            self.i += 1
        base = toks[self.i]
        if not _is_ident(base):
            raise self._error("malformed receiver type")
        self.i += 1
        tparams: list[str] = []
        if toks[self.i] == "[":
            for _ in self._items("["):
                tparams.append(self.expect_ident())
        if toks[self.i] == ",":
            self.i += 1
        self.expect(")")
        return base, tparams

    # -- signatures and parameter lists --------------------------------------

    def _parse_signature_tail(self, tparams: frozenset[str]) -> tuple[tuple[TypeExpr, ...], bool, tuple[TypeExpr, ...]]:
        params, variadic = self._parse_params(tparams)
        results: tuple[TypeExpr, ...] = ()
        tok = self.toks[self.i]
        if tok == "(":
            results, _ = self._parse_params(tparams, results=True)
        elif tok in _TYPE_STARTS or _is_ident(tok):
            results = (self._parse_type(tparams),)
        return params, variadic, results

    def _parse_params(self, tparams: frozenset[str], results: bool = False) -> tuple[tuple[TypeExpr, ...], bool]:
        """Parse a parenthesised parameter or result list, each item once.

        An item is a bare identifier, `name Type` or `Type`. Within a list
        either every parameter is named or none is: a bare identifier is a
        name when some item is `name Type`, and then takes the type of the
        next item that carries one (a, b int); otherwise it is a type. Only
        the final parameter may be variadic, and no result.
        """
        items: list[tuple[str, TypeExpr | None]] = []  # (name or "", type) or (bare identifier, None)
        variadic = False
        for tok in self._items("("):
            if variadic:
                raise self._error("can only use ... with final parameter in list")
            ident = _is_ident(tok)
            nxt = self.toks[self.i + 1]
            if ident and (nxt == "," or nxt == ")"):
                self.i += 1
                items.append((tok, None))
            else:
                name = ""
                if ident and nxt != "." and not (nxt == "[" and self._after_list(self.i + 1) in (",", ")")):
                    name = tok
                    self.i += 1
                if self.toks[self.i] == "...":
                    if results:
                        raise self._error("cannot use ... in result list")
                    self.i += 1
                    variadic = True
                items.append((name, self._parse_type(tparams)))
        named = any(name and t is not None for name, t in items)
        if named and (items[-1][1] is None or any(not name for name, _ in items)):
            raise self._error("mixed named and unnamed parameters", self.i - 1)

        types: list[TypeExpr] = []
        carry: TypeExpr | None = None
        for ident, t in reversed(items):
            if t is not None:
                carry = t
            elif named and carry is not None:
                t = carry
            else:
                t = self._resolve_name(ident, tparams)
            types.append(t)
        types.reverse()
        return tuple(types), variadic

    # -- type parameters ------------------------------------------------------

    def _parse_type_param_group(self, outer: frozenset[str]) -> tuple[TypeParamDef, ...]:
        # A constraint may refer to any parameter of the group, so the names
        # come first: each is the token after the "[" or a top-level comma.
        toks = self.toks
        starts = [self.i] + self._scan_list(self.i)[:-1]
        scope = outer | {toks[j + 1] for j in starts if _is_ident(toks[j + 1])}
        defs: list[tuple[str, TypeExpr | None]] = []
        for _ in self._items("["):
            name = self.expect_ident()
            constraint: TypeExpr | None = None
            if toks[self.i] != "," and toks[self.i] != "]":
                terms = self._parse_union(scope)
                constraint = terms[0].type if len(terms) == 1 and not terms[0].tilde else _make_interface([], terms)
            defs.append((name, constraint))

        carry: TypeExpr | None = None
        out: list[TypeParamDef] = []
        for name, constraint in reversed(defs):
            if constraint is not None:
                carry = constraint
            if carry is None:
                raise self._error("type parameter without constraint", self.i - 1)
            out.append(TypeParamDef(name=name, constraint=carry))
        out.reverse()
        return tuple(out)

    def _parse_union(self, tparams: frozenset[str]) -> list[UnionTerm]:
        """Parse ~T | U, the terms of a constraint or an interface embed."""
        terms: list[UnionTerm] = []
        while True:
            tilde = self.toks[self.i] == "~"
            if tilde:
                self.i += 1
            terms.append(UnionTerm(type=self._parse_type(tparams), tilde=tilde))
            if self.toks[self.i] != "|":
                return terms
            self.i += 1

    # -- types ------------------------------------------------------------------

    def _resolve_name(self, name: str, tparams: frozenset[str]) -> TypeExpr:
        if name in tparams:
            t = self.leaves.get(name)
            if t is None:
                t = self.leaves[name] = TypeParamRef(name)
            return t
        return _BASICS.get(name) or self._named(self.package_path, name)

    def _named(self, package: str, name: str) -> Named:
        """The file's one Named for package and name, without type arguments."""
        key = (package, name)
        t = self.leaves.get(key)
        if t is None:
            t = self.leaves[key] = Named(package, name)
        return t

    def _parse_type(self, tparams: frozenset[str]) -> TypeExpr:
        """Parse a type, one level of nesting deeper. After a GoSyntaxError
        the depth is not restored: a caller that goes on restores it."""
        if self.depth >= MAX_TYPE_NESTING:
            raise self._error(f"type nested deeper than {MAX_TYPE_NESTING} levels")
        self.depth += 1
        t = self._parse_type_at_depth(tparams)
        self.depth -= 1
        return t

    def _parse_type_at_depth(self, tparams: frozenset[str]) -> TypeExpr:
        toks = self.toks
        tok = toks[self.i]
        if _is_ident(tok):
            self.i += 1
            name = tok
            package: str | None = None
            if toks[self.i] == "." and _is_ident(self.toks[self.i + 1]):
                self.i += 1
                member = self.expect_ident()
                package = self.import_map.get(name, name)
                name = member
            args: list[TypeExpr] = []
            if toks[self.i] == "[":
                for _ in self._items("["):
                    args.append(self._parse_type(tparams))
            if package is not None:
                return Named(package, name, tuple(args)) if args else self._named(package, name)
            base = self._resolve_name(name, tparams)
            if args and isinstance(base, Named):
                return Named(base.package, base.name, tuple(args))
            return base
        if tok == "*":
            self.i += 1
            return Pointer(self._parse_type(tparams))
        if tok == "[":
            self.i += 1
            if toks[self.i] == "]":
                self.i += 1
                return Slice(self._parse_type(tparams))
            length = self._parse_array_length()
            return Array(length=length, elem=self._parse_type(tparams))
        if tok == "(":
            self.i += 1
            inner = self._parse_type(tparams)
            self.expect(")")
            return inner
        if tok == "func":
            self.i += 1
            params, variadic, results = self._parse_signature_tail(tparams)
            return Func(params=params, results=results, variadic=variadic)
        if tok == "map":
            self.i += 1
            self.expect("[")
            key = self._parse_type(tparams)
            self.expect("]")
            return Map(key=key, value=self._parse_type(tparams))
        if tok == "chan":
            self.i += 1
            direction = "both"
            if toks[self.i] == "<-":
                direction = "send"
                self.i += 1
            return Chan(direction=direction, elem=self._parse_type(tparams))
        if tok == "<-":
            self.i += 1
            if toks[self.i] != "chan":
                raise self._error("expected chan after <-", self.i - 1)
            self.i += 1
            return Chan(direction="recv", elem=self._parse_type(tparams))
        if tok == "struct":
            self.i += 1
            return self._parse_struct_body(tparams)
        if tok == "interface":
            self.i += 1
            return self._parse_interface_body(tparams)
        raise self._error(f"expected type, found {tok!r}")

    def _parse_array_length(self) -> int | str:
        toks = self.toks
        start = self.i
        end = self._scan_list(start - 1)[-1]
        if not toks[end]:
            raise self._error("unterminated array length", end)
        self.i = end + 1
        # Parentheses around the whole length do not change it: [(N)] is [N],
        # and a literal length is a number however it is spelled: [0x10], [(16)].
        while end - start > 2 and toks[start] == "(" and toks[end - 1] == ")" and self._scan_list(start)[-1] == end - 1:
            start += 1
            end -= 1
        if end - start == 1 and _INT_RE.fullmatch(toks[start]) and toks[start][-1] != "i":
            return _int_value(toks[start], self._line(start))
        return _spell(toks[start:end])

    def _parse_struct_body(self, tparams: frozenset[str]) -> Struct:
        fields: list[FieldDef] = []
        toks = self.toks
        for tok in self._elements("{", "struct body", "struct field"):
            start = self.i
            if _is_ident(tok):
                names = [tok]
                self.i += 1
                while toks[self.i] == ",":
                    self.i += 1
                    names.append(self.expect_ident())
                # A lone name before "." or the end of the field, or a tag,
                # even after a "[...]" of type arguments, is an embedded type.
                nxt = toks[self.i]
                after = self._after_list(self.i) if nxt == "[" else nxt
                if len(names) > 1 or not (nxt == "." or after in (";", "}") or after[:1] in _STRING_QUOTES):
                    ftype = self._parse_type(tparams)
                    tag = self._parse_tag()
                    for n in names:
                        fields.append(FieldDef(name=n, type=ftype, tag=tag, anonymous=False, exported=is_exported(n)))
                    continue
                self.i = start
            elif tok != "*":
                raise self._error(f"unexpected token {tok!r} in struct")
            # An embedded field: a type name, possibly behind a "*".
            ftype = self._parse_type(tparams)
            tag = self._parse_tag()
            name = _embedded_name(ftype)
            if name is None:
                k = start
                while toks[k] in ("*", "("):
                    k += 1
                raise self._error(f"embedded field must be a type name, found {toks[k]!r}", start)
            fields.append(FieldDef(name=name, type=ftype, tag=tag, anonymous=True, exported=is_exported(name)))
        return Struct(fields=tuple(fields))

    def _parse_tag(self) -> str | None:
        tok = self.toks[self.i]
        if tok[:1] not in _STRING_QUOTES:
            return None
        tag = _unquote(tok)
        self.i += 1
        return tag

    def _parse_interface_body(self, tparams: frozenset[str]) -> Interface:
        methods: list[MethodSig] = []
        embeds: list[UnionTerm] = []
        for tok in self._elements("{", "interface body", "interface element"):
            if _is_ident(tok) and self.toks[self.i + 1] == "(":
                self.i += 1
                params, variadic, results = self._parse_signature_tail(tparams)
                methods.append(MethodSig(name=tok, sig=Func(params=params, results=results, variadic=variadic)))
            else:
                embeds += self._parse_union(tparams)
        return _make_interface(methods, embeds)


_NO_SPACE_BEFORE = frozenset({".", ",", ")", "]", "}", "{", ";"})
_NO_SPACE_AFTER = frozenset({"(", "[", "{", "."})


def _spell(tokens: list[str]) -> str:
    parts: list[str] = []
    prev = ""
    for tok in tokens:
        if parts and tok not in _NO_SPACE_BEFORE and prev not in _NO_SPACE_AFTER:
            parts.append(" ")
        parts.append(tok)
        prev = tok
    return "".join(parts)



def _literal_type(tok: str) -> Basic | None:
    """The type of a literal token, or of true or false; None for any other token."""
    first = tok[:1]
    if first in _STRING_QUOTES:
        return Basic("string")
    if first == "'":
        return Basic("rune")
    if tok == "true" or tok == "false":
        return Basic("bool")
    if first.isdecimal() or (first == "." and tok[1:2].isdecimal()):
        if tok[-1] == "i":
            return Basic("complex128")
        return Basic("int") if _INT_RE.fullmatch(tok) else Basic("float64")
    return None


def _infer_const_type(value: list[str]) -> Basic:
    if len(value) == 1:
        lit = _literal_type(value[0])
        if lit is not None:
            return Basic("untyped " + {"float64": "float", "complex128": "complex"}.get(lit.name, lit.name))
    return Basic("untyped")


def _embedded_name(t: TypeExpr) -> str | None:
    """The field name of an embedded type; None if t is no (pointer to a) type name."""
    if isinstance(t, Pointer):
        return _embedded_name(t.base)
    if isinstance(t, (Named, Basic, TypeParamRef)):
        return t.name
    return None


class DeclMemo:
    """Top-level declaration chunks already parsed, so that one met again in
    another file is neither lexed nor parsed again.

    Per scope, (package path, header text), each chunk's key, its whole
    text up to the next candidate cut (see parse_go_file), maps to the specs
    it gave, which are immutable and so are shared by every file that holds
    the chunk. The header holds every import a file may have, so it fixes
    the import map. Entries live in two generations:
    next_generation drops the older one, and a hit in the previous
    generation moves into the current one, so a declaration kept through a
    chain of versions keeps hitting while the memo holds at most two
    generations' entries.
    """

    __slots__ = ("previous", "current")

    def __init__(self) -> None:
        self.previous: dict[tuple[str, str], dict[str, tuple]] = {}
        self.current: dict[tuple[str, str], dict[str, tuple]] = {}

    def next_generation(self) -> None:
        self.previous, self.current = self.current, {}

    def tables(self, scope: tuple[str, str]) -> tuple[dict[str, tuple], dict[str, tuple]]:
        """The current generation's table for scope, made if missing, and the
        previous generation's."""
        return self.current.setdefault(scope, {}), self.previous.get(scope, {})


def parse_go_file(text: str, package_path: str = "", *, memo: DeclMemo | None = None) -> GoFile:
    """Parse one source file at declaration level, reusing and adding to the
    parses in memo if one is given; the result is the same either way.

    The whole text is checked for lexical errors first only where it is not
    all ASCII or holds a NUL; elsewhere the _lex calls find them. The header
    (see tokenize) is lexed first, then the chunks after it in turn, and
    then the header and the chunks are parsed. A chunk's key is its text up
    to the next candidate cut. A chunk the memo holds for the package path
    and the header text adds the specs it gave before, and is not scanned:
    it was lexed clean when it was stored. Each other chunk is lexed by one
    _lex call and parsed, and its specs are stored only if _lex stopped
    clean at that candidate, or clean at the end of the text. Lexing the
    same text from the same clean state stops clean at the same place, so a
    key found ends where its chunk would. Where _lex raises, the whole text
    is checked, so that a lexical error anywhere outranks a bracket error.
    Without a memo the tables are empty, so the walk is the same. A chunk's
    lines count from its first; the lines before it are counted only if it
    raises.
    """
    text = text.removeprefix("\ufeff")
    if not text.isascii() or "\x00" in text:
        _check_lexable(text)
    try:
        header = _lex(text, 0, _next_cut(text, 0))[0]
    except GoSyntaxError:
        _check_lexable(text)
        raise
    pos = header.end
    table, previous = memo.tables((package_path, text[:pos])) if memo else ({}, {})
    # Every chunk is looked up, and lexed if the memo lacks it, before any is
    # parsed: parsing each chunk right after lexing it made a cold parse
    # slower, by 19 % in the median of 10 alternating rounds and in every
    # round, on the old side of the seed-7 check-decls pairs (37 files,
    # 2.1 MB), with the collector paused as extract_surface pauses it (2 vCPU
    # x86_64, Python 3.11). A bracket error ends the walk and is raised only
    # if the chunks before it parse, so errors come in source order.
    chunks = []  # (start, specs found, tokens lexed, key if it holds)
    error = None
    while pos < len(text):
        cut = _next_cut(text, pos)
        key = text[pos:cut]
        hit = table.get(key)
        if hit is None and key in previous:
            hit = table[key] = previous.pop(key)  # moved into this generation
        if hit is not None:
            chunks.append((pos, hit, None, None))
            pos = cut
            continue
        try:
            tokens, holds = _lex(text, pos, cut)
        except GoSyntaxError as exc:
            # _check_lexable raises every lexical error that _lex finds, at
            # its line in the whole text, so only a bracket error gets past
            # it, and its line counts from the chunk's first.
            _check_lexable(text)
            error = exc
            break
        chunks.append((pos, None, tokens, key if holds else None))
        pos = tokens.end
    parser = _Parser(header, package_path)
    gofile = parser.parse_file()
    decls = gofile.decls
    for start, hit, tokens, key in chunks:
        if hit is not None:
            decls += hit
            continue
        n = len(decls)
        try:
            parser.read(tokens)
            parser.parse_decls(gofile)
        except GoSyntaxError as exc:
            error, pos = exc, start
            break
        if key is not None:
            table[key] = tuple(decls[n:])
    if error is not None:
        raise GoSyntaxError(error.message, error.line + text.count("\n", 0, pos)) from None
    return gofile


def parse_imports(text: str) -> list[ImportSpec]:
    """The imports of one source file. The whole file is checked for lexical
    errors, so one anywhere in it is a GoSyntaxError; only the header is
    lexed, and a bracket in it that does not match is a GoSyntaxError too."""
    return _Parser(tokenize(text), "").parse_imports().imports
