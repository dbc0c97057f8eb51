"""Go source text for the generated workloads, with the records each change plants.

Everything here is plain string building driven by a `random.Random`; nothing
imports semverdiff. A `Decl` is one top-level declaration in its old and new
form plus the change records the differ must report for it, written down from
the catalogue rules rather than computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STD_IMPORTS = ("context", "fmt", "io", "strings", "time")

_VERBS = (
    "Load", "Store", "Fetch", "Build", "Parse", "Render", "Resolve", "Merge", "Split",
    "Encode", "Decode", "Watch", "Apply", "Scan", "Route", "Check", "Flush", "Open",
)
_NOUNS = (
    "Config", "Record", "Token", "Bucket", "Route", "Session", "Buffer", "Frame",
    "Ledger", "Packet", "Cursor", "Schema", "Policy", "Event", "Window", "Index",
)
_WORDS = (
    "alpha", "bravo", "delta", "gamma", "kilo", "lima", "omega", "sigma", "tango",
    "zulu", "amber", "cobalt", "ember", "frost", "lumen", "quartz", "raven", "slate",
)

# (old basic, new basic) pairs that stay comparable on both sides.
_BASIC_SWAPS = (("int", "int64"), ("string", "int"), ("bool", "string"), ("int64", "uint32"), ("float64", "int"))


@dataclass
class Decl:
    """One top-level declaration; `old`/`new` is None where it is absent."""

    old: str | None
    new: str | None
    records: list[tuple[str, str, str, bool]] = field(default_factory=list)  # node, category, condition, breaking
    objects_old: int = 1
    objects_new: int = 1
    body_bytes_old: int = 0
    body_bytes_new: int = 0


class Names:
    """Unique identifiers for one package."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0

    def exported(self) -> str:
        self.n += 1
        return f"{self.rng.choice(_VERBS)}{self.rng.choice(_NOUNS)}{self.n}"

    def unexported(self) -> str:
        self.n += 1
        return f"{self.rng.choice(_WORDS)}{self.rng.choice(_NOUNS)}{self.n}"

    def field(self) -> str:
        self.n += 1
        return f"{self.rng.choice(_NOUNS)}{self.n}"


# -- function bodies -----------------------------------------------------------

def _stmt(rng: random.Random) -> str:
    k, n = rng.randint(2, 97), rng.randint(3, 400)
    w = rng.choice(_WORDS)
    pick = rng.randrange(12)
    if pick == 0:
        return f"\tfor i := 0; i < {n}; i++ {{\n\t\tacc += i * {k}\n\t}}"
    if pick == 1:
        return f"\tif acc > {n} {{\n\t\tacc -= {k}\n\t}} else {{\n\t\tacc++\n\t}}"
    if pick == 2:
        return f'\tlabel = fmt.Sprintf("%s-%d/{w}", label, acc)'
    if pick == 3:
        return (
            f"\tswitch acc % {k} {{\n\tcase 0:\n\t\tlabel = strings.ToUpper(label)\n"
            f"\tcase 1:\n\t\tacc += len(label)\n\tdefault:\n\t\tacc--\n\t}}"
        )
    if pick == 4:
        return f"\t// {w} {rng.choice(_WORDS)}: keep the {rng.choice(_WORDS)} count under {n}."
    if pick == 5:
        return (
            f"\t{{\n\t\tvals := []int{{{k}, {n}, {k + n}, 0x{n:x}}}\n"
            f"\t\tfor _, v := range vals {{\n\t\t\tacc += v\n\t\t}}\n\t}}"
        )
    if pick == 6:
        return f"\tacc = func(x int) int {{ return x*{k} + {n} }}(acc)"
    if pick == 7:
        return f"\t{{\n\t\tratio := {k}.{n}e-1\n\t\tacc += int(ratio * {k}.5)\n\t}}"
    if pick == 8:
        return f"\t{{\n\t\tr := '{w[0]}'\n\t\tacc += int(r) + len(`raw {w} \"text\"`)\n\t}}"
    if pick == 9:
        return f"\t/* {w} block comment\n\t   spanning {n} lines of {rng.choice(_WORDS)} */"
    if pick == 10:
        return f'\tif strings.HasPrefix(label, "{w}") {{\n\t\tlabel = strings.TrimSpace(label + "\\t{w}")\n\t}}'
    return f'\t{{\n\t\tm := map[string]int{{"{w}": {k}, "{rng.choice(_WORDS)}": {n}}}\n\t\tacc += m["{w}"]\n\t}}'


_ZERO = {"int": "acc", "int64": "int64(acc)", "string": "label", "bool": "acc > 0", "error": "nil",
         "float64": "float64(acc)", "uint32": "uint32(acc)", "[]byte": "[]byte(label)"}


def body_lines(rng: random.Random, target_bytes: int, results: list[str]) -> list[str]:
    """Statement lines of a function body of roughly target_bytes."""
    lines = ["\tacc := 0", f'\tlabel := "{rng.choice(_WORDS)}"']
    size = 0
    while size < target_bytes:
        stmt = _stmt(rng)
        lines.append(stmt)
        size += len(stmt) + 1
    if results:
        lines.append("\treturn " + ", ".join(_ZERO.get(r, "nil") for r in results))
    else:
        lines.append("\t_ = label")
    return lines


def render_body(rng: random.Random, target_bytes: int, results: list[str]) -> str:
    """A `{ ... }` function body; one line when target_bytes is 0."""
    if target_bytes <= 0:
        if results:
            return "{ return " + ", ".join("nil" if r in ("error", "[]byte") else _zero_literal(r) for r in results) + " }"
        return "{}"
    return "{\n" + "\n".join(body_lines(rng, target_bytes, results)) + "\n}"


def _zero_literal(t: str) -> str:
    return {"int": "0", "int64": "0", "uint32": "0", "float64": "0", "string": '""', "bool": "false"}.get(t, "nil")


# -- declarations ----------------------------------------------------------------

_PARAM_TYPES = ("int", "string", "bool", "int64", "[]byte", "context.Context", "time.Duration", "io.Reader", "float64")
_RESULT_TYPES = ("int", "string", "bool", "error", "int64", "float64")


def _sig(params: list[str], results: list[str], variadic: bool = False) -> str:
    names = "abcdefgh"
    parts = [f"{names[i]} {t}" for i, t in enumerate(params)]
    if variadic and parts:
        parts[-1] = f"{names[len(params) - 1]} ...{params[-1]}"
    res = ""
    if len(results) == 1:
        res = " " + results[0]
    elif results:
        res = " (" + ", ".join(results) + ")"
    return "(" + ", ".join(parts) + ")" + res


def _other(rng: random.Random, pool: tuple[str, ...], current: str) -> str:
    return rng.choice([t for t in pool if t != current])


FUNC_CHANGES = ("param", "return", "variadic", "remove", "typeparam")


def func_decl(rng: random.Random, names: Names, body_bytes: int, change: str | None = None,
              exported: bool = True) -> Decl:
    """A func; change is one of FUNC_CHANGES or "add"."""
    name = names.exported() if exported else names.unexported()
    params = [rng.choice(_PARAM_TYPES) for _ in range(rng.randint(1, 3))]
    results = [rng.choice(_RESULT_TYPES) for _ in range(rng.randint(0, 2))]
    generic = change == "typeparam"
    variadic = change == "variadic"
    if variadic:
        params[-1] = "string"
    tp_old = "[T any]" if generic else ""
    if generic:
        params = ["[]T"] + params
    body_old = render_body(rng, body_bytes, results)
    old = f"func {name}{tp_old}{_sig(params, results, variadic)} {body_old}"
    node = name
    d = Decl(old=old, new=old, objects_old=int(exported), objects_new=int(exported), body_bytes_old=len(body_old),
             body_bytes_new=len(body_old))
    if change is None:
        return d
    if change == "add":
        d.old, d.objects_old, d.body_bytes_old = None, 0, 0
        d.records.append((node, "Function", "Add", False))
    elif change == "remove":
        d.new, d.objects_new, d.body_bytes_new = None, 0, 0
        d.records.append((node, "Function", "Remove", True))
    elif change == "param":
        new_params = list(params)
        new_params[-1] = _other(rng, _PARAM_TYPES, params[-1])
        d.new = f"func {name}{_sig(new_params, results)} {body_old}"
        d.records.append((node, "Function", "Param Change", True))
    elif change == "return":
        new_results = list(results) or ["int"]
        if results:
            new_results[0] = _other(rng, _RESULT_TYPES, results[0])
        d.new = f"func {name}{_sig(params, new_results)} {body_old}"
        d.records.append((node, "Function", "Return Change", True))
    elif change == "variadic":
        new_params = params[:-1] + ["[]string"]
        d.new = f"func {name}{_sig(new_params, results)} {body_old}"
        d.records.append((node, "Function", "Variadic Change", True))
    elif change == "typeparam":
        d.new = f"func {name}[T comparable]{_sig(params, results)} {body_old}"
        d.records.append((node, "TypeParam", "Type Change", True))
    else:
        raise ValueError(change)
    return d


STRUCT_CHANGES = ("field_type", "field_remove", "field_rename", "field_tag", "comparability", "anonymous",
                  "remove", "category")


def struct_decl(rng: random.Random, names: Names, change: str | None = None,
                methods: int = 0, method_change: str | None = None, body_bytes: int = 0) -> list[Decl]:
    """A struct type plus `methods` pointer-receiver methods on it.

    change applies to the type; method_change ("param", "remove" or "add")
    applies to its first method.
    """
    name = names.exported()
    fields = [(names.field(), b, f'json:"{rng.choice(_WORDS)}"' if rng.random() < 0.5 else None)
              for b, _ in rng.sample(_BASIC_SWAPS, rng.randint(2, 4))]
    extra = rng.choice(("", "\tItems []string\n", "\tcreated time.Time\n", "\tnext *" + name + "\n"))

    def render(flds, tail: str = "", lead: str = "") -> str:
        lines = [lead] if lead else []
        for fname, ftype, tag in flds:
            lines.append(f"\t{fname} {ftype}" + (f" `{tag}`" if tag else ""))
        return f"type {name} struct {{\n" + "\n".join(lines) + "\n" + extra + tail + "}"

    old_text = render(fields)
    new_text = old_text
    recs: list[tuple[str, str, str, bool]] = []
    if change == "field_type":
        i = rng.randrange(len(fields))
        fname, ftype, tag = fields[i]
        swap = dict(_BASIC_SWAPS)[ftype]
        new_fields = list(fields)
        new_fields[i] = (fname, swap, tag)
        new_text = render(new_fields)
        recs.append((name, "Struct", "Field Type Change", True))
    elif change == "field_remove":
        new_text = render(fields[:-1])
        recs.append((name, "Struct", "Field Number Change", True))
    elif change == "field_rename":
        i = rng.randrange(len(fields))
        new_fields = list(fields)
        new_fields[i] = (names.field(), fields[i][1], fields[i][2])
        new_text = render(new_fields)
        recs.append((name, "Struct", "Field Name Change", True))
    elif change == "field_tag":
        i = rng.randrange(len(fields))
        new_fields = list(fields)
        new_fields[i] = (fields[i][0], fields[i][1], f'json:"{names.field().lower()}"')
        new_text = render(new_fields)
        recs.append((name, "Struct", "Field Tag Change", True))
    elif change == "comparability":
        if "Items" in extra:
            extra = ""
        old_text = render(fields, "\tseen map[string]bool\n")
        new_text = render(fields, "\tseen bool\n")
        recs.append((name, "Struct", "Comparability Change", True))
    elif change == "anonymous":
        old_text = render(fields, lead="\tio.Reader")
        new_text = render(fields, lead="\tReader io.Reader")
        recs.append((name, "Struct", "Field Anonymous Change", True))
    elif change == "remove":
        new_text = None
        recs.append((name, "Struct", "Remove", True))
    elif change == "category":
        new_text = f"type {name} interface {{\n\t{fields[0][0]}() {fields[0][1]}\n}}"
        recs.append((name, "Category Change", "Data Type Change", True))
    elif change == "add":
        old_text = None
        recs.append((name, "Struct", "Add", False))
    elif change is not None:
        raise ValueError(change)
    out = [Decl(old=old_text, new=new_text, records=recs, objects_old=int(old_text is not None),
                objects_new=int(new_text is not None))]
    for j in range(methods):
        out.append(method_decl(rng, names, name, body_bytes, method_change if j == 0 else None))
    return out


def method_decl(rng: random.Random, names: Names, recv: str, body_bytes: int, change: str | None) -> Decl:
    mname = names.exported()
    params = [rng.choice(_PARAM_TYPES) for _ in range(rng.randint(0, 2))]
    results = [rng.choice(_RESULT_TYPES)]
    body = render_body(rng, body_bytes, results)
    old = f"func (r *{recv}) {mname}{_sig(params, results)} {body}"
    node = f"{recv}.{mname}"
    d = Decl(old=old, new=old, body_bytes_old=len(body), body_bytes_new=len(body))
    if change == "param":
        new_params = params + ["int"]
        d.new = f"func (r *{recv}) {mname}{_sig(new_params, results)} {body}"
        d.records.append((node, "Function", "Param Change", True))
    elif change == "remove":
        d.new, d.objects_new, d.body_bytes_new = None, 0, 0
        d.records.append((node, "Function", "Remove", True))
    elif change == "add":
        d.old, d.objects_old, d.body_bytes_old = None, 0, 0
        d.records.append((node, "Function", "Add", False))
    elif change is not None:
        raise ValueError(change)
    return d


IFACE_CHANGES = ("add_method", "remove_method", "method_sig", "add_unexported", "remove")


def interface_decl(rng: random.Random, names: Names, change: str | None = None) -> Decl:
    name = names.exported()
    methods = [(names.exported(), _sig([rng.choice(_PARAM_TYPES)], [rng.choice(_RESULT_TYPES)]))
               for _ in range(rng.randint(2, 4))]

    def render(ms) -> str:
        return f"type {name} interface {{\n" + "\n".join(f"\t{m}{s}" for m, s in ms) + "\n}"

    old = render(methods)
    d = Decl(old=old, new=old)
    if change == "add_method":
        d.new = render(methods + [(names.exported(), "() error")])
        d.records.append((name, "Interface", "Add Interface Method", True))
    elif change == "remove_method":
        d.new = render(methods[:-1])
        d.records.append((name, "Interface", "Method Number Change", True))
    elif change == "method_sig":
        m, _ = methods[0]
        d.new = render([(m, "(x int, y string) error")] + methods[1:])
        d.records.append((name, "Interface", "Method ID Change", True))
    elif change == "add_unexported":
        d.new = render(methods + [(names.unexported(), "()")])
        d.records.append((name, "Interface", "Add Unexported Method", True))
    elif change == "remove":
        d.new, d.objects_new = None, 0
        d.records.append((name, "Interface", "Remove", True))
    elif change is not None:
        raise ValueError(change)
    return d


CONST_CHANGES = ("value", "type", "remove")


def const_decl(rng: random.Random, names: Names, change: str | None = None) -> Decl:
    name = names.exported()
    value = rng.randint(1, 9999)
    old = f"const {name} int = {value}"
    d = Decl(old=old, new=old)
    if change == "value":
        d.new = f"const {name} int = {value + 1}"
        d.records.append((name, "Basic (Const)", "Value Change", True))
    elif change == "type":
        d.new = f"const {name} int64 = {value}"
        d.records.append((name, "Basic (Const)", "Type Change", True))
    elif change == "remove":
        d.new, d.objects_new = None, 0
        d.records.append((name, "Basic (Const)", "Remove", True))
    elif change is not None:
        raise ValueError(change)
    return d


# (old type, new type, category, condition) for var and defined-type changes.
_TYPE_CHANGES = (
    ("int", "string", "Basic", "Type Change"),
    ("[]int", "[]string", "Slice", "Element Change"),
    ("map[string]int", "map[int]int", "Map", "Key Change"),
    ("map[string]int", "map[string]bool", "Map", "Value Change"),
    ("*int", "*string", "Pointer", "Base Change"),
    ("chan int", "chan string", "Channel", "Element Change"),
    ("chan int", "chan<- int", "Channel", "Direction Change"),
    ("[4]int", "[8]int", "Array", "Length Change"),
    ("[4]int", "[4]string", "Array", "Element Change"),
    ("time.Time", "time.Duration", "Named", "Element Change"),
)
VAR_CHANGES = ("retype", "remove")


def var_decl(rng: random.Random, names: Names, change: str | None = None, as_type: bool = False) -> Decl:
    """A package var (or a defined type when as_type) of a non-struct type."""
    name = names.exported()
    old_t, new_t, category, condition = rng.choice(_TYPE_CHANGES)
    kw = "type" if as_type else "var"
    old = f"{kw} {name} {old_t}"
    d = Decl(old=old, new=old)
    if change == "retype":
        d.new = f"{kw} {name} {new_t}"
        d.records.append((name, category, condition, True))
    elif change == "remove":
        d.new, d.objects_new = None, 0
        d.records.append((name, category, "Remove", True))
    elif change is not None:
        raise ValueError(change)
    return d


def generic_type_decl(rng: random.Random, names: Names, change: str | None = None) -> Decl:
    name = names.exported()
    old = f"type {name}[K comparable, V any] struct {{\n\titems map[K]V\n\tsize int\n}}"
    d = Decl(old=old, new=old)
    if change == "remove_param":
        d.new = f"type {name}[K comparable] struct {{\n\titems map[K]string\n\tsize int\n}}"
        d.records.append((name, "TypeParam", "Remove", True))
    elif change is not None:
        raise ValueError(change)
    return d


# -- files -----------------------------------------------------------------------

def file_text(package: str, decl_texts: list[str], imports: tuple[str, ...] = STD_IMPORTS) -> str:
    head = f"package {package}\n\nimport (\n" + "".join(f'\t"{p}"\n' for p in imports) + ")\n\n"
    return head + "\n\n".join(decl_texts) + "\n"


def split_files(decls: list[Decl], file_bytes: int) -> list[list[Decl]]:
    """Cut the declaration sequence into files of about file_bytes each."""
    groups: list[list[Decl]] = [[]]
    size = 0
    for d in decls:
        if size >= file_bytes:
            groups.append([])
            size = 0
        groups[-1].append(d)
        size += len(d.old or d.new or "")
    return groups
