"""Structural comparison of two API surfaces into classified change records.

Every breaking condition comes from a fixed 40-row catalogue of (category,
condition) pairs; compatible additions are reported with the pseudo-condition
"Add" outside the catalogue.

Each change is decided by comparing types with `==`; most categories are
decided by the rule table `_RULES`, Struct and Interface by methods of their
own. A type is rendered only to build the message of a record being emitted.
An object is the parser's spec, and a declaration that the declaration memo
found for both versions is one object on both sides: such a pair gives no
record without being compared, except that a struct's comparability, which
follows the other types of its package, is checked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable

from .gotypes import (
    FieldDef,
    Interface,
    Named,
    Struct,
    TypeExpr,
    TypeParamDef,
    incomparable,
    is_exported,
    normalized_params,
    render_field,
    render_method,
    render_type_expr,
    render_type_params,
    variant_category,
)
from .parser import Decl
from .surface import ApiSurface, PackageSurface
from .versions import (
    InvalidVersion,
    NotAnUpgrade,
    UpgradeLevel,
    classify_upgrade,
    parse_version,
)


class ModuleMismatch(ValueError):
    """The two surfaces describe different modules."""


# The full breaking-change catalogue: (category, condition), in report order.
CATALOGUE: tuple[tuple[str, str], ...] = (
    ("Package", "Remove"),
    ("Basic (Const)", "Type Change"),
    ("Basic (Const)", "Value Change"),
    ("Basic (Const)", "Remove"),
    ("Basic", "Type Change"),
    ("Basic", "Remove"),
    ("Array", "Element Change"),
    ("Array", "Length Change"),
    ("Array", "Remove"),
    ("Slice", "Element Change"),
    ("Slice", "Remove"),
    ("Map", "Key Change"),
    ("Map", "Value Change"),
    ("Map", "Remove"),
    ("Struct", "Field Number Change"),
    ("Struct", "Field Anonymous Change"),
    ("Struct", "Field Type Change"),
    ("Struct", "Field Name Change"),
    ("Struct", "Field Tag Change"),
    ("Struct", "Comparability Change"),
    ("Struct", "Remove"),
    ("Interface", "Method Number Change"),
    ("Interface", "Method ID Change"),
    ("Interface", "Add Unexported Method"),
    ("Interface", "Add Interface Method"),
    ("Interface", "Remove"),
    ("Pointer", "Base Change"),
    ("Pointer", "Remove"),
    ("Channel", "Element Change"),
    ("Channel", "Direction Change"),
    ("Channel", "Remove"),
    ("Function", "Param Change"),
    ("Function", "Return Change"),
    ("Function", "Variadic Change"),
    ("Function", "Remove"),
    ("Named", "Element Change"),
    ("Named", "Remove"),
    ("TypeParam", "Type Change"),
    ("TypeParam", "Remove"),
    ("Category Change", "Data Type Change"),
)

# Pseudo-condition for compatible additions; never part of the catalogue.
ADD_CONDITION = "Add"


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    module: str
    from_version: str | None
    to_version: str | None
    package: str
    node: str
    category: str
    condition: str
    breaking: bool
    message: str


@dataclass(frozen=True, slots=True)
class ComplianceVerdict:
    upgrade_level: UpgradeLevel
    breaking_count: int
    compliant: bool


def category_of(obj: Decl) -> str:
    if obj.kind == "const":
        return "Basic (Const)"
    return variant_category(obj.type)


def _record_sort_key(r: ChangeRecord) -> tuple:
    return (r.package, r.node, r.category, r.condition, r.message)


def _identity(t: TypeExpr) -> TypeExpr:
    return t


_elem = attrgetter("elem")

# Per category, the conditions decided by comparing one projection of the old
# and the new type with `==`. Struct and Interface have their own methods; a
# constant's value and the type parameters are compared in `_diff_object`.
_RULES: dict[str, tuple[tuple[str, Callable[[TypeExpr], object]], ...]] = {
    "Basic (Const)": (("Type Change", _identity),),
    "Basic": (("Type Change", _identity),),
    "Array": (("Element Change", _elem), ("Length Change", attrgetter("length"))),
    "Slice": (("Element Change", _elem),),
    "Map": (("Key Change", attrgetter("key")), ("Value Change", attrgetter("value"))),
    "Pointer": (("Base Change", attrgetter("base")),),
    "Channel": (("Element Change", _elem), ("Direction Change", attrgetter("direction"))),
    "Function": (
        ("Param Change", normalized_params),
        ("Return Change", attrgetter("results")),
        ("Variadic Change", attrgetter("variadic")),
    ),
    "Named": (("Element Change", _identity),),
}

# The same for a struct field kept under its name.
_FIELD_RULES: tuple[tuple[str, Callable[[FieldDef], object]], ...] = (
    ("Field Type Change", attrgetter("type")),
    ("Field Anonymous Change", attrgetter("anonymous")),
    ("Field Tag Change", lambda f: f.tag or ""),
)


class _PackageDiffer:
    def __init__(self, old: PackageSurface, new: PackageSurface, record: Callable[..., ChangeRecord]):
        self.old = old
        self.new = new
        self.pkg = old.import_path
        self.record = record
        self.records: list[ChangeRecord] = []
        self.structs: list[str] = []  # the structs of both sides, whose comparability is compared last

    def emit(self, node: str, category: str, condition: str, message: str, breaking: bool = True) -> None:
        self.records.append(self.record(self.pkg, node, category, condition, breaking, message))

    def change(self, render: Callable, old, new) -> str:
        """The message `old -> new`; built only for an emitted record."""
        return f"{render(old, self.pkg)} -> {render(new, self.pkg)}"

    def run(self) -> list[ChangeRecord]:
        old_keys = set(self.old.objects)
        new_keys = set(self.new.objects)
        for key in sorted(old_keys - new_keys):
            obj = self.old.objects[key]
            self.emit(key, category_of(obj), "Remove", render_type_expr(obj.type, self.pkg))
        for key in sorted(new_keys - old_keys):
            obj = self.new.objects[key]
            self.emit(key, category_of(obj), ADD_CONDITION, render_type_expr(obj.type, self.pkg), breaking=False)
        for key in sorted(old_keys & new_keys):
            self._diff_object(key, self.old.objects[key], self.new.objects[key])
        self._diff_comparability()
        return self.records

    # -- object-level rules -------------------------------------------------

    def _diff_object(self, key: str, old: Decl, new: Decl) -> None:
        category = category_of(old)
        if old is new:
            # One spec the memo found for both sides: only a struct's
            # comparability, which follows its package's other types, can change.
            if category == "Struct":
                self.structs.append(key)
            return
        if category != category_of(new):
            self.emit(key, "Category Change", "Data Type Change", self.change(render_type_expr, old.type, new.type))
            return
        self._diff_type_params(key, old.type_params, new.type_params)
        if category == "Struct":
            self._diff_struct(key, old.type, new.type)
        elif category == "Interface":
            self._diff_interface(key, old.type, new.type)
        else:
            for condition, project in _RULES[category]:
                if project(old.type) != project(new.type):
                    self.emit(key, category, condition, self.change(render_type_expr, old.type, new.type))
        if category == "Function":
            # A generic type keeps its type parameters on the object, a
            # generic function on its signature.
            self._diff_type_params(key, old.type.type_params, new.type.type_params)
        elif category == "Basic (Const)" and (old.value or "") != (new.value or ""):
            self.emit(key, category, "Value Change", f"{old.value} -> {new.value}")

    def _diff_type_params(self, key: str, old: tuple[TypeParamDef, ...], new: tuple[TypeParamDef, ...]) -> None:
        if len(new) < len(old):
            self.emit(key, "TypeParam", "Remove", self.change(render_type_params, old, new))
        elif len(new) > len(old):
            message = self.change(render_type_params, old, new) + " (type parameter added)"
            self.emit(key, "TypeParam", "Type Change", message)
        elif any(o.constraint != n.constraint for o, n in zip(old, new)):
            self.emit(key, "TypeParam", "Type Change", self.change(render_type_params, old, new))

    def _diff_struct(self, key: str, old: Struct, new: Struct) -> None:
        new_by_name: dict[str, FieldDef] = {}
        for f in new.fields:
            new_by_name.setdefault(f.name, f)
        old_names = {f.name for f in old.fields}
        # A name repeated in one struct (Go rejects it) is compared at its
        # first field only, so that equal structs give no field record.
        compared: set[str] = set()

        for i, of in enumerate(old.fields):
            if not of.exported or of.name in compared:
                continue
            compared.add(of.name)
            nf = new_by_name.get(of.name)
            if nf is not None:
                for condition, project in _FIELD_RULES:
                    if project(of) != project(nf):
                        self.emit(key, "Struct", condition, self.change(render_field, of, nf))
                continue
            candidate = new.fields[i] if i < len(new.fields) else None
            if (
                candidate is not None
                and candidate.exported
                and candidate.name not in old_names
                and candidate.type == of.type
            ):
                self.emit(key, "Struct", "Field Name Change", self.change(render_field, of, candidate))
            else:
                self.emit(key, "Struct", "Field Number Change", render_field(of, self.pkg))
        self.structs.append(key)

    def _diff_comparability(self) -> None:
        """A struct's comparability follows its package's other types, so
        each side's types are resolved once, for all the structs."""
        old_incomparable = _incomparable(self.old, self.structs)
        new_incomparable = _incomparable(self.new, self.structs)
        for key in self.structs:
            old_cmp, new_cmp = key not in old_incomparable, key not in new_incomparable
            if old_cmp != new_cmp:
                direction = "comparable -> non-comparable" if old_cmp else "non-comparable -> comparable"
                self.emit(key, "Struct", "Comparability Change", direction)

    def _diff_interface(self, key: str, old: Interface, new: Interface) -> None:
        old_exported = {m.name: m for m in old.methods if is_exported(m.name)}
        new_exported = {m.name: m for m in new.methods if is_exported(m.name)}
        old_has_unexported = old.has_unexported_method

        for name in sorted(old_exported):
            om = old_exported[name]
            nm = new_exported.get(name)
            if nm is None:
                self.emit(key, "Interface", "Method Number Change", render_method(om, self.pkg))
            elif om.sig != nm.sig:
                self.emit(key, "Interface", "Method ID Change", self.change(render_method, om, nm))

        for name in sorted(new_exported):
            if name in old_exported:
                continue
            if old_has_unexported:
                # Clients cannot implement a sealed interface, so additions
                # stay compatible.
                self.emit(key, "Interface", ADD_CONDITION, render_method(new_exported[name], self.pkg), breaking=False)
            else:
                self.emit(key, "Interface", "Add Interface Method", render_method(new_exported[name], self.pkg))

        old_unexported = {m.name for m in old.methods if not is_exported(m.name)}
        new_unexported = {m.name: m for m in new.methods if not is_exported(m.name)}
        if not old_has_unexported:
            for name in sorted(set(new_unexported) - old_unexported):
                self.emit(key, "Interface", "Add Unexported Method", render_method(new_unexported[name], self.pkg))


def _incomparable(pkg: PackageSurface, keys: list[str]) -> set[str]:
    """The keys of pkg's objects whose values are not comparable, with pkg's
    named types resolved."""

    def resolve(named: Named) -> TypeExpr | None:
        obj = pkg.objects.get(named.name) if named.package == pkg.import_path else None
        return obj.type if obj is not None and obj.kind == "type" else None

    return incomparable({key: pkg.objects[key].type for key in keys}, resolve)


def diff_surfaces(old: ApiSurface, new: ApiSurface) -> list[ChangeRecord]:
    """Compare two surfaces of the same module, package by package.

    A package present only in the old surface produces one Package/Remove
    record; one present only in the new surface produces a compatible
    package-level Add. Output is sorted.
    """
    if old.module_path != new.module_path:
        raise ModuleMismatch(f"module paths differ: {old.module_path} vs {new.module_path}")

    from_version = str(old.version) if old.version is not None else None
    to_version = str(new.version) if new.version is not None else None
    # (package, node, category, condition, breaking, message) -> ChangeRecord
    record = partial(ChangeRecord, old.module_path, from_version, to_version)

    old_paths = set(old.packages)
    new_paths = set(new.packages)
    records = [record(path, "", "Package", "Remove", True, path) for path in sorted(old_paths - new_paths)]
    records += [record(path, "", "Package", ADD_CONDITION, False, path) for path in sorted(new_paths - old_paths)]
    for path in sorted(old_paths & new_paths):
        records.extend(_PackageDiffer(old.packages[path], new.packages[path], record).run())

    records.sort(key=_record_sort_key)
    return records


def check_compliance(level: UpgradeLevel, records: list[ChangeRecord]) -> ComplianceVerdict:
    """Judge whether an upgrade at the given level may carry these records."""
    breaking_count = sum(1 for r in records if r.breaking)
    compliant = breaking_count == 0 or level in (
        UpgradeLevel.MAJOR,
        UpgradeLevel.DEVELOPMENT,
        UpgradeLevel.PRERELEASE_BUILD,
    )
    return ComplianceVerdict(upgrade_level=level, breaking_count=breaking_count, compliant=compliant)


# -- report rendering --------------------------------------------------------


def upgrade_line_label(level: UpgradeLevel) -> str:
    if level in (UpgradeLevel.MAJOR, UpgradeLevel.MINOR, UpgradeLevel.PATCH):
        return f"{level.label} Upgrade"
    return level.label


@lru_cache(maxsize=256)
def _upgrade_line(from_version: str | None, to_version: str | None) -> str | None:
    """The "Library Upgrade" line of a record of this upgrade, or None where
    a version is missing or the two make no upgrade. Cached, since the
    records of one upgrade all ask for the same line."""
    if not from_version or not to_version:
        return None
    try:
        level = classify_upgrade(parse_version(from_version), parse_version(to_version))
    except (InvalidVersion, NotAnUpgrade):
        return None
    return f"Library Upgrade: {from_version} -> {to_version}, {upgrade_line_label(level)}"


def record_to_text(record: ChangeRecord) -> str:
    lines = [f"Module: {record.module}"]
    upgrade_line = _upgrade_line(record.from_version, record.to_version)
    if upgrade_line is not None:
        lines.append(upgrade_line)
    lines.extend(
        [
            f"Package: {record.package}",
            f"Change Node: {record.node}",
            f"Change Category: {record.category}",
            f"Change Condition: {record.condition}",
            f"Change Message: {record.message}",
        ]
    )
    return "\n".join(lines)


def records_to_text(records: list[ChangeRecord]) -> str:
    return "\n\n".join(record_to_text(r) for r in records)


def record_to_dict(record: ChangeRecord) -> dict:
    return {
        "module": record.module,
        "from": record.from_version,
        "to": record.to_version,
        "package": record.package,
        "node": record.node,
        "category": record.category,
        "condition": record.condition,
        "breaking": record.breaking,
        "message": record.message,
    }


def records_to_ndjson(records: list[ChangeRecord]) -> str:
    return "".join(json.dumps(record_to_dict(r), ensure_ascii=False) + "\n" for r in records)
