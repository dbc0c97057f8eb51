"""Structural comparison of two API surfaces into classified change records.

Every breaking condition comes from a fixed 40-row catalogue of (category,
condition) pairs; compatible additions are reported with the pseudo-condition
"Add" outside the catalogue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gotypes import (
    Array,
    Basic,
    Chan,
    Func,
    Interface,
    Map,
    Named,
    Pointer,
    Slice,
    Struct,
    TypeParamDef,
    is_comparable,
    normalized_params,
    render_field,
    render_method,
    render_type_expr,
    render_type_params,
    variant_category,
)
from .surface import ApiSurface, ExportedObject, PackageSurface, is_exported
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

CATALOGUE_SET = frozenset(CATALOGUE)

# Pseudo-condition for compatible additions; never part of the catalogue.
ADD_CONDITION = "Add"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ComplianceVerdict:
    upgrade_level: UpgradeLevel
    breaking_count: int
    compliant: bool


def category_of(obj: ExportedObject) -> str:
    if obj.kind == "const":
        return "Basic (Const)"
    return variant_category(obj.type)


def _record_sort_key(r: ChangeRecord) -> tuple:
    return (r.package, r.node, r.category, r.condition, r.message)


class _PackageDiffer:
    def __init__(self, old: PackageSurface, new: PackageSurface, context: "_DiffContext"):
        self.old = old
        self.new = new
        self.ctx = context
        self.records: list[ChangeRecord] = []

    def emit(self, node: str, category: str, condition: str, message: str, breaking: bool = True) -> None:
        self.records.append(
            ChangeRecord(
                module=self.ctx.module,
                from_version=self.ctx.from_version,
                to_version=self.ctx.to_version,
                package=self.old.import_path,
                node=node,
                category=category,
                condition=condition,
                breaking=breaking,
                message=message,
            )
        )

    def run(self) -> list[ChangeRecord]:
        old_keys = set(self.old.objects)
        new_keys = set(self.new.objects)
        pkg = self.old.import_path
        for key in sorted(old_keys - new_keys):
            obj = self.old.objects[key]
            self.emit(key, category_of(obj), "Remove", render_type_expr(obj.type, pkg))
        for key in sorted(new_keys - old_keys):
            obj = self.new.objects[key]
            self.emit(key, category_of(obj), ADD_CONDITION, render_type_expr(obj.type, pkg), breaking=False)
        for key in sorted(old_keys & new_keys):
            self._diff_object(key, self.old.objects[key], self.new.objects[key])
        return self.records

    # -- object-level rules -------------------------------------------------

    def _diff_object(self, key: str, old: ExportedObject, new: ExportedObject) -> None:
        pkg = self.old.import_path
        old_cat = category_of(old)
        new_cat = category_of(new)
        if old_cat != new_cat:
            self.emit(
                key,
                "Category Change",
                "Data Type Change",
                f"{render_type_expr(old.type, pkg)} -> {render_type_expr(new.type, pkg)}",
            )
            return

        self._diff_object_type_params(key, old.type_params, new.type_params)

        whole = f"{render_type_expr(old.type, pkg)} -> {render_type_expr(new.type, pkg)}"
        t_old, t_new = old.type, new.type

        if old_cat == "Basic (Const)":
            if render_type_expr(t_old) != render_type_expr(t_new):
                self.emit(key, old_cat, "Type Change", whole)
            if (old.const_value or "") != (new.const_value or ""):
                self.emit(key, old_cat, "Value Change", f"{old.const_value} -> {new.const_value}")
        elif old_cat == "Basic":
            if render_type_expr(t_old) != render_type_expr(t_new):
                self.emit(key, old_cat, "Type Change", whole)
        elif old_cat == "Array":
            assert isinstance(t_old, Array) and isinstance(t_new, Array)
            if render_type_expr(t_old.elem) != render_type_expr(t_new.elem):
                self.emit(key, old_cat, "Element Change", whole)
            if str(t_old.length) != str(t_new.length):
                self.emit(key, old_cat, "Length Change", whole)
        elif old_cat == "Slice":
            assert isinstance(t_old, Slice) and isinstance(t_new, Slice)
            if render_type_expr(t_old.elem) != render_type_expr(t_new.elem):
                self.emit(key, old_cat, "Element Change", whole)
        elif old_cat == "Map":
            assert isinstance(t_old, Map) and isinstance(t_new, Map)
            if render_type_expr(t_old.key) != render_type_expr(t_new.key):
                self.emit(key, old_cat, "Key Change", whole)
            if render_type_expr(t_old.value) != render_type_expr(t_new.value):
                self.emit(key, old_cat, "Value Change", whole)
        elif old_cat == "Struct":
            assert isinstance(t_old, Struct) and isinstance(t_new, Struct)
            self._diff_struct(key, t_old, t_new)
        elif old_cat == "Interface":
            assert isinstance(t_old, Interface) and isinstance(t_new, Interface)
            self._diff_interface(key, t_old, t_new)
        elif old_cat == "Pointer":
            assert isinstance(t_old, Pointer) and isinstance(t_new, Pointer)
            if render_type_expr(t_old.base) != render_type_expr(t_new.base):
                self.emit(key, old_cat, "Base Change", whole)
        elif old_cat == "Channel":
            assert isinstance(t_old, Chan) and isinstance(t_new, Chan)
            if render_type_expr(t_old.elem) != render_type_expr(t_new.elem):
                self.emit(key, old_cat, "Element Change", whole)
            if t_old.direction != t_new.direction:
                self.emit(key, old_cat, "Direction Change", whole)
        elif old_cat == "Function":
            assert isinstance(t_old, Func) and isinstance(t_new, Func)
            self._diff_func(key, t_old, t_new)
        elif old_cat == "Named":
            if render_type_expr(t_old) != render_type_expr(t_new):
                self.emit(key, old_cat, "Element Change", whole)

    def _diff_func(self, key: str, old: Func, new: Func) -> None:
        pkg = self.old.import_path
        whole = f"{render_type_expr(old, pkg)} -> {render_type_expr(new, pkg)}"
        if normalized_params(old) != normalized_params(new):
            self.emit(key, "Function", "Param Change", whole)
        if tuple(render_type_expr(r) for r in old.results) != tuple(render_type_expr(r) for r in new.results):
            self.emit(key, "Function", "Return Change", whole)
        if old.variadic != new.variadic:
            self.emit(key, "Function", "Variadic Change", whole)
        self._diff_object_type_params(key, old.type_params, new.type_params)

    def _diff_object_type_params(
        self, key: str, old: tuple[TypeParamDef, ...], new: tuple[TypeParamDef, ...]
    ) -> None:
        if not old and not new:
            return
        pkg = self.old.import_path
        message = f"{render_type_params(old, pkg)} -> {render_type_params(new, pkg)}"
        if len(new) < len(old):
            self.emit(key, "TypeParam", "Remove", message)
            return
        if len(new) > len(old):
            self.emit(key, "TypeParam", "Type Change", message + " (type parameter added)")
            return
        if any(
            render_type_expr(o.constraint) != render_type_expr(n.constraint)
            for o, n in zip(old, new)
        ):
            self.emit(key, "TypeParam", "Type Change", message)

    def _diff_struct(self, key: str, old: Struct, new: Struct) -> None:
        pkg = self.old.import_path
        new_by_name = {}
        for i, f in enumerate(new.fields):
            new_by_name.setdefault(f.name, (i, f))
        old_names = {f.name for f in old.fields}

        for i, of in enumerate(old.fields):
            if not of.exported:
                continue
            hit = new_by_name.get(of.name)
            if hit is None:
                candidate = new.fields[i] if i < len(new.fields) else None
                if (
                    candidate is not None
                    and candidate.exported
                    and candidate.name not in old_names
                    and render_type_expr(candidate.type) == render_type_expr(of.type)
                ):
                    self.emit(
                        key,
                        "Struct",
                        "Field Name Change",
                        f"{render_field(of, pkg)} -> {render_field(candidate, pkg)}",
                    )
                else:
                    self.emit(key, "Struct", "Field Number Change", render_field(of, pkg))
                continue
            _, nf = hit
            field_msg = f"{render_field(of, pkg)} -> {render_field(nf, pkg)}"
            if render_type_expr(of.type) != render_type_expr(nf.type):
                self.emit(key, "Struct", "Field Type Change", field_msg)
            if of.anonymous != nf.anonymous:
                self.emit(key, "Struct", "Field Anonymous Change", field_msg)
            if (of.tag or "") != (nf.tag or ""):
                self.emit(key, "Struct", "Field Tag Change", field_msg)

        old_cmp = is_comparable(old, self._resolver(self.old))
        new_cmp = is_comparable(new, self._resolver(self.new))
        if old_cmp != new_cmp:
            direction = "comparable -> non-comparable" if old_cmp else "non-comparable -> comparable"
            self.emit(key, "Struct", "Comparability Change", direction)

    def _resolver(self, pkg: PackageSurface):
        def resolve(named: Named):
            if named.package != pkg.import_path:
                return None
            obj = pkg.objects.get(named.name)
            if obj is not None and obj.kind == "type":
                return obj.type
            return None

        return resolve

    def _diff_interface(self, key: str, old: Interface, new: Interface) -> None:
        pkg = self.old.import_path
        old_exported = {m.name: m for m in old.methods if is_exported(m.name)}
        new_exported = {m.name: m for m in new.methods if is_exported(m.name)}
        old_has_unexported = old.has_unexported_method

        for name in sorted(old_exported):
            om = old_exported[name]
            nm = new_exported.get(name)
            if nm is None:
                self.emit(key, "Interface", "Method Number Change", render_method(om, pkg))
            elif render_type_expr(om.sig) != render_type_expr(nm.sig):
                self.emit(
                    key,
                    "Interface",
                    "Method ID Change",
                    f"{render_method(om, pkg)} -> {render_method(nm, pkg)}",
                )

        for name in sorted(new_exported):
            if name in old_exported:
                continue
            if old_has_unexported:
                # Clients cannot implement a sealed interface, so additions
                # stay compatible.
                self.emit(key, "Interface", ADD_CONDITION, render_method(new_exported[name], pkg), breaking=False)
            else:
                self.emit(key, "Interface", "Add Interface Method", render_method(new_exported[name], pkg))

        old_unexported = {m.name for m in old.methods if not is_exported(m.name)}
        new_unexported = {m.name: m for m in new.methods if not is_exported(m.name)}
        if not old_has_unexported:
            for name in sorted(set(new_unexported) - old_unexported):
                self.emit(key, "Interface", "Add Unexported Method", render_method(new_unexported[name], pkg))


@dataclass(frozen=True)
class _DiffContext:
    module: str
    from_version: str | None
    to_version: str | None


def diff_package(
    old: PackageSurface,
    new: PackageSurface,
    *,
    module: str = "",
    from_version: str | None = None,
    to_version: str | None = None,
) -> list[ChangeRecord]:
    """Compare two package surfaces with equal import paths."""
    if old.import_path != new.import_path:
        raise ModuleMismatch(f"package paths differ: {old.import_path} vs {new.import_path}")
    ctx = _DiffContext(module=module, from_version=from_version, to_version=to_version)
    return _PackageDiffer(old, new, ctx).run()


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
    ctx = _DiffContext(module=old.module_path, from_version=from_version, to_version=to_version)

    records: list[ChangeRecord] = []
    old_paths = set(old.packages)
    new_paths = set(new.packages)
    for path in sorted(old_paths - new_paths):
        records.append(
            ChangeRecord(
                module=ctx.module,
                from_version=ctx.from_version,
                to_version=ctx.to_version,
                package=path,
                node="",
                category="Package",
                condition="Remove",
                breaking=True,
                message=path,
            )
        )
    for path in sorted(new_paths - old_paths):
        records.append(
            ChangeRecord(
                module=ctx.module,
                from_version=ctx.from_version,
                to_version=ctx.to_version,
                package=path,
                node="",
                category="Package",
                condition=ADD_CONDITION,
                breaking=False,
                message=path,
            )
        )

    for path in sorted(old_paths & new_paths):
        records.extend(_PackageDiffer(old.packages[path], new.packages[path], ctx).run())

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


def _upgrade_level_for(record: ChangeRecord) -> UpgradeLevel | None:
    if not record.from_version or not record.to_version:
        return None
    try:
        return classify_upgrade(parse_version(record.from_version), parse_version(record.to_version))
    except (InvalidVersion, NotAnUpgrade):
        return None


def record_to_text(record: ChangeRecord) -> str:
    lines = [f"Module: {record.module}"]
    level = _upgrade_level_for(record)
    if level is not None:
        lines.append(
            f"Library Upgrade: {record.from_version} -> {record.to_version}, {upgrade_line_label(level)}"
        )
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
