"""Exported API surface extraction for one module version.

Walks the module tree, leaving out what go build leaves out (testdata/,
vendor/, and every directory and file whose name starts with "." or "_", as
scan_client does too), filtered layout directories and nested modules, and
following no directory symlink. It parses every non-test .go file at
declaration level and keeps the exported objects, the first declaration of
each key in file and source order: top-level names, methods of exported
named types, and the structural types behind them. A declaration unchanged
since the previous extraction is neither lexed nor parsed again:
parse_go_file, walking the file chunk by chunk, finds it by its text in a
memo that holds the declarations of the previous extraction and the current
one, and its specs are reused.

The surface's objects are the parser's exported specs themselves (Decl), not
copies: a declaration the memo finds is one Python object in the old and the
new surface, so the differ skips it by identity and a memo hit allocates
nothing here. extract_surface pauses the cyclic collector for the whole call
and restores it as it found it: the specs and types a cold extraction builds
are long-lived and hold no cycles, so collections during it would walk them
again and again for nothing. The pause is process-wide: a thread that runs
during an extraction sees the collector paused too.
"""

from __future__ import annotations

import gc
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .gotypes import is_exported, render_type_expr, render_type_params, type_to_structure
from .lexer import GoSyntaxError
from .parser import Decl, DeclMemo, GoFile, parse_go_file
from .versions import SemanticVersion

logger = logging.getLogger(__name__)

# Project-layout directories whose packages are not meant to be imported.
FILTERED_LAYOUT_DIRS = frozenset(
    {"cmd", "internal", "vendor", "config", "init", "scripts", "build", "deployment", "test"}
)


# The declarations parsed by the previous extract_surface call and by the
# current one, by their text. Consecutive versions of a module share most
# declarations, and both check (old, then new) and corpus validation (by
# module, then version) extract them one after the other.
_DECLS = DeclMemo()


def _drop_declarations() -> None:
    """Empty the declaration memo, for a caller that extracts no more surfaces."""
    _DECLS.next_generation()
    _DECLS.next_generation()


class ParseFailure(ValueError):
    """A source file could not be parsed and was skipped."""


class SurfaceEmpty(ValueError):
    """No source file parsed; the module version is invalid."""


class NoSourceFiles(SurfaceEmpty):
    """The walk found no source file to parse."""


def filter_layout(package_dir_relative: str, extra: frozenset[str] | set[str] = frozenset()) -> bool:
    """True when the relative package directory must be excluded."""
    if package_dir_relative in ("", "."):
        return False
    segments = package_dir_relative.replace("\\", "/").split("/")
    banned = FILTERED_LAYOUT_DIRS | set(extra)
    return any(seg in banned for seg in segments)


def go_build_ignores(name: str) -> bool:
    """Whether go build leaves out the directory or file of this name in a
    module tree: testdata/ and vendor/, and every name that starts with "."
    or "_"."""
    return name[0] in "._" or name in ("testdata", "vendor")


@dataclass
class PackageSurface:
    import_path: str
    objects: dict[str, Decl] = field(default_factory=dict)


@dataclass
class ApiSurface:
    module_path: str
    version: SemanticVersion | None
    packages: dict[str, PackageSurface] = field(default_factory=dict)
    parse_failures: list[tuple[str, str]] = field(default_factory=list)


def _objects_from_file(gofile: GoFile) -> Iterator[Decl]:
    """The exported specs of a file: top-level names, and methods of exported
    receivers."""
    for spec in gofile.decls:
        if is_exported(spec.name) and (spec.receiver is None or is_exported(spec.receiver)):
            yield spec


def _package_path(module_path: str, rel_dir: str) -> str:
    if rel_dir in ("", "."):
        return module_path
    return f"{module_path}/{rel_dir}"


def extract_surface(
    module_root: str | Path,
    module_path: str,
    version: SemanticVersion | None = None,
    *,
    extra_excluded_dirs: tuple[str, ...] = (),
) -> ApiSurface:
    """Extract the exported API surface of the module rooted at module_root.

    Files that fail to parse are recorded and skipped. Raises NoSourceFiles,
    a SurfaceEmpty, when the walk finds no source file, and SurfaceEmpty
    when none of them parses. Two walks of the same tree yield identical
    surfaces, and an unchanged declaration is the same object in both. The
    cyclic collector is paused during the call; if it was enabled on entry,
    it is enabled again on return or raise.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        root = Path(module_root)
        banned = set(extra_excluded_dirs)
        files: list[tuple[str, Path]] = []
        for dirpath, dirnames, filenames in os.walk(root):
            rel = Path(dirpath).relative_to(root).as_posix()
            keep = []
            for d in sorted(dirnames):
                sub_rel = d if rel == "." else f"{rel}/{d}"
                if go_build_ignores(d) or filter_layout(sub_rel, banned):
                    continue
                if (Path(dirpath) / d / "go.mod").is_file():
                    continue  # nested module
                keep.append(d)
            dirnames[:] = keep
            for fn in sorted(filenames):
                if fn.endswith(".go") and not fn.endswith("_test.go") and not go_build_ignores(fn):
                    files.append((rel, Path(dirpath) / fn))
        if not files:
            raise NoSourceFiles(f"no source files under {root}")

        _DECLS.next_generation()  # after the walk, so a tree without sources keeps the memo as it is
        surface = ApiSurface(module_path=module_path, version=version)
        parsed_count = 0
        for rel_dir, path in files:
            rel_file = path.name if rel_dir == "." else f"{rel_dir}/{path.name}"
            pkg_path = _package_path(module_path, rel_dir)
            try:
                gofile = parse_go_file(path.read_text(encoding="utf-8"), pkg_path, memo=_DECLS)
            except (OSError, UnicodeDecodeError, GoSyntaxError) as exc:
                logger.warning("parse failure in %s: %s", rel_file, exc)
                surface.parse_failures.append((rel_file, str(exc) or "parse failure"))
                continue
            parsed_count += 1
            pkg = surface.packages.setdefault(pkg_path, PackageSurface(import_path=pkg_path))
            for obj in _objects_from_file(gofile):
                pkg.objects.setdefault(obj.key, obj)

        if parsed_count == 0:
            raise SurfaceEmpty(f"no parseable source files under {root}")
        return surface
    finally:
        if enabled:
            gc.enable()


def surface_to_dict(surface: ApiSurface) -> dict:
    """JSON-ready document with stable ordering of packages and object keys."""
    version = str(surface.version) if surface.version is not None else None
    packages = []
    for path in sorted(surface.packages):
        pkg = surface.packages[path]
        objects = []
        for key in sorted(pkg.objects):
            obj = pkg.objects[key]
            entry: dict = {
                "key": key,
                "kind": obj.kind,
                "type": {
                    "render": render_type_expr(obj.type),
                    "structure": type_to_structure(obj.type),
                },
            }
            if obj.kind == "const":
                entry["value"] = obj.value
            if obj.receiver is not None:
                entry["receiver"] = obj.receiver
            if obj.type_params:
                entry["type_params"] = render_type_params(obj.type_params)
            objects.append(entry)
        packages.append({"path": path, "objects": objects})
    return {"module": surface.module_path, "version": version, "packages": packages}


def surface_to_json(surface: ApiSurface) -> str:
    return json.dumps(surface_to_dict(surface), indent=2, ensure_ascii=False) + "\n"
