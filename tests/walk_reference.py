"""The tree walks of extract_surface and read_client as they were before both
used walk_go_files: one os.walk loop each, building a Path per file. The
walker tests compare the one walker with them, walk order, surfaces, client
reads and log lines alike.

extract_surface is kept without the declaration memo and the paused
collector, which change neither its surface nor its failures; its log line
names the file by its path relative to the module root, as it did.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Iterator

from semverdiff.impact import ClientFile, ParseFailure, bind_imports
from semverdiff.lexer import GoSyntaxError
from semverdiff.parser import parse_go_file
from semverdiff.surface import (
    ApiSurface,
    NoSourceFiles,
    PackageSurface,
    SurfaceEmpty,
    _objects_from_file,
    _package_path,
    filter_layout,
    go_build_ignores,
)

logger = logging.getLogger("semverdiff.surface")
client_logger = logging.getLogger("semverdiff.impact")


def surface_files(module_root: str | Path, extra_excluded_dirs: tuple[str, ...] = ()) -> list[tuple[str, Path]]:
    """(rel_dir, path) of each file extract_surface parses, in walk order."""
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
    return files


def extract_surface(
    module_root: str | Path, module_path: str, *, extra_excluded_dirs: tuple[str, ...] = ()
) -> ApiSurface:
    root = Path(module_root)
    files = surface_files(root, extra_excluded_dirs)
    if not files:
        raise NoSourceFiles(f"no source files under {root}")
    surface = ApiSurface(module_path=module_path, version=None)
    parsed_count = 0
    for rel_dir, path in files:
        rel_file = path.name if rel_dir == "." else f"{rel_dir}/{path.name}"
        pkg_path = _package_path(module_path, rel_dir)
        try:
            gofile = parse_go_file(path.read_text(encoding="utf-8"), pkg_path)
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


def read_client(root: Path) -> Iterator[ClientFile]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not go_build_ignores(d))
        for fn in sorted(filenames):
            if not fn.endswith(".go") or go_build_ignores(fn):
                continue
            path = Path(dirpath) / fn
            rel_file = path.relative_to(root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
                binding = bind_imports(text, rel_file)
            except (OSError, UnicodeDecodeError, ParseFailure) as exc:
                client_logger.warning("skipping client file %s: %s", path, exc)
                yield ClientFile(rel_file)
            else:
                yield ClientFile(rel_file, text, binding)
