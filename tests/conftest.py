from __future__ import annotations

import os
from pathlib import Path

import pytest

from catalogue_fixtures import FIXTURES, CatalogueFixture


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


def write_module(root: Path, module_path: str, files: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    if "go.mod" not in files:
        (root / "go.mod").write_text(f"module {module_path}\n\ngo 1.19\n", encoding="utf-8")
    return write_tree(root, files)


def symlink_or_skip(target: str, link: Path, directory: bool = False) -> None:
    """Make link point to target, or skip the test where symlinks cannot be made."""
    try:
        os.symlink(target, link, target_is_directory=directory)
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"cannot make a symlink: {exc}")


def materialize_fixture(base: Path, fixture: CatalogueFixture) -> tuple[Path, Path]:
    old_dir = base / f"fix{fixture.index:02d}" / "old"
    new_dir = base / f"fix{fixture.index:02d}" / "new"
    write_module(old_dir, fixture.module_path, fixture.old)
    write_module(new_dir, fixture.module_path, fixture.new)
    return old_dir, new_dir


@pytest.fixture(scope="session")
def catalogue_corpus(tmp_path_factory) -> dict[int, tuple[CatalogueFixture, Path, Path]]:
    """All 40 golden fixtures materialized as two-version module checkouts."""
    base = tmp_path_factory.mktemp("catalogue")
    out = {}
    for fixture in FIXTURES:
        old_dir, new_dir = materialize_fixture(base, fixture)
        out[fixture.index] = (fixture, old_dir, new_dir)
    return out


@pytest.fixture(scope="session")
def planted_root(tmp_path_factory) -> Path:
    import planted_corpus

    return planted_corpus.build_corpus(tmp_path_factory.mktemp("planted") / "corpus")


@pytest.fixture(scope="session")
def planted_analysis(planted_root):
    from semverdiff.corpus import analyze_corpus

    return analyze_corpus(planted_root)
