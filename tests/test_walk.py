"""The one tree walker (walk_go_files) against the os.walk loops it replaced
(walk_reference): on trees with what go build ignores, filtered layout
directories, a nested module, test files and symlinks, extract_surface and
the client scan walk the same files in the same order and give the same
surfaces, scan reports, usages and client log lines."""

from __future__ import annotations

import logging
import os
from pathlib import Path

import pytest

import semverdiff.surface as surface_module
import walk_reference as reference
from conftest import write_tree
from semverdiff.diff import ChangeRecord
from semverdiff.impact import BreakingNode, ClientCheckout, ScanReport, read_client, scan_client
from semverdiff.surface import NoSourceFiles, extract_surface, surface_to_dict, walk_go_files

MOD = "example.com/m"
EXTRA = ("extra",)


def _code(name: str) -> str:
    """A file that exports name and calls the breaking lib.Old."""
    return f'package m\n\nimport "example.com/lib"\n\nfunc {name}() {{ lib.Old() }}\n'


def _go_build_ignores(root: Path) -> None:
    write_tree(root, {rel: _code(name) for rel, name in [
        ("a.go", "A"), ("testdata/t.go", "T"), ("vendor/v.go", "V"), (".x/h.go", "H"), ("_x/u.go", "U"),
        (".x.go", "D"), ("_x.go", "X"), ("pkg/p.go", "P"), ("pkg/testdata/deep.go", "Deep"), ("pkg/.x/h.go", "H2"),
        ("notes.txt", "N"),
    ]})


def _layout_and_nested_module(root: Path) -> None:
    write_tree(root, {rel: _code(name) for rel, name in [
        ("a.go", "A"), ("internal/i.go", "I"), ("cmd/tool/main.go", "Main"), ("pkg/test/t.go", "T"),
        ("extra/e.go", "E"), ("pkg/p.go", "P"), ("sub/s.go", "S"), ("sub/deeper/d.go", "D"),
    ]})
    (root / "sub" / "go.mod").write_text("module example.com/m/sub\n", encoding="utf-8")


def _tests_and_a_directory_named_like_a_file(root: Path) -> None:
    write_tree(root, {rel: _code(name) for rel, name in [
        ("a.go", "A"), ("a_test.go", "TestA"), ("x.go/inner.go", "Inner"), ("pkg/p_test.go", "TestP"), ("pkg/p.go", "P"),
    ]})


def _symlinks(root: Path) -> None:
    write_tree(root, {"a.go": _code("A"), "real/r.go": _code("R")})
    write_tree(root.parent / "outside", {"o.go": _code("O")})
    os.symlink(root / "real", root / "linkdir")  # a directory: not descended
    os.symlink(root.parent / "outside", root / "away")
    os.symlink(root / "real", root / "dir.go")  # a directory named like a file: not read
    os.symlink(root / "real" / "r.go", root / "link.go")  # a file: read


def _broken_symlinks(root: Path) -> None:
    write_tree(root, {"a.go": _code("A"), "sub/s.go": _code("S")})
    os.symlink(root / "missing.go", root / "dangling.go")  # read, and fails
    os.symlink(root / "loop.go", root / "loop.go")  # a file that cannot be stat'ed: read, and fails
    os.symlink(root, root / "up")
    os.symlink(root, root / "sub" / "back")


TREES = {
    "go build ignores": _go_build_ignores,
    "layout and nested module": _layout_and_nested_module,
    "tests and a directory named x.go": _tests_and_a_directory_named_like_a_file,
    "symlinks": _symlinks,
    "broken symlinks and loops": _broken_symlinks,
}


def _tree(tmp_path: Path, name: str) -> Path:
    root = tmp_path / "tree"
    root.mkdir(parents=True)
    TREES[name](root)
    return root


@pytest.mark.parametrize("tree", sorted(TREES))
def test_surface_walk_and_surface_as_before(tree, tmp_path, monkeypatch):
    root = _tree(tmp_path, tree)
    walked: list[tuple[str, str]] = []
    real_walk = surface_module.walk_go_files

    def walk(*args):
        for rel_dir, rel_file, path in real_walk(*args):
            walked.append((rel_dir, rel_file))
            yield rel_dir, rel_file, path

    monkeypatch.setattr(surface_module, "walk_go_files", walk)
    got = extract_surface(root, MOD, extra_excluded_dirs=EXTRA)
    want = reference.extract_surface(root, MOD, extra_excluded_dirs=EXTRA)
    parsed = [(rel_dir, rel_file) for rel_dir, rel_file in walked if not rel_file.endswith("_test.go")]
    assert parsed == [(rel_dir, path.relative_to(root).as_posix()) for rel_dir, path in reference.surface_files(root, EXTRA)]
    assert surface_to_dict(got) == surface_to_dict(want)
    assert got.parse_failures == want.parse_failures


def _nodes() -> list[BreakingNode]:
    record = ChangeRecord("example.com/lib", "v1.0.0", "v1.1.0", "example.com/lib", "Old", "Function", "Remove", True, "")
    return [BreakingNode(record.package, record.node, record.category, record.condition, record)]


@pytest.mark.parametrize("tree", sorted(TREES))
def test_client_walk_scan_and_log_as_before(tree, tmp_path, caplog):
    root = _tree(tmp_path, tree)
    with caplog.at_level(logging.WARNING, logger="semverdiff.impact"):
        got = list(read_client(root))
        got_lines = [r.getMessage() for r in caplog.records]
        caplog.clear()
        want = list(reference.read_client(root))
        want_lines = [r.getMessage() for r in caplog.records]
    assert got == want
    assert [rel_file for _rel_dir, rel_file, _path in walk_go_files(root)] == [f.rel_file for f in want]
    assert got_lines == want_lines and all(line.startswith("skipping client file") for line in got_lines)

    reports, usages = [], []
    for files in (got, want):
        checkout = ClientCheckout(root)
        checkout.files = files  # the read to share, as the checkout's first scan would keep it
        reports.append(ScanReport())
        usages.append(scan_client(checkout, _nodes(), "example.com/c", None, reports[-1]))
    assert reports[0] == reports[1] and usages[0] == usages[1]
    assert usages[0] and reports[0].scanned


def test_what_each_walk_finds_in_the_trees(tmp_path):
    """The trees hold what the differential tests are meant to cover."""
    roots = {name: _tree(tmp_path / str(i), name) for i, name in enumerate(sorted(TREES))}
    assert [f for _d, f, _p in walk_go_files(roots["symlinks"])] == ["a.go", "link.go", "real/r.go"]
    failed = ScanReport()
    scan_client(roots["broken symlinks and loops"], _nodes(), report=failed)
    assert failed.failed == ["dangling.go", "loop.go"] and failed.scanned == ["a.go", "sub/s.go"]
    surface = extract_surface(roots["layout and nested module"], MOD, extra_excluded_dirs=EXTRA)
    assert set(surface.packages) == {MOD, f"{MOD}/pkg"}
    ignored = [f for _d, f, _p in walk_go_files(roots["go build ignores"])]
    assert ignored == ["a.go", "pkg/p.go"]
    tested = extract_surface(roots["tests and a directory named x.go"], MOD)
    assert {path: list(pkg.objects) for path, pkg in tested.packages.items()} == {
        MOD: ["A"], f"{MOD}/x.go": ["Inner"], f"{MOD}/pkg": ["P"]
    }


def test_a_root_that_cannot_be_listed_yields_nothing(tmp_path):
    assert list(walk_go_files(tmp_path / "missing")) == []
    with pytest.raises(NoSourceFiles):
        extract_surface(tmp_path / "missing", MOD)
