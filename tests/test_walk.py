"""The one tree walker (walk_go_files) against the os.walk loops it replaced
(walk_reference): on trees with what go build ignores, filtered layout
directories, a nested module, test files and symlinks, extract_surface and
the client scan walk the same files in the same order and give the same
surfaces, scan reports, usages and client log lines. The one file reader
(read_go_file) reads regular files, through symlinks too, and refuses FIFOs
and devices without opening them."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semverdiff
import semverdiff.surface as surface_module
import walk_reference as reference
from conftest import write_tree
from semverdiff.diff import ChangeRecord
from semverdiff.impact import BreakingNode, ClientCheckout, ScanReport, scan_client
from semverdiff.surface import NoSourceFiles, extract_surface, read_go_file, surface_to_dict, walk_go_files

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
        got = ClientCheckout(root).files
        got_lines = [r.getMessage() for r in caplog.records]
        caplog.clear()
        want = list(reference.read_client(root))
        want_lines = [r.getMessage() for r in caplog.records]
    assert got == want
    assert [rel_file for _rel_dir, rel_file, _path in walk_go_files(root)] == [f.rel_file for f in want]
    assert got_lines == want_lines and all(line.startswith("skipping client file") for line in got_lines)

    reports, usages = [], []
    for files in (got, want):
        checkout = ClientCheckout(root, "example.com/c")
        checkout.files = files  # the read to share, as the checkout's first scan would keep it
        reports.append(ScanReport())
        usages.append(scan_client(checkout, _nodes(), reports[-1]))
    assert reports[0] == reports[1] and usages[0] == usages[1]
    assert usages[0] and reports[0].scanned


def test_what_each_walk_finds_in_the_trees(tmp_path):
    """The trees hold what the differential tests are meant to cover."""
    roots = {name: _tree(tmp_path / str(i), name) for i, name in enumerate(sorted(TREES))}
    assert [f for _d, f, _p in walk_go_files(roots["symlinks"])] == ["a.go", "link.go", "real/r.go"]
    failed = ScanReport()
    scan_client(ClientCheckout(roots["broken symlinks and loops"]), _nodes(), report=failed)
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


def test_read_go_file_follows_symlinks_to_regular_files_only(tmp_path):
    write_tree(tmp_path, {"a.go": "package a\r\n"})
    os.symlink(tmp_path / "a.go", tmp_path / "link.go")
    os.symlink(tmp_path / "missing.go", tmp_path / "dangling.go")
    os.symlink(os.devnull, tmp_path / "null.go")
    assert read_go_file(str(tmp_path / "link.go")) == "package a\n"  # newlines translated, as open() reads
    with pytest.raises(FileNotFoundError):
        read_go_file(str(tmp_path / "dangling.go"))
    null = str(tmp_path / "null.go")
    with pytest.raises(OSError) as refused:
        read_go_file(null)
    assert str(refused.value) == f"[Errno 22] not a regular file: '{null}'"


# Extracts the surface of argv[1] and scans the client argv[2]; the log lines
# go to stderr, one message a line.
_READ_SPECIAL_FILES = """
import json, sys
from semverdiff.diff import ChangeRecord
from semverdiff.impact import BreakingNode, ClientCheckout, ScanReport, scan_client
from semverdiff.surface import extract_surface

surface = extract_surface(sys.argv[1], "example.com/m")
record = ChangeRecord("example.com/lib", "v1.0.0", "v1.1.0", "example.com/lib", "Old", "Function", "Remove", True, "")
report = ScanReport()
usages = scan_client(ClientCheckout(sys.argv[2]), [BreakingNode("example.com/lib", "Old", "Function", "Remove", record)], report)
print(json.dumps({
    "objects": {path: sorted(pkg.objects) for path, pkg in surface.packages.items()},
    "parse_failures": surface.parse_failures,
    "report": [report.scanned, report.skipped, report.failed],
    "usages": [(u.file, u.line) for u in usages],
}))
"""


def test_fifos_and_devices_are_refused_under_a_module_and_a_client(tmp_path):
    """A FIFO, a symlink to it and a symlink to the null device, each named
    x.go, are failures of their surface and their client, logged as any
    unreadable file is. They run in a process of their own, which a timeout
    stops if a FIFO is opened: the open would block for ever."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    roots = {}
    for kind in ("module", "client"):
        root = roots[kind] = write_tree(tmp_path / kind, {"a.go": _code("A")})
        os.mkfifo(root / "b.go")
        os.symlink(root / "b.go", root / "c.go")
        os.symlink(os.devnull, root / "null.go")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(semverdiff.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", _READ_SPECIAL_FILES, str(roots["module"]), str(roots["client"])]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60, check=True)

    mod, client = roots["module"], roots["client"]
    assert json.loads(proc.stdout) == {
        "objects": {"example.com/m": ["A"]},
        "parse_failures": [
            ["b.go", f"[Errno 22] not a regular file: '{mod}/b.go'"],
            ["c.go", f"[Errno 22] not a regular file: '{mod}/c.go'"],
            ["null.go", f"[Errno 22] not a regular file: '{mod}/null.go'"],
        ],
        "report": [["a.go"], [], ["b.go", "c.go", "null.go"]],
        "usages": [["a.go", 5]],
    }
    assert proc.stderr.splitlines() == [
        f"parse failure in {mod}/b.go: [Errno 22] not a regular file: '{mod}/b.go'",
        f"parse failure in {mod}/c.go: [Errno 22] not a regular file: '{mod}/c.go'",
        f"parse failure in {mod}/null.go: [Errno 22] not a regular file: '{mod}/null.go'",
        f"skipping client file {client}/b.go: [Errno 22] not a regular file: '{client}/b.go'",
        f"skipping client file {client}/c.go: [Errno 22] not a regular file: '{client}/c.go'",
        f"skipping client file {client}/null.go: [Errno 22] not a regular file: '{client}/null.go'",
    ]
