"""`analyze_corpus` scans each client checkout once per run.

The shared scan must give what one scan per breaking upgrade gave
(`corpus_reference`), usage order and report bytes included, while each
client checkout is walked once, each of its .go files bound once and lexed
for selectors at most once, and each failing file logged once.
"""

from __future__ import annotations

import importlib
import json
import logging
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import corpus_reference as reference
import semverdiff.impact as impact_module
from conftest import write_tree
from semverdiff.corpus import analyze_corpus, write_reports
from semverdiff.surface import go_build_ignores
from semverdiff.versions import NON_MAJOR_LEVELS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_LIBS = {"lib-a": "example.com/a", "lib-b": "example.com/b"}


def _two_library_corpus(root: Path) -> Path:
    """Two libraries whose minor upgrades both break, and a client that pins
    both old versions, with a file that fails to lex and a _test.go file."""
    for dir_id, path in _LIBS.items():
        pkg = path.rsplit("/", 1)[1]
        for i, (tag, funcs) in enumerate((("v1.0.0", ("Old", "Keep")), ("v1.1.0", ("Keep",)))):
            body = "".join(f"\nfunc {name}() {{}}\n" for name in funcs)
            write_tree(
                root / dir_id / tag,
                {
                    "go.mod": f"module {path}\n\ngo 1.19\n",
                    "lib.go": f"package {pkg}\n{body}",
                    "meta.json": json.dumps({"module_path": path, "version": tag, "released_at": f"2021-0{i + 1}-10"}),
                },
            )
    for i, tag in enumerate(("v1.0.0", "v1.1.0")):
        write_tree(
            root / "client" / tag,
            {
                "go.mod": f"module example.com/client\n\ngo 1.19\n\nrequire example.com/a {tag}\nrequire example.com/b {tag}\n",
                "main.go": 'package client\n\nimport (\n\t"example.com/a"\n\t"example.com/b"\n)\n\n'
                "func Run() {\n\ta.Old()\n\tb.Keep()\n\tb.Old()\n}\n",
                "broken.go": 'package client\n\nimport "example.com/a"\n\nfunc Broken() { a.Old() @ }\n',
                "main_test.go": 'package client\n\nimport "example.com/b"\n\nfunc TestRun() { b.Old() }\n',
                "util/util.go": "package util\n\nfunc Help() {}\n",
                "meta.json": json.dumps(
                    {"module_path": "example.com/client", "version": tag, "released_at": f"2021-0{i + 3}-10"}
                ),
            },
        )
    return root


def _assert_matches_reference(root: Path, out: Path) -> list:
    """The analysis of root, after checking that its usages and report files
    equal the per-upgrade reference's."""
    got, want = analyze_corpus(root), reference.analyze_corpus(root)
    assert [(u.module_path, u.from_entry.node_key, u.to_entry.node_key) for u in got.upgrades] == [
        (u.module_path, u.from_entry.node_key, u.to_entry.node_key) for u in want.upgrades
    ]
    assert [u.usages for u in got.upgrades] == [u.usages for u in want.upgrades]
    got_paths, want_paths = write_reports(got, out / "got"), write_reports(want, out / "want")
    assert [p.read_bytes() for p in got_paths] == [p.read_bytes() for p in want_paths]
    return got.upgrades


class TestAgainstPerUpgradeScans:
    def test_planted_corpus(self, planted_root, tmp_path):
        upgrades = _assert_matches_reference(planted_root, tmp_path)
        assert any(u.usages for u in upgrades)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_corpora(self, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        truth = gen.generate("corpus-report", seed, tmp_path / "in")
        for i, op in enumerate(truth["ops"]):
            upgrades = _assert_matches_reference(tmp_path / "in" / op["corpus"], tmp_path / f"out{i}")
            assert any(u.usages for u in upgrades)

    def test_client_pinned_by_two_libraries(self, tmp_path):
        upgrades = _assert_matches_reference(_two_library_corpus(tmp_path / "corpus"), tmp_path)
        usages = [(u.node.package, u.file, u.qualified_name) for upgrade in upgrades for u in upgrade.usages]
        assert usages == [
            ("example.com/a", "main.go", "a.Old"),
            ("example.com/b", "main.go", "b.Old"),
            ("example.com/b", "main_test.go", "b.Old"),
        ]


def test_a_failing_client_file_is_logged_once_per_run(tmp_path, caplog):
    root = _two_library_corpus(tmp_path / "corpus")
    with caplog.at_level(logging.WARNING, logger=impact_module.__name__):
        analysis = analyze_corpus(root)
    assert sum(bool(u.usages) for u in analysis.upgrades) == 2
    skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping client file")]
    assert len(skipped) == 1 and "broken.go" in skipped[0]


@pytest.mark.parametrize("corpus", ["planted", "two libraries"])
def test_each_client_checkout_is_walked_bound_and_lexed_once(corpus, planted_root, tmp_path, monkeypatch):
    """One walk per pinned client checkout, one bind_imports call per .go
    file in it, and at most one selector scan per file, only for a file
    whose imports meet a breaking package that some scan of its checkout
    looked for."""
    root = planted_root if corpus == "planted" else _two_library_corpus(tmp_path / "corpus")
    walked: list[Path] = []
    binds: Counter = Counter()
    bound: dict[int, tuple[Path, object, str]] = {}  # id(text) -> (checkout, binding, text kept alive)
    lexed: Counter = Counter()
    scans: Counter = Counter()
    looked_for: dict[Path, set[str]] = {}
    real_walk, real_bind = impact_module.os.walk, impact_module.bind_imports
    real_tokenize, real_scan = impact_module.tokenize, impact_module.scan_client

    def walk(top):
        walked.append(Path(top))
        return real_walk(top)

    def bind(text, file=""):
        binds[(walked[-1], file)] += 1
        binding = real_bind(text, file)
        bound[id(text)] = (walked[-1], binding, text)
        return binding

    def tokenize(text):
        lexed[id(text)] += 1
        return real_tokenize(text)

    def scan(client, nodes, *args, **kwargs):
        scans[client.root] += 1
        looked_for.setdefault(client.root, set()).update(node.package for node in nodes)
        return real_scan(client, nodes, *args, **kwargs)

    monkeypatch.setattr(impact_module, "os", SimpleNamespace(walk=walk))
    monkeypatch.setattr(impact_module, "bind_imports", bind)
    monkeypatch.setattr(impact_module, "tokenize", tokenize)
    monkeypatch.setattr(impact_module, "scan_client", scan)
    analysis = analyze_corpus(root)

    entry_by_key = {e.node_key: e for e in analysis.entries if e.is_valid}
    pinned = {
        entry_by_key[src].checkout_dir
        for u in analysis.upgrades
        if u.level in NON_MAJOR_LEVELS and u.breaking
        for src, dst in analysis.graph.edges
        if dst == u.from_entry.node_key
    }
    assert sorted(walked) == sorted(pinned)
    assert max(scans.values()) > 1  # some checkout is scanned for several upgrades
    go_files = {
        (checkout, path.relative_to(checkout).as_posix())
        for checkout in pinned
        for path in checkout.rglob("*.go")
        if not any(go_build_ignores(part) for part in path.relative_to(checkout).parts)
    }
    assert binds == Counter(dict.fromkeys(go_files, 1))
    assert lexed and set(lexed.values()) == {1}
    for text_id in lexed:
        checkout, binding, _text = bound[text_id]
        assert not binding.package_paths.isdisjoint(looked_for[checkout])
    if corpus == "two libraries":  # util/util.go imports nothing, broken.go fails to lex
        assert len(lexed) == len(bound) - 1 == len(binds) - 2
