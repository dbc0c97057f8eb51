"""The traced benchmark run wraps program functions by name; every name must still exist."""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import impact_fixtures as fx
from conftest import write_module
from semverdiff import corpus, impact, parser, surface

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    missing = [
        f"{namespace.__name__}.{attr}"
        for namespace, attr, _span, _count in tracing.PATCHES
        if not callable(getattr(namespace, attr, None))
    ]
    assert missing == []


def test_lexing_goes_through_the_traced_names(monkeypatch):
    """Import binding checks the file and lexes its header through one
    `parser.tokenize` call on the text, and matching finds selectors through
    one `impact.tokenize` call, so the traced run reports them as lexing and
    not as bind or match time. Declaration parsing makes no `parser.tokenize`
    call: it lexes its header and each chunk after it, finding lexical errors
    as it goes, under the traced parse."""
    calls = []

    def spy_on(real):
        def spy(*args, **kwargs):
            calls.append((len(args), kwargs))
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(parser, "tokenize", spy_on(parser.tokenize))
    monkeypatch.setattr(impact, "tokenize", spy_on(impact.tokenize))
    src = fx.CLIENTS["client-default"]["main.go"]

    parser.parse_go_file(src, "example.com/client")
    assert calls == []
    binding = impact.bind_imports(src, "main.go")
    assert calls == [(1, {})]
    calls.clear()
    impact._match_file(impact.ClientFile("main.go", src, binding), {}, "example.com/client", None)
    assert calls == [(1, {})]


def test_memo_hits_stay_under_the_traced_parse(monkeypatch, tmp_path):
    """Declarations are looked up in the memo inside
    `surface.parse_go_file`, which makes no `parser.tokenize` call, so a hit
    counts as parse time, and a module whose declarations all hit is parsed
    without parsing any of them."""
    files = {**fx.LIBRARY_OLD, "b.go": "package brklib\n\nconst C = 1\n", "sub/s.go": "package sub\n\nvar V struct{ A int }\n"}
    write_module(tmp_path, "example.com/lib", files)
    surface.extract_surface(tmp_path, "example.com/lib")
    parses, lexes = [], []

    def spy_on(real, calls):
        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(surface, "parse_go_file", spy_on(surface.parse_go_file, parses))
    monkeypatch.setattr(parser, "tokenize", spy_on(parser.tokenize, lexes))
    decls = []
    monkeypatch.setattr(parser._Parser, "_parse_decl", spy_on(parser._Parser._parse_decl, decls))
    surface.extract_surface(tmp_path, "example.com/lib")
    sources = sorted(files.values())
    assert sorted(parses) == sources and lexes == []
    assert decls == []
    # Every declaration hit: none is left in the previous generation.
    assert surface._DECLS.previous and not any(surface._DECLS.previous.values())


def test_report_calls_every_corpus_and_impact_traced_name(monkeypatch, planted_root, tmp_path):
    """`report` on the planted corpus calls each corpus- and impact-side name
    the traced run wraps, so none is left imported but dead with a span that
    reads 0. The one exception, `impact.parse_manifest`, names a client that
    comes with no id, which only the `impact` command does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    calls = Counter()

    def spy_on(real, name):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    names = set()
    for namespace, attr, _span, _count in tracing.PATCHES:
        if namespace in (corpus, impact):
            name = f"{namespace.__name__}.{attr}"
            names.add(name)
            monkeypatch.setattr(namespace, attr, spy_on(getattr(namespace, attr), name))
    analysis = corpus.analyze_corpus(planted_root)
    corpus.write_reports(analysis, tmp_path)
    assert set(calls) == names - {"semverdiff.impact.parse_manifest"}

    calls.clear()
    impact.analyze_impact([r for u in analysis.upgrades for r in u.records], [planted_root / "clientB" / "v1.0.0"])
    assert calls["semverdiff.impact.parse_manifest"] == 1
