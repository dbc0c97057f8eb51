from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from semverdiff.manifest import (
    MalformedManifest,
    extract_edges,
    parse_manifest,
)
from semverdiff.versions import parse_version

SIMPLE = "module example.com/a\n\ngo 1.19\n\nrequire example.com/b v1.2.0\n"

BLOCK = """module example.com/a

go 1.19

require (
	example.com/b v1.2.0
	example.com/c v0.9.0 // indirect
	example.com/d v2.0.0
)

replace example.com/b => ../b

exclude example.com/d v1.9.9
"""


def test_single_line_require():
    m = parse_manifest(SIMPLE)
    assert m.module_path == "example.com/a"
    assert m.language_version == "1.19"
    assert len(m.requires) == 1
    assert m.requires[0].path == "example.com/b"
    assert m.requires[0].version == "v1.2.0"
    assert not m.requires[0].indirect


def test_block_form_and_indirect_marker():
    m = parse_manifest(BLOCK)
    by_path = {r.path: r for r in m.requires}
    assert set(by_path) == {"example.com/b", "example.com/c", "example.com/d"}
    assert by_path["example.com/c"].indirect
    assert not by_path["example.com/b"].indirect


def test_replace_and_exclude_are_opaque():
    m = parse_manifest(BLOCK)
    assert any(line.startswith("replace") for line in m.opaque_directives)
    assert any(line.startswith("exclude") for line in m.opaque_directives)


def test_missing_module_directive():
    with pytest.raises(MalformedManifest):
        parse_manifest("go 1.19\n\nrequire example.com/b v1.0.0\n")


def test_unbalanced_block():
    with pytest.raises(MalformedManifest):
        parse_manifest("module example.com/a\n\nrequire (\n\texample.com/b v1.0.0\n")


def test_comment_and_whitespace_insensitivity():
    noisy = (
        "  module   example.com/a   // the module\n"
        "\n"
        "require (\n"
        "\n"
        "\texample.com/b   v1.2.0   // pinned\n"
        ")\n"
    )
    m = parse_manifest(noisy)
    assert m.module_path == "example.com/a"
    assert m.requires[0].path == "example.com/b"
    assert not m.requires[0].indirect


def test_quoted_path_with_indirect_marker():
    m = parse_manifest('module "example.com/a"\n\nrequire "example.com/b" v1.0.0 // indirect\n')
    assert m.module_path == "example.com/a"
    (req,) = m.requires
    assert (req.path, req.version, req.indirect) == ("example.com/b", "v1.0.0", True)


def test_comment_marker_inside_a_quoted_path_is_text():
    m = parse_manifest('module example.com/a\n\nrequire "example.com//b" v1.0.0\n')
    assert m.requires[0].path == "example.com//b"


@pytest.mark.parametrize("entry", ["require a", "require (\n\ta\n)", "require a v1.0.0 extra"])
def test_malformed_require_entry(entry):
    with pytest.raises(MalformedManifest, match="^bad require entry: 'a"):
        parse_manifest(f"module example.com/a\n\n{entry}\n")


def test_replace_block_is_opaque():
    m = parse_manifest("module example.com/a\n\nreplace (\n\texample.com/b => ../b\n)\n")
    assert m.opaque_directives == ["replace example.com/b => ../b"]
    assert m.requires == []


def test_module_directive_without_a_path():
    with pytest.raises(MalformedManifest, match="^line 2: module directive without a path$"):
        parse_manifest("go 1.19\nmodule\n")


def test_self_requirement_dropped_and_duplicates_merged():
    text = (
        "module example.com/a\n"
        "require example.com/a v1.0.0\n"
        "require example.com/b v1.0.0\n"
        "require example.com/b v1.1.0\n"
    )
    m = parse_manifest(text)
    assert len(m.requires) == 1
    assert m.requires[0].version == "v1.1.0"


def test_extract_edges_skips_indirect():
    m = parse_manifest(BLOCK)
    edges = extract_edges(m, parse_version("v1.0.0"))
    assert len(edges) == 2
    assert all(e.source_path == "example.com/a" for e in edges)
    assert {e.target_path for e in edges} == {"example.com/b", "example.com/d"}


def test_extract_edges_empty():
    m = parse_manifest("module example.com/a\n")
    assert extract_edges(m, parse_version("v1.0.0")) == []


def test_extract_edges_parses_target_version():
    m = parse_manifest(SIMPLE)
    (edge,) = extract_edges(m, parse_version("v1.0.0"))
    assert edge.target_version == parse_version("1.2.0")
    assert edge.target_version_raw == "v1.2.0"


def test_extract_edges_keeps_unparsed_target():
    m = parse_manifest("module example.com/a\nrequire example.com/b banana\n")
    (edge,) = extract_edges(m, parse_version("v1.0.0"))
    assert edge.target_version is None
    assert edge.target_version_raw == "banana"


_req_path = st.sampled_from(["example.com/b", "example.com/c", "golang.org/x/tools"])
_req_version = st.sampled_from(["v1.2.0", "v0.9.0", "v2.0.0+incompatible"])
_pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _noisy_manifests(draw):
    reqs = draw(
        st.lists(
            st.tuples(_req_path, _req_version, st.booleans()),
            max_size=3,
            unique_by=lambda t: t[0],
        )
    )
    lines = [f"{draw(_pad)}module{draw(_pad)} example.com/a{draw(_pad)}"]
    if draw(st.booleans()):
        lines.append("")
    if draw(st.booleans()):
        lines.append(f"go 1.19{draw(_pad)}// toolchain note")
    block = draw(st.booleans())
    if block:
        lines.append(f"require ({draw(_pad)}")
    for path, version, indirect in reqs:
        marker = " // indirect" if indirect else draw(st.sampled_from(["", " // pinned"]))
        prefix = draw(_pad) if block else "require "
        lines.append(f"{prefix}{path}{draw(st.sampled_from([' ', '  ', chr(9)]))}{version}{marker}")
        if draw(st.booleans()):
            lines.append(f"{draw(_pad)}// comment line")
    if block:
        lines.append(")")
    return "\n".join(lines) + "\n", reqs


@given(_noisy_manifests())
def test_formatting_mutations_preserve_output(case):
    text, reqs = case
    m = parse_manifest(text)
    assert m.module_path == "example.com/a"
    got = {(r.path, r.version, r.indirect) for r in m.requires}
    assert got == set(reqs)
