"""SemanticVersion as a value: its repr, equality, hash and order all come
from the one stored precedence key, and it compares with nothing else."""

from __future__ import annotations

import pytest

from semverdiff.versions import InvalidVersion, SemanticVersion, compare_versions, parse_version, sort_and_pair


def test_repr_shows_the_parsed_fields_only():
    assert repr(parse_version("v1.2.3-rc.1+b5")) == (
        "SemanticVersion(major=1, minor=2, patch=3, prerelease=('rc', '1'), build=('b5',), raw='v1.2.3-rc.1+b5')"
    )


def test_precedence_is_computed_once_at_construction():
    v = SemanticVersion(1, 2, 3, ("rc", "10"))
    assert v.precedence == (1, 2, 3, False, ((1, 0, "rc"), (0, 10, "")))
    assert SemanticVersion(1, 2, 3).precedence == (1, 2, 3, True, ())
    with pytest.raises(TypeError):
        SemanticVersion(1, 2, 3, precedence=())


def test_build_and_raw_take_no_part_in_equality_or_hash():
    a, b = parse_version("v1.0.0+one"), parse_version("1.0.0+two")
    assert a == b and hash(a) == hash(b) and not a < b and compare_versions(a, b) == 0
    assert sort_and_pair([a, b, parse_version("v1.0.1")]) == [(a, parse_version("v1.0.1"))]


@pytest.mark.parametrize("other", ["v1.0.0", (1, 0, 0, True, ()), None])
def test_compares_with_no_other_type(other):
    v = parse_version("v1.0.0")
    assert v != other and not v == other
    with pytest.raises(TypeError):
        v < other  # noqa: B015


@pytest.mark.parametrize("text", [None, 1, b"v1.0.0"])
def test_a_version_that_is_no_string_is_invalid(text):
    with pytest.raises(InvalidVersion, match=f"^version must be a string, got {type(text).__name__}$"):
        parse_version(text)
