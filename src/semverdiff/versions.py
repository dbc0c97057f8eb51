"""Semantic version parsing, precedence ordering, and upgrade classification.

Versions follow the major.minor.patch[-prerelease][+build] grammar, with an
optional leading "v" as used by module tags. Build metadata never takes part
in precedence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class InvalidVersion(ValueError):
    """The text is not a valid semantic version and must be excluded from analysis."""


class NotAnUpgrade(ValueError):
    """The (from, to) pair is not strictly ascending."""


_NUM = r"0|[1-9]\d*"
_IDENT = r"[0-9A-Za-z-]+"
_VERSION_RE = re.compile(
    rf"(?P<major>{_NUM})\.(?P<minor>{_NUM})\.(?P<patch>{_NUM})"
    rf"(?:-(?P<prerelease>{_IDENT}(?:\.{_IDENT})*))?"
    rf"(?:\+(?P<build>{_IDENT}(?:\.{_IDENT})*))?$"
)

# Components larger than a 64-bit tag counter are junk tags, not versions.
_MAX_COMPONENT = 2**63 - 1


class UpgradeLevel(Enum):
    MAJOR = "Major"
    MINOR = "Minor"
    PATCH = "Patch"
    DEVELOPMENT = "Development"
    PRERELEASE_BUILD = "Pre-release/Build"

    @property
    def label(self) -> str:
        return self.value


# Derived grouping: minor and patch upgrades promise full compatibility.
NON_MAJOR_LEVELS = frozenset({UpgradeLevel.MINOR, UpgradeLevel.PATCH})


@dataclass(frozen=True, order=True, slots=True)
class SemanticVersion:
    major: int = field(compare=False)
    minor: int = field(compare=False)
    patch: int = field(compare=False)
    prerelease: tuple[str, ...] = field(default=(), compare=False)
    build: tuple[str, ...] = field(default=(), compare=False)
    raw: str = field(default="", compare=False)
    # SemVer precedence, the only field compared and hashed: a release
    # outranks any of its pre-releases; identifiers compare numerically when
    # numeric, and numeric sorts before alphanumeric.
    precedence: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pre = tuple((0, int(i), "") if i.isdigit() else (1, 0, i) for i in self.prerelease)
        object.__setattr__(self, "precedence", (self.major, self.minor, self.patch, not self.prerelease, pre))

    def render(self) -> str:
        """Canonical text without the optional "v" prefix."""
        out = f"{self.major}.{self.minor}.{self.patch}"
        if self.prerelease:
            out += "-" + ".".join(self.prerelease)
        if self.build:
            out += "+" + ".".join(self.build)
        return out

    def __str__(self) -> str:
        return self.raw or self.render()


def parse_version(text: str) -> SemanticVersion:
    """Parse a version tag, accepting an optional leading "v"."""
    if not isinstance(text, str):
        raise InvalidVersion(f"version must be a string, got {type(text).__name__}")
    raw = text.strip()
    body = raw
    if body.startswith("v"):
        body = body[1:]
    match = _VERSION_RE.fullmatch(body)
    if not match:
        raise InvalidVersion(f"invalid semantic version: {text!r}")

    parts = []
    for name in ("major", "minor", "patch"):
        value = int(match.group(name))
        if value > _MAX_COMPONENT:
            raise InvalidVersion(f"version component overflows in {text!r}")
        parts.append(value)

    prerelease = tuple((match.group("prerelease") or "").split(".")) if match.group("prerelease") else ()
    for ident in prerelease:
        if ident.isdigit() and len(ident) > 1 and ident[0] == "0":
            raise InvalidVersion(f"leading zero in pre-release identifier of {text!r}")
    build = tuple((match.group("build") or "").split(".")) if match.group("build") else ()

    return SemanticVersion(parts[0], parts[1], parts[2], prerelease, build, raw=raw)


def compare_versions(a: SemanticVersion, b: SemanticVersion) -> int:
    """Return -1, 0, or 1 by SemVer precedence. Build metadata is ignored."""
    return (a.precedence > b.precedence) - (a.precedence < b.precedence)


def classify_upgrade(from_version: SemanticVersion, to_version: SemanticVersion) -> UpgradeLevel:
    """Classify a strictly ascending version pair into one of the five levels.

    Pre-release/build endpoints are carved out first, then the initial
    development stage (target major 0), then the highest differing component.
    """
    if compare_versions(from_version, to_version) >= 0:
        raise NotAnUpgrade(f"{from_version} -> {to_version} is not an upgrade")
    if from_version.prerelease or from_version.build or to_version.prerelease or to_version.build:
        return UpgradeLevel.PRERELEASE_BUILD
    if to_version.major == 0:
        return UpgradeLevel.DEVELOPMENT
    if from_version.major != to_version.major:
        return UpgradeLevel.MAJOR
    if from_version.minor != to_version.minor:
        return UpgradeLevel.MINOR
    return UpgradeLevel.PATCH


def sort_and_pair(versions: list[SemanticVersion]) -> list[tuple[SemanticVersion, SemanticVersion]]:
    """Sort versions by precedence and return the adjacent upgrade pairs.

    Versions equal under precedence (e.g. differing only in build metadata)
    collapse to the first occurrence.
    """
    deduped: dict[tuple, SemanticVersion] = {}
    for v in versions:
        deduped.setdefault(v.precedence, v)
    ordered = [deduped[key] for key in sorted(deduped)]
    return list(zip(ordered, ordered[1:]))
