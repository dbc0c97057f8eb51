"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from collections import Counter

import impact_fixtures as impact_fx
import planted_corpus as pc
import semverdiff.impact as impact_module
from catalogue_fixtures import FIXTURES
from conftest import write_module, write_tree
from oracles import percent_oracle, textual_search_oracle
from semverdiff.corpus import (
    aggregate_upgrade_stats,
    condition_table,
    percent_display,
    time_series,
    upgrade_stats_rows,
)
from semverdiff.diff import (
    ADD_CONDITION,
    CATALOGUE,
    check_compliance,
    diff_surfaces,
    records_to_text,
)
from semverdiff.impact import ClientCheckout, ScanReport, analyze_impact, collect_breaking_nodes, scan_client
from semverdiff.surface import FILTERED_LAYOUT_DIRS, extract_surface
from semverdiff.versions import (
    SemanticVersion,
    UpgradeLevel,
    classify_upgrade,
    compare_versions,
    parse_version,
)


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
            return result

        return wrapper

    return decorate


def _fixture_surfaces(catalogue_corpus):
    out = []
    for fixture, old_dir, new_dir in catalogue_corpus.values():
        old = extract_surface(old_dir, fixture.module_path, parse_version("v1.0.0"))
        new = extract_surface(new_dir, fixture.module_path, parse_version("v1.1.0"))
        out.append((fixture, old, new))
    return out


@criterion(1, "catalogue-completeness")
def test_catalogue_completeness(catalogue_corpus):
    started = time.perf_counter()
    seen_conditions = set()
    for fixture, old, new in _fixture_surfaces(catalogue_corpus):
        records = diff_surfaces(old, new)
        got = sorted((r.category, r.condition, r.node) for r in records)
        assert got == sorted(fixture.expected), fixture.index
        seen_conditions.update((c, k) for c, k, _ in fixture.expected)
    assert seen_conditions == set(CATALOGUE)
    assert len(FIXTURES) == 40
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"catalogue suite took {elapsed:.2f}s"


@criterion(2, "fig2-replication")
def test_fig2_replication(tmp_path):
    module = "github.com/pinpoint-apm/pinpoint-go-agent"

    def agent(param):
        return {
            "protobuf/agent.go": (
                "package protobuf\n\n"
                'import "google.golang.org/grpc"\n\n'
                "type AgentClient interface{}\n\n"
                f"func NewAgentClient(cc {param}) AgentClient {{ return nil }}\n"
            )
        }

    old_dir = write_module(tmp_path / "old", module, agent("grpc.ClientConnInterface"))
    new_dir = write_module(tmp_path / "new", module, agent("*grpc.ClientConn"))
    old = extract_surface(old_dir, module, parse_version("v1.1.3"))
    new = extract_surface(new_dir, module, parse_version("v1.2.0"))
    records = diff_surfaces(old, new)
    assert len(records) == 1
    block = records_to_text(records)
    assert block.splitlines() == [
        "Module: github.com/pinpoint-apm/pinpoint-go-agent",
        "Library Upgrade: v1.1.3 -> v1.2.0, Minor Upgrade",
        "Package: github.com/pinpoint-apm/pinpoint-go-agent/protobuf",
        "Change Node: NewAgentClient",
        "Change Category: Function",
        "Change Condition: Param Change",
        "Change Message: func(google.golang.org/grpc.ClientConnInterface) AgentClient"
        " -> func(*google.golang.org/grpc.ClientConn) AgentClient",
    ]
    level = classify_upgrade(parse_version("v1.1.3"), parse_version("v1.2.0"))
    assert level is UpgradeLevel.MINOR
    assert not check_compliance(level, records).compliant


def _random_version(rng: random.Random) -> SemanticVersion:
    def idents(n):
        out = []
        for _ in range(n):
            if rng.random() < 0.5:
                out.append(str(rng.randint(0, 40)))
            else:
                out.append(rng.choice(["alpha", "beta", "rc", "x-y", "SNAPSHOT"]))
        return tuple(out)

    return SemanticVersion(
        major=rng.randint(0, 30),
        minor=rng.randint(0, 30),
        patch=rng.randint(0, 30),
        prerelease=idents(rng.randint(1, 3)) if rng.random() < 0.4 else (),
        build=idents(rng.randint(1, 2)) if rng.random() < 0.3 else (),
    )


@criterion(3, "semver-property-suite")
def test_semver_property_suite():
    rng = random.Random(0x5EAC0DE)
    pool = [_random_version(rng) for _ in range(10_000)]

    for v in pool:
        parsed = parse_version(v.render())
        assert (parsed.major, parsed.minor, parsed.patch) == (v.major, v.minor, v.patch)
        assert parsed.prerelease == v.prerelease
        assert parsed.build == v.build
        # Build metadata never affects precedence.
        stripped = SemanticVersion(v.major, v.minor, v.patch, v.prerelease, ())
        assert compare_versions(v, stripped) == 0
        # A pre-release precedes its release.
        if v.prerelease:
            release = SemanticVersion(v.major, v.minor, v.patch)
            assert compare_versions(v, release) == -1

    for _ in range(10_000):
        a, b = rng.choice(pool), rng.choice(pool)
        cmp_ab = compare_versions(a, b)
        assert cmp_ab in (-1, 0, 1)
        assert cmp_ab == -compare_versions(b, a)

    for _ in range(10_000):
        x, y, z = sorted(rng.sample(pool, 3))
        assert compare_versions(x, y) <= 0
        assert compare_versions(y, z) <= 0
        assert compare_versions(x, z) <= 0


@criterion(4, "layout-filter-soundness")
def test_layout_filter_soundness(tmp_path):
    module = "example.com/layout"
    breaking_src = "package inner\n\nfunc Gone() {}\n"
    for dirname in sorted(FILTERED_LAYOUT_DIRS):
        old_dir = write_module(
            tmp_path / dirname / "old",
            module,
            {"lib.go": "package lib\n", f"{dirname}/inner.go": breaking_src},
        )
        new_dir = write_module(
            tmp_path / dirname / "new",
            module,
            {"lib.go": "package lib\n", f"{dirname}/inner.go": "package inner\n"},
        )
        old = extract_surface(old_dir, module)
        new = extract_surface(new_dir, module)
        assert diff_surfaces(old, new) == [], dirname

    old_dir = write_module(
        tmp_path / "control" / "old",
        module,
        {"lib.go": "package lib\n", "pkg/inner.go": breaking_src},
    )
    new_dir = write_module(
        tmp_path / "control" / "new",
        module,
        {"lib.go": "package lib\n", "pkg/inner.go": "package inner\n"},
    )
    records = diff_surfaces(extract_surface(old_dir, module), extract_surface(new_dir, module))
    assert len(records) == 1
    assert (records[0].category, records[0].condition) == ("Function", "Remove")


@criterion(5, "diff-metamorphic-suite")
def test_diff_metamorphic_suite(catalogue_corpus):
    surfaces = _fixture_surfaces(catalogue_corpus)
    for _fixture, old, new in surfaces:
        assert diff_surfaces(old, old) == []
        assert diff_surfaces(new, new) == []

    for _fixture, old, new in surfaces:
        forward = diff_surfaces(old, new)
        backward = diff_surfaces(new, old)
        fwd_removed = {
            (r.package, r.node)
            for r in forward
            if r.condition == "Remove" and r.category != "TypeParam"
        }
        bwd_removed = {
            (r.package, r.node)
            for r in backward
            if r.condition == "Remove" and r.category != "TypeParam"
        }
        bwd_added = {(r.package, r.node) for r in backward if r.condition == ADD_CONDITION}
        fwd_added = {(r.package, r.node) for r in forward if r.condition == ADD_CONDITION}
        assert fwd_removed <= bwd_added
        assert bwd_removed <= fwd_added

    rerun = _fixture_surfaces(catalogue_corpus)
    for (_fixture, old, new), (_, old_again, new_again) in zip(surfaces, rerun):
        assert diff_surfaces(old, new) == diff_surfaces(old_again, new_again)


@criterion(6, "impact-oracle-equivalence")
def test_impact_oracle_equivalence(tmp_path, monkeypatch):
    lib_root = tmp_path / "brklib"
    old_dir = write_module(lib_root / "v1.0.0", impact_fx.LIBRARY_MODULE, impact_fx.LIBRARY_OLD)
    new_dir = write_module(lib_root / "v1.1.0", impact_fx.LIBRARY_MODULE, impact_fx.LIBRARY_NEW)
    old = extract_surface(old_dir, impact_fx.LIBRARY_MODULE, parse_version("v1.0.0"))
    new = extract_surface(new_dir, impact_fx.LIBRARY_MODULE, parse_version("v1.1.0"))
    records = diff_surfaces(old, new)
    nodes = collect_breaking_nodes(records, old_surface=old)

    client_roots = {
        name: write_tree(tmp_path / "clients" / name, files)
        for name, files in impact_fx.CLIENTS.items()
    }

    result = analyze_impact(records, [client_roots[n] for n in sorted(client_roots)], old_surface=old)
    got = sorted(
        (u.client_module.rsplit("/", 1)[-1], u.file, u.line, u.qualified_name, u.node.key)
        for u in result.usages
    )
    expected = sorted(
        (name, *hit)
        for name in sorted(client_roots)
        for hit in textual_search_oracle(client_roots[name], nodes)
    )
    assert got == expected

    # The p(b) and p(c) disjointness test short-circuits before tokenizing.
    calls = []
    real = impact_module.tokenize

    def spy(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(impact_module, "tokenize", spy)
    for name in impact_fx.SKIPPED_CLIENTS:
        report = ScanReport()
        assert scan_client(ClientCheckout(client_roots[name]), nodes, report=report) == []
        assert report.scanned == []
        assert report.skipped == ["main.go"]
    assert calls == []


@criterion(7, "planted-corpus-statistics")
def test_planted_corpus_statistics(planted_analysis):
    totals: Counter = Counter()
    breaking: Counter = Counter()
    for _path, v in pc.counted_upgrades():
        totals[v.level] += 1
        breaking[v.level] += int(v.breaking)
    totals["Non-Major"] = totals["Minor"] + totals["Patch"]
    breaking["Non-Major"] = breaking["Minor"] + breaking["Patch"]
    grand = sum(totals[k] for k in ("Major", "Minor", "Patch", "Development"))
    totals["Total"] = grand
    breaking["Total"] = sum(breaking[k] for k in ("Major", "Minor", "Patch", "Development"))

    assert (totals["Minor"], breaking["Minor"]) == (10, 3)  # 30.0% minor by construction

    rows = upgrade_stats_rows(aggregate_upgrade_stats(planted_analysis.upgrades))
    for label, total, total_pct, brk, brk_pct in rows:
        assert int(total) == totals[label], label
        assert int(brk) == breaking[label], label
        assert total_pct == percent_oracle(totals[label], grand)
        assert brk_pct == percent_oracle(breaking[label], totals[label])

    b_expected: Counter = Counter()
    for _path, v in pc.counted_upgrades():
        for category, cond, _node in v.planted:
            b_expected[(category, cond)] += 1
    used_expected = Counter((cat, cond) for cat, cond, _c, _n in pc.EXPECTED_USED)
    total_b = sum(b_expected.values())
    total_u = sum(used_expected.values())
    for row in condition_table([(u.records, u.usages) for u in planted_analysis.upgrades]):
        if row["category"] == "Total":
            assert row["breaking"] == total_b and row["usage"] == total_u
            continue
        key = (row["category"], row["condition"])
        assert row["breaking"] == b_expected[key], key
        assert row["usage"] == used_expected[key], key
        assert row["affected"] == used_expected[key], key
        assert row["breaking_pct"] == percent_oracle(b_expected[key], total_b)
        assert row["usage_per_breaking_pct"] == percent_oracle(used_expected[key], b_expected[key])

    points = time_series(planted_analysis.upgrades)
    bucket_expected: dict[tuple[str, str], list[int]] = {}
    for _path, v in pc.counted_upgrades():
        labels = (v.level, "Non-Major") if v.level in ("Minor", "Patch") else (v.level,)
        for label in labels:
            cell = bucket_expected.setdefault((v.released[:7], label), [0, 0])
            cell[0] += 1
            cell[1] += int(v.breaking)
    got_buckets = {(f"{p.year:04d}-{p.month:02d}", p.level): [p.total, p.breaking] for p in points}
    assert got_buckets == bucket_expected

    stats = aggregate_upgrade_stats(planted_analysis.upgrades)
    monthly_sums: Counter = Counter()
    for p in points:
        monthly_sums[p.level] += p.total
    for label in ("Major", "Minor", "Patch", "Development", "Non-Major"):
        assert monthly_sums[label] == stats.levels[label].total, label


@criterion(8, "rate-arithmetic-spot-checks")
def test_rate_arithmetic_spot_checks():
    assert percent_display(1147, 1926) == "59.6"
    assert percent_display(165, 4132) == "4.0"


def _synthetic_module(n_objects: int, changed: frozenset[int]) -> dict[str, str]:
    lines = ["package big", ""]
    for i in range(n_objects):
        typ = "string" if i in changed else "int"
        lines.append(f"func Op{i:04d}(x {typ}) {typ} {{ return x }}")
        lines.append("")
    return {"lib.go": "\n".join(lines)}


@criterion(9, "performance")
def test_performance(tmp_path, catalogue_corpus, planted_root):
    module = "example.com/big"
    old_dir = write_module(tmp_path / "old", module, _synthetic_module(1000, frozenset()))
    new_dir = write_module(tmp_path / "new", module, _synthetic_module(1000, frozenset(range(0, 1000, 100))))

    started = time.perf_counter()
    old = extract_surface(old_dir, module, parse_version("v1.0.0"))
    new = extract_surface(new_dir, module, parse_version("v1.1.0"))
    records = diff_surfaces(old, new)
    elapsed = time.perf_counter() - started
    assert len(old.packages[module].objects) == 1000
    assert sum(1 for r in records if r.breaking) == 20  # param and return per change
    assert elapsed < 1.0, f"1,000-object diff took {elapsed:.2f}s"

    from semverdiff.corpus import analyze_corpus, write_reports

    started = time.perf_counter()
    for fixture, old_dir, new_dir in catalogue_corpus.values():
        fixture_old = extract_surface(old_dir, fixture.module_path, parse_version("v1.0.0"))
        fixture_new = extract_surface(new_dir, fixture.module_path, parse_version("v1.1.0"))
        diff_surfaces(fixture_old, fixture_new)
    analysis = analyze_corpus(planted_root)
    write_reports(analysis, tmp_path / "reports")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"fixture pipeline plus report took {elapsed:.2f}s"
