"""Command-line front-end wiring the pipeline end to end.

Exit codes: 0 success, 1 breaking changes or usages found, 2 usage/input
error, 3 internal error. Machine-readable output goes to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .corpus import (
    LayoutError,
    analyze_corpus,
    build_graph,
    condition_table,
    ingest_corpus,
    persist_graph,
    validate_corpus,
    write_condition_stats_csv,
    write_reports,
)
from .diff import (
    ModuleMismatch,
    check_compliance,
    diff_surfaces,
    record_to_dict,
    records_to_ndjson,
    records_to_text,
    upgrade_line_label,
)
from .impact import analyze_impact, usage_to_dict
from .manifest import MANIFEST_NAME, MalformedManifest, parse_manifest
from .surface import SurfaceEmpty, extract_surface, surface_to_json
from .versions import (
    InvalidVersion,
    NotAnUpgrade,
    SemanticVersion,
    classify_upgrade,
    parse_version,
)

_INPUT_ERRORS = (
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    MalformedManifest,
    InvalidVersion,
    NotAnUpgrade,
    ModuleMismatch,
    SurfaceEmpty,
    LayoutError,
)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _module_path_of(module_dir: str) -> str:
    manifest_path = Path(module_dir) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise click.UsageError(f"{module_dir} has no {MANIFEST_NAME}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedManifest(f"{manifest_path} is not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_manifest(text).module_path


def _extract_dir(module_dir: str, version: SemanticVersion | None, exclude_dirs: tuple[str, ...]):
    module_path = _module_path_of(module_dir)
    return extract_surface(module_dir, module_path, version, extra_excluded_dirs=exclude_dirs)


_output_option = click.option("--output", "-o", "output", type=click.Path(dir_okay=False), default=None)
_exclude_option = click.option(
    "--exclude-dir",
    "exclude_dirs",
    multiple=True,
    help="Additional layout directories to filter from surfaces.",
)


@click.group()
def cli() -> None:
    """Detect API breaking changes and judge SemVer compliance of module upgrades."""


@cli.command("extract")
@click.argument("module_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--module-version", "version_tag", default=None, help="Version tag for the surface document.")
@_output_option
@_exclude_option
def extract_cmd(module_dir, version_tag, output, exclude_dirs) -> int:
    """Emit the exported API surface of one module checkout."""
    version = parse_version(version_tag) if version_tag else None
    surface = _extract_dir(module_dir, version, exclude_dirs)
    _emit(surface_to_json(surface), output)
    return 0


def _diff_dirs(old_dir, new_dir, from_tag, to_tag, exclude_dirs):
    from_version = parse_version(from_tag) if from_tag else None
    to_version = parse_version(to_tag) if to_tag else None
    old = _extract_dir(old_dir, from_version, exclude_dirs)
    new = _extract_dir(new_dir, to_version, exclude_dirs)
    return diff_surfaces(old, new)


@cli.command("diff")
@click.argument("old_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("new_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--from", "from_tag", default=None, help="Old version tag.")
@click.option("--to", "to_tag", default=None, help="New version tag.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_output_option
@_exclude_option
def diff_cmd(old_dir, new_dir, from_tag, to_tag, fmt, output, exclude_dirs) -> int:
    """Emit classified change records between two checkouts of one module."""
    records = _diff_dirs(old_dir, new_dir, from_tag, to_tag, exclude_dirs)
    if fmt == "json":
        _emit(records_to_ndjson(records), output)
    else:
        text = records_to_text(records)
        _emit(text + "\n" if text else "", output)
    return 1 if any(r.breaking for r in records) else 0


@cli.command("check")
@click.argument("old_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("new_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--from", "from_tag", required=True, help="Old version tag.")
@click.option("--to", "to_tag", required=True, help="New version tag.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_output_option
@_exclude_option
def check_cmd(old_dir, new_dir, from_tag, to_tag, fmt, output, exclude_dirs) -> int:
    """Judge SemVer compliance of an upgrade between two checkouts."""
    records = _diff_dirs(old_dir, new_dir, from_tag, to_tag, exclude_dirs)
    level = classify_upgrade(parse_version(from_tag), parse_version(to_tag))
    verdict = check_compliance(level, records)
    if fmt == "json":
        doc = {
            "level": verdict.upgrade_level.label,
            "breaking_count": verdict.breaking_count,
            "compliant": verdict.compliant,
            "records": [record_to_dict(r) for r in records],
        }
        _emit(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", output)
    else:
        parts = [records_to_text(records)] if records else []
        word = "compliant" if verdict.compliant else "non-compliant"
        parts.append(
            f"Verdict: {word} ({upgrade_line_label(level)}, {verdict.breaking_count} breaking changes)"
        )
        _emit("\n\n".join(parts) + "\n", output)
    return 1 if verdict.breaking_count else 0


@cli.command("graph")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--output", "-o", "output", type=click.Path(dir_okay=False), default="graph.json", show_default=True)
def graph_cmd(corpus_dir, output) -> int:
    """Build and persist the corpus dependency graph."""
    entries = ingest_corpus(corpus_dir)
    validate_corpus(entries)
    graph = build_graph(entries)
    persist_graph(graph, output)
    summary = {"nodes": len(graph.nodes), "edges": len(graph.edges), "path": str(output)}
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


@cli.command("impact")
@click.option("--library", "library_dir", required=True, type=click.Path(exists=True, file_okay=False), help="Directory holding the library's version checkouts.")
@click.option("--upgrade", "upgrade_spec", required=True, help="Version pair, e.g. v1.0.0..v1.1.0.")
@click.option("--clients", "client_dirs", multiple=True, required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json", show_default=True)
@_output_option
@_exclude_option
def impact_cmd(library_dir, upgrade_spec, client_dirs, fmt, output, exclude_dirs) -> int:
    """Find client code elements affected by a library upgrade."""
    if ".." not in upgrade_spec:
        raise click.UsageError("--upgrade must look like V1..V2")
    from_tag, to_tag = upgrade_spec.split("..", 1)
    from_version, to_version = parse_version(from_tag), parse_version(to_tag)
    lib = Path(library_dir)
    old_dir, new_dir = lib / from_tag, lib / to_tag
    for d in (old_dir, new_dir):
        if not d.is_dir():
            raise click.UsageError(f"missing version checkout: {d}")

    old = _extract_dir(str(old_dir), from_version, exclude_dirs)
    new = _extract_dir(str(new_dir), to_version, exclude_dirs)
    records = diff_surfaces(old, new)
    result = analyze_impact(records, list(client_dirs), old_surface=old)

    if fmt == "json":
        _emit("".join(json.dumps(usage_to_dict(u), ensure_ascii=False) + "\n" for u in result.usages), output)
    elif fmt == "csv":
        import io

        buf = io.StringIO()
        write_condition_stats_csv(condition_table([(records, result.usages)]), buf)
        _emit(buf.getvalue(), output)
    else:
        lines = [
            f"{u.client_module} {u.file}:{u.line} {u.qualified_name} ({u.node.category}/{u.node.condition})"
            for u in result.usages
        ]
        _emit("".join(line + "\n" for line in lines), output)
    return 1 if result.usages else 0


@cli.command("report")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--output", "-o", "out_dir", type=click.Path(file_okay=False), default="reports", show_default=True)
@click.option("--include-prerelease", is_flag=True, default=False, help="Also analyze pre-release/build upgrades.")
def report_cmd(corpus_dir, out_dir, include_prerelease) -> int:
    """Emit upgrade, condition, and time-series CSVs for a corpus."""
    analysis = analyze_corpus(corpus_dir, include_prerelease=include_prerelease)
    paths = write_reports(analysis, out_dir)
    summary = {
        "entries": len(analysis.entries),
        "valid_entries": sum(1 for e in analysis.entries if e.is_valid),
        "upgrades": len(analysis.upgrades),
        "breaking_upgrades": sum(1 for u in analysis.upgrades if u.breaking),
        "files": [str(p) for p in paths],
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def main(argv: list[str] | None = None) -> None:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    try:
        rc = cli.main(args=argv, prog_name="semverdiff", standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(2)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        sys.exit(3)
    sys.exit(rc if isinstance(rc, int) else 0)


if __name__ == "__main__":
    main()
