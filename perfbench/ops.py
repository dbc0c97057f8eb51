"""One op per workload, run through semverdiff's public functions, and its correctness gate.

Every call goes through an attribute of the `semverdiff` package (`sv.name`),
so the traced run can wrap exactly these calls. Only default arguments are
passed: any parallelism must be chosen by the program itself.
"""

from __future__ import annotations

import csv
from pathlib import Path

import semverdiff as sv


def _module_path(module_dir: Path) -> str:
    return sv.parse_manifest((module_dir / "go.mod").read_text(encoding="utf-8")).module_path


def op_check(base: Path, op: dict, out_dir: Path) -> dict:
    """`semverdiff check OLD NEW --from F --to T`: extract, diff, verdict, text report."""
    old_dir, new_dir = base / op["old"], base / op["new"]
    from_version, to_version = sv.parse_version(op["from"]), sv.parse_version(op["to"])
    old = sv.extract_surface(old_dir, _module_path(old_dir), from_version)
    new = sv.extract_surface(new_dir, _module_path(new_dir), to_version)
    records = sv.diff_surfaces(old, new)
    verdict = sv.check_compliance(sv.classify_upgrade(from_version, to_version), records)
    return {"old": old, "new": new, "records": records, "verdict": verdict, "text": sv.records_to_text(records)}


def op_impact(base: Path, op: dict, out_dir: Path) -> dict:
    """`semverdiff impact --library L --upgrade F..T --clients ...`: extract, diff, client scan."""
    old_dir, new_dir = base / op["lib_old"], base / op["lib_new"]
    module = _module_path(old_dir)
    old = sv.extract_surface(old_dir, module, sv.parse_version(op["from"]))
    new = sv.extract_surface(new_dir, module, sv.parse_version(op["to"]))
    records = sv.diff_surfaces(old, new)
    impact = sv.analyze_impact(records, [base / c for c in op["clients"]], old_surface=old)
    return {"old": old, "new": new, "records": records, "impact": impact}


def op_report(base: Path, op: dict, out_dir: Path) -> dict:
    """`semverdiff report CORPUS -o OUT`: the whole corpus pipeline into a fresh output dir."""
    analysis = sv.analyze_corpus(base / op["corpus"])
    paths = sv.write_reports(analysis, out_dir)
    return {"analysis": analysis, "paths": paths}


OPS = {"check-bodies": op_check, "check-decls": op_check, "impact-clients": op_impact, "corpus-report": op_report}


# -- gates -----------------------------------------------------------------------

def _record_rows(records) -> list[list]:
    return sorted([r.package, r.node, r.category, r.condition, r.breaking] for r in records)


def _objects(*surfaces) -> int:
    return sum(len(pkg.objects) for s in surfaces for pkg in s.packages.values())


def gate_check(result: dict, op: dict) -> list[str]:
    problems = []
    records = result["records"]
    if _record_rows(records) != op["records"]:
        problems.append("records differ from the planted set")
    v, want = result["verdict"], op["verdict"]
    if (v.upgrade_level.label, v.breaking_count, v.compliant) != (want["level"], want["breaking_count"], want["compliant"]):
        problems.append(f"verdict {v} != {want}")
    blocks = result["text"].split("\n\n") if result["text"] else []
    nodes = sorted(line[len("Change Node: "):] for b in blocks for line in b.splitlines()
                   if line.startswith("Change Node: "))
    if len(blocks) != len(op["records"]) or nodes != sorted(r[1] for r in op["records"]):
        problems.append("text report does not list the planted records")
    if _objects(result["old"], result["new"]) != op["objects"]:
        problems.append("surface object count differs from the planted count")
    return problems


def gate_impact(result: dict, op: dict) -> list[str]:
    problems = []
    if _record_rows(result["records"]) != op["records"]:
        problems.append("records differ from the planted set")
    impact = result["impact"]
    usages = sorted([u.client_module, u.file, u.line, u.qualified_name, u.node.key, u.node.condition]
                    for u in impact.usages)
    if usages != op["usages"]:
        problems.append("usages differ from the planted sites")
    scanned = sum(len(r.scanned) for r in impact.reports)
    considered = scanned + sum(len(r.skipped) for r in impact.reports)
    if (scanned, considered) != (op["scanned"], op["client_files"]):
        problems.append(f"scanned {scanned} of {considered} client files, planted {op['scanned']} of {op['client_files']}")
    if _objects(result["old"], result["new"]) != op["objects"]:
        problems.append("surface object count differs from the planted count")
    return problems


def _csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fp:
        return list(csv.reader(fp))[1:]


def gate_report(result: dict, op: dict) -> list[str]:
    problems = []
    analysis = result["analysis"]
    if len(analysis.upgrades) != op["upgrades"] or len(analysis.entries) != op["entries"]:
        problems.append(f"{len(analysis.upgrades)} upgrades / {len(analysis.entries)} entries, "
                        f"planted {op['upgrades']} / {op['entries']}")
    for e in analysis.entries:
        want = op["invalid"].get(f"{e.module_dir_id}/{e.version_raw}")
        got = e.invalid_reason
        if (want is None) != (got is None) or (got is not None and not got.startswith(want)):
            problems.append(f"{e.module_dir_id}/{e.version_raw}: invalid reason {got!r}, planted {want!r}")
    paths = {p.name: p for p in result["paths"]}
    levels = {row[0]: [int(row[1]), int(row[3])] for row in _csv(paths["upgrade_stats.csv"])}
    if levels != op["levels"]:
        problems.append(f"upgrade stats {levels} != planted {op['levels']}")
    for row in _csv(paths["condition_stats.csv"]):
        if row[1] == "Total":
            continue
        key = f"{row[1]}/{row[2]}"
        got = (int(row[3]), int(row[5]), int(row[8]))
        want = (op["conditions"].get(key, 0), op["usage"].get(key, 0), op["affected"].get(key, 0))
        if got != want:
            problems.append(f"condition {key}: B/U/affected {got} != planted {want}")
    series = {f"{row[0]} {row[1]}": [int(row[2]), int(row[3])] for row in _csv(paths["time_series.csv"])}
    if series != op["series"]:
        problems.append("time series differs from the planted releases")
    return problems


GATES = {"check-bodies": gate_check, "check-decls": gate_check, "impact-clients": gate_impact,
         "corpus-report": gate_report}


def corrupt(workload: str, result: dict) -> None:
    """Damage one result so the gate must reject it (the gate's self-check)."""
    if workload.startswith("check-"):
        result["verdict"] = sv.ComplianceVerdict(result["verdict"].upgrade_level,
                                                 result["verdict"].breaking_count,
                                                 not result["verdict"].compliant)
    elif workload == "impact-clients":
        result["impact"].usages.pop()
    else:
        path = next(p for p in result["paths"] if p.name == "upgrade_stats.csv")
        rows = path.read_text(encoding="utf-8").splitlines()
        label, total, *rest = rows[-1].split(",")
        rows[-1] = ",".join([label, str(int(total) + 1), *rest])
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
