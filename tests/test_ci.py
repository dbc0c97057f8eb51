"""The CI workflow's benchmark gate runs every workload the benchmark declares."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_gate_runs_every_workload_untraced_and_traced():
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (workloads,) = re.findall(r"for workload in ([^;\n]*); do", workflow)
    (traces,) = re.findall(r"for trace in ([^;\n]*); do", workflow)
    assert sorted(workloads.split()) == sorted(declared) and len(set(declared)) == len(declared)
    assert sorted(traces.split()) == ["0", "1"]
    assert '--workload "$workload"' in workflow and '--trace "$trace"' in workflow
