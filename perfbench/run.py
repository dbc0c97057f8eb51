"""The semverdiff benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
workloads (see BENCHMARK.json for why each exists):

  check-bodies    `check` on module pairs whose bytes are mostly function bodies
  check-decls     `check` on declaration-dense pairs, about 10 % of objects changed
  impact-clients  `impact`: one small library upgrade against body-heavy client trees
  corpus-report   `report`: the whole corpus pipeline into a fresh output directory

Steps: generate the seeded inputs and their planted truth (gen.py) under
.perfbench/, then run worker.py in its own process, which loops over the ops
for --seconds, checks every result against the truth, times `import
semverdiff` in fresh interpreters between ops (setup_s), and reports the
metrics. With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run, whose spans
are written to .perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

DEADLINE_S = 170  # every run ends well inside the 180 s a run may take


def run_worker(root: Path, args, work: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(root / ".perfbench" / f"spans-{args.workload}.jsonl")]
    log = work / "worker.stderr"
    with log.open("w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"worker did not finish within {timeout:.0f} s")
    lines = log.read_text(encoding="utf-8").splitlines()
    if proc.returncode != 0:
        print("\n".join(lines[-20:]), file=sys.stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    for line in [line for line in lines if line.startswith("op ")][:20]:
        print(line, file=sys.stderr)
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "semverdiff" / "__init__.py").is_file():
        sys.exit("perfbench: run from the root of a semverdiff checkout (src/semverdiff is missing)")
    work = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        truth = gen.generate(args.workload, args.seed, work)
        report = run_worker(root, args, work, DEADLINE_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report["metrics"]
    print(f"# {args.workload} seed {args.seed}: {report['timed_ops']} timed ops "
          f"({report['attempted']} attempted); latency percentiles over {report['pool_ops']} pool ops, "
          f"each the mean of its repeats; raw wall median {report['wall_median_ms']:.2f} ms, "
          f"largest peak-RSS change between an op's first and last repeat {report['rss_drift_kb']} KB, "
          f"median reference-speed scale {report['median_scale']:.3f}; "
          f"body byte share {truth['props']['body_byte_share']:.3f}, "
          f"client importing share {truth['props']['client_importing_share']:.3f}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
