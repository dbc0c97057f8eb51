"""Measure one workload in this process: run its ops closed-loop, gate each result.

    python3 perfbench/worker.py --workload W --work DIR --seconds S --trace 0|1 [--spans FILE]

Run from the repository root by run.py, after DIR has been generated. Each op
runs in a fresh child forked, by a zygote process, from the state right after
`import semverdiff`, so no op inherits program state from an earlier one, and
`peak_rss_mb` is the largest peak of a process that ran one op of this
workload. The child times the op, checks it against the planted truth, and
writes its result to a file. Prints one JSON line of metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402
import tracing  # noqa: E402
from refspeed import Timer  # noqa: E402

PER_OP_NUMBERS = ("go_bytes", "go_files", "objects", "upgrades", "client_files", "modules")
SETUP_PROBES = 12

class Zygote:
    """A process forked after `import semverdiff` that forks one child per op.

    Op children are forked from it rather than from the worker, whose heap
    grows with the samples it keeps, so every child starts from the same
    memory and its `ru_maxrss` is its own op's peak. A child writes its result
    to a file; the zygote passes only short request and status lines, so its
    own heap does not grow either.
    """

    def __init__(self, workload: str, base: Path, truth: dict):
        self.base = base
        self.count = 0
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(resp_r)
            code = 0
            try:
                _serve(workload, base, truth, req_r, resp_w)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(resp_w)
        self.pid = pid
        self.requests = os.fdopen(req_w, "w", encoding="utf-8")
        self.statuses = os.fdopen(resp_r, encoding="utf-8")

    def run(self, index: int, traced: bool, corrupt: bool = False) -> dict:
        """Run op `index` in a fresh child and return the dict it produced."""
        self.count += 1
        result = self.base / f"result-{self.count}.json"
        self.requests.write(json.dumps({"index": index, "traced": traced, "corrupt": corrupt,
                                        "result": str(result)}) + "\n")
        self.requests.flush()
        status = self.statuses.readline()
        if not status:
            raise RuntimeError("the zygote process ended")
        if int(status) != 0 or not result.exists():
            return {"problems": [f"op process ended with status {int(status)}"]}
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return data

    def close(self) -> None:
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.statuses.close()


def _serve(workload: str, base: Path, truth: dict, req_fd: int, resp_fd: int) -> None:
    """The zygote's loop: one forked child per request line, one status line back."""
    with os.fdopen(req_fd, encoding="utf-8") as requests, os.fdopen(resp_fd, "w", encoding="utf-8") as statuses:
        for line in requests:
            req = json.loads(line)
            pid = os.fork()
            if pid == 0:
                code = 0
                try:
                    op = truth["ops"][req["index"]]
                    try:
                        payload = _op_payload(workload, base, op, req["index"], req["traced"], req["corrupt"])
                    except Exception as exc:  # the op's failure is a result, reported to the worker
                        payload = {"problems": [f"raised {type(exc).__name__}: {exc}"]}
                    Path(req["result"]).write_text(json.dumps(payload), encoding="utf-8")
                except BaseException:
                    code = 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            statuses.write(f"{os.waitstatus_to_exitcode(status)}\n")
            statuses.flush()


def _op_payload(workload: str, base: Path, op: dict, index: int, traced: bool, corrupt: bool = False) -> dict:
    out_dir = base / "out" / f"op{index}-{os.getpid()}"
    timer = Timer()
    tracer = None
    if traced:
        tracer = tracing.Tracer(timer.clock)
        tracing.install(tracer)
        root = tracer.name_id(tracing.ROOT)
    run, gate = ops.OPS[workload], ops.GATES[workload]
    with timer:
        if tracer is not None:
            sid = tracer.begin(root)
        result = run(base, op, out_dir)
        if tracer is not None:
            tracer.finish(sid)
    payload = {"seconds": timer.seconds, "wall_seconds": timer.wall_seconds, "scale": timer.scale,
               "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "problems": gate(result, op)}
    if corrupt:
        ops.corrupt(workload, result)
        payload["corrupt_problems"] = gate(result, op)
    if tracer is not None:
        payload["layers"] = tracer.summary(timer.scale)
        payload["spans"] = tracer.spans()
    return payload


def _cleanup(base: Path) -> None:
    shutil.rmtree(base / "out", ignore_errors=True)


def self_check(zygote: Zygote, truth: dict) -> str | None:
    """The gate must reject a deliberately corrupted result of the pool's smallest op.

    That op failing the gate as produced is not a self-check failure: the
    timed loop then counts it as a failed op.
    """
    index = min(range(len(truth["ops"])), key=lambda i: truth["ops"][i]["go_bytes"])
    got = zygote.run(index, False, corrupt=True)
    _cleanup(zygote.base)
    if not got.get("problems") and not got.get("corrupt_problems"):
        return "self-check: the gate accepted a corrupted result"
    return None


_IMPORT_PROBE = (
    "import os, sys; src = os.path.abspath('src'); sys.path[:0] = [src, {here!r}]; import refspeed; "
    "refspeed.reference(); timer = refspeed.Timer(0.01)\nwith timer: import semverdiff\n"
    "assert semverdiff.__file__.startswith(src); print(timer.seconds)"
).format(here=os.path.dirname(os.path.abspath(__file__)))


def import_seconds() -> float:
    """Time `import semverdiff` (the program's whole set-up) in a fresh interpreter, at reference speed."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def run_loop(zygote: Zygote, truth: dict, seconds: float, traced: bool, setup_probes: int = 0,
             spans_out=None) -> tuple[list[dict], list[float]]:
    """Closed loop, one client: the op pool in order, round and round, until `seconds` have gone.

    The loop ends at the first op boundary after `seconds`, once every op of
    the pool has run; metrics use each op's mean over its repeats, so a last
    partial pass weighs no op more than another. In the traced run every op
    runs twice in a row, untraced then traced, so the two timings see the same
    inputs; each traced op's spans go to `spans_out` as soon as it ends. Set-up
    probes are spread over the run between ops, so that they see the same
    drift in machine speed as the ops.
    """
    samples, setups = [], []
    if setup_probes:
        import_seconds()  # warm-up: the first import may still compile bytecode
    started = time.perf_counter()
    n = len(truth["ops"])
    while len(samples) < n * (1 + traced) or time.perf_counter() - started < seconds:
        index = len(samples) // (1 + traced) % n
        op = truth["ops"][index]
        for mode in (False, True) if traced else (False,):
            got = zygote.run(index, mode)
            spans = got.pop("spans", None)
            if spans is not None and spans_out is not None:
                spans_out.write(json.dumps({"op": index, **spans}) + "\n")
            got.update(index=index, traced=mode, **{k: op.get(k, 0) for k in PER_OP_NUMBERS})
            samples.append(got)
            _cleanup(zygote.base)
        while len(setups) < setup_probes and time.perf_counter() - started >= len(setups) * seconds / setup_probes:
            setups.append(import_seconds())
    while len(setups) < setup_probes:
        setups.append(import_seconds())
    return samples, setups


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _by_op(samples: list[dict]) -> dict[int, list[dict]]:
    by_op: dict[int, list[dict]] = {}
    for s in samples:
        if s.get("seconds"):
            by_op.setdefault(s["index"], []).append(s)
    return by_op


def op_latencies(samples: list[dict]) -> list[float]:
    """Each pool op's latency: the mean of its repeats in the run.

    The machine's speed drifts over seconds; averaging an op's repeats,
    which are spread across the whole run, keeps that drift out of the
    percentiles taken over the pool.
    """
    return sorted(statistics.fmean(s["seconds"] for s in v) for v in _by_op(samples).values())


def _rate(samples: list[dict], key: str, unit: float = 1.0) -> float:
    """Work per second over one pass of the pool: each op's work over the sum of its mean time."""
    by_op = _by_op(samples)
    seconds = sum(statistics.fmean(s["seconds"] for s in v) for v in by_op.values())
    return sum(v[0][key] for v in by_op.values()) * unit / seconds if seconds else 0.0


def rss_drift_kb(samples: list[dict]) -> int:
    """Largest change in peak RSS between an op's first and last repeat."""
    return max((abs(v[-1]["rss_kb"] - v[0]["rss_kb"]) for v in _by_op(samples).values()), default=0)


def end_to_end(samples: list[dict]) -> dict:
    ops_ms = [t * 1e3 for t in op_latencies(samples)]
    p90 = statistics.quantiles(ops_ms, n=10, method="inclusive")[-1] if len(ops_ms) > 1 else ops_ms[0]
    return {
        "latency_p50_ms": _metric(statistics.median(ops_ms), "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "src_mb_per_s": _metric(_rate(samples, "go_bytes", 1e-6), "MB/s"),
        "objects_per_s": _metric(_rate(samples, "objects"), "1/s"),
        "upgrades_per_s": _metric(_rate(samples, "upgrades"), "1/s"),
        "peak_rss_mb": _metric(max(s.get("rss_kb", 0) for s in samples) / 1024, "MB"),
    }


def per_layer(samples: list[dict], props: dict) -> dict:
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    n = max(1, len(traced))
    total: dict[str, dict[str, float]] = {}
    for s in traced:
        for name, row in s["layers"].items():
            acc = total.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0.0) + value
    work = {k: sum(s[k] for s in traced) for k in PER_OP_NUMBERS}

    def get(name: str, key: str) -> float:
        return total.get(name, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_op(name: str, key: str = "self_s") -> float:
        return get(name, key) / n

    layers = [name for name in total if name != tracing.ROOT]
    untraced_op = statistics.fmean(s["seconds"] for s in untraced if s.get("seconds")) if untraced else 0.0
    traced_op = statistics.fmean(s["seconds"] for s in traced if s.get("seconds")) if traced else 0.0
    parse_errors = get("parser.parse", "error")
    tokenize_errors = get("parser.tokenize", "error") - get("parser.tokenize", "error_under_parser.parse")
    failed = sum(1 for s in samples if s.get("problems"))
    m = {
        "parser.tokenize.calls": _metric(per_op("parser.tokenize", "calls"), "count"),
        "parser.tokenize.self_s": _metric(per_op("parser.tokenize"), "s"),
        "parser.tokenize.mb_per_s": _metric(ratio(get("parser.tokenize", "bytes") / 1e6, get("parser.tokenize", "self_s")), "MB/s"),
        "parser.tokenize.calls_per_file": _metric(ratio(get("parser.tokenize", "calls"), work["go_files"]), "ratio"),
        "parser.parse.self_s": _metric(per_op("parser.parse"), "s"),
        "parser.errors": _metric((parse_errors + tokenize_errors) / n, "count"),
        "surface.extract.self_s": _metric(per_op("surface.extract"), "s"),
        "surface.extract.total_s": _metric(per_op("surface.extract", "total_s"), "s"),
        "surface.files_parsed": _metric((get("parser.parse", "calls") - parse_errors) / n, "count"),
        "surface.parse_failures": _metric(parse_errors / n, "count"),
        "surface.objects": _metric(per_op("surface.extract", "objects"), "count"),
        "gotypes.render.calls": _metric(per_op("gotypes.render", "calls"), "count"),
        "gotypes.render.self_s": _metric(per_op("gotypes.render"), "s"),
        "gotypes.render.calls_per_object": _metric(ratio(get("gotypes.render", "calls"), work["objects"]), "ratio"),
        "diff.diff_surfaces.self_s": _metric(per_op("diff.diff_surfaces"), "s"),
        "diff.diff_surfaces.total_s": _metric(per_op("diff.diff_surfaces", "total_s"), "s"),
        "diff.records": _metric(per_op("diff.diff_surfaces", "records"), "count"),
        "diff.records_breaking": _metric(per_op("diff.diff_surfaces", "breaking"), "count"),
        "diff.render.self_s": _metric(per_op("diff.render"), "s"),
        "impact.analyze.self_s": _metric(per_op("impact.analyze"), "s"),
        "impact.scan.self_s": _metric(per_op("impact.scan"), "s"),
        "impact.bind_imports.calls": _metric(per_op("impact.bind_imports", "calls"), "count"),
        "impact.bind_imports.self_s": _metric(per_op("impact.bind_imports"), "s"),
        "impact.bind_imports.total_s": _metric(per_op("impact.bind_imports", "total_s"), "s"),
        "impact.bind_imports.bytes_per_call": _metric(ratio(get("impact.bind_imports", "bytes"), get("impact.bind_imports", "calls")), "B"),
        "impact.match.calls": _metric(per_op("impact.match", "calls"), "count"),
        "impact.match.self_s": _metric(per_op("impact.match"), "s"),
        "impact.match.total_s": _metric(per_op("impact.match", "total_s"), "s"),
        "impact.scan_ratio": _metric(ratio(get("impact.match", "calls"), get("impact.bind_imports", "calls")), "ratio"),
        "impact.usages": _metric(per_op("impact.match", "usages"), "count"),
        "manifest.read.self_s": _metric(per_op("manifest.read"), "s"),
        "manifest.parse.calls": _metric(per_op("manifest.parse", "calls"), "count"),
        "manifest.parse.calls_per_entry": _metric(ratio(get("manifest.parse", "calls"), work["modules"]), "ratio"),
        "corpus.analyze.self_s": _metric(per_op("corpus.analyze"), "s"),
        "corpus.ingest.self_s": _metric(per_op("corpus.ingest"), "s"),
        "corpus.validate.self_s": _metric(per_op("corpus.validate"), "s"),
        "corpus.validate.total_s": _metric(per_op("corpus.validate", "total_s"), "s"),
        "corpus.graph.self_s": _metric(per_op("corpus.graph"), "s"),
        "corpus.graph.total_s": _metric(per_op("corpus.graph", "total_s"), "s"),
        "corpus.stats.self_s": _metric(per_op("corpus.stats"), "s"),
        "corpus.write.self_s": _metric(per_op("corpus.write"), "s"),
        "corpus.write.total_s": _metric(per_op("corpus.write", "total_s"), "s"),
        "corpus.entries": _metric(per_op("corpus.ingest", "entries"), "count"),
        "corpus.entries_invalid": _metric(per_op("corpus.analyze", "invalid"), "count"),
        "corpus.surfaces_held": _metric(per_op("corpus.validate", "held"), "count"),
        "client_files_per_s": _metric(_rate(untraced, "client_files"), "1/s"),
        "failed_ops": _metric(failed / max(1, len(samples)), "fraction"),
        "workload.body_byte_share": _metric(props["body_byte_share"], "fraction"),
        "workload.client_importing_share": _metric(props["client_importing_share"], "fraction"),
        "trace.untraced_op_s": _metric(untraced_op, "s"),
        "trace.traced_op_s": _metric(traced_op, "s"),
        "trace.overhead_s": _metric(traced_op - untraced_op, "s"),
        "trace.layers_self_s": _metric(sum(per_op(name) for name in layers), "s"),
        "trace.unattributed_s": _metric(per_op(tracing.ROOT), "s"),
    }
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(ops.OPS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="where the traced run writes its spans")
    args = ap.parse_args()

    truth = json.loads((args.work / "truth.json").read_text(encoding="utf-8"))
    zygote = Zygote(args.workload, args.work, truth)
    try:
        problem = self_check(zygote, truth)
        if problem:
            print(problem, file=sys.stderr)
            sys.exit(3)
        with contextlib.ExitStack() as stack:
            spans_out = stack.enter_context(args.spans.open("w", encoding="utf-8")) if args.spans else None
            samples, setups = run_loop(zygote, truth, args.seconds, bool(args.trace),
                                       0 if args.trace else SETUP_PROBES, spans_out)
    finally:
        zygote.close()
    failed = sum(1 for s in samples if s.get("problems"))
    for s in samples:
        if s.get("problems"):
            print(f"op {s['index']} failed: {s['problems'][:3]}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(samples, truth["props"])
    else:
        metrics = end_to_end(samples)
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
    timed = [s for s in samples if not s["traced"]]
    wall = [s["wall_seconds"] for s in timed if "wall_seconds" in s]
    scales = [s["scale"] for s in timed if "scale" in s]
    print(json.dumps({"attempted": len(samples), "failed": failed, "timed_ops": len(timed),
                      "pool_ops": len(op_latencies(timed)), "rss_drift_kb": rss_drift_kb(timed),
                      "wall_median_ms": statistics.median(wall) * 1e3 if wall else 0.0,
                      "median_scale": statistics.median(scales) if scales else 0.0, "metrics": metrics}))


if __name__ == "__main__":
    main()
