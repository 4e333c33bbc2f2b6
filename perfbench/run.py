#!/usr/bin/env python3
"""Host-performance benchmark of the KTAU simulator.

Builds perfbench_driver (this directory's CMake package, which compiles the
repository's src/ libraries from source), then runs operations of one
workload for --seconds, each in its own driver process, and prints the
run's metrics as one JSON object on the last line of stdout:

    python3 perfbench/run.py --workload lu_base --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of untraced operations.  --trace 1
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones, plus trace_overhead.  Every operation of a run
uses the same seed, so all of them must simulate the same thing; one that
does not, or whose own output check fails, counts as failed.  The line
before the result holds the host configuration and the spread of every
metric; spans and per-operation records go to
.bench_build/perfbench/results/.  README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

WORKLOADS = ("lu_anomaly", "lu_base", "sweep3d_t4", "matrix_chiba")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "ktau.probe_entries": "count",
    "ktau.probes_per_event": "ratio",
    "knet.rx_segments": "count",
    "knet.rx_penalized": "count",
    "knet.retransmits": "count",
    "knet.tcp_calls": "count",
    "tau.recv_calls": "count",
    "experiments.trials": "count",
    "experiments.trial_s_sum": "s",
    "experiments.trial_s_max": "s",
    "experiments.parallel_eff": "ratio",
    "analysis.doc_bytes": "bytes",
    "analysis.doc_parse_s": "s",
    "trace_overhead": "s",
}
# One operation may not take longer than this; a run has 180 s in all.
OP_TIMEOUT_S = 120
# Extra set-up-only driver starts per untraced run, so that set-up has a
# steady median even where only two operations fit in a run.
SETUP_SAMPLES = 10
# Trees whose contents identify the code under test when git cannot.
SOURCE_TREES = ("src", "bench", "perfbench", "CMakeLists.txt")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """The git commit when there is one, else a hash of the source trees."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for name in SOURCE_TREES:
        top = ROOT / name
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()


def host_config():
    out = subprocess.run([str(DRIVER), "--host-info"], capture_output=True,
                         text=True, check=True)
    host = json.loads(out.stdout)
    host.update(nproc=os.cpu_count(), commit=source_id())
    return host


def run_driver(workload, seed, *flags):
    """One fresh driver process; returns the record it prints."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--doc", str(BUILD / "matrix-doc.json"), *flags]
    t0 = time.monotonic_ns()
    cmd += ["--t0-ns", str(t0)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": ["timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"exit {proc.returncode}: {err[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"errors": ["unreadable driver output"]}


def run_op(workload, seed, traced):
    """One operation in a fresh driver process; returns its record."""
    rec = run_driver(workload, seed, *(["--trace"] if traced else []))
    rec["traced"] = traced
    return rec


def spread(values):
    """Median, quartiles and range of one metric over a run's operations."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def fingerprint(rec):
    return (rec["engine_events"], rec["exec_sec"], rec["doc_fnv1a"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    traced_run = args.trace == 1

    try:
        build()
        host = host_config()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"cannot build the driver: {e}")
        return 2

    setups = [] if traced_run else [
        run_driver(args.workload, args.seed, "--setup-only")
        for _ in range(SETUP_SAMPLES)]

    # Operations until the run's time is up; a traced run alternates
    # untraced and traced ones and needs at least one of each.
    ops = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or (traced_run and len(ops) < 2)):
        ops.append(run_op(args.workload, args.seed,
                          traced_run and len(ops) % 2 == 1))

    reference = next((fingerprint(r) for r in ops if not r["errors"]), None)
    for r in ops:
        if not r["errors"] and fingerprint(r) != reference:
            r["errors"].append(f"disagrees with the run's first operation: "
                               f"{fingerprint(r)} vs {reference}")
    good = [r for r in ops if not r["errors"]]
    for r in ops:
        if r["errors"]:
            log(f"operation failed: {'; '.join(r['errors'])}")
    if not good or (traced_run and not any(r["traced"] for r in good)):
        log("no operation completed; no metrics to report")
        return 1

    series = {}
    if traced_run:
        traced = [r for r in good if r["traced"]]
        plain = [r for r in good if not r["traced"]]
        for name in PER_LAYER:
            if name != "trace_overhead":
                series[name] = [r["counters"][name] for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain)
                    if plain else 0.0)
        series["trace_overhead"] = [overhead]
        units = PER_LAYER
    else:
        for name in END_TO_END:
            series[name] = [r[name] for r in good]
        series["setup_s"] += [r["setup_s"] for r in setups if "setup_s" in r]
        units = END_TO_END

    stats = {name: spread(v) for name, v in series.items()}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"host": host, "workload": args.workload,
                                  "seed": args.seed, "spread": stats,
                                  "operations": ops}, indent=1) + "\n")

    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "spread": stats}))
    print(json.dumps({
        "correct": len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
