#!/usr/bin/env python3
"""End-to-end smoke of `hattc batch` over a sample corpus.

Usage:
    check_batch_smoke.py HATTC DATA_DIR WORK_DIR

Runs the shipped binary the way a user does and checks:

  * cold batch with a fresh shared cache and --trace: report version 4,
    no failed item, no cache hit; the stats and report pass
    check_perf_trajectory.py --validate-metrics;
  * the trace is Chrome trace-event JSON with balanced B/E pairs, the
    driver spans (parse, preprocess, map, emit) and build provenance;
  * warm rerun on the same cache: every input a cache hit, and
    batch_report.json byte-identical to the cold one;
  * `hattc stats --json` at HATT_THREADS=1 passes --validate-metrics;
  * `--mapping hatt,jw` gives one name:mapping keyed row per kind on one
    input, none failed.

WORK_DIR is emptied first. Exit codes: 0 all checks pass, 1 any failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent / "check_perf_trajectory.py"


def run(cmd, **kwargs):
    print("$", " ".join(str(c) for c in cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def load(path):
    with open(path) as f:
        return json.load(f)


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def validate_metrics(*paths):
    run([sys.executable, TRAJECTORY, "--validate-metrics", *paths])


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 64
    hattc, data, work = argv[1], Path(argv[2]), Path(argv[3])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = work / "cache"

    # Cold: the whole corpus with a shared cache, tracing the run.
    trace = work / "trace-cold.json"
    cold = work / "out-cold"
    run([hattc, "--trace", trace, "batch", data, "--cache", cache,
         "-o", cold])
    report = load(cold / "batch_report.json")
    expect(report["version"] == 4 and report["summary"]["failed"] == 0,
           "cold report: version 4 with no failed item")
    expect(load(cold / "batch_stats.json")["summary"]["cache_hits"] == 0,
           "cold stats: no cache hit")
    validate_metrics(cold / "batch_stats.json", cold / "batch_report.json")

    doc = load(trace)
    ev = doc["traceEvents"]
    expect(sum(e["ph"] == "B" for e in ev) == sum(e["ph"] == "E" for e in ev),
           "trace: balanced B/E pairs")
    missing = {"parse", "preprocess", "map", "emit"} - {e["name"] for e in ev}
    expect(not missing, f"trace: driver spans missing: {missing}")
    expect(doc["otherData"]["git_sha"], "trace: build provenance")

    # Warm: 100% cache hits, byte-identical deterministic report.
    warm = work / "out-warm"
    run([hattc, "batch", data, "--cache", cache, "-o", warm])
    summary = load(warm / "batch_stats.json")["summary"]
    expect(summary["inputs"] > 0 and summary["cache_hits"] == summary["inputs"],
           "warm stats: every input a cache hit")
    expect((cold / "batch_report.json").read_bytes() ==
           (warm / "batch_report.json").read_bytes(),
           "cold and warm batch_report.json differ")

    stats = work / "stats-t1.json"
    with open(stats, "w") as out:
        run([hattc, "stats", "--json", data / "h2.ops"], stdout=out,
            env=dict(os.environ, HATT_THREADS="1"))
    validate_metrics(stats)

    # One batch compares kinds on the same input.
    multi = work / "out-multi"
    run([hattc, "batch", data, "--mapping", "hatt,jw", "-o", multi])
    report = load(multi / "batch_report.json")
    keys = {row["key"] for row in report["inputs"]}
    expect({"h2.ops:hatt", "h2.ops:jw"} <= keys,
           "multi-kind report: h2.ops:hatt and h2.ops:jw rows")
    expect(report["summary"]["failed"] == 0, "multi-kind report: no failure")

    print("batch smoke OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (AssertionError, subprocess.CalledProcessError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
