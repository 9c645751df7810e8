#!/usr/bin/env python3
"""Compare freshly emitted BENCH_*.json files against committed baselines.

Usage:
    check_perf_trajectory.py [--baseline-dir bench/baselines]
                             [--ratio 5.0] [--floor 0.1] [--list]
                             BENCH_a.json [BENCH_b.json ...]

For every fresh file, records are joined on their stable "name" field
against the committed baseline of the same file name (bench/README.md):

  * pauli_weight, candidates and the routed-cost triple (cnots, depth,
    swaps) are determinism witnesses — any change at equal name is a
    FAILURE (the algorithms must be bit-stable);
  * seconds is the perf trajectory — a record fails when it is both
    slower than ratio * baseline AND above the absolute floor (the floor
    absorbs scheduler noise on sub-100ms records);
  * a baseline record missing from the fresh run is a FAILURE (record
    names are a stable contract); new records are reported, not failed;
  * a fresh file with NO committed baseline is a hard ERROR — a renamed
    benchmark or a forgotten baseline refresh must not silently drop the
    file out of the trajectory. Add the baseline in the same PR.

--list prints the per-record join (fresh seconds/witnesses vs baseline)
without judging it, so CI logs the full inventory next to the verdict.

With --validate-metrics the positional arguments are instead metrics
documents (hattc stats --json, batch_stats.json, batch_report.json —
anything carrying a "metrics" section) and the script validates the
snapshot schema: every deterministic counter is a non-negative integer,
every volatile entry is a {count, total_seconds, min_seconds,
max_seconds} aggregate with count >= 1 and min <= max <= total. The
deterministic/volatile split is a wire contract (the deterministic
section is byte-compared in CI), so a malformed snapshot must fail
loudly rather than vacuously pass the comparison.

Exit code: 0 clean, 1 regression/violation, 2 usage or unreadable file.
"""

import argparse
import json
import os
import sys


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    records = {}
    for rec in doc.get("records", []):
        name = rec.get("name")
        if name is None:
            raise ValueError(f"{path}: record without a name")
        if name in records:
            raise ValueError(f"{path}: duplicate record name {name!r}")
        records[name] = rec
    return records


def compare(fresh_path, base_path, ratio, floor):
    """Return (failures, notes) comparing one fresh file to its baseline."""
    failures, notes = [], []
    fresh = load_records(fresh_path)
    base = load_records(base_path)

    for name, brec in base.items():
        frec = fresh.get(name)
        if frec is None:
            failures.append(f"{fresh_path}: record {name!r} disappeared "
                            "(names are a stable contract)")
            continue
        for field in ("pauli_weight", "candidates", "cnots", "depth",
                      "swaps"):
            if brec.get(field) != frec.get(field):
                failures.append(
                    f"{fresh_path}: {name}: {field} changed "
                    f"{brec.get(field)} -> {frec.get(field)} "
                    "(determinism violation)")
        bs, fs = brec.get("seconds"), frec.get("seconds")
        if isinstance(bs, (int, float)) and isinstance(fs, (int, float)):
            if fs > ratio * bs and fs > floor:
                failures.append(
                    f"{fresh_path}: {name}: seconds regressed "
                    f"{bs:.6f} -> {fs:.6f} (> {ratio:.1f}x and > "
                    f"{floor:.2f}s floor)")

    for name in fresh:
        if name not in base:
            notes.append(f"{fresh_path}: new record {name!r} "
                         "(add it to the baseline)")
    return failures, notes


def list_join(fresh_path, base_path):
    """Print the record inventory of one fresh file (and its baseline)."""
    fresh = load_records(fresh_path)
    base = load_records(base_path) if os.path.exists(base_path) else {}
    status = "baseline: " + (base_path if base else "MISSING")
    print(f"{fresh_path} ({status})")
    for name in sorted(set(fresh) | set(base)):
        frec, brec = fresh.get(name), base.get(name)

        def cell(rec):
            if rec is None:
                return "-- absent --"
            secs = rec.get("seconds")
            secs = f"{secs:.6f}s" if isinstance(secs, (int, float)) \
                else str(secs)
            cell_text = (f"{secs} w={rec.get('pauli_weight')} "
                         f"c={rec.get('candidates')}")
            if rec.get("cnots") is not None:
                cell_text += (f" cnots={rec.get('cnots')} "
                              f"depth={rec.get('depth')} "
                              f"swaps={rec.get('swaps')}")
            return cell_text

        print(f"  {name}: fresh {cell(frec)} | base {cell(brec)}")


def validate_metrics(path):
    """Return schema violations for one metrics-carrying document."""
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics", doc)
    failures = []
    det = metrics.get("deterministic")
    if not isinstance(det, dict):
        return [f"{path}: no metrics.deterministic object"]
    for name, value in det.items():
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            failures.append(f"{path}: deterministic counter {name!r} is "
                            f"{value!r}, not a non-negative integer")
    # batch_report carries only the deterministic mirror; a volatile
    # section, when present, must be well-formed aggregates.
    vol = metrics.get("volatile", {})
    if not isinstance(vol, dict):
        return failures + [f"{path}: metrics.volatile is not an object"]
    for name, stat in vol.items():
        if not isinstance(stat, dict):
            failures.append(f"{path}: volatile {name!r} is not an object")
            continue
        count = stat.get("count")
        if isinstance(count, bool) or not isinstance(count, int) \
                or count < 1:
            failures.append(f"{path}: volatile {name!r} count is "
                            f"{count!r}, not a positive integer")
            continue
        vals = {}
        for field in ("total_seconds", "min_seconds", "max_seconds"):
            v = stat.get(field)
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or v < 0:
                failures.append(f"{path}: volatile {name!r} {field} is "
                                f"{v!r}, not a non-negative number")
            else:
                vals[field] = v
        if len(vals) == 3 and not (vals["min_seconds"]
                                   <= vals["max_seconds"]
                                   <= vals["total_seconds"] + 1e-12):
            failures.append(f"{path}: volatile {name!r} violates "
                            "min <= max <= total")
    return failures


# The committed baselines beside this script, whatever the working
# directory.
DEFAULT_BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
    "bench", "baselines")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", nargs="+", help="freshly emitted BENCH_*.json")
    ap.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                    help="committed baselines (default: this "
                         "repository's bench/baselines)")
    ap.add_argument("--ratio", type=float, default=5.0,
                    help="max allowed seconds slowdown factor")
    ap.add_argument("--floor", type=float, default=0.1,
                    help="seconds below which slowdowns are ignored")
    ap.add_argument("--list", action="store_true",
                    help="print the record join instead of judging it")
    ap.add_argument("--validate-metrics", action="store_true",
                    help="validate metrics snapshot schema instead of "
                         "comparing bench records")
    args = ap.parse_args()

    if args.validate_metrics:
        any_failure = False
        for path in args.fresh:
            try:
                failures = validate_metrics(path)
            except (OSError, ValueError, json.JSONDecodeError) as e:
                print(f"ERROR: {path}: {e}")
                return 2
            for f in failures:
                print(f"FAIL: {f}")
                any_failure = True
        if any_failure:
            print("metrics schema validation FAILED")
            return 1
        print(f"metrics schema validation passed "
              f"({len(args.fresh)} file(s))")
        return 0

    any_failure = False
    compared = 0
    for fresh_path in args.fresh:
        base_path = os.path.join(args.baseline_dir,
                                 os.path.basename(fresh_path))
        if not os.path.exists(fresh_path):
            print(f"ERROR: missing fresh file {fresh_path}")
            return 2
        if args.list:
            try:
                list_join(fresh_path, base_path)
            except (ValueError, json.JSONDecodeError) as e:
                print(f"ERROR: {e}")
                return 2
            continue
        if not os.path.exists(base_path):
            # A silent skip here would let a renamed benchmark (or a
            # forgotten `cp` into bench/baselines/) drop out of the
            # trajectory while CI stays green.
            print(f"ERROR: no baseline for {fresh_path} "
                  f"(expected {base_path}); commit one in this PR")
            return 2
        try:
            failures, notes = compare(fresh_path, base_path, args.ratio,
                                      args.floor)
        except (ValueError, json.JSONDecodeError) as e:
            print(f"ERROR: {e}")
            return 2
        compared += 1
        for n in notes:
            print(f"note: {n}")
        for f in failures:
            print(f"FAIL: {f}")
            any_failure = True

    if args.list:
        return 0
    if any_failure:
        print("perf trajectory check FAILED")
        return 1
    print(f"perf trajectory check passed ({compared} file(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
