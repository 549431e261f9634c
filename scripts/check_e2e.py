#!/usr/bin/env python3
"""Checks fig5 --quick's simulated work against BENCH_e2e.json's newest record.

Usage:
    scripts/check_e2e.py BENCH [--record FILE]
    scripts/check_e2e.py BENCH --append LABEL [--host TEXT] [--record FILE]

BENCH is the bench_fig5_speedup binary. The script runs it at --quick and sums
events_executed and memory_reads over the runs in its --stats-json export.
Both sums are deterministic (they do not depend on --jobs or the host), so the
check fails when either differs from the newest record: a change that moves
the simulated work must append a record in the same commit.

--append runs the bench at --jobs=1, times it on the wall clock and appends
{label, events, reads, events_per_read, wall_s, peak_rss_mb, host} to the
record file. peak_rss_mb is the bench's peak resident set size; like wall_s it
is recorded, not checked.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time


def run_fig5(bench, jobs):
    with tempfile.TemporaryDirectory() as tmp:
        stats = os.path.join(tmp, "fig5.json")
        start = time.monotonic()
        subprocess.run([bench, "--quick", f"--jobs={jobs}", "--quiet",
                        f"--stats-json={stats}"],
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.monotonic() - start
        with open(stats) as f:
            runs = json.load(f)["runs"]
    events = sum(r["results"]["events_executed"] for r in runs)
    reads = sum(r["results"]["memory_reads"] for r in runs)
    # The bench is this process's only child; Linux reports ru_maxrss in KiB.
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return events, reads, wall, rss_mb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to bench_fig5_speedup")
    ap.add_argument("--record", default="BENCH_e2e.json")
    ap.add_argument("--append", metavar="LABEL")
    ap.add_argument("--host", default="", help="hardware note for --append")
    args = ap.parse_args()

    with open(args.record) as f:
        doc = json.load(f)
    records = doc["records"]

    if args.append:
        events, reads, wall, rss_mb = run_fig5(args.bench, jobs=1)
        records.append({"label": args.append, "events": events,
                        "reads": reads,
                        "events_per_read": round(events / reads, 2),
                        "wall_s": round(wall, 1),
                        "peak_rss_mb": round(rss_mb, 1), "host": args.host})
        with open(args.record, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"appended '{args.append}': {events} events, {reads} reads, "
              f"{wall:.1f} s, {rss_mb:.1f} MB peak RSS")
        return 0

    newest = records[-1]
    events, reads, _, _ = run_fig5(args.bench, jobs=2)
    print(f"fig5 --quick: {events} events, {reads} reads "
          f"({events / reads:.2f} per read); newest record "
          f"'{newest['label']}': {newest['events']} events, "
          f"{newest['reads']} reads")
    if (events, reads) != (newest["events"], newest["reads"]):
        print("check_e2e: simulated work moved; append a record with "
              "--append LABEL", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
