#!/usr/bin/env python3
"""Checks that the sweep benches still produce exactly the recorded results.

Usage:
    scripts/check_exact.py BUILD_DIR [--only LABEL]... [--jobs N]
    scripts/check_exact.py BUILD_DIR --update LABEL [--jobs N]

BUILD_DIR holds bench/bench_* (a CMake build directory). Each LABEL of
EXACT.json names a scale and a seed: quick-seed1..3 run the 16 sweep benches
at --quick, fig5-seed1 runs bench_fig5_speedup at its default scale. For every
bench the script hashes its stdout, and for every run in its --stats-json it
hashes the `results` object without `events_executed` and `events_by_source`
(the two fields that count simulator work, not simulated behaviour). The
check fails if any digest differs from EXACT.json, so a change that claims to
move no simulated result proves it with one command. Both hashes are
independent of --jobs and of the host.

--update LABEL (or `all`) rewrites the digests of that label in EXACT.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SWEEP_BENCHES = [
    "fig5_speedup", "fig6_conflicts", "fig7_accuracy", "fig8_amat",
    "fig9_energy", "table2_workloads", "ablate_addrmap",
    "ablate_basehit_trigger", "ablate_buffer_size", "ablate_ct_size",
    "ablate_page_policy", "ablate_threshold", "ext_fairness", "ext_faults",
    "ext_generations", "ext_stream",
]

# label -> (benches, extra flags)
LABELS = {
    "quick-seed1": (SWEEP_BENCHES, ["--quick", "--seed=1"]),
    "quick-seed2": (SWEEP_BENCHES, ["--quick", "--seed=2"]),
    "quick-seed3": (SWEEP_BENCHES, ["--quick", "--seed=3"]),
    "fig5-seed1": (["fig5_speedup"], ["--seed=1"]),
}

# Fields of `results` that count simulator events rather than model output.
WORK_FIELDS = ("events_executed", "events_by_source")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run_bench(build, bench, flags, jobs):
    """Returns {"stdout": digest, "runs": {run name: digest}}."""
    path = os.path.join(build, "bench", "bench_" + bench)
    with tempfile.TemporaryDirectory() as tmp:
        stats = os.path.join(tmp, "stats.json")
        proc = subprocess.run([path, *flags, f"--jobs={jobs}", "--quiet",
                               f"--stats-json={stats}"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"check_exact: {bench} exited with "
                             f"{proc.returncode}")
        out = proc.stdout
        with open(stats) as f:
            runs = json.load(f)["runs"]
    hashed = {}
    for run in runs:
        results = {k: v for k, v in run["results"].items()
                   if k not in WORK_FIELDS}
        hashed[run["name"]] = digest(
            json.dumps(results, sort_keys=True).encode())
    return {"stdout": digest(out), "runs": hashed}


def run_label(build, label, jobs):
    benches, flags = LABELS[label]
    out = {}
    for bench in benches:
        print(f"  {label}: {bench}", file=sys.stderr, flush=True)
        out[bench] = run_bench(build, bench, flags, jobs)
    return out


def compare(label, want, got):
    """Returns the list of mismatch descriptions."""
    bad = []
    for bench in sorted(set(want) | set(got)):
        if bench not in got or bench not in want:
            bad.append(f"{label}/{bench}: bench missing on one side")
            continue
        w, g = want[bench], got[bench]
        if w["stdout"] != g["stdout"]:
            bad.append(f"{label}/{bench}: stdout differs")
        for run in sorted(set(w["runs"]) | set(g["runs"])):
            if w["runs"].get(run) != g["runs"].get(run):
                bad.append(f"{label}/{bench}: results of {run} differ")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build", help="CMake build directory")
    ap.add_argument("--exact", default="EXACT.json")
    ap.add_argument("--only", action="append", choices=sorted(LABELS),
                    help="check only this label (repeatable)")
    ap.add_argument("--update", choices=sorted(LABELS) + ["all"])
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    doc = {"description": "", "labels": {}}
    if os.path.exists(args.exact):
        with open(args.exact) as f:
            doc = json.load(f)

    if args.update:
        labels = sorted(LABELS) if args.update == "all" else [args.update]
        for label in labels:
            doc["labels"][label] = run_label(args.build, label, args.jobs)
        doc["description"] = (
            "Digests checked by scripts/check_exact.py: per label, each "
            "sweep bench's stdout and each run's --stats-json results "
            "(without events_executed and events_by_source).")
        with open(args.exact, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"updated {', '.join(labels)} in {args.exact}")
        return 0

    labels = args.only or sorted(LABELS)
    bad = []
    for label in labels:
        if label not in doc["labels"]:
            bad.append(f"{label}: no digests recorded")
            continue
        bad += compare(label, doc["labels"][label],
                       run_label(args.build, label, args.jobs))
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print(f"check_exact: {len(bad)} mismatches", file=sys.stderr)
        return 1
    print(f"check_exact: {', '.join(labels)} match {args.exact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
