#!/usr/bin/env python3
"""Checks that the sweep benches still produce exactly the recorded results.

Usage:
    scripts/check_exact.py BUILD_DIR [--only LABEL]... [--jobs N]
                           [--keep-exports DIR]
    scripts/check_exact.py BUILD_DIR --update LABEL [--jobs N]

BUILD_DIR holds bench/bench_*, tools/camps_sim and tests/test_system (a CMake
build directory).
Each LABEL of EXACT.json names a scale and a seed: quick-seed1..3 run the 16
sweep benches at --quick, fig5-seed1 runs bench_fig5_speedup at its default
scale. For every bench the script hashes its stdout, and for every run in its
--stats-json it hashes the `results` object without `events_executed` and
`events_by_source` (the two fields that count simulator work, not simulated
behaviour). The camps-sim label covers what no bench exports: camps_sim's
HM1 fault campaign (stdout, `results` as above, and the statistics registry)
and its MX1 epoch CSV and JSON. The golden label holds the golden-results
test's FNV-1a hash of every Table II mix under the five paper schemes and of
the HM1 fault campaign (tests/system/test_golden_results.cpp, which reads the
label itself and fails on any moved hash); the script runs that test and
reads the `golden-digests` line it prints. --keep-exports DIR writes those exports to
DIR as RUN_EXPORT.EXT (hm1_faults_stats.json, mx1_epochs_epoch.csv,
mx1_epochs_epoch.json), so the CI checks their structure with
check_obs_exports.py without running camps_sim again. The check fails if
any digest differs from EXACT.json, so a change that claims to move no
simulated result proves it with one command. Every hash is independent of
--jobs and of the host.

The --quick labels alone cannot see a change to the write-drain hysteresis
(write_drain_high/low): fig5 --quick's 60 runs issue only 159 memory writes
in total, under 3 per run, because the 16 MB L3 almost never fills a set and
so almost never evicts a dirty line; no write queue comes near
write_drain_high (24). fig5-seed1 does drain writes; run it (about 1.5 min
at --jobs=2) for any vault change.

--update LABEL (or `all`) rewrites the digests of that label in EXACT.json,
the golden label included: no digest is pasted by hand.
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

# The camps_sim label: run name -> (flags, export flags). Each export flag
# takes a file name; a --stats-json file is hashed as `results` and
# `registry`, any other file as a whole.
CAMPS_SIM_LABEL = "camps-sim"
CAMPS_SIM_RUNS = {
    "hm1_faults": (["--workload=HM1", "--scheme=CAMPS-MOD", "--warmup=10000",
                    "--measure=50000", "--fault-rate=0.001",
                    "--fault-link-drop=0.0005", "--fault-seed=7"],
                   ["--stats-json"]),
    "mx1_epochs": (["--workload=MX1", "--scheme=CAMPS-MOD", "--warmup=5000",
                    "--measure=20000"],
                   ["--epoch-csv", "--epoch-json"]),
}
# The golden-results test, run alone; it prints its hashes on one line.
GOLDEN_LABEL = "golden"
GOLDEN_TEST = ("test_system", "GoldenResults.*")
GOLDEN_PREFIX = "golden-digests "
ALL_LABELS = sorted(LABELS) + [CAMPS_SIM_LABEL, GOLDEN_LABEL]

# Fields of `results` that count simulator events rather than model output.
WORK_FIELDS = ("events_executed", "events_by_source")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def digest_json(value):
    return digest(json.dumps(value, sort_keys=True).encode())


def digest_results(results):
    return digest_json({k: v for k, v in results.items()
                        if k not in WORK_FIELDS})


def run(name, argv):
    """Runs argv and returns its stdout; exits on failure."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"check_exact: {name} exited with {proc.returncode}")
    return proc.stdout


def run_bench(build, bench, flags, jobs):
    """Returns {"stdout": digest, "runs": {run name: digest}}."""
    path = os.path.join(build, "bench", "bench_" + bench)
    with tempfile.TemporaryDirectory() as tmp:
        stats = os.path.join(tmp, "stats.json")
        out = run(bench, [path, *flags, f"--jobs={jobs}", "--quiet",
                          f"--stats-json={stats}"])
        with open(stats) as f:
            runs = json.load(f)["runs"]
    hashed = {r["name"]: digest_results(r["results"]) for r in runs}
    return {"stdout": digest(out), "runs": hashed}


def export_file(run_name, flag):
    """--keep-exports file name: ("hm1_faults", "--stats-json") ->
    "hm1_faults_stats.json"."""
    base, ext = flag.lstrip("-").rsplit("-", 1)
    return f"{run_name}_{base}.{ext}"


def run_camps_sim(build, run_name, flags, exports, keep):
    """Returns {"stdout": digest, "runs": {export: digest}}; writes the
    exports into `keep` if it is set, else into a temporary directory."""
    path = os.path.join(build, "tools", "camps_sim")
    hashed = {}
    with tempfile.TemporaryDirectory() as tmp:
        where = keep or tmp
        files = {flag: os.path.join(where, export_file(run_name, flag))
                 for flag in exports}
        out = run("camps_sim", [path, *flags] +
                  [f"{flag}={file}" for flag, file in files.items()])
        for flag, file in files.items():
            if flag == "--stats-json":
                with open(file) as f:
                    doc = json.load(f)
                hashed["results"] = digest_results(doc["results"])
                hashed["registry"] = digest_json(doc["registry"])
            else:
                with open(file, "rb") as f:
                    hashed[flag.lstrip("-")] = digest(f.read())
    return {"stdout": digest(out), "runs": hashed}


def run_golden(build):
    """Returns {test binary: {"runs": {run name: digest}}}. The test's exit
    status is not checked: on a moved hash it fails, and compare() (or
    --update) still needs the hashes it printed."""
    binary, test_filter = GOLDEN_TEST
    path = os.path.join(build, "tests", binary)
    proc = subprocess.run([path, f"--gtest_filter={test_filter}"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for line in proc.stdout.decode(errors="replace").splitlines():
        if line.startswith(GOLDEN_PREFIX):
            return {binary: {"runs": json.loads(line[len(GOLDEN_PREFIX):])}}
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    raise SystemExit(f"check_exact: {binary} printed no {GOLDEN_PREFIX}line")


def run_label(build, label, jobs, keep=None):
    out = {}
    if label == GOLDEN_LABEL:
        print(f"  {label}: {GOLDEN_TEST[1]}", file=sys.stderr, flush=True)
        return run_golden(build)
    if label == CAMPS_SIM_LABEL:
        for name, (flags, exports) in CAMPS_SIM_RUNS.items():
            print(f"  {label}: {name}", file=sys.stderr, flush=True)
            out[name] = run_camps_sim(build, name, flags, exports, keep)
        return out
    benches, flags = LABELS[label]
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
        if w.get("stdout") != g.get("stdout"):
            bad.append(f"{label}/{bench}: stdout differs")
        for run in sorted(set(w["runs"]) | set(g["runs"])):
            if w["runs"].get(run) != g["runs"].get(run):
                bad.append(f"{label}/{bench}: results of {run} differ")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build", help="CMake build directory")
    ap.add_argument("--exact", default="EXACT.json")
    ap.add_argument("--only", action="append", choices=ALL_LABELS,
                    help="check only this label (repeatable)")
    ap.add_argument("--update", choices=ALL_LABELS + ["all"])
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--keep-exports", metavar="DIR",
                    help="write the camps-sim label's exports into DIR")
    args = ap.parse_args()
    if args.keep_exports:
        os.makedirs(args.keep_exports, exist_ok=True)

    doc = {"description": "", "labels": {}}
    if os.path.exists(args.exact):
        with open(args.exact) as f:
            doc = json.load(f)

    if args.update:
        labels = ALL_LABELS if args.update == "all" else [args.update]
        for label in labels:
            doc["labels"][label] = run_label(args.build, label, args.jobs,
                                             args.keep_exports)
        doc["description"] = (
            "Digests checked by scripts/check_exact.py: per label, each "
            "sweep bench's stdout and each run's --stats-json results "
            "(without events_executed and events_by_source); for camps-sim, "
            "each camps_sim run's stdout and exports; for golden, the "
            "golden-results test's FNV-1a hash of each run.")
        with open(args.exact, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"updated {', '.join(labels)} in {args.exact}")
        return 0

    labels = args.only or ALL_LABELS
    bad = []
    for label in labels:
        if label not in doc["labels"]:
            bad.append(f"{label}: no digests recorded")
            continue
        bad += compare(label, doc["labels"][label],
                       run_label(args.build, label, args.jobs,
                                 args.keep_exports))
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        print(f"check_exact: {len(bad)} mismatches", file=sys.stderr)
        return 1
    print(f"check_exact: {', '.join(labels)} match {args.exact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
