#!/usr/bin/env python3
"""CI gate for the observability exports.

Usage:
  scripts/check_obs_exports.py STATS_JSON TRACE_JSON
  scripts/check_obs_exports.py --sim SIM_STATS_JSON
  scripts/check_obs_exports.py --epochs EPOCH_CSV EPOCH_JSON

Validates that a bench's --stats-json document is well-formed and complete
(config, table, per-run results with the latency breakdown, no wall-clock
fields, p50 <= p95 <= p99 in every stage) and that its --trace-out document
is a loadable Chrome trace with spans from every instrumented component.

With --sim, validates a camps_sim --stats-json document instead: every
registry histogram must report min <= p50 <= p95 <= p99 <= max, and every
latency stage (plus the fault recovery stage, when present) must be ordered
and lie within its registry histogram's [min, max]. The registry must hold
exactly "counters" and "histograms", each results.faults.<name> counter
must equal registry counter "fault.<name>", and results.faults.injected
must be the sum of the four injection counters.

With --epochs, validates a camps_sim --epoch-csv file against the
--epoch-json file of the same run: the CSV header must equal every JSON
sample's keys, in order, and each CSV row must agree with its sample.

Exits non-zero with a message on the first violation.
"""
import csv
import json
import sys

# Stage names per instrumented component (see docs/observability.md). A
# trace must contain at least one span from each component family.
COMPONENT_STAGES = {
    "host_controller": {"host_read", "host_queue"},
    "serial_link": {"link_down", "link_up"},
    "crossbar": {"xbar_down", "xbar_up"},
    "vault_controller": {"vault_queue", "buffer_hit"},
    "dram_bank": {"bank_act", "bank_pre", "bank_service", "row_fetch"},
    "prefetch_buffer": {"pf_insert", "pf_evict"},
}

LATENCY_STAGES = {
    "host_queue", "link_down", "link_up", "vault_queue", "bank_service",
    "buffer_hit", "total_read",
}
PERCENTILES = ("p50", "p95", "p99")


def fail(msg):
    print(f"check_obs_exports: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_ordered(where, stats, lo=None, hi=None):
    """Fails unless lo <= p50 <= p95 <= p99 <= hi (bounds optional)."""
    chain = [stats[p] for p in PERCENTILES]
    if lo is not None:
        chain.insert(0, lo)
    if hi is not None:
        chain.append(hi)
    if any(a > b for a, b in zip(chain, chain[1:])):
        shown = {k: stats[k] for k in PERCENTILES}
        fail(f"{where}: percentiles {shown} not ordered within "
             f"[{lo}, {hi}]")


def check_stages(where, results):
    for name, stage in results["latency"].items():
        check_ordered(f"{where} latency.{name}", stage)
    recovery = results.get("faults", {}).get("recovery")
    if recovery is not None:
        check_ordered(f"{where} faults.recovery", recovery)


def check_stats(path):
    with open(path) as f:
        doc = json.load(f)
    for key in ("bench", "config", "table", "runs"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    table = doc["table"]
    if not table.get("headers") or not table.get("rows"):
        fail(f"{path}: table must have non-empty headers and rows")
    if not doc["runs"]:
        fail(f"{path}: no runs exported")
    for run in doc["runs"]:
        results = run.get("results", {})
        latency = results.get("latency")
        if latency is None:
            fail(f"{path}: run {run.get('name')} has no latency breakdown")
        if set(latency) != LATENCY_STAGES:
            fail(f"{path}: run {run.get('name')} latency stages "
                 f"{sorted(latency)} != {sorted(LATENCY_STAGES)}")
        if latency["total_read"]["count"] == 0:
            fail(f"{path}: run {run.get('name')} measured no reads")
        check_stages(f"{path}: run {run.get('name')}", results)
    if "wall_seconds" in json.dumps(doc):
        fail(f"{path}: wall-clock leaked into a deterministic export")
    print(f"check_obs_exports: {path} OK ({len(doc['runs'])} runs)")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not events:
        fail(f"{path}: no traceEvents")
    stages = {e["name"] for e in events if e.get("cat") == "camps"}
    for component, expected in COMPONENT_STAGES.items():
        if not stages & expected:
            fail(f"{path}: no spans from {component} "
                 f"(expected one of {sorted(expected)})")
    print(f"check_obs_exports: {path} OK "
          f"({len(events)} events, {len(stages)} stages)")


def check_sim(path):
    with open(path) as f:
        doc = json.load(f)
    histograms = doc["registry"]["histograms"]
    sampled = {k: h for k, h in histograms.items() if h["count"] > 0}
    if not sampled:
        fail(f"{path}: no registry histogram has samples")
    for name, h in sampled.items():
        check_ordered(f"{path}: histogram {name}", h, h["min"], h["max"])
    results = doc["results"]
    check_stages(path, results)
    stages = {f"latency.{s}_cycles": results["latency"][s]
              for s in LATENCY_STAGES}
    if "faults" in results:
        stages["fault.recovery_cycles"] = results["faults"]["recovery"]
    for name, stage in stages.items():
        h = histograms.get(name)
        if h is None:
            fail(f"{path}: stage {name} has no registry histogram")
        if h["count"] > 0:
            check_ordered(f"{path}: stage {name}", stage, h["min"], h["max"])
    if set(doc["registry"]) != {"counters", "histograms"}:
        fail(f"{path}: registry sections {sorted(doc['registry'])} != "
             "['counters', 'histograms']")
    check_fault_counters(path, results.get("faults"),
                         doc["registry"]["counters"])
    print(f"check_obs_exports: {path} OK ({len(sampled)} histograms)")


def check_fault_counters(path, faults, counters):
    """Each results.faults counter is its registry counter fault.<name>."""
    if faults is None:
        return
    for name, value in faults.items():
        if name in ("injected", "recovery"):
            continue
        registry = counters.get(f"fault.{name}")
        if registry != value:
            fail(f"{path}: results.faults.{name} = {value} but registry "
                 f"counter fault.{name} = {registry}")
    injected = sum(faults[k] for k in
                   ("crc_errors", "link_drops", "xbar_drops", "vault_stalls"))
    if faults["injected"] != injected:
        fail(f"{path}: results.faults.injected = {faults['injected']} but "
             f"its four injection counters sum to {injected}")


def check_epochs(csv_path, json_path):
    with open(csv_path, newline="") as f:
        header, *rows = list(csv.reader(f))
    with open(json_path) as f:
        samples = json.load(f)["samples"]
    if not samples:
        fail(f"{json_path}: no epoch samples")
    if len(rows) != len(samples):
        fail(f"{csv_path}: {len(rows)} rows but {json_path} has "
             f"{len(samples)} samples")
    for i, (row, sample) in enumerate(zip(rows, samples)):
        if list(sample) != header:
            fail(f"{json_path}: sample {i} keys {list(sample)} != CSV "
                 f"header {header}")
        if len(row) != len(header):
            fail(f"{csv_path}: row {i} has {len(row)} cells for "
                 f"{len(header)} columns")
        for name, cell in zip(header, row):
            if json.loads(cell) != sample[name]:
                fail(f"{csv_path}: row {i} {name} = {cell} but the JSON "
                     f"sample has {sample[name]}")
    print(f"check_obs_exports: {csv_path} matches {json_path} "
          f"({len(samples)} samples, {len(header)} columns)")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--sim":
        check_sim(sys.argv[2])
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "--epochs":
        check_epochs(sys.argv[2], sys.argv[3])
        return 0
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    check_stats(sys.argv[1])
    check_trace(sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
