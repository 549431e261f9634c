// Shared driver for the figure/table reproduction binaries. A bench is a
// Spec: its name, banner, the jobs it needs and a render function from the
// finished exp::Runner to a table plus footer. run() owns everything else,
// so each bench's main() is one line. Every bench accepts the twelve flags
// of kUsage below; unknown flags are fatal: a typo like `--measure 1000`
// (missing '=') must not silently run the default budget and waste a sweep.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "obs/chrome_trace.hpp"

namespace camps::bench {

/// --help text; `%s` is the binary's name.
inline constexpr const char* kUsage =
    "usage: %s [FLAG]...\n"
    "  --quick      five-times-smaller instruction budget (smoke runs)\n"
    "  --measure=N  detailed-window instructions per core\n"
    "  --warmup=N   warmup instructions per core\n"
    "  --seed=N     workload generation seed\n"
    "  --audit      audit model invariants every 100000 events in every run\n"
    "  --jobs=N     sweep worker threads (default: all hardware threads)\n"
    "  --quiet      suppress per-run progress on stderr\n"
    "  --csv=FILE   also write the main table as CSV\n"
    "  --stats-json=FILE  also write results as JSON (same for any --jobs)\n"
    "  --trace-out=FILE   write per-request spans as Chrome trace JSON\n"
    "  --trace-cap=N      span ring capacity per run (default 16384)\n"
    "  --log-level=L      trace|debug|info|warn|error (default warn)\n";

/// What a bench prints: its main table, then `footer` verbatim.
struct Output {
  exp::Table table;
  std::string footer;
};

/// Everything that differs between two sweep benches.
struct Spec {
  const char* name;      ///< "fig5_speedup": the --stats-json "bench" field.
  const char* title;     ///< Banner heading.
  const char* headline;  ///< The paper's claim, printed under the heading.
  std::vector<exp::Runner::Job> jobs;  ///< Every run render() reads.
  Output (*render)(exp::Runner& runner);
};

/// One table row: `label`, then `cell(p)` for each p in `ps`.
template <typename Points, typename Cell>
std::vector<std::string> row(std::string label, const Points& ps, Cell cell) {
  std::vector<std::string> out{std::move(label)};
  for (const auto& p : ps) out.push_back(cell(p));
  return out;
}

/// A numeric ablation axis: at(v) is the Variant "<name>=<v>", whose edit
/// is set(config, v).
struct Axis {
  const char* name;
  std::vector<u32> values;
  void (*set)(system::SystemConfig& config, u32 value);

  exp::Variant at(u32 v) const {
    return {std::string(name) + "=" + std::to_string(v),
            [set = set, v](system::SystemConfig& config) { set(config, v); }};
  }

  /// Every (workload, scheme, value) point, plus BASE on each workload (the
  /// speedup denominator).
  std::vector<exp::Runner::Job> jobs(
      const std::vector<std::string>& workloads,
      const std::vector<prefetch::SchemeKind>& schemes) const {
    std::vector<exp::Variant> points;
    for (u32 v : values) points.push_back(at(v));
    auto out = exp::Runner::cross(workloads, schemes, points);
    for (const auto& w : workloads) {
      out.push_back({w, prefetch::SchemeKind::kBase});
    }
    return out;
  }
};

/// printf into a std::string (bench footers).
[[gnu::format(printf, 1, 2)]] inline std::string format(const char* f, ...) {
  char buf[1024];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof buf, f, args);
  va_end(args);
  return buf;
}

/// Parsed flags; an empty path means that export was not requested.
struct Options {
  exp::ExperimentConfig cfg;
  std::string csv, stats_json, trace_out;
};

inline void print_usage(const char* argv0) {
  std::fprintf(stderr, kUsage, argv0);
}

inline Options parse_args(int argc, char** argv) {
  Options opt;
  exp::ExperimentConfig& cfg = opt.cfg;
  cfg.warmup_instructions = 50'000;
  cfg.measure_instructions = 250'000;
  cfg.verbose = true;
  const char* argv0 = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto number = [&](size_t prefix_len) {
      return cli::parse_u64(argv0, arg, prefix_len, print_usage);
    };
    if (arg == "--quick") {
      cfg.warmup_instructions /= 5;
      cfg.measure_instructions /= 5;
    } else if (arg.rfind("--measure=", 0) == 0) {
      cfg.measure_instructions = number(10);
    } else if (arg.rfind("--warmup=", 0) == 0) {
      cfg.warmup_instructions = number(9);
    } else if (arg.rfind("--seed=", 0) == 0) {
      cfg.seed = number(7);
    } else if (arg == "--audit") {
      cfg.audit_every = 100'000;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      cfg.jobs = cli::parse_u32(argv0, arg, 7, print_usage);
    } else if (arg == "--quiet") {
      cfg.verbose = false;
    } else if (arg.rfind("--csv=", 0) == 0) {
      opt.csv = arg.substr(6);
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      opt.stats_json = arg.substr(13);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = arg.substr(12);
    } else if (arg.rfind("--trace-cap=", 0) == 0) {
      cfg.obs.trace_capacity = cli::parse_u32(argv0, arg, 12, print_usage);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      set_log_level(cli::parse_log_level(argv0, arg, 12, print_usage));
    } else if (arg == "--help") {
      print_usage(argv0);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument: %s\n", argv0, arg.c_str());
      // Catch the `--flag value` (instead of `--flag=value`) shape.
      if (std::strstr(kUsage, ("  " + arg + "=").c_str()) != nullptr) {
        std::fprintf(stderr, "(did you mean %s=VALUE?)\n", arg.c_str());
      }
      print_usage(argv0);
      std::exit(2);
    }
  }
  // Tracing is armed by asking for the output file; the recorder itself
  // costs one branch per instrumentation point otherwise.
  cfg.obs.trace_enabled = !opt.trace_out.empty();
  return opt;
}

/// The bench-level JSON document. Layout: {"bench", "config", "table",
/// "runs": [{"name", "results"}...]}, runs in the cache's map order and
/// emitted compactly (one line each) inside a pretty-printed shell.
/// Excludes wall-clock, so the file is byte-identical across --jobs values.
inline void write_stats_json(const std::string& path, const char* bench,
                             const exp::Runner& runner,
                             const exp::Table& table) {
  JsonWriter w(2);
  w.begin_object();
  w.field("bench", bench);
  w.key("config");
  w.begin_object();
  w.field("warmup_instructions", runner.config().warmup_instructions);
  w.field("measure_instructions", runner.config().measure_instructions);
  w.field("seed", runner.config().seed);
  w.end_object();
  w.key("table");
  w.raw(table.to_json(0));
  w.key("runs");
  w.begin_array();
  for (const auto& [key, res] : runner.results()) {
    w.begin_object();
    w.field("name", exp::Runner::run_name(key));
    w.key("results");
    w.raw(res.to_json(0));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  write_text_file(path, w.str() + "\n");
  std::fprintf(stderr, "stats json written to %s\n", path.c_str());
}

/// All runs' spans as one Chrome trace (each run is a viewer process).
inline void write_trace(const std::string& path, const exp::Runner& runner) {
  std::vector<obs::TraceRun> trace_runs;
  for (const auto& [key, res] : runner.results()) {
    if (res.trace_spans == nullptr) continue;
    trace_runs.push_back(
        obs::TraceRun{exp::Runner::run_name(key), res.trace_spans.get()});
  }
  obs::write_chrome_trace(path, trace_runs);
  std::fprintf(stderr, "trace written to %s (%zu runs)\n", path.c_str(),
               trace_runs.size());
}

/// A sweep bench's whole main(): flags, banner, the spec's jobs, its table
/// and footer, the requested exports and the sweep's host-side cost.
inline int run(int argc, char** argv, const Spec& spec) {
  const Options opt = parse_args(argc, argv);
  const exp::ExperimentConfig& cfg = opt.cfg;
  std::printf(
      "=== %s ===\npaper: %s\nrun: %llu warmup + %llu measured "
      "instructions/core, seed %llu\n\n",
      spec.title, spec.headline,
      static_cast<unsigned long long>(cfg.warmup_instructions),
      static_cast<unsigned long long>(cfg.measure_instructions),
      static_cast<unsigned long long>(cfg.seed));
  exp::Runner runner(cfg);
  runner.run_all(spec.jobs);
  const Output out = spec.render(runner);
  std::printf("%s", out.table.to_string().c_str());
  if (!opt.csv.empty()) {
    out.table.write_csv(opt.csv);
    std::fprintf(stderr, "csv written to %s\n", opt.csv.c_str());
  }
  if (!opt.stats_json.empty()) {
    write_stats_json(opt.stats_json, spec.name, runner, out.table);
  }
  if (!opt.trace_out.empty()) write_trace(opt.trace_out, runner);
  std::printf("%s", out.footer.c_str());
  // Host-side cost goes to stderr, so stdout stays byte-identical across
  // --jobs settings.
  const auto& t = runner.timing();
  std::fprintf(stderr,
               "timing: %llu runs, %.2fs wall, %.2fs simulation, "
               "%llu events (%.2f Mevents/s per worker)\n",
               static_cast<unsigned long long>(t.runs), t.sweep_seconds,
               t.run_seconds, static_cast<unsigned long long>(t.events),
               t.events_per_second() / 1e6);
  return 0;
}

}  // namespace camps::bench
