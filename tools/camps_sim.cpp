// camps_sim — command-line front end for the CAMPS simulation stack.
//
// Runs one (workload, scheme) simulation of the Table I system and prints
// the results summary; optionally dumps the full per-vault statistics
// registry. All Table I parameters can be overridden from an INI config
// file (see configs/table1.ini for the recognized keys).
//
// Usage:
//   camps_sim [options]
//     --workload=ID      Table II workload (default MX1)
//     --scheme=NAME      NONE|BASE|BASE-HIT|MMD|CAMPS|CAMPS-MOD
//     --config=FILE      INI file with system overrides
//     --warmup=N         warmup instructions per core
//     --measure=N        measured instructions per core
//     --seed=N           workload seed
//     --audit            audit model invariants every 100000 events
//     --audit-every=N    audit model invariants every N executed events
//     --stats            dump the full statistics registry
//     --energy           dump the energy event breakdown
//     --stats-json=FILE  write results + statistics registry as JSON
//     --trace-out=FILE   write request-lifecycle spans as Chrome trace JSON
//     --trace-cap=N      span ring capacity (default 16384)
//     --epoch-ticks=N    sample device counters every N ticks
//     --epoch-csv=FILE   write the epoch time series as CSV
//     --epoch-json=FILE  write the epoch time series as JSON
//     --log-level=L      trace|debug|info|warn|error (default warn)
//
// Fault injection (docs/fault_injection.md; all off by default):
//     --fault-rate=R             serial-link CRC-failure rate (per packet)
//     --fault-link-drop=R        unrecoverable link-loss rate
//     --fault-xbar-drop=R        crossbar grant-drop rate
//     --fault-vault-stall=R      vault response-stall rate
//     --fault-seed=N             fault-plan seed (default 1)
//     --fault-retry-budget=N     host retries before poisoning (default 3)
//     --fault-degrade-threshold=N  vault faults per degradation flush
//     --fault-tokens=N           link flow-control credits (flits; 0 = off)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/chrome_trace.hpp"
#include "system/system.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=ID] [--scheme=NAME] [--config=FILE]\n"
               "          [--warmup=N] [--measure=N] [--seed=N]\n"
               "          [--audit] [--audit-every=N] [--stats] [--energy]\n"
               "          [--stats-json=FILE] [--trace-out=FILE] "
               "[--trace-cap=N]\n"
               "          [--epoch-ticks=N] [--epoch-csv=FILE] "
               "[--epoch-json=FILE] [--log-level=L]\n"
               "          [--fault-rate=R] [--fault-link-drop=R] "
               "[--fault-xbar-drop=R]\n"
               "          [--fault-vault-stall=R] [--fault-seed=N] "
               "[--fault-retry-budget=N]\n"
               "          [--fault-degrade-threshold=N] [--fault-tokens=N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace camps;

  std::string workload = "MX1";
  std::string config_path;
  bool dump_stats = false;
  bool dump_energy = false;
  std::string stats_json_path, trace_out_path, epoch_csv_path, epoch_json_path;
  u32 trace_cap = 0;
  u64 epoch_ticks = 0;
  system::SystemConfig cfg = system::table1_config();
  cfg.core.warmup_instructions = 100'000;
  cfg.core.measure_instructions = 500'000;

  std::string scheme_override;
  u64 warmup = 0, measure = 0, seed = 0;
  bool have_warmup = false, have_measure = false, have_seed = false;
  u64 audit_every = 0;
  bool have_audit = false;
  fault::FaultConfig fault_cfg;
  bool have_fault = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    auto number = [&](const char* prefix) {
      return cli::parse_u64(argv[0], arg, std::strlen(prefix), usage);
    };
    auto number32 = [&](const char* prefix) {
      return cli::parse_u32(argv[0], arg, std::strlen(prefix), usage);
    };
    auto rate = [&](const char* prefix) {
      return cli::parse_double(argv[0], arg, std::strlen(prefix), usage);
    };
    if (arg.rfind("--workload=", 0) == 0) {
      workload = value("--workload=");
    } else if (arg.rfind("--scheme=", 0) == 0) {
      scheme_override = value("--scheme=");
    } else if (arg.rfind("--config=", 0) == 0) {
      config_path = value("--config=");
    } else if (arg.rfind("--warmup=", 0) == 0) {
      warmup = number("--warmup=");
      have_warmup = true;
    } else if (arg.rfind("--measure=", 0) == 0) {
      measure = number("--measure=");
      have_measure = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = number("--seed=");
      have_seed = true;
    } else if (arg == "--audit") {
      audit_every = 100'000;
      have_audit = true;
    } else if (arg.rfind("--audit-every=", 0) == 0) {
      audit_every = number("--audit-every=");
      have_audit = true;
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--energy") {
      dump_energy = true;
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = value("--stats-json=");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out_path = value("--trace-out=");
    } else if (arg.rfind("--trace-cap=", 0) == 0) {
      trace_cap = number32("--trace-cap=");
    } else if (arg.rfind("--epoch-ticks=", 0) == 0) {
      epoch_ticks = number("--epoch-ticks=");
    } else if (arg.rfind("--epoch-csv=", 0) == 0) {
      epoch_csv_path = value("--epoch-csv=");
    } else if (arg.rfind("--epoch-json=", 0) == 0) {
      epoch_json_path = value("--epoch-json=");
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      fault_cfg.link_crc_rate = rate("--fault-rate=");
      have_fault = true;
    } else if (arg.rfind("--fault-link-drop=", 0) == 0) {
      fault_cfg.link_drop_rate = rate("--fault-link-drop=");
      have_fault = true;
    } else if (arg.rfind("--fault-xbar-drop=", 0) == 0) {
      fault_cfg.xbar_drop_rate = rate("--fault-xbar-drop=");
      have_fault = true;
    } else if (arg.rfind("--fault-vault-stall=", 0) == 0) {
      fault_cfg.vault_stall_rate = rate("--fault-vault-stall=");
      have_fault = true;
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      fault_cfg.seed = number("--fault-seed=");
      have_fault = true;
    } else if (arg.rfind("--fault-retry-budget=", 0) == 0) {
      fault_cfg.host_retry_budget = number32("--fault-retry-budget=");
      have_fault = true;
    } else if (arg.rfind("--fault-degrade-threshold=", 0) == 0) {
      fault_cfg.vault_degrade_threshold =
          number32("--fault-degrade-threshold=");
      have_fault = true;
    } else if (arg.rfind("--fault-tokens=", 0) == 0) {
      fault_cfg.link_tokens = number32("--fault-tokens=");
      have_fault = true;
    } else if (arg.rfind("--log-level=", 0) == 0) {
      set_log_level(cli::parse_log_level(argv[0], arg, 12, usage));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    if (!config_path.empty()) {
      cfg = system::apply_overrides(cfg, ConfigFile::load(config_path));
    }
    // Command-line flags win over the config file.
    if (!scheme_override.empty()) {
      cfg.scheme = prefetch::scheme_from_string(scheme_override);
    }
    if (have_warmup) cfg.core.warmup_instructions = warmup;
    if (have_measure) cfg.core.measure_instructions = measure;
    if (have_seed) cfg.seed = seed;
    if (have_audit) cfg.audit_every = audit_every;
    // Fault flags override the config file field-by-field: an explicit
    // --fault-* flag replaces the whole fault block with the flag-built one
    // seeded from defaults, matching how the other flags win.
    if (have_fault) cfg.hmc.fault = fault_cfg;
    cfg.obs.trace_enabled = !trace_out_path.empty();
    if (trace_cap > 0) cfg.obs.trace_capacity = trace_cap;
    // An epoch output without an explicit period gets a sensible default
    // (10 us of simulated time).
    if (epoch_ticks == 0 &&
        (!epoch_csv_path.empty() || !epoch_json_path.empty())) {
      epoch_ticks = 10'000 * sim::kTicksPerNs;
    }
    cfg.obs.epoch_ticks = epoch_ticks;

    std::printf("camps_sim: workload %s, scheme %s, %llu+%llu instr/core, "
                "seed %llu\n\n",
                workload.c_str(), prefetch::to_string(cfg.scheme),
                static_cast<unsigned long long>(cfg.core.warmup_instructions),
                static_cast<unsigned long long>(cfg.core.measure_instructions),
                static_cast<unsigned long long>(cfg.seed));

    auto sys = system::make_workload_system(cfg, workload);
    const auto results = sys->run();
    std::printf("%s", results.summary().c_str());

    std::printf("\nper-core IPC:");
    for (size_t c = 0; c < results.cores.size(); ++c) {
      std::printf(" %.3f", results.cores[c].ipc);
    }
    std::printf("\n");

    if (dump_energy) {
      std::printf("\n--- energy breakdown ---\n%s",
                  sys->memory().device().energy().breakdown().c_str());
    }
    if (dump_stats) {
      std::printf("\n--- statistics registry ---\n%s",
                  sys->stats().dump().c_str());
    }
    if (!stats_json_path.empty()) {
      // One document: the run's headline results plus the full registry
      // (per-vault counters, latency histograms). Deterministic: neither
      // part contains wall-clock.
      JsonWriter w(2);
      w.begin_object();
      w.field("workload", workload);
      w.field("scheme", prefetch::to_string(cfg.scheme));
      w.key("results");
      w.raw(results.to_json(0));
      w.key("registry");
      w.raw(sys->stats().dump_json(0));
      w.end_object();
      write_text_file(stats_json_path, w.str() + "\n");
      std::fprintf(stderr, "stats json written to %s\n",
                   stats_json_path.c_str());
    }
    if (!trace_out_path.empty()) {
      const std::string run_name =
          workload + "/" + prefetch::to_string(cfg.scheme);
      const std::vector<obs::Span> spans = sys->trace().sorted_spans();
      obs::write_chrome_trace(trace_out_path,
                              {obs::TraceRun{run_name, &spans}});
      std::fprintf(stderr, "trace written to %s (%zu spans, %llu dropped)\n",
                   trace_out_path.c_str(), spans.size(),
                   static_cast<unsigned long long>(results.trace_dropped));
    }
    if (results.epochs != nullptr) {
      if (!epoch_csv_path.empty()) {
        write_text_file(epoch_csv_path,
                        obs::EpochSampler::series_csv(*results.epochs));
        std::fprintf(stderr, "epoch csv written to %s\n",
                     epoch_csv_path.c_str());
      }
      if (!epoch_json_path.empty()) {
        write_text_file(
            epoch_json_path,
            obs::EpochSampler::series_json(*results.epochs,
                                           cfg.obs.epoch_ticks, 2) +
                "\n");
        std::fprintf(stderr, "epoch json written to %s\n",
                     epoch_json_path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
