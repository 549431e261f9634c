// Golden-results exactness: every Table II mix under the five paper schemes,
// plus the HM1 fault campaign, must reproduce its RunResults bit for bit.
// Each run's to_json() (minus the host-cost fields events_executed,
// events_by_source and wall_seconds) is hashed and compared against the
// `golden` label of EXACT.json, next to every other exactness digest. A
// change that is meant to be exact — an event-queue or scheduler
// optimisation — must leave every hash alone. The test prints the hashes it
// computed as one `golden-digests {...}` line, so a deliberate model change
// re-baselines with `scripts/check_exact.py BUILD_DIR --update golden`,
// which runs this test and writes that line into EXACT.json.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "exp/runner.hpp"

namespace camps::exp {
namespace {

/// 64-bit FNV-1a: stable across platforms and standard libraries.
u64 fnv1a(const std::string& text) {
  u64 h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

ExperimentConfig small_budget() {
  ExperimentConfig cfg;
  cfg.warmup_instructions = 2'000;
  cfg.measure_instructions = 8'000;
  cfg.jobs = 2;
  return cfg;
}

/// Hashes every cached run under `prefix` + "workload/SCHEME".
void hash_runs(const Runner& runner, const std::string& prefix,
               std::map<std::string, std::string>& out) {
  for (const auto& [key, results] : runner.results()) {
    system::RunResults exact = results;
    exact.events_executed = 0;  // host cost: what this test lets move
    exact.events_by_source = {};
    exact.wall_seconds = 0.0;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(exact.to_json())));
    out[prefix + key.first + "/" + prefetch::to_string(key.second)] = hex;
  }
}

/// The `golden` label of EXACT.json: run name -> 16-hex-digit hash.
std::map<std::string, std::string> recorded_digests() {
  std::ifstream in(CAMPS_SOURCE_DIR "/EXACT.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  // The label's runs are one flat object of "name": "digest" pairs.
  const size_t label = doc.find("\"golden\"");
  if (label == std::string::npos) return {};
  const size_t open = doc.find('{', doc.find("\"runs\"", label));
  const std::string runs = doc.substr(open, doc.find('}', open) - open);
  static const std::regex pair(R"re("([^"]+)":\s*"([0-9a-f]{16})")re");
  std::map<std::string, std::string> out;
  for (std::sregex_iterator it(runs.begin(), runs.end(), pair), end;
       it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

TEST(GoldenResults, PaperSweepAndFaultCampaignAreExact) {
  std::map<std::string, std::string> actual;

  Runner sweep(small_budget());
  sweep.run_all(Runner::all_workloads(), prefetch::paper_schemes());
  hash_runs(sweep, "", actual);

  ExperimentConfig faulted = small_budget();
  faulted.fault.link_crc_rate = 0.001;
  faulted.fault.link_drop_rate = 0.0005;
  faulted.fault.seed = 7;
  Runner campaign(faulted);
  campaign.run_all({"HM1"}, prefetch::paper_schemes());
  hash_runs(campaign, "faults/", actual);
  u64 retries = 0;
  for (const auto& [key, results] : campaign.results()) {
    retries += results.faults.host_retries;
  }
  EXPECT_GT(retries, 0u) << "the campaign must fire host timeouts";

  ASSERT_EQ(actual.size(), 12u * 5u + 5u);
  std::string line = "golden-digests {";
  for (const auto& [label, hash] : actual) {
    if (line.back() != '{') line += ", ";
    line += "\"" + label + "\": \"" + hash + "\"";
  }
  std::printf("%s}\n", line.c_str());
  EXPECT_EQ(actual, recorded_digests())
      << "simulated results moved; if deliberate, run "
         "scripts/check_exact.py BUILD_DIR --update golden";
}

}  // namespace
}  // namespace camps::exp
