// STREAM — an extension scheme, not part of the paper's evaluation.
//
// The paper's related work contrasts CAMPS with adaptive stream detection
// (Hur & Lin, MICRO 2006), which prefetches ahead of detected sequential
// streams. This is a vault-side, row-granularity adaptation: a per-bank
// detector watches the direction of consecutive row activations; once a
// direction is confirmed `confidence_threshold` times, the next
// `degree` rows in stream order are prefetched (open-page policy, LRU
// buffer). It shines on strided/streaming row traffic and does nothing for
// conflict-dominated access patterns — exactly the gap CAMPS targets; the
// bench_ext_stream binary quantifies that contrast.
#pragma once

#include <string>
#include <vector>

#include "prefetch/scheme.hpp"

namespace camps::prefetch {

struct StreamParams {
  u32 confidence_threshold = 2;  ///< Same-direction steps to confirm.
  u32 degree = 2;                ///< Rows prefetched ahead once confirmed.

  bool operator==(const StreamParams&) const = default;
};

class StreamScheme final : public PrefetchScheme {
 public:
  /// `banks` is the vault's bank count: one detector per bank.
  explicit StreamScheme(u32 banks, const StreamParams& params = {});

  PrefetchDecision on_demand_access(const AccessContext& ctx) override;
  std::string name() const override { return "STREAM"; }

  /// Detector state for tests: confirmed direction of a bank (0 if none).
  i64 direction(BankId bank) const;
  u32 confidence(BankId bank) const;

 private:
  struct Detector {
    RowId last_row = 0;
    i64 direction = 0;   ///< +1 / -1 once any step was seen; 0 initially.
    u32 confidence = 0;
    bool valid = false;
  };

  StreamParams p_;
  std::vector<Detector> detectors_;
};

}  // namespace camps::prefetch
