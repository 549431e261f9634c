// MMD (Section 5): the existing memory-side prefetcher the paper compares
// against — "dynamically adjusts the prefetch degree based on the
// usefulness of prefetched data and uses traditional LRU policy for
// prefetch buffer management". Modeled on Yedlapalli et al., "Meeting
// Midway" (PACT 2013 [8]), adapted — as the paper itself adapts it — to
// row-granularity prefetching inside an HMC vault:
//
//   - Trigger: a demand access that misses the row buffer (the row gets
//     activated anyway) prefetches that row plus the next (degree-1)
//     sequential rows of the same bank.
//   - Feedback: evictions from the prefetch buffer report whether the row
//     was ever referenced. Per epoch of evictions, usefulness above/below
//     thresholds raises/lowers the degree within [0, max_degree].
//   - Recovery: at degree 0 the prefetcher is off and would starve of
//     feedback forever; after `probe_interval` further demand misses it
//     probes again at degree 1 (standard practice in feedback prefetchers,
//     cf. Srinath et al. FDP, HPCA 2007).
#pragma once

#include <string>

#include "prefetch/scheme.hpp"

namespace camps::prefetch {

struct MmdParams {
  u32 initial_degree = 1;
  u32 max_degree = 1;  ///< Same-bank lookahead is useless under RoRaBaVaCo
                       ///< striping (row+1 lives in another vault), so the
                       ///< default adapts on/off only; raise for the ablation.
  u32 epoch_evictions = 32;     ///< Feedback window length.
  double raise_threshold = 0.65;///< Usefulness above this: degree++.
  double lower_threshold = 0.45;///< Usefulness below this: degree--.
  u32 probe_interval = 128;     ///< Demand misses before re-probing at 0.

  bool operator==(const MmdParams&) const = default;
};

class MmdScheme final : public PrefetchScheme {
 public:
  explicit MmdScheme(const MmdParams& params = {});

  PrefetchDecision on_demand_access(const AccessContext& ctx) override;
  void on_prefetch_evicted(BankRow row, bool was_used) override;
  std::string name() const override { return "MMD"; }

  u32 degree() const { return degree_; }
  u64 epochs_completed() const { return epochs_; }

 private:
  MmdParams p_;
  u32 degree_;
  u32 epoch_used_ = 0;
  u32 epoch_total_ = 0;
  u32 misses_at_zero_ = 0;
  u64 epochs_ = 0;
};

}  // namespace camps::prefetch
