#include "prefetch/scheme_stream.hpp"

#include "common/assert.hpp"

namespace camps::prefetch {

StreamScheme::StreamScheme(u32 banks, const StreamParams& params)
    : p_(params), detectors_(banks) {
  CAMPS_ASSERT(banks > 0);
  CAMPS_ASSERT(p_.confidence_threshold >= 1);
  CAMPS_ASSERT(p_.degree >= 1);
}

i64 StreamScheme::direction(BankId bank) const {
  CAMPS_ASSERT(bank < detectors_.size());
  const Detector& d = detectors_[bank];
  return d.confidence >= p_.confidence_threshold ? d.direction : 0;
}

u32 StreamScheme::confidence(BankId bank) const {
  CAMPS_ASSERT(bank < detectors_.size());
  return detectors_[bank].confidence;
}

PrefetchDecision StreamScheme::on_demand_access(const AccessContext& ctx) {
  if (ctx.outcome == dram::RowBufferOutcome::kHit) return {};

  Detector& d = detectors_[ctx.bank];
  if (!d.valid) {
    d = Detector{ctx.row, 0, 0, true};
    return {};
  }

  const i64 step = static_cast<i64>(ctx.row) - static_cast<i64>(d.last_row);
  d.last_row = ctx.row;
  if (step == 1 || step == -1) {
    if (step == d.direction) {
      ++d.confidence;
    } else {
      d.direction = step;
      d.confidence = 1;
    }
  } else {
    // Non-unit jump: the stream broke.
    d.direction = 0;
    d.confidence = 0;
    return {};
  }

  if (d.confidence < p_.confidence_threshold) return {};

  PrefetchDecision decision;
  for (u32 ahead = 1; ahead <= p_.degree; ++ahead) {
    const i64 target =
        static_cast<i64>(ctx.row) + d.direction * static_cast<i64>(ahead);
    if (target < 0) break;
    decision.extra_rows.push_back(static_cast<RowId>(target));
  }
  return decision;
}

}  // namespace camps::prefetch
