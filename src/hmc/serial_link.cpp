#include "hmc/serial_link.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "fault/fault_plan.hpp"
#include "sim/clock.hpp"

namespace camps::hmc {

LinkDirection::LinkDirection(const LinkParams& params, u32 tokens)
    : p_(params), tokens_(tokens), tokens_available_(tokens) {
  CAMPS_ASSERT(p_.lanes > 0);
  CAMPS_ASSERT(p_.gbps_per_lane > 0.0);
}

Tick LinkDirection::serialization_ticks(u32 flits) const {
  // bytes/ns = lanes * gbps / 8; ticks = bytes / (bytes/ns) * ticksPerNs.
  const double bytes = static_cast<double>(flits) * kFlitBytes;
  const double bytes_per_ns = static_cast<double>(p_.lanes) * p_.gbps_per_lane / 8.0;
  const double ns = bytes / bytes_per_ns;
  return static_cast<Tick>(std::ceil(ns * static_cast<double>(sim::kTicksPerNs)));
}

u32 LinkDirection::tokens_pending() const {
  u32 pending = 0;
  for (const TokenReturn& t : token_returns_) pending += t.flits;
  return pending;
}

void LinkDirection::reap(Tick now) {
  while (!retry_buffer_.empty() && retry_buffer_.front().ack_tick <= now) {
    retry_buffer_.pop_front();
  }
  while (!token_returns_.empty() && token_returns_.front().at <= now) {
    tokens_available_ += token_returns_.front().flits;
    token_returns_.pop_front();
  }
}

LinkDirection::Transfer LinkDirection::submit(Tick now, u32 flits,
                                              u64 trace_id) {
  CAMPS_ASSERT(flits > 0);
  reap(now);
  Tick start = std::max(now, busy_until_);

  // Flow control: serialization may not begin until enough credits are on
  // hand. Credits return in FIFO order, so draining the pending queue from
  // the front finds the earliest tick with a sufficient balance.
  if (tokens_ > 0) {
    CAMPS_ASSERT_MSG(flits <= tokens_,
                     "packet larger than the whole token pool");
    Tick credit_ready = start;
    while (tokens_available_ < flits) {
      CAMPS_ASSERT_MSG(!token_returns_.empty(),
                       "token accounting lost credits");
      credit_ready = std::max(credit_ready, token_returns_.front().at);
      tokens_available_ += token_returns_.front().flits;
      token_returns_.pop_front();
    }
    if (credit_ready > start && plan_ != nullptr) {
      plan_->count_token_stall_ticks(credit_ready - start);
    }
    start = std::max(start, credit_ready);
    tokens_available_ -= flits;
  }

  if (p_.power_management && packets_carried_ > 0 &&
      now > busy_until_ && now - busy_until_ > p_.sleep_timeout) {
    // The link slept through the idle gap; the SerDes must retrain before
    // this packet serializes.
    ticks_asleep_ += (now - busy_until_) - p_.sleep_timeout;
    ++wakeups_;
    start = std::max(start, now + p_.wake_ticks);
  }

  const Tick ser = serialization_ticks(flits);
  busy_until_ = start + ser;
  busy_ticks_ += ser;
  flits_carried_ += flits;
  ++packets_carried_;
  Tick deliver = busy_until_ + p_.flight_ticks;

  Transfer xfer;
  xfer.start = start;
  xfer.sequence = seq_next_++;

  if (plan_ != nullptr) {
    using fault::Site;
    const Site crc_site =
        fault_upstream_ ? Site::kLinkUpCrc : Site::kLinkDownCrc;
    const Site drop_site =
        fault_upstream_ ? Site::kLinkUpDrop : Site::kLinkDownDrop;

    if (plan_->roll(drop_site, fault_unit_)) {
      // Lost beyond the retry buffer's reach (models retry-buffer overflow
      // or a persistent lane failure). The link time was spent; the packet
      // never arrives and is not parked for replay — recovery is the
      // requester's problem (host timeout path).
      ++drops_;
      plan_->count_link_drop();
      xfer.dropped = true;
      if (trace_ != nullptr) {
        trace_->record(trace_stage_, trace_track_, trace_id, start,
                       busy_until_);
      }
      if (tokens_ > 0) {
        // The credits come back regardless (the link-level timeout frees
        // the far-end buffer slot) — otherwise every drop would shrink the
        // pool until the link deadlocks.
        token_returns_.push_back({busy_until_ + p_.token_return_ticks, flits});
      }
      return xfer;
    }

    // CRC-failed attempts replay from the retry buffer: the corruption is
    // detected at the far end (the delivery flight already in `deliver`),
    // the retry request travels back (retry_overhead), and the buffered
    // copy re-serializes behind whatever else the link accepted meanwhile —
    // delivering the identical flits under the same sequence number, just
    // later. Each replay re-rolls, so bursty CRC faults compound; the
    // bound is only a safety net against rate = 1.0 configurations.
    constexpr u32 kMaxReplays = 8;
    const Tick first_deliver = deliver;
    const Tick overhead = plan_->config().link_retry_overhead_ticks;
    while (xfer.replays < kMaxReplays && plan_->roll(crc_site, fault_unit_)) {
      ++crc_errors_;
      ++replays_;
      ++xfer.replays;
      plan_->count_crc_error();
      const Tick replay_start = std::max(busy_until_, deliver + overhead);
      busy_until_ = replay_start + ser;
      busy_ticks_ += ser;
      deliver = busy_until_ + p_.flight_ticks;
    }
    if (xfer.replays > 0) plan_->count_replay(deliver - first_deliver);

    // Park the packet until the far end's acknowledgement returns (one
    // flight after clean delivery). Only maintained under fault injection:
    // without a plan no replay can ever read it, and the fault-free hot
    // path stays free of deque churn.
    retry_buffer_.push_back({xfer.sequence, flits, deliver + p_.flight_ticks});
  }

  if (trace_ != nullptr) {
    trace_->record(trace_stage_, trace_track_, trace_id, start, deliver);
  }
  if (tokens_ > 0) {
    token_returns_.push_back({deliver + p_.token_return_ticks, flits});
  }
  xfer.deliver = deliver;
  return xfer;
}

}  // namespace camps::hmc
