// Full-duplex HMC serial link (Table I: 4 links, 16 input + 16 output
// lanes, 12.5 Gbps per lane).
//
// Each direction is an independent serializer: 16 lanes x 12.5 Gbps =
// 25 GB/s, i.e. one 16 B flit every 0.64 ns. The tick quantum (1/24 ns)
// cannot represent 0.64 ns exactly, so each packet's serialization time is
// rounded UP to whole ticks — under-reporting link bandwidth by < 3%,
// which is conservative for prefetching results (links look slightly more
// congested than reality, never less). A fixed SerDes+flight latency is
// added on top.
// Reliability (fault-injection extension): each direction carries a
// sequence-numbered retry buffer. Every packet is held until the far end's
// implicit acknowledgement returns (one flight time after delivery); a
// CRC-failed transfer is replayed from the buffer — re-serialized after
// the retry request comes back — so the far end still receives the packet
// byte-identically, just later. Token-based flow control (link_tokens > 0)
// models the HMC credit loop: a packet may not start serializing until
// enough flit credits have returned from previously delivered packets.
// Both mechanisms are inert (zero cost, zero state) unless a FaultPlan is
// attached or tokens are configured.
#pragma once

#include <deque>

#include "common/types.hpp"
#include "hmc/packet.hpp"
#include "obs/trace_recorder.hpp"

namespace camps::fault {
class FaultPlan;
}  // namespace camps::fault

namespace camps::hmc {

struct LinkParams {
  u32 lanes = 16;
  double gbps_per_lane = 12.5;
  /// One-way SerDes + propagation latency, in ticks (default 4 ns).
  Tick flight_ticks = 96;

  /// Credit-loop latency: a delivered packet's tokens return this long
  /// after delivery (default: one flight time back).
  Tick token_return_ticks = 96;

  /// Link power management (extension; cf. Ahn et al., IEEE TVLSI 2016 —
  /// the paper's reference [13]): after `sleep_timeout` idle ticks the
  /// SerDes drops into a low-power state and the next packet pays
  /// `wake_ticks` before serialization starts. Disabled by default — the
  /// paper's configuration keeps links always on.
  bool power_management = false;
  Tick sleep_timeout = 24 * 100;  ///< 100 ns of idleness.
  Tick wake_ticks = 24 * 40;      ///< 40 ns SerDes retrain.

  bool operator==(const LinkParams&) const = default;
};

/// One direction of one link: a bandwidth-limited FIFO pipe.
class LinkDirection {
 public:
  /// `tokens` is the flow-control credit pool in flits
  /// (FaultConfig::link_tokens). 0 disables the token loop entirely (the
  /// paper's configuration: links are never the credit-limited resource);
  /// otherwise a packet's serialization stalls until enough credits have
  /// returned.
  explicit LinkDirection(const LinkParams& params = {}, u32 tokens = 0);

  /// A packet's passage through this direction: serialization begins at
  /// `start` (>= submission time when the pipe is backed up, waking, or
  /// waiting for flow-control credits) and the far end receives the last
  /// flit at `deliver`.
  struct Transfer {
    Tick start = 0;
    Tick deliver = 0;
    /// Retry-buffer sequence number assigned to this packet.
    u64 sequence = 0;
    /// CRC replays this packet needed before clean delivery (0 normally).
    u32 replays = 0;
    /// The transfer was lost beyond the retry buffer's ability to recover
    /// (injected unrecoverable fault): `deliver` is meaningless and the
    /// caller must not forward the packet. Recovery is the requester's
    /// problem (host timeout path).
    bool dropped = false;
  };

  /// Accepts a packet at `now`; returns when its serialization started
  /// (for host-queue-wait accounting) and its delivery tick at the far end.
  /// Packets serialize in submission order (FIFO). `trace_id` tags the
  /// serialization span when tracing is armed.
  Transfer submit(Tick now, u32 flits, u64 trace_id = 0);

  /// Arms span recording for this direction (stage kLinkDown or kLinkUp,
  /// lane = link index).
  void attach_trace(obs::TraceRecorder* trace, obs::Stage stage, u32 track) {
    trace_ = trace;
    trace_stage_ = stage;
    trace_track_ = track;
  }

  /// Arms fault injection: `plan` decides which packets CRC-fail or drop.
  /// `link_index` identifies this link in the plan's per-site sequence
  /// space; `upstream` selects the direction's fault sites.
  void attach_faults(fault::FaultPlan* plan, u32 link_index, bool upstream) {
    plan_ = plan;
    fault_unit_ = link_index;
    fault_upstream_ = upstream;
  }

  /// Serialization ticks for `flits` flits at this link's bandwidth.
  Tick serialization_ticks(u32 flits) const;

  Tick busy_until() const { return busy_until_; }
  u64 flits_carried() const { return flits_carried_; }
  u64 packets_carried() const { return packets_carried_; }
  /// Ticks the link spent serializing (for utilization stats).
  Tick busy_ticks() const { return busy_ticks_; }

  // --- power management statistics (0 unless enabled) -------------------
  u64 wakeups() const { return wakeups_; }
  Tick ticks_asleep() const { return ticks_asleep_; }

  // --- reliability statistics (0 unless faults/tokens armed) ------------
  u64 crc_errors() const { return crc_errors_; }
  u64 replays() const { return replays_; }
  u64 drops() const { return drops_; }
  /// Packets held in the retry buffer awaiting acknowledgement, as of the
  /// last submit (acks are reaped lazily).
  size_t retry_buffer_depth() const { return retry_buffer_.size(); }
  /// Flow-control credits currently available (the whole pool when the
  /// loop is idle).
  u32 tokens_available() const { return tokens_available_; }
  /// Credits still travelling back from delivered packets.
  u32 tokens_pending() const;

  /// Zeroes traffic statistics (the in-flight reservation is untouched);
  /// marks the warmup boundary.
  void reset_stats() {
    busy_ticks_ = 0;
    flits_carried_ = 0;
    packets_carried_ = 0;
    wakeups_ = 0;
    ticks_asleep_ = 0;
    crc_errors_ = 0;
    replays_ = 0;
    drops_ = 0;
  }

 private:
  /// A packet parked in the retry buffer until its ack returns.
  struct RetryEntry {
    u64 sequence = 0;
    u32 flits = 0;
    Tick ack_tick = 0;  ///< When the far end's acknowledgement arrives.
  };
  /// Tokens on their way back from a delivered packet.
  struct TokenReturn {
    Tick at = 0;
    u32 flits = 0;
  };

  /// Reaps acknowledged retry entries and returned tokens up to `now`.
  void reap(Tick now);

  LinkParams p_;
  u32 tokens_;  ///< Credit pool; 0 = no token loop.
  obs::TraceRecorder* trace_ = nullptr;
  obs::Stage trace_stage_ = obs::Stage::kLinkDown;
  u32 trace_track_ = 0;
  fault::FaultPlan* plan_ = nullptr;
  u32 fault_unit_ = 0;
  bool fault_upstream_ = false;
  Tick busy_until_ = 0;
  Tick busy_ticks_ = 0;
  u64 flits_carried_ = 0;
  u64 packets_carried_ = 0;
  u64 wakeups_ = 0;
  Tick ticks_asleep_ = 0;

  // Reliability state. All empty/zero when faults and tokens are off.
  u64 seq_next_ = 0;
  std::deque<RetryEntry> retry_buffer_;   ///< FIFO by ack_tick.
  std::deque<TokenReturn> token_returns_; ///< FIFO by return tick.
  u32 tokens_available_ = 0;  ///< Initialized from tokens_.
  u64 crc_errors_ = 0;
  u64 replays_ = 0;
  u64 drops_ = 0;
};

/// A full-duplex link: requests flow downstream, responses upstream.
class SerialLink {
 public:
  explicit SerialLink(const LinkParams& params = {}, u32 tokens = 0)
      : down_(params, tokens), up_(params, tokens) {}

  LinkDirection& downstream() { return down_; }
  LinkDirection& upstream() { return up_; }
  const LinkDirection& downstream() const { return down_; }
  const LinkDirection& upstream() const { return up_; }

 private:
  LinkDirection down_;
  LinkDirection up_;
};

}  // namespace camps::hmc
