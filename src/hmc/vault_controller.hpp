// One HMC vault controller (logic-layer slice).
//
// Owns: the geometry's DRAM banks, a 32-entry read queue and 32-entry
// write queue (Table I), an FR-FCFS scheduler with write-drain hysteresis,
// the autonomous refresh engine, the per-vault TSV data bus, and — the
// paper's subject — the prefetch engine: a PrefetchScheme making row-fetch
// decisions and a PrefetchBuffer holding fetched rows.
//
// Event model: a wake issues at most one DRAM command (single command bus
// per vault) plus any number of prefetch-buffer serves (logic-layer SRAM,
// not on the DRAM command bus). Each scheduler phase states its timing
// gates once: called to act, it issues when a gate is the current cycle;
// called to plan, it reports the first cycle one could be. After each wake
// the controller sleeps until next_action_cycle(), the least of the
// phases' plans, so it never wakes just to find nothing legal. A row fill
// wakes it at the fill's own tick. A wake is a late event keyed by the
// vault id: it runs after every ordinary event of its tick (so it sees
// that tick's row fills), and same-tick wakes run in vault-id order.
//
// Arrivals cost no event. The device hands each request over when it sends
// it, with the tick it will reach the vault (the link and crossbar are
// timestamp-chained); receive() queues it in the ingress FIFO with that
// tick and arms the wake at the first DRAM edge at or after it. Only the
// arrived prefix of the FIFO (arrival <= now) is ingress: a wake admits
// only those entries, and has_work(), idle() and the audits ignore the
// rest. Arrivals at one vault come in tick order (one link and one crossbar
// port, both FIFO), so the arrived entries are always a prefix.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/refresh.hpp"
#include "energy/energy_model.hpp"
#include "hmc/address_map.hpp"
#include "hmc/packet.hpp"
#include "obs/trace_recorder.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/scheme.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace camps::hmc {

/// Row-buffer management policy (Table I fixes open page).
enum class PagePolicy : u8 {
  kOpen,    ///< Rows stay open until displaced (FR-FCFS exploits hits).
  kClosed,  ///< Rows close as soon as no queued demand wants them.
};

/// Per-vault scheduler settings. The vault's shape (banks, lines per row)
/// comes from the device's HmcGeometry.
struct VaultConfig {
  dram::TimingParams timing = dram::default_timing();
  PagePolicy page_policy = PagePolicy::kOpen;
  u32 read_queue = 32;
  u32 write_queue = 32;
  /// Write-drain hysteresis: start draining at >= high, stop at <= low.
  u32 write_drain_high = 24;
  u32 write_drain_low = 8;
  prefetch::PrefetchBufferConfig buffer;  ///< hit_latency is in CPU cycles.
  bool refresh_enabled = true;

  bool operator==(const VaultConfig&) const = default;
};

class VaultController final {
 public:
  /// Called when a read's data is ready to leave the vault (the device
  /// adds crossbar + link delays on top of `ready`).
  using RespondFn = std::function<void(const MemRequest&, Tick ready)>;
  /// Called at the end of a wake that began a refresh drain still under
  /// way, after the vault has armed its next wake.
  using DrainHook = std::function<void(const VaultController&)>;

  /// `geometry` sets the vault's shape: its bank count and the lines per
  /// row of its prefetch buffer. `scheme` must be built for the same bank
  /// count.
  VaultController(sim::Simulator& sim, VaultId id, const HmcGeometry& geometry,
                  const VaultConfig& config,
                  std::unique_ptr<prefetch::PrefetchScheme> scheme,
                  energy::EnergyModel* energy, StatRegistry& stats,
                  RespondFn respond, obs::TraceRecorder* trace = nullptr);

  VaultController(const VaultController&) = delete;
  VaultController& operator=(const VaultController&) = delete;

  /// Accepts a demand request (already decoded to this vault) that reaches
  /// the vault at tick `at` (>= now(), and no earlier than the previous
  /// arrival). The vault sees it from that tick on.
  void receive(const MemRequest& request, const DecodedAddr& addr, Tick at);

  /// True when all queues, actions, and in-flight work have drained
  /// (requests still on their way to the vault do not count).
  bool idle() const;

  VaultId id() const { return id_; }
  const prefetch::PrefetchBuffer& buffer() const { return buffer_; }
  const prefetch::PrefetchScheme& scheme() const { return *scheme_; }

  // --- aggregate accessors used by results reporting -------------------
  u64 row_hits() const { return c_rb_hit_.value(); }
  u64 row_empties() const { return c_rb_empty_.value(); }
  u64 row_conflicts() const { return c_rb_conflict_.value(); }
  u64 demand_reads() const { return n_reads_; }
  u64 demand_writes() const { return n_writes_; }
  u64 prefetches_issued() const { return c_prefetch_.value(); }
  u64 prefetches_dropped() const { return n_prefetch_dropped_; }

  /// Fault-recovery degradation: quiesces this vault's prefetch state
  /// after repeated faults. Un-issued prefetch actions are dropped (copies
  /// already issued to a bank complete normally — their events are in
  /// flight), every buffered row is evicted with the usual usefulness and
  /// dirty-writeback notifications, and the scheme's profiling tables are
  /// emptied via PrefetchScheme::on_fault_flush(). Empty tables satisfy
  /// the RUT/CT hand-off invariants trivially, so a flush in the middle of
  /// traffic stays audit-clean. Demand service is unaffected.
  void degrade_flush();
  u64 degrade_flushes() const { return n_degrade_flushes_; }

  /// Zeroes counters, including this vault's registry entries (scheduler
  /// and buffer contents are untouched); marks the warmup / measurement
  /// boundary.
  void reset_stats();

  /// Audits this vault and everything it owns: per-bank FSMs, the prefetch
  /// buffer, the scheme's tables, queue capacities and decoded-coordinate
  /// ranges, the tFAW/tRRD activation window, and the cross-structure
  /// CAMPS rules (an open row archived in the CT must have a demand or
  /// prefetch action pending — steady state forbids the overlap).
  void audit(check::AuditReporter& reporter) const;

  /// Installs the hook run when a refresh drain begins (none by default).
  void set_drain_hook(DrainHook hook) { drain_hook_ = std::move(hook); }

 private:
  friend struct check::TestCorruptor;

  struct QueueEntry {
    MemRequest req;
    BankId bank = 0;
    RowId row = 0;
    LineId column = 0;
    /// Tick the request reaches the vault.
    Tick arrival = 0;
    bool started = false;  ///< First command already issued for it.
    /// Its ingress buffer lookup already counted a miss; a lookup repeated
    /// while the queue is full must not count another.
    bool miss_counted = false;
    dram::RowBufferOutcome outcome = dram::RowBufferOutcome::kEmpty;
  };

  /// A pending row prefetch (possibly multi-step: PRE, ACT, fetch, PRE).
  struct PfAction {
    BankId bank = 0;
    RowId row = 0;
    bool precharge_after = false;
    bool fetch_issued = false;
    u64 fetch_done_cycle = 0;
    u64 created_cycle = 0;
  };

  /// Demand columns normally outrank prefetch work, but a copy that has
  /// starved this long jumps the queue — a prefetch that lands after its
  /// stream has passed is pure waste.
  static constexpr u64 kPrefetchAgingCycles = 12;

  /// True if the front of the ingress FIFO has reached the vault.
  bool ingress_arrived() const {
    return !ingress_.empty() && ingress_.front().arrival <= sim_.now();
  }
  /// True while something is queued for the scheduler to act on.
  bool has_work() const {
    return ingress_arrived() || !rdq_.empty() || !wrq_.empty() ||
           !actions_.empty() || refresh_draining_;
  }

  void wake();
  void schedule_wake_at_cycle(u64 cycle);
  /// After a wake at `cycle`: the first later cycle at which a wake could
  /// act (kTickNever if none), from the phases below in plan mode. Every
  /// cycle before it would be a no-op wake.
  u64 next_action_cycle(u64 cycle);
  void admit_ingress(u64 cycle);
  // Scheduler phases. Each tests its candidates' gates once and returns the
  // first cycle >= `cycle` at which it could act (kTickNever if none). With
  // `act` it also acts at `cycle`, and returns `cycle` exactly when it
  // issued a DRAM command; without `act` it changes nothing. A step with no
  // timing gate (a refresh coming due, a drain-mode flip, a buffer re-scan,
  // dropping an action whose row is buffered) can act at once: plan mode
  // returns `cycle` for it.
  u64 refresh_step(u64 cycle, bool act);
  u64 issue_demand_column(u64 cycle, bool act);
  u64 advance_demand_bank(u64 cycle, bool act);
  u64 issue_prefetch(u64 cycle, bool act);
  /// First cycle >= `cycle` at which `bank`, whose wanted row is not open,
  /// can take its next command: PRE if another row is open, else ACT
  /// (which also waits for tRRD and tFAW).
  u64 open_gate(const dram::Bank& bank, u64 cycle) const;

  /// Issues the row copy serving `entry` itself (BASE's serve-via-buffer
  /// path). Pre: bank open on the row, column path and bus ready.
  void serve_via_fetch(const QueueEntry& entry, u64 cycle,
                       bool precharge_after);

  // One function per DRAM command a wake issues (REF aside): each drives
  // the bank and charges the command's energy.
  void precharge(dram::Bank& bank, u64 cycle);
  void activate(dram::Bank& bank, u64 cycle, RowId row, u64 trace_id = 0);
  /// Copies (bank,row) toward the prefetch buffer and schedules its
  /// landing; a `demand` the copy serves itself has its line consumed out
  /// of the landed row. Returns the cycle the copy completes.
  u64 fetch_row(BankId bank, RowId row, u64 cycle,
                const QueueEntry* demand = nullptr);
  /// Counts a demand read sent to DRAM and schedules its response at
  /// `ready`.
  void respond_at(const MemRequest& req, Tick ready);
  /// True if a queued demand read targets (bank,row).
  bool row_demanded(BankId bank, RowId row) const;

  bool serve_from_buffer(const QueueEntry& entry, u64 cycle,
                         bool count_miss);

  /// Marks `line` of (bank,row) referenced in the open-row tracking used
  /// to seed buffer entries on fetch.
  void note_row_reference(BankId bank, RowId row, LineId line);
  u64 row_reference_bitmap(BankId bank, RowId row) const;
  void classify_if_new(QueueEntry& entry, u64 cycle);
  u32 queued_same_row(const QueueEntry& entry) const;
  void apply_decision(const prefetch::PrefetchDecision& decision,
                      const QueueEntry& entry);
  /// `issue_cycle` stamps the insert: requests enqueued before the fetch
  /// was issued are demands it reacted to, not anticipations.
  void complete_fetch(BankId bank, RowId row, u64 seed_bitmap,
                      u64 issue_cycle);
  /// The write-drain mode the next column pass uses for the current
  /// queues: hysteresis between write_drain_high and write_drain_low, and
  /// always drain when only writes are queued.
  bool next_drain_mode() const;

  Tick tick_of(u64 cycle) const { return cycle * sim::kDramTicksPerCycle; }
  u64 cycle_of(Tick tick) const { return tick / sim::kDramTicksPerCycle; }
  /// The first DRAM cycle whose edge is at or after `tick`.
  u64 edge_cycle(Tick tick) const {
    return cycle_of(sim::dram_clock().next_edge(tick));
  }

  sim::Simulator& sim_;
  VaultId id_;
  HmcGeometry geom_;
  VaultConfig cfg_;
  std::vector<dram::Bank> banks_;
  prefetch::PrefetchBuffer buffer_;
  std::unique_ptr<prefetch::PrefetchScheme> scheme_;
  dram::RefreshScheduler refresh_;
  energy::EnergyModel* energy_;  ///< Shared, device-wide. May be null.
  RespondFn respond_;
  Tick buffer_hit_ticks_;

  std::deque<QueueEntry> ingress_;  ///< In arrival order; see the header.
  std::deque<QueueEntry> rdq_;
  std::deque<QueueEntry> wrq_;
  std::deque<PfAction> actions_;

  u64 bus_free_cycle_ = 0;  ///< Vault TSV data bus reservation.
  u64 next_act_cycle_ = 0;  ///< tRRD: earliest cycle any bank may ACT.
  /// tFAW: ring of the last four ACTs, each stored as (act_cycle + tFAW) —
  /// the cycle at which that ACT stops constraining. A fifth ACT must wait
  /// for the oldest entry. Zero-initialised entries never constrain.
  std::array<u64, 4> act_window_{};
  u32 act_window_pos_ = 0;

  void record_act(u64 cycle) {
    next_act_cycle_ = cycle + cfg_.timing.tRRD;
    act_window_[act_window_pos_] = cycle + cfg_.timing.tFAW;
    act_window_pos_ = (act_window_pos_ + 1) % 4;
  }
  /// Per-bank (row, referenced-line bitmap) of the most recent open row;
  /// seeds buffer utilization when that row is fetched.
  struct OpenRowRefs {
    RowId row = 0;
    u64 bitmap = 0;
  };
  std::vector<OpenRowRefs> open_row_refs_;
  bool draining_writes_ = false;
  bool refresh_draining_ = false;
  /// This vault's one wake event: a late event keyed by the vault id, so
  /// moving it (cancel + schedule) leaves its place within a tick alone.
  sim::EventHandle wake_;
  DrainHook drain_hook_;
  /// Rows inserted into the prefetch buffer, and the count at each demand
  /// queue's last buffer re-scan.
  u64 buffer_fills_ = 0;
  u64 rdq_scanned_fills_ = 0;
  u64 wrq_scanned_fills_ = 0;
  u64 inflight_ = 0;  ///< Reads issued to DRAM whose data is still in flight.

  // Statistics. Counts with a registry entry live only there.
  u64 n_reads_ = 0, n_writes_ = 0;
  u64 n_prefetch_dropped_ = 0;
  u64 n_degrade_flushes_ = 0;
  Counter& c_rb_hit_;
  Counter& c_rb_empty_;
  Counter& c_rb_conflict_;
  Counter& c_buf_hit_;
  Counter& c_prefetch_;
  Histogram& h_queue_wait_;  ///< DRAM cycles from enqueue to issue.

  // Device-wide latency breakdown (registry entries shared by all vaults;
  // all in CPU cycles).
  Histogram& h_lat_vault_queue_;   ///< Enqueue -> leave the queue.
  Histogram& h_lat_bank_service_;  ///< Column issue -> data done.
  Histogram& h_lat_buffer_hit_;    ///< Prefetch-buffer hit serves.

  obs::TraceRecorder* trace_ = nullptr;

  /// Whole CPU cycles spanned by `cycles` DRAM cycles.
  static u64 cpu_cycles_of_dram(u64 cycles) {
    return cycles * sim::kDramTicksPerCycle / sim::kCpuTicksPerCycle;
  }
};

static_assert(check::Auditable<VaultController>);

}  // namespace camps::hmc
