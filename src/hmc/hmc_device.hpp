// The assembled Hybrid Memory Cube: 32 vault controllers behind a crossbar,
// reached from the host through 4 full-duplex serial links.
//
// Topology per Table I / Figure 2:
//   host controller -> serial link (vault % 4) -> crossbar -> vault
//   vault -> crossbar -> serial link -> host controller
// Links and the crossbar are timestamp-chained bandwidth models; vaults are
// event-driven. A request's trip down is computed when it is sent, so the
// device hands it to its vault at once with its arrival tick and schedules
// no event for it; only a read response's delivery to the host is an event.
// One shared EnergyModel accumulates the whole cube's events.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_plan.hpp"
#include "hmc/crossbar.hpp"
#include "hmc/serial_link.hpp"
#include "hmc/vault_controller.hpp"
#include "prefetch/factory.hpp"

namespace camps::hmc {

struct HmcConfig {
  HmcGeometry geometry;
  FieldOrder field_order = kRoRaBaVaCo;
  VaultConfig vault;
  LinkParams link;
  u32 num_links = 4;
  CrossbarParams crossbar;
  energy::EnergyParams energy;
  /// Fault injection (disabled by default; see fault/fault_config.hpp).
  /// When disabled the device constructs no plan and every fault branch is
  /// a null-pointer check — behaviour and event counts are bit-identical
  /// to a build without the subsystem.
  fault::FaultConfig fault;

  bool operator==(const HmcConfig&) const = default;
};

/// Whole-device sums over the vaults: the Fig. 6 and Fig. 7 aggregates.
struct DeviceTotals {
  u64 row_hits = 0;
  u64 row_empties = 0;
  u64 row_conflicts = 0;
  u64 prefetches = 0;
  u64 buffer_hits = 0;
  u64 buffer_misses = 0;
  /// Rows that proved useful / all rows ever prefetched (Fig. 7 metric).
  double prefetch_accuracy = 0.0;

  /// Conflicts as a fraction of all DRAM row-buffer accesses (Fig. 6).
  double row_conflict_rate() const;
  /// Buffer hits as a fraction of all buffer lookups.
  double buffer_hit_rate() const;
};

class HmcDevice {
 public:
  /// Invoked when a read response reaches the host side of the links.
  using DeliverFn = std::function<void(const MemRequest&)>;

  HmcDevice(sim::Simulator& sim, const HmcConfig& config,
            prefetch::SchemeKind scheme, const prefetch::SchemeParams& params,
            StatRegistry& stats, DeliverFn deliver,
            obs::TraceRecorder* trace = nullptr);

  /// Sends a demand request into the cube at `now` (reads get a later
  /// deliver() call; writes are posted). Unless the trip drops it, the
  /// request is queued at its vault before this returns, to be seen there
  /// from its arrival tick on.
  void submit(const MemRequest& request, Tick now);

  bool idle() const;

  const AddressMap& map() const { return map_; }
  const HmcConfig& config() const { return cfg_; }
  /// The fault plan, or nullptr when fault injection is disabled.
  fault::FaultPlan* fault_plan() { return fault_plan_.get(); }
  const fault::FaultPlan* fault_plan() const { return fault_plan_.get(); }
  energy::EnergyModel& energy() { return energy_; }
  const energy::EnergyModel& energy() const { return energy_; }
  const VaultController& vault(VaultId id) const { return *vaults_[id]; }
  u32 vault_count() const { return static_cast<u32>(vaults_.size()); }

  /// Sums every vault's counters in one pass.
  DeviceTotals totals() const;

  /// Zeroes all vault counters, the device's latency histograms and the
  /// energy model (warmup boundary).
  void reset_stats();

  /// Audits every vault controller (each under its own "vaultN" scope).
  void audit(check::AuditReporter& reporter) const;

  /// Installs `hook` on every vault (VaultController::set_drain_hook).
  void set_drain_hook(const VaultController::DrainHook& hook);

  /// Total serialization-busy ticks across all links, per direction.
  Tick link_busy_ticks_down() const;
  Tick link_busy_ticks_up() const;

  /// Power-management wake-ups summed over all links and both directions
  /// (0 unless LinkParams::power_management is enabled).
  u64 link_wakeups() const;

 private:
  friend struct check::TestCorruptor;

  void on_vault_response(const MemRequest& request, VaultId vault,
                         Tick ready);
  /// Records one fault attributed to `vault`; triggers its degradation
  /// flush every `vault_degrade_threshold` faults.
  void note_vault_fault(VaultId vault);

  sim::Simulator& sim_;
  HmcConfig cfg_;
  AddressMap map_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;  ///< Null: faults off.
  std::vector<u32> vault_fault_counts_;  ///< Since the last degrade flush.
  energy::EnergyModel energy_;
  std::vector<std::unique_ptr<SerialLink>> links_;
  Crossbar down_xbar_;  ///< Link -> vault ports.
  Crossbar up_xbar_;    ///< Vault -> link ports.
  std::vector<std::unique_ptr<VaultController>> vaults_;
  DeliverFn deliver_;
  obs::TraceRecorder* trace_ = nullptr;

  // Latency breakdown (CPU cycles).
  Histogram& h_lat_host_queue_;  ///< submit -> link start.
  Histogram& h_lat_link_down_;   ///< Link start -> vault side.
  Histogram& h_lat_link_up_;     ///< Vault side -> host side.
};

static_assert(check::Auditable<HmcDevice>);

}  // namespace camps::hmc
