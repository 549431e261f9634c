// Table I: the experimental configuration, printed from the live defaults
// so the docs can never drift from the code.
#include <cstdio>

#include "bench_common.hpp"
#include "system/config.hpp"

int main() {
  using namespace camps;
  using bench::format;
  using ull = unsigned long long;
  const system::SystemConfig cfg = system::table1_config();

  std::printf("=== Table I: Experimental Configuration ===\n\n");
  exp::Table table({"component", "configuration"});

  table.add_row({"Processor", format("%u cores @ 3GHz, issue width = %u, "
                                     "max %u outstanding loads",
                                     cfg.cores, cfg.core.issue_width,
                                     cfg.core.max_outstanding_loads)});

  auto cache_row = [&](const char* name, const cache::CacheConfig& c,
                       const char* sharing) {
    table.add_row(
        {name, format("%llu KB %s, %u-way, hit lat. = %u cycles, %llu B line",
                      static_cast<ull>(c.size_bytes / 1024), sharing, c.ways,
                      c.hit_latency, static_cast<ull>(c.line_bytes))});
  };
  cache_row("L1 (D)", cfg.caches.l1, "pvt.");
  cache_row("L2", cfg.caches.l2, "pvt.");
  cache_row("L3", cfg.caches.l3, "shrd.");

  const auto& g = cfg.hmc.geometry;
  table.add_row(
      {"HMC", format("%u vaults, %u banks/vault, %llu B row buffer, %llu "
                     "rows/bank (%llu GB)",
                     g.vaults, g.banks_per_vault, static_cast<ull>(g.row_bytes),
                     static_cast<ull>(g.rows_per_bank),
                     static_cast<ull>(g.capacity_bytes() >> 30))});

  const auto& t = cfg.hmc.vault.timing;
  table.add_row({"Vault controller",
                 format("DDR3-1600, queue size (R/W) = %u/%u, tRCD=%llu "
                        "tRP=%llu tCL=%llu cycles",
                        cfg.hmc.vault.read_queue, cfg.hmc.vault.write_queue,
                        static_cast<ull>(t.tRCD), static_cast<ull>(t.tRP),
                        static_cast<ull>(t.tCL))});

  table.add_row({"Serial links",
                 format("%u links, %u lanes each direction, %.1f Gbps/lane",
                        cfg.hmc.num_links, cfg.hmc.link.lanes,
                        cfg.hmc.link.gbps_per_lane)});

  const auto& buffer = cfg.hmc.vault.buffer;
  table.add_row({"PF buffer",
                 format("%llu KB/vault, fully associative, %u x 1 KB rows, "
                        "hit latency = %llu cycles",
                        static_cast<ull>(buffer.entries * g.row_bytes / 1024),
                        buffer.entries, static_cast<ull>(buffer.hit_latency))});

  const hmc::AddressMap map(cfg.hmc.geometry, cfg.hmc.field_order);
  table.add_row({"Address mapping", map.order_name() +
                                    " (row-rank-bank-vault-column)"});
  table.add_row({"Memory scheduling", "FR-FCFS"});
  table.add_row({"Page policy", "Open page"});

  std::printf("%s", table.to_string().c_str());
  return 0;
}
