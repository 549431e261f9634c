// Physical address decomposition for the HMC.
//
// Table I: RoRaBaVaCo (row - rank - bank - vault - column), listed MSB to
// LSB above the 64 B line offset. With the default geometry (32 vaults,
// 16 banks/vault, 1 KB rows), consecutive lines fill a row, consecutive
// rows stripe across vaults, then banks — giving both row locality and
// vault-level parallelism. The field order is configurable so the
// bench_ablate_addrmap experiment can study alternatives.
#pragma once

#include <array>
#include <string>

#include "common/types.hpp"

namespace camps::hmc {

/// Address fields above the line offset.
enum class AddrField : u8 { kRow, kRank, kBank, kVault, kColumn };

/// Field order from most-significant to least-significant.
using FieldOrder = std::array<AddrField, 5>;

/// Table I default: Ro Ra Ba Va Co.
constexpr FieldOrder kRoRaBaVaCo{AddrField::kRow, AddrField::kRank,
                                 AddrField::kBank, AddrField::kVault,
                                 AddrField::kColumn};

/// Row-bank-rank-column-vault: consecutive lines stripe across vaults
/// (fine-grain interleave), destroying row locality — an ablation point.
constexpr FieldOrder kRoBaRaCoVa{AddrField::kRow, AddrField::kBank,
                                 AddrField::kRank, AddrField::kColumn,
                                 AddrField::kVault};

/// Row-vault-rank-column-bank: consecutive rows land in the same bank —
/// maximizes row-buffer conflicts for streaming patterns (stress case).
constexpr FieldOrder kRoVaRaCoBa{AddrField::kRow, AddrField::kVault,
                                 AddrField::kRank, AddrField::kColumn,
                                 AddrField::kBank};

struct HmcGeometry {
  u32 vaults = 32;
  u32 banks_per_vault = 16;  ///< 8 DRAM layers x 2 banks per vault layer.
  u32 ranks = 1;             ///< HMC vaults have no ranks; kept for the map.
  u64 rows_per_bank = 16384;  ///< 8 GB cube with the other defaults.
  u64 row_bytes = 1024;
  u64 line_bytes = 64;

  u64 lines_per_row() const { return row_bytes / line_bytes; }
  u64 capacity_bytes() const {
    return u64{vaults} * banks_per_vault * ranks * rows_per_bank * row_bytes;
  }
  /// All dimensions must be powers of two for bit-sliced decoding.
  bool valid() const;

  bool operator==(const HmcGeometry&) const = default;
};

struct DecodedAddr {
  VaultId vault = 0;
  BankId bank = 0;
  u32 rank = 0;
  RowId row = 0;
  LineId column = 0;  ///< Line index within the row.

  friend bool operator==(const DecodedAddr&, const DecodedAddr&) = default;
};

class AddressMap {
 public:
  explicit AddressMap(const HmcGeometry& geometry = {},
                      const FieldOrder& order = kRoRaBaVaCo);

  /// Decodes a physical address. Addresses beyond the cube capacity wrap
  /// (the system layer hashes core address spaces into the cube anyway).
  DecodedAddr decode(Addr addr) const;

  /// Inverse of decode (line-aligned address).
  Addr encode(const DecodedAddr& d) const;

  /// Address delta that changes only the row, keeping vault/bank/rank —
  /// what ConflictStreams needs to build guaranteed conflicts.
  u64 same_bank_row_stride() const;

  const HmcGeometry& geometry() const { return geom_; }
  const FieldOrder& order() const { return order_; }

  /// "RoRaBaVaCo"-style name for display.
  std::string order_name() const;

 private:
  u64 field_size(AddrField f) const;

  HmcGeometry geom_;
  FieldOrder order_;
  u32 line_shift_;
  u64 capacity_lines_;
};

}  // namespace camps::hmc
