// Scheme construction by name/kind, one instance per vault.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "prefetch/scheme.hpp"
#include "prefetch/scheme_camps.hpp"
#include "prefetch/scheme_mmd.hpp"
#include "prefetch/scheme_stream.hpp"

namespace camps::prefetch {

enum class SchemeKind : u8 {
  kNone,     ///< No prefetching (substrate baseline, not in the paper).
  kBase,     ///< Whole row on first access, then precharge.
  kBaseHit,  ///< Row with >= 2 read-queue hits.
  kMmd,      ///< Dynamic-degree usefulness feedback, LRU buffer.
  kCamps,    ///< Conflict-aware decision, LRU buffer.
  kCampsMod, ///< CAMPS + utilization/recency replacement.
  kStream,   ///< Extension: vault-side stream detector (not in the paper).
};

/// The five schemes of the paper's evaluation, in Figure 5's legend order.
std::vector<SchemeKind> paper_schemes();

const char* to_string(SchemeKind kind);

/// Parses "BASE", "base-hit", "CAMPS-MOD", ... Throws std::out_of_range.
SchemeKind scheme_from_string(const std::string& name);

/// Per-scheme tunables; fields are only read by the relevant scheme.
struct SchemeParams {
  CampsParams camps;
  MmdParams mmd;
  StreamParams stream;
  u32 base_hit_min_hits = 2;

  bool operator==(const SchemeParams&) const = default;
};

/// Builds a fresh scheme instance for a vault of `banks` banks (call once
/// per vault).
std::unique_ptr<PrefetchScheme> make_scheme(SchemeKind kind, u32 banks,
                                            const SchemeParams& params = {});

}  // namespace camps::prefetch
