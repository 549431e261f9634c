#include "prefetch/factory.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "prefetch/scheme_base.hpp"
#include "prefetch/scheme_base_hit.hpp"
#include "prefetch/scheme_none.hpp"

namespace camps::prefetch {

std::vector<SchemeKind> paper_schemes() {
  return {SchemeKind::kBase, SchemeKind::kBaseHit, SchemeKind::kMmd,
          SchemeKind::kCamps, SchemeKind::kCampsMod};
}

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNone: return "NONE";
    case SchemeKind::kBase: return "BASE";
    case SchemeKind::kBaseHit: return "BASE-HIT";
    case SchemeKind::kMmd: return "MMD";
    case SchemeKind::kCamps: return "CAMPS";
    case SchemeKind::kCampsMod: return "CAMPS-MOD";
    case SchemeKind::kStream: return "STREAM";
  }
  return "?";
}

SchemeKind scheme_from_string(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (SchemeKind kind :
       {SchemeKind::kNone, SchemeKind::kBase, SchemeKind::kBaseHit,
        SchemeKind::kMmd, SchemeKind::kCamps, SchemeKind::kCampsMod,
        SchemeKind::kStream}) {
    if (upper == to_string(kind)) return kind;
  }
  throw std::out_of_range("unknown prefetch scheme: " + name);
}

std::unique_ptr<PrefetchScheme> make_scheme(SchemeKind kind, u32 banks,
                                            const SchemeParams& params) {
  switch (kind) {
    case SchemeKind::kNone:
      return std::make_unique<NoPrefetchScheme>();
    case SchemeKind::kBase:
      return std::make_unique<BaseScheme>();
    case SchemeKind::kBaseHit:
      return std::make_unique<BaseHitScheme>(params.base_hit_min_hits);
    case SchemeKind::kMmd:
      return std::make_unique<MmdScheme>(params.mmd);
    case SchemeKind::kCamps:
    case SchemeKind::kCampsMod:
      return std::make_unique<CampsScheme>(banks, params.camps,
                                           kind == SchemeKind::kCampsMod);
    case SchemeKind::kStream:
      return std::make_unique<StreamScheme>(banks, params.stream);
  }
  throw std::out_of_range("unknown scheme kind");
}

}  // namespace camps::prefetch
