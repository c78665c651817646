#include "core/as_analysis.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace pathsel::core {

std::vector<AsAppearance> as_appearances(const PathTable& table,
                                         const ResultColumns& results) {
  std::unordered_map<topo::AsId, AsAppearance> acc;

  for (const PathEdge& e : table.edges()) {
    std::unordered_set<topo::AsId> seen{e.as_path.begin(), e.as_path.end()};
    for (const topo::AsId as : seen) {
      auto [it, inserted] = acc.try_emplace(as);
      it->second.as = as;
      it->second.default_count += 1;
    }
  }

  for (std::size_t r = 0; r < results.size(); ++r) {
    // Hosts along the alternate: src, via..., dst; collect the AS sets of
    // the constituent edges.
    std::vector<topo::HostId> chain;
    chain.push_back(topo::HostId{results.src[r]});
    for (const std::int32_t h : results.via_of(r)) {
      chain.push_back(topo::HostId{h});
    }
    chain.push_back(topo::HostId{results.dst[r]});
    std::unordered_set<topo::AsId> seen;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const PathEdge* e = table.find(chain[i], chain[i + 1]);
      if (e == nullptr) continue;
      seen.insert(e->as_path.begin(), e->as_path.end());
    }
    for (const topo::AsId as : seen) {
      auto [it, inserted] = acc.try_emplace(as);
      it->second.as = as;
      it->second.alternate_count += 1;
    }
  }

  std::vector<AsAppearance> out;
  out.reserve(acc.size());
  for (const auto& [as, appearance] : acc) out.push_back(appearance);
  std::sort(out.begin(), out.end(),
            [](const AsAppearance& x, const AsAppearance& y) {
              return x.as < y.as;
            });
  return out;
}

}  // namespace pathsel::core
