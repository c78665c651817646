// Host popularity in alternate paths (§7.1, Figures 12/13).
//
// Tests the hypothesis that a handful of unusually well- (or badly-)
// connected hosts account for the superior alternates.  Two experiments:
//  - Greedy "top ten" removal (Figure 12): repeatedly remove the host whose
//    removal shifts the improvement CDF farthest left, then compare the CDF
//    of the remaining dataset against the full one.
//  - Normalized improvement contribution (Figure 13): credit every host
//    with the improvement of each superior one-hop alternate it appears in
//    as the intermediate, normalized so the mean host scores 100.
#pragma once

#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"

namespace pathsel::core {

struct TopHostsResult {
  std::vector<topo::HostId> removed;  // in greedy removal order
  ResultColumns full_results;         // all hosts
  ResultColumns reduced_results;      // after removal
};

/// Greedy removal of `count` hosts minimizing the mean improvement of the
/// remaining dataset.  `threads` <= 0 means the default executor count.
[[nodiscard]] TopHostsResult remove_top_hosts(const PathTable& table,
                                              Metric metric, int count = 10,
                                              int threads = 0);

struct HostContribution {
  topo::HostId host{};
  /// Sum of improvements of superior one-hop alternates through this host,
  /// normalized so the mean over hosts is 100.
  double normalized = 0.0;
};

[[nodiscard]] std::vector<HostContribution> improvement_contributions(
    const PathTable& table, Metric metric);

}  // namespace pathsel::core
