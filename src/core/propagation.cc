#include "core/propagation.h"

#include <cstdint>
#include <vector>

#include "util/expect.h"

namespace pathsel::core {

int classify_group(double total_diff, double prop_diff) noexcept {
  // Groups follow the paper: 1/2/6 when the alternate is superior (x > 0),
  // mirrored as 4/5/3 when the default is superior.
  //  1: 0 <= y <= x   — alternate better in both propagation and queueing
  //  2: y > x > 0     — alternate has better propagation but worse queueing
  //  6: x > 0, y < 0  — alternate wins despite *longer* propagation (it goes
  //                     out of its way to avoid congestion)
  //  4: x <= y <= 0, 5: y < x < 0, 3: x < 0, y > 0 are the reflections.
  if (total_diff > 0.0) {
    if (prop_diff < 0.0) return 6;
    return prop_diff <= total_diff ? 1 : 2;
  }
  if (total_diff < 0.0) {
    if (prop_diff > 0.0) return 3;
    return prop_diff >= total_diff ? 4 : 5;
  }
  return prop_diff >= 0.0 ? 1 : 4;
}

PropagationAnalysis analyze_propagation(const PathTable& table) {
  PropagationAnalysis out;

  AnalyzerOptions rtt_options;
  rtt_options.metric = Metric::kRtt;
  out.rtt_results = from_pairs(analyze_alternate_paths(table, rtt_options),
                               rtt_options.metric);

  AnalyzerOptions prop_options;
  prop_options.metric = Metric::kPropagation;
  out.propagation_results = from_pairs(
      analyze_alternate_paths(table, prop_options), prop_options.metric);

  // Decompose the mean-RTT alternates: the propagation of the chosen
  // alternate is the sum of its constituent edges' 10th-percentile RTTs.
  const ResultColumns& rtt = out.rtt_results;
  for (std::size_t r = 0; r < rtt.size(); ++r) {
    const topo::HostId a{rtt.src[r]};
    const topo::HostId b{rtt.dst[r]};
    const PathEdge* direct = table.find(a, b);
    PATHSEL_EXPECT(direct != nullptr, "result for unmeasured pair");

    std::vector<topo::HostId> chain;
    chain.push_back(a);
    for (const std::int32_t h : rtt.via_of(r)) chain.push_back(topo::HostId{h});
    chain.push_back(b);
    double alt_prop = 0.0;
    bool complete = true;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const PathEdge* e = table.find(chain[i], chain[i + 1]);
      if (e == nullptr) {
        complete = false;
        break;
      }
      alt_prop += e->propagation_ms();
    }
    if (!complete) continue;

    PropagationPoint p;
    p.total_diff = rtt.improvement(r);
    p.prop_diff = direct->propagation_ms() - alt_prop;
    p.group = classify_group(p.total_diff, p.prop_diff);
    out.group_counts[static_cast<std::size_t>(p.group - 1)] += 1;
    out.scatter.push_back(p);
  }
  return out;
}

}  // namespace pathsel::core
