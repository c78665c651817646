#include "core/episodes.h"

#include <map>

#include "core/result_columns.h"
#include "stats/summary.h"
#include "util/expect.h"

namespace pathsel::core {

EpisodeAnalysis analyze_episodes(const meas::Dataset& dataset,
                                 const EpisodeOptions& options) {
  PATHSEL_EXPECT(dataset.episode_count > 0,
                 "episode analysis requires an episode-mesh dataset");
  EpisodeAnalysis out;

  // Per-pair accumulators of per-episode differences.
  std::map<std::pair<topo::HostId, topo::HostId>, stats::Summary> per_pair;

  for (std::int32_t ep = 0; ep < dataset.episode_count; ++ep) {
    BuildOptions build;
    build.min_samples = 1;
    build.threads = options.threads;
    build.filter = [ep](const meas::Measurement& m) { return m.episode == ep; };
    const PathTable table = PathTable::build(dataset, build);
    if (table.edges().empty()) continue;

    AnalyzerOptions analyze;
    analyze.metric = options.metric;
    analyze.max_intermediate_hosts = options.max_intermediate_hosts;
    analyze.threads = options.threads;
    const ResultColumns results =
        from_pairs(analyze_alternate_paths(table, analyze), options.metric);
    if (results.empty()) continue;
    ++out.episodes_analyzed;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double diff = results.improvement(i);
      out.unaveraged.add(diff);
      per_pair[{topo::HostId{results.src[i]}, topo::HostId{results.dst[i]}}]
          .add(diff);
      ++out.pair_episode_points;
    }
  }

  for (const auto& [pair, summary] : per_pair) {
    out.pair_averaged.add(summary.mean());
  }
  return out;
}

}  // namespace pathsel::core
