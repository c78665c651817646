// Simultaneous-measurement analysis (§6.4, Figure 11).
//
// UW4-A measures every pair within randomly spaced "episodes"; within each
// episode the best alternate is computed from that episode's measurements
// alone, eliminating the long-term-averaging bias.  Two views are produced,
// as in Figure 11: "pair-averaged" (the per-episode differences averaged per
// pair, comparable to the UW4-B long-term CDF) and "unaveraged" (one CDF
// point per pair per episode, exposing the episode-to-episode variability).
#pragma once

#include "core/alternate.h"
#include "meas/dataset.h"
#include "stats/cdf.h"

namespace pathsel::core {

struct EpisodeAnalysis {
  stats::EmpiricalCdf pair_averaged;
  stats::EmpiricalCdf unaveraged;
  std::size_t episodes_analyzed = 0;
  std::size_t pair_episode_points = 0;
};

struct EpisodeOptions {
  Metric metric = Metric::kRtt;
  /// Executor count for the per-episode build/sweep; <= 0 means the default.
  int threads = 0;
};

/// Requires a dataset collected with Discipline::kEpisodeFullMesh.
[[nodiscard]] EpisodeAnalysis analyze_episodes(
    const meas::Dataset& dataset, const EpisodeOptions& options = {});

}  // namespace pathsel::core
