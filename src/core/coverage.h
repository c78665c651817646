// Graceful-degradation accounting for faulted campaigns.
//
// A fault-injected campaign (sim::FaultPlan) loses measurements to dead
// hosts, blackholes and severed routes; the paper's own traces lost paths the
// same way (Table 1 never reaches full coverage).  Instead of aborting when
// the data thins out, the analysis entry point here returns a Status for
// data-shaped failures and, on success, pairs the usual alternate-path
// results with a CoverageSummary saying how much of the mesh actually backed
// them — so a 30%-fault run is reported as "68% of pairs covered, 12 edges
// disconnected", not silently presented as if it were a clean trace.
#pragma once

#include <array>
#include <cstddef>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/dataset.h"
#include "util/status.h"

namespace pathsel::core {

/// How much of the host mesh the dataset and the derived path graph cover.
/// Pair counts are ordered (Table 1's "paths"); edge counts are undirected
/// (the path graph the analyses run on).
struct CoverageSummary {
  std::size_t hosts = 0;
  std::size_t potential_pairs = 0;    // hosts * (hosts - 1)
  std::size_t attempted_pairs = 0;    // pairs with at least one attempt
  std::size_t covered_pairs = 0;      // pairs with at least one completed

  std::size_t measured_edges = 0;     // undirected pairs with completed data
  std::size_t usable_edges = 0;       // edges surviving the min_samples filter
  std::size_t under_sampled_edges = 0;  // measured but filtered out
  std::size_t analyzable_edges = 0;   // usable edges with an alternate path
  std::size_t disconnected_edges = 0;   // usable edges with no alternate

  std::size_t attempts = 0;           // probe attempts, including retries
  std::size_t completed = 0;          // completed measurements
  /// Final failure causes, indexed by FailureReason.  Legacy datasets
  /// accumulate everything under kNone.
  std::array<std::size_t, meas::kFailureReasonCount> failures_by_reason{};

  /// Fraction of potential ordered pairs with completed data (Table 1).
  [[nodiscard]] double coverage() const noexcept;
};

/// Tallies coverage of a dataset against the path graph built from it.
/// The analyzable/disconnected split is left at zero — only an analysis run
/// can fill it (see analyze_with_coverage).
[[nodiscard]] CoverageSummary summarize_coverage(const meas::Dataset& dataset,
                                                 const PathTable& table);

/// The sweep's results, transposed into columns tagged with the analyzer's
/// metric, and the coverage that backed them.
struct DegradedAnalysis {
  ResultColumns columns;
  CoverageSummary coverage;
};

/// analyze_alternate_paths with a graceful error path: returns
/// kInsufficientData when the dataset cannot support any analysis (fewer
/// than two hosts, or no edge survived the sample filter) and
/// kInvalidArgument for metric/dataset mismatches (per-probe RTT and loss
/// metrics need a traceroute dataset).  On success the coverage summary has
/// analyzable_edges/disconnected_edges filled in from the results.  A cancel
/// token set on either options struct propagates: cancellation surfaces as
/// kDeadlineExceeded/kCancelled instead of aborting.
[[nodiscard]] Result<DegradedAnalysis> analyze_with_coverage(
    const meas::Dataset& dataset, const BuildOptions& build = {},
    const AnalyzerOptions& analyze = {});

}  // namespace pathsel::core
