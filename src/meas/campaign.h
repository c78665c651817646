// Crash-safe measurement campaigns over the catalog.
//
// run_campaign() regenerates a set of Table 1 datasets into an output
// directory, with the robustness machinery wired together:
//
//  - checkpointing: with a checkpoint directory configured, each in-flight
//    dataset is snapshotted at a simulated-time cadence through
//    meas::CheckpointStore (atomic writes, alternating self-CRC'd
//    generations);
//  - resume: with `resume` set, finished outputs are kept and the
//    interrupted dataset continues from its newest valid checkpoint — the
//    resumed campaign produces byte-identical outputs to an uninterrupted
//    one;
//  - cancellation: a CancelToken (deadline, signal, or watchdog) stops the
//    campaign at the next event boundary, after writing a final checkpoint,
//    and the report says which dataset was in flight.
//
// Derived datasets (D2-NA, N2-NA) are host-restricted subsets of their
// parents; requesting one pulls the parent in first, so a dataset list is
// always collectable in the order returned by expand_datasets().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "meas/catalog.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::meas {

struct CampaignOptions {
  CatalogConfig catalog{};
  /// Dataset names to produce; empty means all of Table 1.  Parents of
  /// requested subsets are added automatically.
  std::vector<std::string> datasets;
  /// Directory for the <name>.ds outputs (created if missing; every output
  /// is written atomically).
  std::string output_dir;
  /// Checkpoint directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Resume: keep finished outputs, continue in-flight datasets from their
  /// newest valid checkpoint.  Requires checkpoint_dir.
  bool resume = false;
  /// Simulated-time cadence between checkpoints; zero means one eighth of
  /// each dataset's trace duration.
  Duration checkpoint_interval{};
  const CancelToken* cancel = nullptr;
  /// Executors resolving each dataset's fault-free probes (0 means
  /// default_thread_count()).  Outputs and checkpoints are byte-identical at
  /// any value, so it is not part of the checkpoint fingerprint.
  int threads = 0;
  /// Disjoint-alternates analysis mode the caller will run on the outputs
  /// (pathsel_cli campaign --disjoint k); 0 means none.  The campaign itself
  /// does not compute disjoint paths — the value exists so the checkpoint
  /// fingerprint binds to it and a resume under a different k is rejected as
  /// stale rather than spliced into the new analysis.
  int disjoint_k = 0;
  /// Caller-level identity folded into the checkpoint fingerprint after
  /// disjoint_k (meas::fold_fingerprint discipline: always folded, including
  /// the 0 "off" encoding).  The scenario-matrix engine binds each cell's
  /// grid fingerprint here, so a worker checkpoint resumed under an edited
  /// grid is discarded as stale instead of silently merged.
  std::uint64_t extra_fingerprint = 0;
  /// Test hook, called after every successful checkpoint write with the
  /// total number of writes so far (kill-and-resume tests crash here).
  std::function<void(std::size_t)> after_checkpoint;
};

struct CampaignReport {
  Status status;                        // ok, cancelled, or the first error
  std::vector<std::string> completed;   // outputs written by this run
  std::vector<std::string> loaded;      // outputs kept from a previous run
  std::vector<std::string> resumed;     // datasets continued from a checkpoint
  std::string stopped_in;               // dataset in flight when cancelled
  std::vector<std::string> notes;       // discarded checkpoints, fallbacks
};

/// The requested names (or all of Table 1 when empty) with parents inserted
/// before their subsets and duplicates removed; collection order.
[[nodiscard]] std::vector<std::string> expand_datasets(
    const std::vector<std::string>& requested);

[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace pathsel::meas
