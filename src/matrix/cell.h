// Per-cell execution and the on-disk cell summary.
//
// Cells that ask for the same dataset under the same seed/scale/fault share
// one campaign collection (dataset_key, bound to the grid fingerprint).
// run_collection ensures it, reads its `.ds` once, and runs each given cell's
// analysis on it (one-hop/multi-hop alternate sweep or k-disjoint alternates
// at the cell's min_samples floor): the cell writes its artifacts — the
// columnar PSRC results or the disjoint TSV — then publishes a
// `pathsel-matrix-cell v1` summary, the queue's done marker.  It is written
// atomically, ends in a CRC of its own payload, and embeds the grid and cell
// fingerprints, so a torn file, a foreign file, or a summary left by an
// edited grid is detected and discarded instead of merged.
//
// Data-shaped analysis failures (insufficient data after heavy faults, a
// disjoint k over the graph ceiling) degrade gracefully: the cell publishes
// an ok=0 summary carrying the explanation, and the merged report shows the
// cell as degraded rather than failing the whole matrix.  Infrastructure
// failures (I/O, cancellation) abort the worker instead.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "matrix/grid.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::matrix {

inline constexpr std::uint32_t kCellSummaryVersion = 1;

struct CellSummary {
  std::uint64_t grid_fp = 0;
  std::uint64_t cell_fp = 0;
  std::size_t index = 0;
  // The cell's axes, restated so the merged report needs only summaries.
  std::string dataset;
  double fault = 0.0;
  std::string metric;  // "rtt" / "loss"
  std::string policy;  // PolicySpec::label()
  int min_samples = 0;  // effective floor (scale-derived already applied)
  std::uint64_t seed = 0;

  bool ok = true;
  std::string error;  // ok=0: the data-shaped failure, Status::to_string()

  std::size_t hosts = 0;
  std::size_t measurements = 0;
  std::size_t completed = 0;
  std::size_t usable_edges = 0;
  std::size_t pairs = 0;       // pairs analyzed
  double coverage = 0.0;       // fraction of potential ordered pairs covered
  double better = 0.0;         // fraction with a better alternate
  bool has_sig = false;        // significance applies (not a disjoint cell)
  double sig_better = 0.0;
  double sig_indeterminate = 0.0;
  double sig_worse = 0.0;
  double found_full = 0.0;     // disjoint: fraction of pairs with found_k == k

  struct Artifact {
    std::string rel_path;  // relative to the matrix work dir
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Artifact> artifacts;
};

/// Serializes to the self-validating text format (payload + trailing `crc`
/// line); deterministic — equal summaries produce equal bytes.
[[nodiscard]] std::string serialize_cell_summary(const CellSummary& summary);

/// Parses and validates: CRC, version, and field set must all check out.
/// kParseError on corruption or truncation.
[[nodiscard]] Result<CellSummary> parse_cell_summary(std::string_view text);

/// Identity of a cell's collection: everything that shapes the dataset
/// bytes (dataset name, seed, the grid's scale, fault intensity) folded with
/// the grid fingerprint.  Cells with equal keys share one collection; an
/// edited grid changes every key and forces fresh collections.
[[nodiscard]] std::uint64_t dataset_key(const GridConfig& grid,
                                        std::uint64_t grid_fp,
                                        const CellSpec& cell);

/// Everything a cell run needs besides the cell itself.  `note` receives
/// human-readable diagnostics (checkpoint discards, resumes); it must be
/// callable (the engine wires it to the report notes or worker stderr).
struct CellContext {
  const GridConfig* grid = nullptr;
  std::uint64_t grid_fp = 0;
  std::string work_dir;
  int threads = 0;
  const CancelToken* cancel = nullptr;
  /// Cumulative checkpoint-write hook for this worker process (SIGKILL crash
  /// tests); empty disables.
  std::function<void(std::size_t)> after_checkpoint;
  std::function<void(const std::string&)> note;
};

/// Runs cells that share one collection (equal dataset_key), in the given
/// order: ensure the collection under datasets/<key> (collect it with
/// checkpoint/resume, or keep the finished `.ds`), load it once, then for
/// each cell analyze under its policy, write the artifacts and publish the
/// summary.  The caller holds the collection's claim (queue.h).
[[nodiscard]] Status run_collection(const CellContext& ctx,
                                    std::span<const CellSpec* const> cells);

}  // namespace pathsel::matrix
