// Crash-safe persistence for campaign checkpoints.
//
// A measurement campaign killed mid-run must resume to a byte-identical
// dataset, and the checkpoint directory is written by the very process the
// crash kills — so every file here assumes it can be torn at any byte.
// Two layers of defense:
//
//  1. Every write is atomic (util/atomic_io: tmp + fsync + rename), so a
//     crash leaves the previous complete file, never a prefix.
//  2. Every checkpoint file ends with a CRC-32 of its own payload, and each
//     dataset alternates between two generation files (<name>.ckpt.0/.1):
//     if the newest generation is torn or corrupt, the previous one is still
//     a complete, older checkpoint — resume loses one interval, not the run.
//
// A checkpoint directory holds nothing but those generation files.
// A checkpoint is bound to its campaign by a fingerprint over the collector
// configuration and host list; resuming against a different configuration is
// rejected instead of silently producing a spliced dataset.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "meas/collector.h"

namespace pathsel::meas {

/// First line of a checkpoint file: the format name and version.
inline constexpr char kCheckpointHeader[] = "pathsel-checkpoint v1";

/// Identity of a campaign for checkpoint binding: dataset name, collector
/// configuration (seed, discipline, kind, durations, retry, availability,
/// fault plan config), and the exact host list.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(
    std::string_view dataset, const CollectorConfig& config,
    std::span<const topo::HostId> hosts);

/// Folds one more configuration value into a fingerprint, with the same
/// mixing discipline checkpoint_fingerprint uses internally.  Layers above
/// the collector (campaign-level analysis modes such as --disjoint k) use
/// this to bind their own knobs into the checkpoint identity, so a resume
/// under a different mode is rejected as stale instead of splicing
/// incompatible runs.  Folding is order-sensitive and never a no-op: fold
/// every mode-relevant value, including the mode's "off" encoding.
[[nodiscard]] std::uint64_t fold_fingerprint(std::uint64_t base,
                                             std::uint64_t value);

/// Serializes a checkpoint to the self-validating text format (payload +
/// trailing "crc" line).
[[nodiscard]] std::string serialize_checkpoint(const CampaignCheckpoint& cp,
                                               MeasurementKind kind,
                                               std::uint64_t fingerprint);

/// Parses and validates a checkpoint: CRC, format version, kind, and
/// fingerprint must all match.  kParseError on corruption or truncation,
/// kInvalidArgument on a fingerprint/kind mismatch.
[[nodiscard]] Result<CampaignCheckpoint> parse_checkpoint(
    std::string_view text, MeasurementKind expected_kind,
    std::uint64_t expected_fingerprint);

/// Outcome of scanning a checkpoint directory for one dataset.
struct CheckpointLoad {
  std::optional<CampaignCheckpoint> checkpoint;  // newest valid, if any
  int generation = -1;  // the generation file `checkpoint` came from
  /// Human-readable reasons for every candidate file that existed but was
  /// rejected (torn, corrupt, wrong fingerprint) — surfaced so an operator
  /// sees that a generation was discarded.
  std::vector<std::string> discarded;
};

/// Scans both generation files for `dataset` in `dir` and returns the newest
/// valid checkpoint (by simulated time, then event sequence number),
/// discarding torn/corrupt/mismatched candidates.  Missing files are not an
/// error — a fresh campaign simply has no checkpoints yet.
[[nodiscard]] CheckpointLoad load_newest_checkpoint(
    const std::string& dir, const std::string& dataset, MeasurementKind kind,
    std::uint64_t fingerprint);

/// Manages the checkpoint directory for one campaign: alternating
/// generations per dataset.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir) : dir_{std::move(dir)} {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Writes `cp` to the dataset's next generation file, never the one holding
  /// its newest valid checkpoint.  Creates the directory on first use.
  [[nodiscard]] Status save(const CampaignCheckpoint& cp, MeasurementKind kind,
                            std::uint64_t fingerprint);

  /// Path of one generation file, for tests and diagnostics.
  [[nodiscard]] std::string generation_path(const std::string& dataset,
                                            int generation) const;

 private:
  std::string dir_;
  // Next generation index per dataset; seeded from disk on first save so a
  // resumed process keeps alternating instead of clobbering the newest file.
  std::map<std::string, int> next_generation_;
};

}  // namespace pathsel::meas
