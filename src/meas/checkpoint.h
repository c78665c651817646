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
//
// A checkpoint holds every measurement collected so far, so re-formatting
// them all at every save would make a campaign's save work grow with the
// square of its length.  CheckpointStore instead keeps each dataset's row
// text from its earlier saves, formats only the rows appended since, and
// seals the file with crc32_combine of the head's and the cached rows'
// CRCs, so no save re-reads the cached bytes.  The file's bytes are exactly
// serialize_checkpoint's; only the work to produce them shrinks.
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
/// generations per dataset, and per dataset the text of the measurement
/// rows already saved, so each save formats only the rows added since.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir) : dir_{std::move(dir)} {}

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// load_newest_checkpoint on this store's directory, recording the
  /// generation found (0 next when none) so save() need not scan again.
  [[nodiscard]] CheckpointLoad load(const std::string& dataset,
                                    MeasurementKind kind,
                                    std::uint64_t fingerprint);

  /// Writes `cp` to the dataset's next generation file, never the one holding
  /// its newest valid checkpoint (found by load() or by the first save).
  /// Creates the directory on first use.  The bytes always equal
  /// serialize_checkpoint(cp, kind, fingerprint).
  ///
  /// Precondition for the row cache: between two saves of one dataset its
  /// measurements only grow at the end; rows already saved stay as they
  /// were.  The store formats only rows past the last save's count, and
  /// starts over (formats every row) when the kind or fingerprint differs,
  /// the count shrank, or the last saved row's (when, src, dst, episode) no
  /// longer matches the row at that index.
  [[nodiscard]] Status save(const CampaignCheckpoint& cp, MeasurementKind kind,
                            std::uint64_t fingerprint);

  /// Path of one generation file, for tests and diagnostics.
  [[nodiscard]] std::string generation_path(const std::string& dataset,
                                            int generation) const;

 private:
  /// Identifies a measurement row for the row cache's reset guard.
  struct RowKey {
    SimTime when;
    topo::HostId src;
    topo::HostId dst;
    std::int32_t episode = -1;

    [[nodiscard]] static RowKey of(const Measurement& m) {
      return RowKey{m.when, m.src, m.dst, m.episode};
    }
    [[nodiscard]] bool operator==(const RowKey&) const = default;
  };

  /// The measurement rows one dataset's saves have formatted so far.
  struct RowCache {
    MeasurementKind kind = MeasurementKind::kTraceroute;
    std::uint64_t fingerprint = 0;
    std::vector<std::string> chunks;  // append_measurement rows [0, count)
    std::size_t bytes = 0;            // total size of the chunks
    std::size_t count = 0;
    std::uint32_t crc = 0;  // crc32 of the chunks' concatenation
    RowKey last{};          // key of row count - 1

    /// Whether `cp` keeps these rows as its first `count` (see save()).
    [[nodiscard]] bool extends(const CampaignCheckpoint& cp,
                               MeasurementKind cp_kind,
                               std::uint64_t cp_fingerprint) const;
  };

  std::string dir_;
  // Next generation index per dataset; seeded by load() or on first save so
  // a resumed process keeps alternating instead of clobbering the newest file.
  std::map<std::string, int> next_generation_;
  std::map<std::string, RowCache> rows_;  // per dataset
};

}  // namespace pathsel::meas
