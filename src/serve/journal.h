// Crash-safe update journal and compacted state snapshots for the online
// path-selection service (src/serve/engine.h).
//
// The serve engine's write path follows write-ahead discipline: an accepted
// edge update is appended to the journal and fsync'd *before* it mutates any
// in-memory state, so a SIGKILL at any instant loses nothing that was ever
// visible in a published snapshot.  Restart replays the journal on top of
// the base dataset (plus the newest compacted state snapshot, which bounds
// replay length) and reconverges to the exact pre-crash state — bit for bit,
// which the kill/resume acceptance test checks at the stdout level.
//
// Journal file (PSJL v1), binary little-endian:
//
//   header (36 bytes):
//     u32 magic "PSJL"          (0x4C4A5350 read as LE u32)
//     u32 version               (currently 1)
//     u64 fingerprint           (binds the journal to base dataset + options)
//     u64 generation            (monotonic; bumped at each compaction)
//     u64 start_seq             (first sequence number this file may hold)
//     u32 CRC-32 of the 32 header bytes above (util/codec.h envelope)
//   records, back to back:
//     u32 payload length        (fixed kRecordPayloadBytes for v1)
//     u32 CRC-32 of the payload
//     payload:
//       u64 seq                 (1-based, strictly increasing)
//       i32 a, i32 b            (host ids, a < b)
//       u64 rtt bit pattern     (IEEE-754 double, exact)
//       u8  lost                (0|1)
//
// A crash can tear only the final record (appends are sequential and each is
// fsync'd); scan_journal() returns the valid prefix plus a truncation reason
// for the torn tail, which the engine logs and repairs (ftruncate) before
// appending again.  A torn tail is expected wear, not corruption: it is
// never served and never fatal.
//
// Two journal files alternate (journal.0 / journal.1, generation parity):
// compaction atomically writes the state snapshot, then starts generation
// g+1 in the *other* file, so the previous generation remains intact until
// it is itself overwritten one compaction later.  Recovery merges whatever
// both files hold, dedupes by sequence number, and replays everything newer
// than the state snapshot.
//
// State snapshot (PSSV v1) — the per-edge mutable state (the Welford moments
// incremental updates change), captured bit-exactly via stats::Summary::Raw:
//
//   u32 magic "PSSV", u32 version, u64 fingerprint,
//   u64 seq (last update folded in), u64 edge count, per edge:
//     i32 a, i32 b, i64 invocations,
//     rtt  summary: i64 n, u64 mean, u64 m2, u64 min, u64 max (f64 bits)
//     loss summary: same five fields
//   u32 CRC-32 of every preceding byte (util/codec.h envelope)
//
// Written with write_file_atomic (tmp + fsync + rename + dir fsync); either
// the old complete snapshot or the new one exists, never a mix.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/path_table.h"
#include "topo/ids.h"
#include "util/status.h"

namespace pathsel::serve {

inline constexpr std::uint32_t kJournalMagic = 0x4C4A5350;  // "PSJL"
inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr std::uint32_t kServeStateMagic = 0x56535350;  // "PSSV"
inline constexpr std::uint32_t kServeStateVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = 36;
inline constexpr std::size_t kRecordPayloadBytes = 25;

/// One incremental measurement: a new probe of the measured path (a, b)
/// with its round-trip time and loss outcome, normalized to a < b.
struct EdgeUpdate {
  topo::HostId a;
  topo::HostId b;
  double rtt_ms = 0.0;
  bool lost = false;
};

/// A journaled update with its sequence number.
struct JournalRecord {
  std::uint64_t seq = 0;
  EdgeUpdate update;
};

/// Parses the textual update spec used by trace files and journal tooling:
/// "sample A B RTT LOST" with A != B non-negative host ids, RTT a finite
/// non-negative millisecond value, LOST 0 or 1.  Every malformed field gets
/// its own explanatory kInvalidArgument — graceful degradation starts with
/// telling the operator exactly which field was bad.
[[nodiscard]] Result<EdgeUpdate> parse_update(std::string_view spec);

/// Serialized journal header for a fresh generation file.
[[nodiscard]] std::string serialize_journal_header(std::uint64_t fingerprint,
                                                   std::uint64_t generation,
                                                   std::uint64_t start_seq);

/// Serialized record frame (length + CRC + payload) for one update.
[[nodiscard]] std::string serialize_journal_record(const JournalRecord& r);

/// Result of scanning one journal file: the longest valid record prefix.
struct JournalScan {
  bool usable = false;           // header present, valid, fingerprint matches
  std::string reject_reason;     // why the file was ignored (when !usable)
  std::uint64_t generation = 0;
  std::uint64_t start_seq = 0;
  std::vector<JournalRecord> records;
  /// Bytes of the valid prefix (header + intact records).  When truncated is
  /// set, the file holds garbage past this offset and should be cut back to
  /// it before appending resumes.
  std::size_t valid_bytes = 0;
  bool truncated = false;
  std::string truncation_reason;
};

/// Scans journal bytes, stopping at the first torn or corrupt record.  Never
/// fails: an unusable or torn file is *described*, and only its valid prefix
/// is returned — a half-written tail must degrade to "replay what is intact",
/// not to an error that blocks restart.
[[nodiscard]] JournalScan scan_journal(std::string_view bytes,
                                       std::uint64_t fingerprint);

/// Append-only journal writer for one generation file.  open() validates or
/// creates the file (repairing a torn tail via truncate); append() frames,
/// writes, and fsyncs one record before returning.  Single-writer.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending at `offset` bytes (the valid prefix length
  /// from scan_journal; anything past it is truncated away first).  The file
  /// must exist — create it beforehand with write_file_atomic(header).
  [[nodiscard]] Status open(const std::string& path, std::size_t offset);

  /// Appends one framed record and fsyncs.  On failure the journal is
  /// unusable for further appends (the engine surfaces the Status and stops
  /// accepting updates rather than risking an unlogged mutation).
  [[nodiscard]] Status append(const JournalRecord& r);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string path_;
};

/// The mutable per-edge state a compacted snapshot captures.
struct ServeStateImage {
  std::uint64_t seq = 0;  // last update folded into these moments
  struct EdgeState {
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int64_t invocations = 0;
    stats::Summary::Raw rtt;
    stats::Summary::Raw loss;
  };
  std::vector<EdgeState> edges;  // in PathTable::edges() order
};

/// Captures the mutable state of every edge, in edges() order.
[[nodiscard]] ServeStateImage capture_serve_state(const core::PathTable& table,
                                                  std::uint64_t seq);

/// Restores captured moments into the (same-shaped) table; kParseError when
/// the edge list does not match the table's pair-for-pair.
[[nodiscard]] Status restore_serve_state(const ServeStateImage& image,
                                         core::PathTable& table);

[[nodiscard]] std::string serialize_serve_state(const ServeStateImage& image,
                                                std::uint64_t fingerprint);

/// Parses a state snapshot.  Malformed bytes or a foreign fingerprint return
/// kParseError; nothing absurd is allocated before validation.
[[nodiscard]] Result<ServeStateImage> parse_serve_state(
    std::string_view bytes, std::uint64_t fingerprint);

}  // namespace pathsel::serve
