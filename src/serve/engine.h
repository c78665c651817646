// Fault-tolerant online path-selection service.
//
// Batch mode (pathsel_cli analyze) answers "what is the best alternate for
// every pair" once; the serve engine keeps that answer LIVE while the
// underlying path qualities drift.  It holds the current PathTable and the
// fully annotated alternate-path answers for both served metrics (RTT and
// loss) in an immutable snapshot readers pin lock-free (serve/snapshot.h),
// while a single writer folds incremental probe results into the edge
// summaries and republishes.
//
// The incremental trick: with alternates restricted to one relay (the dense
// kernel's regime), the answer for pair (i, j) is min_k w[i][k] + w[k][j] —
// it reads only edges incident to i or j.  An update to edge (u, v) can
// therefore change only rows whose pair touches u or v: O(N) rows recomputed
// in O(N) each, instead of the O(N³) full sweep.  The recompute runs the
// dense kernel's own scalar loop over the one column (core::min_plus_relay)
// and emits through the shared one_hop_result/overwrite_row/classify_pair
// helpers, so the maintained columns stay BYTE-identical to a from-scratch
// batch analyze of the post-update graph — the differential suite pins this
// at 1/4/8 reader threads, across crash/replay boundaries.
//
// Robustness contract:
//  - Crash safety.  Accepted updates hit a CRC'd append-only journal
//    (serve/journal.h) and are fsync'd BEFORE they mutate anything.  SIGKILL
//    at any instant, restart with --resume, and the engine replays to the
//    exact pre-crash state; a torn journal tail is truncated (logged, never
//    served).  Periodic compaction writes an atomic state snapshot and
//    rotates the journal generation, bounding replay length.
//  - Graceful degradation.  Malformed or out-of-range updates are rejected
//    with an explanatory Status and never touch the snapshot.  A stalled
//    update stream degrades to flagged stale-but-served: every response
//    carries the snapshot's age, and past `stale_after_ms` the stale flag is
//    set (counted in core.serve.stale_served).
//  - Overload protection.  The update queue is bounded; beyond capacity the
//    OLDEST queued update is shed deterministically (counted).  Disjoint
//    queries accept a per-query deadline budget enforced with a CancelToken.
//
// Determinism: updates apply only during flush() — a barrier the trace
// runner (serve/trace.h) places between query batches — and shedding happens
// at submit() time on the caller's thread, so every counter and every served
// byte is identical for any reader-thread count.  Time is a logical clock
// (advance_clock), so staleness is scriptable and reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/alternate.h"
#include "core/dense_kernel.h"
#include "core/disjoint.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/dataset.h"
#include "serve/journal.h"
#include "serve/snapshot.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::serve {

struct ServeOptions {
  core::BuildOptions build;
  /// Threads for the initial batch sweeps; <= 0 means default_thread_count.
  int threads = 0;
  /// Bounded update queue: beyond this many pending updates, submit() sheds
  /// the oldest queued update (deterministic, counted in updates.shed).
  std::size_t queue_capacity = 1024;
  /// Snapshot age (logical ms) past which responses are flagged stale.
  std::int64_t stale_after_ms = 5000;
  /// Directory for the journal and compacted state snapshots; empty disables
  /// durability (updates apply in memory only).
  std::string journal_dir;
  /// Recover from an existing journal/state in journal_dir instead of
  /// starting fresh (which clears any previous journal there).
  bool resume = false;
  /// Compact (state snapshot + journal generation rotation) every this many
  /// applied updates; 0 disables compaction.
  std::uint64_t compact_every = 1024;
  /// Test hook (PATHSEL_TEST_CRASH_AFTER): raise SIGKILL immediately after
  /// the Nth journal append, before the update mutates anything — the worst
  /// instant for a crash.  0 disables.
  std::size_t crash_after_appends = 0;
  /// Optional cancellation for the initial build and for flush(); a tripped
  /// token stops update application at a record boundary.
  const CancelToken* cancel = nullptr;
  /// Reader slots (max concurrent reader threads).
  std::size_t max_reader_slots = 64;
  /// Confidence level for significance classification.
  double confidence = 0.95;
};

/// Per-response snapshot provenance: which update state answered, how old it
/// is, and whether it has degraded to flagged-stale.
struct QueryMeta {
  std::uint64_t seq = 0;
  std::int64_t age_ms = 0;
  bool stale = false;
};

struct BestResponse {
  enum class Kind {
    kOk,           // alternate found; all fields valid
    kNoAlternate,  // pair measured, but removal disconnects it (direct valid)
    kNoPair,       // hosts known, pair unmeasured or filtered out
    kUnknownHost,  // host id not in the served dataset
  };
  Kind kind = Kind::kNoPair;
  QueryMeta meta;
  double direct = 0.0;
  double alternate = 0.0;
  std::int32_t relay = core::kNoRelay;
  core::SignificanceClass significance = core::SignificanceClass::kUnclassified;
};

struct DisjointResponse {
  enum class Kind {
    kOk,
    kNoPair,
    kUnknownHost,
    kInvalidK,  // k out of [1, hosts - 2]
    kDeadline,  // per-query budget exhausted; partial work discarded
  };
  Kind kind = Kind::kNoPair;
  QueryMeta meta;
  core::PairDisjointResult result;
};

/// Monotonic counters mirrored into core.serve.* metrics.  Exact (compared
/// verbatim by the perf gate): shedding and application are deterministic.
struct ServeCounters {
  std::uint64_t updates_accepted = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t updates_shed = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_replayed = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_truncations = 0;
  std::uint64_t compactions = 0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t queries_best = 0;
  std::uint64_t queries_disjoint = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t query_timeouts = 0;
};

class ServeEngine {
 public:
  /// Builds the engine: path table, initial batch sweeps for both metrics,
  /// significance annotation, journal recovery (when journal_dir + resume),
  /// and the first published snapshot.  Errors: dataset/build failures,
  /// unusable journal (foreign fingerprint, sequence gap), cancellation.
  [[nodiscard]] static Result<std::unique_ptr<ServeEngine>> create(
      const meas::Dataset& dataset, const ServeOptions& options);

  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // ---- Writer side (single thread) -----------------------------------------

  /// Validates and enqueues one update.  Rejections (unknown host, unmeasured
  /// pair, non-finite/negative RTT) return an explanatory kInvalidArgument
  /// and change nothing.  A full queue sheds the oldest pending update.
  [[nodiscard]] Status submit(const EdgeUpdate& update);

  /// Applies every queued update — journal append + fsync first, then edge
  /// mutation, then incremental row recompute — and publishes one new
  /// snapshot (none when the queue was empty).  Compacts when due.  On
  /// journal failure or cancellation, the already-applied prefix is still
  /// published and the Status explains the stop.
  [[nodiscard]] Status flush();

  /// Advances the logical clock (staleness accounting).
  void advance_clock(std::int64_t ms) noexcept {
    clock_ms_.fetch_add(ms, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t clock_ms() const noexcept {
    return clock_ms_.load(std::memory_order_relaxed);
  }

  // ---- Reader side (lock-free; one slot per concurrent reader) -------------

  [[nodiscard]] BestResponse query_best(core::Metric metric, topo::HostId a,
                                        topo::HostId b, std::size_t slot);

  /// `deadline_ms` < 0 means no per-query budget.  The budget is wall-clock
  /// (a genuinely slow computation must be boundable), enforced via a local
  /// CancelToken polled by the Suurballe sweep.
  [[nodiscard]] DisjointResponse query_disjoint(core::Metric metric, int k,
                                                topo::HostId a, topo::HostId b,
                                                std::size_t slot,
                                                double deadline_ms);

  // ---- Introspection -------------------------------------------------------

  [[nodiscard]] ServeCounters counters() const;

  /// Pushes counter deltas since the previous sync into the global metrics
  /// registry as core.serve.* counters.  Kept out of the hot paths (reader
  /// queries bump only lock-free atomics; the registry's mutex is touched
  /// here alone).  Call from one thread — typically the trace runner's or
  /// bench's teardown.
  void sync_metrics();

  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Human-readable recovery notes (torn-tail truncations, replay summary),
  /// for the CLI to surface on stderr.  Filled during create(); not mutated
  /// afterwards.
  [[nodiscard]] const std::vector<std::string>& recovery_log() const noexcept {
    return recovery_log_;
  }
  [[nodiscard]] std::size_t reader_slots() const noexcept {
    return reader_slots_;
  }

  /// Pins the current snapshot (tests compare served state to batch rebuilds).
  [[nodiscard]] SnapshotBoard::Pin pin(std::size_t slot) noexcept {
    return board_.pin(slot);
  }

  /// Stable fingerprint binding journals and state snapshots to a dataset +
  /// min_samples configuration: crc32 of the serialized dataset in the high
  /// word, min_samples in the low word.
  [[nodiscard]] static std::uint64_t compute_fingerprint(
      const meas::Dataset& dataset, int min_samples);

 private:
  explicit ServeEngine(std::size_t reader_slots);

  [[nodiscard]] Status init(const meas::Dataset& dataset,
                            const ServeOptions& options);
  [[nodiscard]] Status recover_journal();
  [[nodiscard]] Status start_fresh_journal();
  [[nodiscard]] Status apply_record(const EdgeUpdate& update);
  void recompute_rows(const std::vector<std::size_t>& rows);
  void recompute_row(core::Metric metric, const core::WeightMatrix& w,
                     core::ResultColumns& cols, std::size_t i);
  [[nodiscard]] Status compact();
  void publish_snapshot();

  [[nodiscard]] std::string journal_path(std::uint64_t generation) const;
  [[nodiscard]] std::string state_path() const;

  // Immutable after create().
  ServeOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::size_t reader_slots_;
  std::unordered_set<std::int32_t> known_hosts_;
  std::shared_ptr<const RowIndex> row_index_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> row_hosts_;  // (ia, ib)
  std::vector<std::vector<std::size_t>> host_rows_;  // per host index, sorted
  std::vector<std::string> recovery_log_;

  // Writer-owned working state (mutated only in flush()/create()).
  core::PathTable table_;
  core::WeightMatrix w_rtt_;
  core::WeightMatrix w_loss_;
  core::ResultColumns cols_rtt_;
  core::ResultColumns cols_loss_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t last_compact_seq_ = 0;
  std::uint64_t generation_ = 0;
  JournalWriter writer_;

  // Shared state.
  SnapshotBoard board_;
  std::atomic<std::int64_t> clock_ms_{0};
  std::mutex queue_mutex_;
  std::deque<EdgeUpdate> queue_;

  struct AtomicCounters {
    std::atomic<std::uint64_t> updates_accepted{0};
    std::atomic<std::uint64_t> updates_rejected{0};
    std::atomic<std::uint64_t> updates_shed{0};
    std::atomic<std::uint64_t> updates_applied{0};
    std::atomic<std::uint64_t> updates_replayed{0};
    std::atomic<std::uint64_t> journal_appends{0};
    std::atomic<std::uint64_t> journal_truncations{0};
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<std::uint64_t> snapshots_published{0};
    std::atomic<std::uint64_t> queries_best{0};
    std::atomic<std::uint64_t> queries_disjoint{0};
    std::atomic<std::uint64_t> stale_served{0};
    std::atomic<std::uint64_t> query_timeouts{0};
  };
  mutable AtomicCounters counters_;
  ServeCounters last_synced_;  // sync_metrics bookkeeping (single caller)
};

}  // namespace pathsel::serve
