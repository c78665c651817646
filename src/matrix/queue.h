// The shared persistent work queue the matrix workers coordinate through.
//
// The queue is a directory of small files; there is no broker process and
// no shared memory, so any number of forked (or entirely unrelated) worker
// processes can cooperate on one work dir:
//
//   queue/collection-<key>.lock  claim on a collection group, held via flock
//   queue/cell-<index>.summary   done marker: the CRC'd cell summary
//
// A worker claims a collection group: the cells sharing one dataset_key
// (cell.h).  It skips a group whose cells all have valid summaries, without
// touching its dataset, and tries a non-blocking flock on any other.  Holding
// the lock it re-checks the summaries (the previous holder may have just
// finished), ensures the collection — run_campaign under resume never
// regenerates a finished `.ds`, so no other done marker exists — reads it
// once, runs the missing cells in index order, publishes each summary, and
// releases.  Because flock dies with its holder, a SIGKILL'd worker's claim
// evaporates immediately and the group is reclaimed by the next scanner,
// which resumes the collection from its checkpoints.  A summary is only ever
// written whole (tmp + rename) and is fingerprint-bound, so "summary exists
// and validates" is a crash-safe done predicate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "matrix/cell.h"
#include "util/atomic_io.h"
#include "util/status.h"

namespace pathsel::matrix {

// Layout of a matrix work dir.
[[nodiscard]] std::string queue_dir(const std::string& work_dir);
[[nodiscard]] std::string cells_dir(const std::string& work_dir);
[[nodiscard]] std::string datasets_dir(const std::string& work_dir);
[[nodiscard]] std::string report_path(const std::string& work_dir);
[[nodiscard]] std::string grid_file_path(const std::string& work_dir);
[[nodiscard]] std::string cell_summary_path(const std::string& work_dir,
                                            std::size_t index);
/// The cell's private directory (artifacts), named by index and fingerprint
/// so an edited grid can never collide with stale artifacts.
[[nodiscard]] std::string cell_work_dir(const std::string& work_dir,
                                        std::size_t index,
                                        std::uint64_t cell_fp);

/// Tries to claim the collection group with this dataset_key; a non-held()
/// lock means another live process owns it right now.
[[nodiscard]] Result<FileLock> try_claim_collection(const std::string& work_dir,
                                                    std::uint64_t key);

/// Loads a cell summary and validates it against the expected identity:
/// kIoError when missing/unreadable, kParseError when torn or corrupt,
/// kInvalidArgument when it belongs to a different grid, cell, or index
/// (stale state from an edited grid).
[[nodiscard]] Result<CellSummary> load_valid_summary(
    const std::string& work_dir, std::size_t index, std::uint64_t grid_fp,
    std::uint64_t cell_fp);

}  // namespace pathsel::matrix
