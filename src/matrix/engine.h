// The scenario-matrix what-if engine: grid in, merged report out.
//
// run_matrix() expands the grid into cells, groups them by the collection
// they share, lays out a persistent work dir, and dispatches the groups to N
// forked worker processes coordinating through the flock work queue (see
// queue.h).  Each worker runs the existing campaign machinery per collection
// with its own fingerprint-bound checkpoint state, so a SIGKILL'd worker's
// collection is reclaimed by a survivor — or by a later `--resume` run — and
// resumed mid-collection instead of restarted.
// When every cell has a validated summary, the parent merges them into one
// deterministic report: the merged bytes are identical for any worker count
// (including 0 = run inline, no fork) and across crash/resume, the property
// the differential test layer pins.
//
// Fork discipline: workers are forked before any ThreadPool exists in the
// parent.  Cells themselves may use threads — each forked worker builds its
// own pools — but a caller embedding run_matrix() in a threaded process must
// run with workers == 0 (inline) or fork-unsafe state of its own making.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/grid.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::matrix {

inline constexpr int kMaxWorkers = 256;

struct MatrixOptions {
  GridConfig grid;
  std::string work_dir;
  /// Worker processes to fork; 0 runs every cell inline in this process
  /// (no fork — the mode differential tests compare against).
  int workers = 0;
  /// Threads per cell analysis; forwarded to the campaign/core layers.
  int threads = 0;
  /// Keep valid per-cell summaries and checkpoints from a previous run of
  /// the same grid; stale state (edited grid) is discarded either way.
  bool resume = false;
  const CancelToken* cancel = nullptr;
  /// Crash-injection hooks (tests): SIGKILL the crash_worker'th worker after
  /// its crash_after'th checkpoint write.  0 disables.
  std::size_t crash_after = 0;
  int crash_worker = 0;
};

struct MatrixReport {
  Status status = Status::ok();
  std::string report;       // merged report text (empty on failure)
  std::string report_path;  // where the report was written
  std::size_t cells_total = 0;
  std::size_t cells_reused = 0;  // valid summaries kept by --resume
  std::size_t cells_run = 0;     // cells executed by this invocation
  std::vector<std::string> notes;
  /// Of the forked workers: first nonzero exit code / first fatal signal
  /// observed (0 when all exited cleanly).
  int worker_exit = 0;
  int worker_signal = 0;
};

[[nodiscard]] MatrixReport run_matrix(const MatrixOptions& options);

}  // namespace pathsel::matrix
