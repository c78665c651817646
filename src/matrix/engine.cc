#include "matrix/engine.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <csignal>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "matrix/cell.h"
#include "matrix/queue.h"
#include "matrix/report.h"
#include "util/atomic_io.h"
#include "util/metrics.h"

namespace pathsel::matrix {

namespace {

Status invalid(const std::string& what) {
  return Status::error(ErrorCode::kInvalidArgument, "matrix: " + what);
}

Status validate_options(const MatrixOptions& options) {
  if (options.work_dir.empty()) return invalid("work dir must not be empty");
  if (options.workers < 0 || options.workers > kMaxWorkers) {
    return invalid("workers must be in [0, " + std::to_string(kMaxWorkers) +
                   "], got " + std::to_string(options.workers));
  }
  if (options.grid.cell_count() == 0) return invalid("grid expands to 0 cells");
  return Status::ok();
}

// A collection group is the ascending indices of the cells sharing one
// dataset_key.  Seeds are the innermost axis, so they need not be contiguous.
using Group = std::vector<std::size_t>;

struct Layout {
  std::vector<CellSpec> cells;
  std::uint64_t grid_fp = 0;
  std::vector<Group> groups;  // ordered by each group's first cell index
};

Layout make_layout(const GridConfig& grid) {
  Layout layout;
  layout.cells = expand_cells(grid);
  layout.grid_fp = grid_fingerprint(grid);
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  for (const CellSpec& cell : layout.cells) {
    const std::uint64_t key = dataset_key(grid, layout.grid_fp, cell);
    const auto [it, added] = group_of.try_emplace(key, layout.groups.size());
    if (added) layout.groups.emplace_back();
    layout.groups[it->second].push_back(cell.index);
  }
  return layout;
}

// Clears stale per-run state.  `resume` keeps valid summaries (and all
// checkpoint/dataset state — fingerprint binding makes stale pieces inert);
// a fresh run deletes everything below the work dir that this engine owns.
Status prepare_work_dir(const MatrixOptions& options, const Layout& layout,
                        std::size_t& reused,
                        std::vector<std::string>& notes) {
  reused = 0;
  Status made = ensure_directory(options.work_dir);
  if (!made.is_ok()) return made;
  if (!options.resume) {
    std::error_code ec;
    for (const std::string& dir :
         {queue_dir(options.work_dir), cells_dir(options.work_dir),
          datasets_dir(options.work_dir)}) {
      std::filesystem::remove_all(dir, ec);
      if (ec) {
        return Status::error(ErrorCode::kIoError,
                             "cannot clear " + dir + ": " + ec.message());
      }
    }
    std::filesystem::remove(report_path(options.work_dir), ec);
  }
  for (const std::string& dir :
       {queue_dir(options.work_dir), cells_dir(options.work_dir),
        datasets_dir(options.work_dir)}) {
    made = ensure_directory(dir);
    if (!made.is_ok()) return made;
  }
  if (options.resume) {
    for (const CellSpec& cell : layout.cells) {
      const std::uint64_t cell_fp = cell_fingerprint(layout.grid_fp, cell);
      const Result<CellSummary> summary = load_valid_summary(
          options.work_dir, cell.index, layout.grid_fp, cell_fp);
      if (summary.is_ok()) {
        ++reused;
        continue;
      }
      if (summary.status().code() == ErrorCode::kIoError) continue;  // missing
      std::error_code ec;
      std::filesystem::remove(cell_summary_path(options.work_dir, cell.index),
                              ec);
      notes.push_back("cell " + std::to_string(cell.index) +
                      ": discarded summary (" + summary.status().message() +
                      ")");
    }
  }
  return write_file_atomic(grid_file_path(options.work_dir),
                           canonical_grid(options.grid));
}

// The group's cells that have no valid summary yet, in index order.
std::vector<const CellSpec*> missing_cells(const MatrixOptions& options,
                                           const Layout& layout,
                                           const Group& group) {
  std::vector<const CellSpec*> missing;
  for (const std::size_t index : group) {
    const CellSpec& cell = layout.cells[index];
    if (!load_valid_summary(options.work_dir, index, layout.grid_fp,
                            cell_fingerprint(layout.grid_fp, cell))
             .is_ok()) {
      missing.push_back(&cell);
    }
  }
  return missing;
}

// One worker's claim-run loop over the collection groups, inline or in a
// forked child.  Returns when every cell has a summary (ok) or on the first
// infrastructure failure.  Workers start their scan at a staggered offset so
// N workers spread over the groups instead of contending on the first one;
// correctness never depends on the offset (flock arbitrates).
Status worker_loop(const MatrixOptions& options, int worker_index,
                   const Layout& layout,
                   const std::function<void(const std::string&)>& note) {
  const std::size_t n = layout.groups.size();
  const std::size_t workers =
      options.workers > 0 ? static_cast<std::size_t>(options.workers) : 1;
  const std::size_t offset =
      (static_cast<std::size_t>(worker_index) * n) / workers;

  std::shared_ptr<std::size_t> checkpoint_writes =
      std::make_shared<std::size_t>(0);
  CellContext ctx;
  ctx.grid = &options.grid;
  ctx.grid_fp = layout.grid_fp;
  ctx.work_dir = options.work_dir;
  ctx.threads = options.threads;
  ctx.cancel = options.cancel;
  ctx.note = note;
  if (options.crash_after > 0 && worker_index == options.crash_worker) {
    const std::size_t crash_after = options.crash_after;
    ctx.after_checkpoint = [checkpoint_writes,
                            crash_after](std::size_t /*campaign_writes*/) {
      // Count cumulatively across every campaign this worker runs, so the
      // crash point is stable regardless of how cells map to campaigns.
      if (++*checkpoint_writes >= crash_after) std::raise(SIGKILL);
    };
  }

  for (;;) {
    bool held_elsewhere = false;
    for (std::size_t step = 0; step < n; ++step) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        return options.cancel->status();
      }
      const Group& group = layout.groups[(offset + step) % n];
      if (missing_cells(options, layout, group).empty()) continue;
      Result<FileLock> claim = try_claim_collection(
          options.work_dir,
          dataset_key(options.grid, layout.grid_fp, layout.cells[group[0]]));
      if (!claim.is_ok()) return claim.status();
      if (!claim.value().held()) {
        held_elsewhere = true;  // another live worker owns it
        continue;
      }
      // Re-check under the claim: the previous holder may have finished
      // between our scan and the flock.
      const std::vector<const CellSpec*> missing =
          missing_cells(options, layout, group);
      if (missing.empty()) continue;
      const Status ran = run_collection(ctx, missing);
      if (!ran.is_ok()) return ran;
    }
    // Every group not held elsewhere is done now.
    if (!held_elsewhere) return Status::ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// Merge: load and re-validate every summary and its artifacts, then render.
Result<std::string> merge_report(const MatrixOptions& options,
                                 const Layout& layout) {
  const ScopedTimer timer{"matrix.merge"};
  std::vector<CellSummary> summaries;
  summaries.reserve(layout.cells.size());
  for (const CellSpec& cell : layout.cells) {
    const std::uint64_t cell_fp = cell_fingerprint(layout.grid_fp, cell);
    Result<CellSummary> summary = load_valid_summary(
        options.work_dir, cell.index, layout.grid_fp, cell_fp);
    if (!summary.is_ok()) return summary.status();
    for (const CellSummary::Artifact& a : summary.value().artifacts) {
      const Result<std::string> bytes =
          read_file(options.work_dir + "/" + a.rel_path);
      if (!bytes.is_ok()) return bytes.status();
      if (bytes.value().size() != a.size || crc32(bytes.value()) != a.crc) {
        return Status::error(ErrorCode::kParseError,
                             a.rel_path +
                                 ": artifact does not match its summary "
                                 "(size/crc mismatch)");
      }
    }
    summaries.push_back(std::move(summary.value()));
  }
  return render_matrix_report(options.grid, layout.grid_fp,
                              std::move(summaries));
}

}  // namespace

MatrixReport run_matrix(const MatrixOptions& options) {
  MatrixReport report;
  report.status = validate_options(options);
  if (!report.status.is_ok()) return report;

  const Layout layout = make_layout(options.grid);
  report.cells_total = layout.cells.size();

  report.status =
      prepare_work_dir(options, layout, report.cells_reused, report.notes);
  if (!report.status.is_ok()) return report;
  MetricsRegistry::global().count("matrix.cells.reused", report.cells_reused);

  if (options.workers == 0) {
    report.status =
        worker_loop(options, 0, layout, [&report](const std::string& s) {
          report.notes.push_back(s);
        });
    if (!report.status.is_ok()) return report;
  } else {
    // Flush stdio before forking so buffered bytes are not emitted twice.
    std::fflush(nullptr);
    std::vector<pid_t> children;
    children.reserve(static_cast<std::size_t>(options.workers));
    for (int i = 0; i < options.workers; ++i) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        report.status =
            Status::error(ErrorCode::kIoError, "fork failed for worker " +
                                                   std::to_string(i));
        for (const pid_t child : children) ::kill(child, SIGTERM);
        for (const pid_t child : children) ::waitpid(child, nullptr, 0);
        return report;
      }
      if (pid == 0) {
        const Status ran =
            worker_loop(options, i, layout, [i](const std::string& s) {
              std::fprintf(stderr, "matrix worker %d: %s\n", i, s.c_str());
            });
        if (!ran.is_ok()) {
          std::fprintf(stderr, "matrix worker %d: %s\n", i,
                       ran.to_string().c_str());
        }
        std::fflush(nullptr);
        ::_exit(ran.is_ok() ? 0 : 1);
      }
      children.push_back(pid);
    }
    for (const pid_t child : children) {
      int wstatus = 0;
      pid_t waited;
      do {
        waited = ::waitpid(child, &wstatus, 0);
      } while (waited < 0 && errno == EINTR);
      if (waited < 0) {
        report.status = Status::error(ErrorCode::kIoError, "waitpid failed");
        return report;
      }
      if (WIFSIGNALED(wstatus) && report.worker_signal == 0) {
        report.worker_signal = WTERMSIG(wstatus);
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0 &&
                 report.worker_exit == 0) {
        report.worker_exit = WEXITSTATUS(wstatus);
      }
    }
    if (report.worker_signal != 0) {
      report.status = Status::error(
          ErrorCode::kCancelled,
          "worker killed by signal " + std::to_string(report.worker_signal) +
              "; rerun with --resume to reclaim and finish its cells");
      return report;
    }
    if (report.worker_exit != 0) {
      report.status = Status::error(
          ErrorCode::kIoError, "worker exited with code " +
                                   std::to_string(report.worker_exit) +
                                   " (see worker stderr)");
      return report;
    }
  }
  report.cells_run = report.cells_total - report.cells_reused;

  Result<std::string> merged = merge_report(options, layout);
  if (!merged.is_ok()) {
    report.status = merged.status();
    return report;
  }
  report.report = std::move(merged.value());
  report.report_path = report_path(options.work_dir);
  report.status = write_file_atomic(report.report_path, report.report);
  return report;
}

}  // namespace pathsel::matrix
