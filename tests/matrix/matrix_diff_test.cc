// The matrix engine's differential layer, in-process.
//
// The headline property: the merged report is BYTE-identical whether the
// cells run sequentially (workers = 0), under one forked worker, or fanned
// out over 2 or 4 workers — and identical again when a worker is SIGKILL'd
// mid-cell and the run is finished under --resume.  (The CLI-level SIGKILL
// variant lives in tests/tools/kill_resume.sh; this suite forks real
// workers but injects the crash through MatrixOptions, so it runs
// everywhere.)  On top of that it pins the stale-state contract from both
// ends: an edited grid discards every cell summary on resume, and —
// one layer down — a campaign checkpoint written under one
// extra_fingerprint is rejected as stale when resumed under another, which
// is exactly the binding the matrix relies on to keep worker checkpoints
// from leaking across grid edits.
#include "matrix/engine.h"

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "matrix/grid.h"
#include "matrix/queue.h"
#include "meas/campaign.h"
#include "util/metrics.h"

namespace pathsel::matrix {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "matrix_diff_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Small but representative grid: two fault levels x two policy families
// (significance path and disjoint path), scale small enough that the whole
// suite stays in unit-test territory.  threads = 1 keeps the forked workers
// trivially fork-safe (a 1-thread pool spawns no worker threads).
GridConfig small_grid() {
  GridConfig g;
  g.name = "difftest";
  g.scale = 0.01;
  g.datasets = {"UW3"};
  g.faults = {0.0, 0.3};
  g.metrics = {core::Metric::kRtt};
  g.policies = {PolicySpec{},  // one-hop/auto
                PolicySpec{PolicyKind::kDisjoint, core::Kernel::kAuto, 2}};
  g.samples = {0};
  g.seeds = {1999};
  return g;
}

MatrixOptions options_for(const GridConfig& grid, const std::string& dir,
                          int workers) {
  MatrixOptions o;
  o.grid = grid;
  o.work_dir = dir;
  o.workers = workers;
  o.threads = 1;
  return o;
}

TEST(MatrixDiff, WorkerCountIsInvisibleInTheMergedReport) {
  const GridConfig grid = small_grid();
  std::string reference;
  for (const int workers : {0, 1, 2, 4}) {
    const std::string dir =
        fresh_dir("fanout_w" + std::to_string(workers));
    const MatrixReport report =
        run_matrix(options_for(grid, dir, workers));
    ASSERT_TRUE(report.status.is_ok())
        << "workers=" << workers << ": " << report.status.to_string();
    ASSERT_FALSE(report.report.empty());
    EXPECT_EQ(report.cells_total, 4u);
    if (reference.empty()) {
      reference = report.report;
    } else {
      EXPECT_EQ(report.report, reference)
          << "workers=" << workers << " diverged from the sequential run";
    }
    // The on-disk report carries the same bytes the caller got.
    std::ifstream is{report.report_path, std::ios::binary};
    const std::string on_disk{std::istreambuf_iterator<char>{is},
                              std::istreambuf_iterator<char>{}};
    EXPECT_EQ(on_disk, report.report);
  }
}

TEST(MatrixDiff, KilledWorkerIsReclaimedAndResumeMatches) {
  const GridConfig grid = small_grid();
  const std::string ref_dir = fresh_dir("crash_ref");
  const MatrixReport reference =
      run_matrix(options_for(grid, ref_dir, 0));
  ASSERT_TRUE(reference.status.is_ok()) << reference.status.to_string();

  // Kill the single worker after its second checkpoint write: collection is
  // mid-flight, so the checkpoint is the only thing that can make resume
  // byte-identical.
  const std::string dir = fresh_dir("crash");
  MatrixOptions crashed = options_for(grid, dir, 1);
  crashed.crash_after = 2;
  crashed.crash_worker = 0;
  const MatrixReport killed = run_matrix(crashed);
  ASSERT_FALSE(killed.status.is_ok());
  EXPECT_EQ(killed.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(killed.worker_signal, SIGKILL);
  EXPECT_FALSE(std::filesystem::exists(report_path(dir)));

  MatrixOptions resumed = options_for(grid, dir, 1);
  resumed.resume = true;
  const MatrixReport finished = run_matrix(resumed);
  ASSERT_TRUE(finished.status.is_ok()) << finished.status.to_string();
  EXPECT_EQ(finished.report, reference.report)
      << "crash + resume diverged from the uninterrupted run";
}

TEST(MatrixDiff, TwoWorkersSurviveKillingOne) {
  const GridConfig grid = small_grid();
  const std::string ref_dir = fresh_dir("buddy_ref");
  const MatrixReport reference =
      run_matrix(options_for(grid, ref_dir, 0));
  ASSERT_TRUE(reference.status.is_ok());

  // Worker 0 dies mid-cell; worker 1 keeps draining the queue, and because
  // the dead worker's flock evaporates with it, worker 1 reclaims and
  // finishes the orphaned cell in the SAME run.  The run still reports the
  // death (exit contract), but every cell summary is on disk.
  const std::string dir = fresh_dir("buddy");
  MatrixOptions crashed = options_for(grid, dir, 2);
  crashed.crash_after = 2;
  crashed.crash_worker = 0;
  const MatrixReport killed = run_matrix(crashed);
  ASSERT_FALSE(killed.status.is_ok());
  EXPECT_EQ(killed.worker_signal, SIGKILL);

  const std::vector<CellSpec> cells = expand_cells(grid);
  const std::uint64_t grid_fp = grid_fingerprint(grid);
  std::size_t published = 0;
  for (const CellSpec& cell : cells) {
    if (load_valid_summary(dir, cell.index, grid_fp,
                           cell_fingerprint(grid_fp, cell))
            .is_ok()) {
      ++published;
    }
  }
  EXPECT_EQ(published, cells.size())
      << "the surviving worker did not reclaim the killed worker's cells";

  // Resume is then pure merge: nothing left to run.
  MatrixOptions resumed = options_for(grid, dir, 2);
  resumed.resume = true;
  const MatrixReport finished = run_matrix(resumed);
  ASSERT_TRUE(finished.status.is_ok()) << finished.status.to_string();
  EXPECT_EQ(finished.cells_reused, cells.size());
  EXPECT_EQ(finished.report, reference.report);
}

TEST(MatrixDiff, EditedGridDiscardsEveryCellOnResume) {
  GridConfig grid = small_grid();
  const std::string dir = fresh_dir("stale");
  const MatrixReport first = run_matrix(options_for(grid, dir, 0));
  ASSERT_TRUE(first.status.is_ok());

  grid.seeds = {2024};  // the edit
  MatrixOptions resumed = options_for(grid, dir, 0);
  resumed.resume = true;
  const MatrixReport second = run_matrix(resumed);
  ASSERT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(second.cells_reused, 0u)
      << "summaries from the old grid were reused under the edited grid";
  EXPECT_NE(second.report, first.report);
  bool noted = false;
  for (const std::string& note : second.notes) {
    if (note.find("discarded summary") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "no diagnostic for the discarded stale summaries";
}

// The satellite pin, one layer down: CampaignOptions::extra_fingerprint is
// folded into the checkpoint fingerprint, so a checkpoint written under one
// value must be rejected as stale under any other — including the matrix
// case where the value is a grid fingerprint and the grid was edited
// between the crash and the resume.
TEST(MatrixDiff, CampaignCheckpointIsBoundToExtraFingerprint) {
  meas::CatalogConfig catalog;
  catalog.seed = 1999;
  catalog.scale = 0.005;

  CancelToken token;
  meas::CampaignOptions interrupted;
  interrupted.catalog = catalog;
  interrupted.datasets = {"UW3"};
  interrupted.output_dir = fresh_dir("fp_out");
  interrupted.checkpoint_dir = fresh_dir("fp_ck");
  interrupted.extra_fingerprint = 0xfeedface12345678ULL;
  interrupted.cancel = &token;
  interrupted.after_checkpoint = [&token](std::size_t writes) {
    if (writes >= 1) token.cancel();
  };
  const meas::CampaignReport stopped = meas::run_campaign(interrupted);
  ASSERT_FALSE(stopped.status.is_ok());

  // Same extra fingerprint: the checkpoint is honoured.
  meas::CampaignOptions same = interrupted;
  same.cancel = nullptr;
  same.after_checkpoint = nullptr;
  same.resume = true;
  const meas::CampaignReport resumed_same = meas::run_campaign(same);
  ASSERT_TRUE(resumed_same.status.is_ok())
      << resumed_same.status.to_string();
  EXPECT_EQ(resumed_same.resumed, (std::vector<std::string>{"UW3"}));

  // Different extra fingerprint (an edited grid): the checkpoint written
  // above must be discarded as stale, not silently merged.
  CancelToken token2;
  meas::CampaignOptions interrupted2 = interrupted;
  interrupted2.output_dir = fresh_dir("fp2_out");
  interrupted2.checkpoint_dir = fresh_dir("fp2_ck");
  interrupted2.cancel = &token2;
  interrupted2.after_checkpoint = [&token2](std::size_t writes) {
    if (writes >= 1) token2.cancel();
  };
  ASSERT_FALSE(meas::run_campaign(interrupted2).status.is_ok());

  meas::CampaignOptions edited = interrupted2;
  edited.cancel = nullptr;
  edited.after_checkpoint = nullptr;
  edited.resume = true;
  edited.extra_fingerprint = 0xfeedface12345679ULL;  // one bit off
  const meas::CampaignReport resumed_edited = meas::run_campaign(edited);
  ASSERT_TRUE(resumed_edited.status.is_ok())
      << resumed_edited.status.to_string();
  EXPECT_TRUE(resumed_edited.resumed.empty())
      << "a checkpoint from a different extra_fingerprint was resumed";
  bool noted = false;
  for (const std::string& note : resumed_edited.notes) {
    if (note.find("discarded checkpoint") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "no diagnostic for the stale checkpoint";

  // Both paths still converge to the same dataset bytes: staleness affects
  // resumability, never results.
  std::ifstream a{same.output_dir + "/UW3.ds", std::ios::binary};
  std::ifstream b{edited.output_dir + "/UW3.ds", std::ios::binary};
  const std::string bytes_a{std::istreambuf_iterator<char>{a},
                            std::istreambuf_iterator<char>{}};
  const std::string bytes_b{std::istreambuf_iterator<char>{b},
                            std::istreambuf_iterator<char>{}};
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// Collection sharing: every cell that uses one collection reads its .ds
// from disk at most once per run, and a resume whose collections are on
// disk regenerates none of them.
class MatrixCollections : public ::testing::Test {
 protected:
  MatrixCollections() {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().enable();
  }
  ~MatrixCollections() override {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().enable(was_enabled_);
  }

  static std::uint64_t counter(const MetricsSnapshot& snap,
                               std::string_view name) {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  }
  static std::uint64_t phase_calls(const MetricsSnapshot& snap,
                                   std::string_view name) {
    for (const auto& [key, stat] : snap.phases) {
      if (key == name) return stat.calls;
    }
    return 0;
  }

 private:
  bool was_enabled_ = MetricsRegistry::global().enabled();
};

TEST_F(MatrixCollections, EachCollectionIsReadOnce) {
  const std::string dir = fresh_dir("read_once");
  const MatrixReport report = run_matrix(options_for(small_grid(), dir, 0));
  ASSERT_TRUE(report.status.is_ok()) << report.status.to_string();

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter(snap, "matrix.datasets.collected"), 2u);
  EXPECT_EQ(counter(snap, "matrix.cells.run"), 4u);
  EXPECT_GT(counter(snap, "meas.dataset.records_written"), 0u);
  EXPECT_EQ(counter(snap, "meas.dataset.records_read"),
            counter(snap, "meas.dataset.records_written"))
      << "a collection was parsed from disk more than once";
  EXPECT_EQ(phase_calls(snap, "meas.dataset.read"),
            counter(snap, "matrix.datasets.collected"));
}

TEST_F(MatrixCollections, ResumeWithoutSummariesReusesEveryCollection) {
  const std::string dir = fresh_dir("resummarize");
  const MatrixReport first = run_matrix(options_for(small_grid(), dir, 0));
  ASSERT_TRUE(first.status.is_ok()) << first.status.to_string();

  std::size_t deleted = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator{queue_dir(dir)}) {
    if (entry.path().extension() == ".summary") {
      std::filesystem::remove(entry.path());
      ++deleted;
    }
  }
  ASSERT_EQ(deleted, 4u);

  MetricsRegistry::global().reset();
  MatrixOptions resumed = options_for(small_grid(), dir, 0);
  resumed.resume = true;
  const MatrixReport second = run_matrix(resumed);
  ASSERT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(second.cells_reused, 0u);
  EXPECT_EQ(second.cells_run, 4u);

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter(snap, "matrix.cells.run"), 4u);
  EXPECT_EQ(counter(snap, "matrix.datasets.collected"), 0u);
  EXPECT_EQ(phase_calls(snap, "meas.collect"), 0u)
      << "a collection on disk was collected again";
  EXPECT_EQ(second.report, first.report);
}

}  // namespace
}  // namespace pathsel::matrix
