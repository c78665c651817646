// Crash-safety tests for the checkpoint format and store: self-CRC'd files,
// torn/truncated/corrupt candidates discarded, alternating generations with
// fallback, also across a reopened store, and a differential check of the
// store's row cache against serialize_checkpoint.  The torn-checkpoint sweep
// extends the adversarial-input fuzz corpus (serialize_fuzz_test covers the
// dataset files themselves).
#include "meas/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/atomic_io.h"
#include "util/metrics.h"

namespace pathsel::meas {
namespace {

constexpr std::uint64_t kFingerprint = 0xABCDEF0123456789ULL;

// A hand-built checkpoint exercising every section of the format: server RNG
// streams, a pending retry event, and a fault-aware measurement row.
CampaignCheckpoint make_checkpoint(std::int64_t now_ms,
                                   std::uint64_t next_seq) {
  CampaignCheckpoint cp;
  cp.dataset_name = "UW3";
  cp.now = SimTime::at(Duration::millis(now_ms));
  cp.next_seq = next_seq;
  cp.episode_count = 3;
  cp.rng_state = {1, 2, 3, 4};
  cp.server_rng_states = {{5, 6, 7, 8}, {9, 10, 11, 12}};
  cp.injector_epoch = 17;

  CampaignEvent ev;
  ev.t = cp.now + Duration::seconds(30);
  ev.seq = next_seq - 1;
  ev.kind = CampaignEventKind::kRetry;
  ev.a = 1;
  ev.b = 2;
  ev.first = cp.now;
  ev.episode = -1;
  ev.tried = 1;
  cp.pending.push_back(ev);

  auto ds = test::make_dataset(3);
  test::add_invocation(ds, 0, 1, {10.5, -1.0, 30.25});
  ds.measurements.back().failure = FailureReason::kNone;
  Measurement failed;
  failed.when = SimTime::at(Duration::millis(now_ms / 2));
  failed.src = topo::HostId{1};
  failed.dst = topo::HostId{2};
  failed.completed = false;
  failed.failure = FailureReason::kEndpointDown;
  failed.attempts = 2;
  ds.measurements.push_back(failed);
  cp.measurements = ds.measurements;
  return cp;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "checkpoint_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void write_raw(const std::string& path, const std::string& contents) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os << contents;
  ASSERT_TRUE(os.good()) << path;
}

TEST(Checkpoint, FingerprintBindsTheCampaign) {
  CollectorConfig config;
  const std::vector<topo::HostId> hosts{topo::HostId{0}, topo::HostId{1}};
  const std::uint64_t base = checkpoint_fingerprint("UW3", config, hosts);
  EXPECT_EQ(base, checkpoint_fingerprint("UW3", config, hosts));

  EXPECT_NE(base, checkpoint_fingerprint("UW1", config, hosts));

  CollectorConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(base, checkpoint_fingerprint("UW3", reseeded, hosts));

  CollectorConfig longer = config;
  longer.duration = config.duration + Duration::hours(1);
  EXPECT_NE(base, checkpoint_fingerprint("UW3", longer, hosts));

  CollectorConfig retried = config;
  retried.retry.max_retries = 2;
  EXPECT_NE(base, checkpoint_fingerprint("UW3", retried, hosts));

  const std::vector<topo::HostId> other{topo::HostId{0}, topo::HostId{2}};
  EXPECT_NE(base, checkpoint_fingerprint("UW3", config, other));
}

TEST(Checkpoint, SerializeParseRoundTrip) {
  const CampaignCheckpoint cp = make_checkpoint(120000, 40);
  const std::string text =
      serialize_checkpoint(cp, MeasurementKind::kTraceroute, kFingerprint);
  const Result<CampaignCheckpoint> parsed =
      parse_checkpoint(text, MeasurementKind::kTraceroute, kFingerprint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const CampaignCheckpoint& got = parsed.value();
  EXPECT_EQ(got.dataset_name, cp.dataset_name);
  EXPECT_EQ(got.now, cp.now);
  EXPECT_EQ(got.next_seq, cp.next_seq);
  EXPECT_EQ(got.episode_count, cp.episode_count);
  EXPECT_EQ(got.rng_state, cp.rng_state);
  EXPECT_EQ(got.server_rng_states, cp.server_rng_states);
  EXPECT_EQ(got.injector_epoch, cp.injector_epoch);
  ASSERT_EQ(got.pending.size(), cp.pending.size());
  EXPECT_EQ(got.pending[0].kind, cp.pending[0].kind);
  EXPECT_EQ(got.pending[0].t, cp.pending[0].t);
  EXPECT_EQ(got.pending[0].seq, cp.pending[0].seq);
  EXPECT_EQ(got.pending[0].tried, cp.pending[0].tried);
  ASSERT_EQ(got.measurements.size(), cp.measurements.size());
  EXPECT_EQ(got.measurements[1].failure, FailureReason::kEndpointDown);
  EXPECT_EQ(got.measurements[1].attempts, 2);
  // The strongest equality: a reserialized parse is byte-identical.
  EXPECT_EQ(serialize_checkpoint(got, MeasurementKind::kTraceroute,
                                 kFingerprint),
            text);
}

TEST(Checkpoint, KindAndFingerprintMismatchesAreInvalidArgument) {
  const CampaignCheckpoint cp = make_checkpoint(120000, 40);
  const std::string text =
      serialize_checkpoint(cp, MeasurementKind::kTraceroute, kFingerprint);

  const Result<CampaignCheckpoint> wrong_kind =
      parse_checkpoint(text, MeasurementKind::kTcpTransfer, kFingerprint);
  ASSERT_FALSE(wrong_kind.is_ok());
  EXPECT_EQ(wrong_kind.status().code(), ErrorCode::kInvalidArgument);

  const Result<CampaignCheckpoint> wrong_print =
      parse_checkpoint(text, MeasurementKind::kTraceroute, kFingerprint + 1);
  ASSERT_FALSE(wrong_print.is_ok());
  EXPECT_EQ(wrong_print.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Checkpoint, StoreAlternatesGenerations) {
  const std::string dir = fresh_dir("alternate");
  CheckpointStore store{dir};
  ASSERT_TRUE(store
                  .save(make_checkpoint(60000, 10),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());
  ASSERT_TRUE(store
                  .save(make_checkpoint(120000, 20),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());
  // The directory is exactly the dataset's two generation files.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"UW3.ckpt.0", "UW3.ckpt.1"}));

  const CheckpointLoad load = load_newest_checkpoint(
      dir, "UW3", MeasurementKind::kTraceroute, kFingerprint);
  ASSERT_TRUE(load.checkpoint.has_value());
  EXPECT_TRUE(load.discarded.empty());
  EXPECT_EQ(load.checkpoint->next_seq, 20u);
  EXPECT_EQ(load.generation, 1);
}

// A reopened store (a resumed process) continues alternating away from the
// newest valid generation, so its first save never overwrites the checkpoint
// resume would load.  Equal simulated times are ordered by next_seq, exactly
// as load_newest_checkpoint orders them.
TEST(Checkpoint, ReopenedStoreNeverOverwritesTheNewestGeneration) {
  struct Case {
    const char* name;
    std::vector<std::int64_t> saves_ms;  // `now` of each save before reopening
    int newest;                          // the generation they leave newest
  };
  for (const Case& c : {Case{"reopen_newest1", {60000, 120000}, 1},
                        Case{"reopen_newest0", {60000, 120000, 180000}, 0},
                        Case{"reopen_tied_now", {60000, 60000}, 1}}) {
    SCOPED_TRACE(c.name);
    const std::string dir = fresh_dir(c.name);
    CheckpointStore first{dir};
    std::uint64_t seq = 0;
    for (const std::int64_t now_ms : c.saves_ms) {
      seq += 10;
      ASSERT_TRUE(first
                      .save(make_checkpoint(now_ms, seq),
                            MeasurementKind::kTraceroute, kFingerprint)
                      .is_ok());
    }
    const std::uint64_t newest_seq = seq;

    CheckpointStore reopened{dir};
    ASSERT_TRUE(reopened
                    .save(make_checkpoint(c.saves_ms.back() + 60000, seq + 10),
                          MeasurementKind::kTraceroute, kFingerprint)
                    .is_ok());
    const CheckpointLoad load = load_newest_checkpoint(
        dir, "UW3", MeasurementKind::kTraceroute, kFingerprint);
    ASSERT_TRUE(load.checkpoint.has_value());
    EXPECT_EQ(load.generation, 1 - c.newest);
    EXPECT_EQ(load.checkpoint->next_seq, seq + 10);

    // The previous newest still loads from its own generation.
    const Result<std::string> kept_text =
        read_file(reopened.generation_path("UW3", c.newest));
    ASSERT_TRUE(kept_text.is_ok());
    const Result<CampaignCheckpoint> kept = parse_checkpoint(
        kept_text.value(), MeasurementKind::kTraceroute, kFingerprint);
    ASSERT_TRUE(kept.is_ok()) << kept.status().message();
    EXPECT_EQ(kept.value().next_seq, newest_seq);
  }
}

TEST(Checkpoint, TornNewestGenerationFallsBackToPrevious) {
  const std::string dir = fresh_dir("fallback");
  CheckpointStore store{dir};
  ASSERT_TRUE(store
                  .save(make_checkpoint(60000, 10),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());
  ASSERT_TRUE(store
                  .save(make_checkpoint(120000, 20),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());

  // Tear the newest generation (the second save landed in generation 1) at
  // a few representative byte counts: resume loses one interval, not the run.
  const std::string newest_path = store.generation_path("UW3", 1);
  const std::string newest = [&] {
    std::ifstream is{newest_path, std::ios::binary};
    return std::string{std::istreambuf_iterator<char>{is},
                       std::istreambuf_iterator<char>{}};
  }();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, newest.size() / 2,
        newest.size() - 1}) {
    write_raw(newest_path, newest.substr(0, cut));
    const CheckpointLoad load = load_newest_checkpoint(
        dir, "UW3", MeasurementKind::kTraceroute, kFingerprint);
    ASSERT_TRUE(load.checkpoint.has_value()) << "cut at " << cut;
    EXPECT_EQ(load.checkpoint->next_seq, 10u) << "cut at " << cut;
    ASSERT_FALSE(load.discarded.empty()) << "cut at " << cut;
  }
}

TEST(Checkpoint, BothGenerationsTornMeansFreshStart) {
  const std::string dir = fresh_dir("allgone");
  CheckpointStore store{dir};
  ASSERT_TRUE(store
                  .save(make_checkpoint(60000, 10),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());
  ASSERT_TRUE(store
                  .save(make_checkpoint(120000, 20),
                        MeasurementKind::kTraceroute, kFingerprint)
                  .is_ok());
  write_raw(store.generation_path("UW3", 0), "pathsel-checkpoint v1\ntrunc");
  write_raw(store.generation_path("UW3", 1), "");
  const CheckpointLoad load = load_newest_checkpoint(
      dir, "UW3", MeasurementKind::kTraceroute, kFingerprint);
  EXPECT_FALSE(load.checkpoint.has_value());
  EXPECT_EQ(load.discarded.size(), 2u);
}

TEST(Checkpoint, MissingDirectoryIsNotAnError) {
  const CheckpointLoad load =
      load_newest_checkpoint(fresh_dir("missing"), "UW3",
                             MeasurementKind::kTraceroute, kFingerprint);
  EXPECT_FALSE(load.checkpoint.has_value());
  EXPECT_TRUE(load.discarded.empty());
}

TEST(Checkpoint, StaleFingerprintGenerationIsDiscarded) {
  const std::string dir = fresh_dir("stale");
  CheckpointStore store{dir};
  ASSERT_TRUE(store
                  .save(make_checkpoint(60000, 10),
                        MeasurementKind::kTraceroute, kFingerprint + 1)
                  .is_ok());
  const CheckpointLoad load = load_newest_checkpoint(
      dir, "UW3", MeasurementKind::kTraceroute, kFingerprint);
  EXPECT_FALSE(load.checkpoint.has_value());
  ASSERT_EQ(load.discarded.size(), 1u);
  EXPECT_NE(load.discarded[0].find("fingerprint"), std::string::npos);
}

// --- differential row-cache test -------------------------------------------

std::uint64_t counter(std::string_view name) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

// Row i of a synthetic campaign: distinct (when, src, dst), and every fourth
// row a retried failure.
Measurement row(std::size_t i, AsPathPool& paths) {
  const auto n = static_cast<std::int32_t>(i);
  Measurement m;
  m.when = SimTime::at(Duration::millis(1000 * n + 7));
  m.src = topo::HostId{n % 3};
  m.dst = topo::HostId{(n + 1) % 3};
  m.completed = i % 4 != 3;
  if (m.completed) {
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      m.samples[k].lost = (i + k) % 5 == 0;
      m.samples[k].rtt_ms = 10.0 + 0.25 * static_cast<double>(i + k);
    }
    m.path = test::intern_path(paths, {1, n % 7 + 2});
    m.bandwidth_kBps = 100.0 + static_cast<double>(i);
    m.tcp_rtt_ms = 40.5;
    m.tcp_loss_rate = 0.01 * static_cast<double>(i % 3);
  } else {
    m.failure = FailureReason::kEndpointDown;
    m.attempts = 3;
  }
  return m;
}

// Saves checkpoints through one store and checks each generation file it
// writes against serialize_checkpoint, and the rows each save formats.
class StoreDifferential {
 public:
  explicit StoreDifferential(std::string dir)
      : dir_{std::move(dir)}, store_{dir_} {
    MetricsRegistry::global().enable();
  }
  ~StoreDifferential() { MetricsRegistry::global().enable(was_enabled_); }
  StoreDifferential(const StoreDifferential&) = delete;
  StoreDifferential& operator=(const StoreDifferential&) = delete;

  // A new store on the same directory, as a resumed process opens it.
  void reopen() { store_ = CheckpointStore{dir_}; }

  // A checkpoint of `dataset` at save number `step`: the state, RNG and
  // pending lines change with every step; the rows are row(0..count-1).
  static CampaignCheckpoint at(const std::string& dataset, int step,
                               std::size_t count) {
    CampaignCheckpoint cp;
    cp.dataset_name = dataset;
    cp.now = SimTime::at(Duration::millis(60'000 * step));
    cp.next_seq = 100 + static_cast<std::uint64_t>(step);
    cp.episode_count = step;
    cp.rng_state = {static_cast<std::uint64_t>(step), 2, 3, 4};
    cp.injector_epoch = static_cast<std::uint64_t>(step % 3);
    for (int e = 0; e < step % 3; ++e) {
      CampaignEvent ev;
      ev.t = cp.now + Duration::seconds(30 + e);
      ev.seq = cp.next_seq - 1 - static_cast<std::uint64_t>(e);
      ev.kind = CampaignEventKind::kRetry;
      ev.a = e;
      ev.b = e + 1;
      ev.first = cp.now;
      ev.tried = 1;
      cp.pending.push_back(ev);
    }
    for (std::size_t i = 0; i < count; ++i) {
      cp.measurements.push_back(row(i, cp.paths));
    }
    return cp;
  }

  void save(const CampaignCheckpoint& cp, MeasurementKind kind,
            std::uint64_t fingerprint, std::uint64_t expect_formatted) {
    SCOPED_TRACE(cp.dataset_name + " at now_ms " +
                 std::to_string(cp.now.since_start().total_millis()));
    const std::uint64_t rows_before = counter("meas.checkpoint.rows_formatted");
    const std::uint64_t bytes_before =
        counter("meas.checkpoint.bytes_written");
    ASSERT_TRUE(store_.save(cp, kind, fingerprint).is_ok());
    int& generation = next_generation_[cp.dataset_name];
    const Result<std::string> written =
        read_file(store_.generation_path(cp.dataset_name, generation));
    generation = 1 - generation;
    ASSERT_TRUE(written.is_ok()) << written.status().message();
    EXPECT_TRUE(written.value() == serialize_checkpoint(cp, kind, fingerprint))
        << "the saved file differs from serialize_checkpoint";
    EXPECT_EQ(counter("meas.checkpoint.rows_formatted") - rows_before,
              expect_formatted);
    EXPECT_EQ(counter("meas.checkpoint.bytes_written") - bytes_before,
              written.value().size());
  }

 private:
  bool was_enabled_ = MetricsRegistry::global().enabled();
  std::string dir_;
  CheckpointStore store_;
  std::map<std::string, int> next_generation_;  // as the store alternates
};

TEST(CheckpointStoreRows, EverySaveEqualsTheFullSerializer) {
  constexpr auto kTrace = MeasurementKind::kTraceroute;
  StoreDifferential d{fresh_dir("rows")};
  int step = 0;
  // Two datasets interleaved, each growing and also saved with no new rows.
  d.save(d.at("UW3", ++step, 0), kTrace, kFingerprint, 0);
  d.save(d.at("UW1", ++step, 3), kTrace, kFingerprint, 3);
  d.save(d.at("UW3", ++step, 5), kTrace, kFingerprint, 5);
  d.save(d.at("UW3", ++step, 5), kTrace, kFingerprint, 0);
  d.save(d.at("UW1", ++step, 7), kTrace, kFingerprint, 4);
  d.save(d.at("UW3", ++step, 12), kTrace, kFingerprint, 7);

  // A shrinking count re-formats every row.
  d.save(d.at("UW3", ++step, 9), kTrace, kFingerprint, 9);

  // Same count, different last row: re-formats, then appends to the new rows.
  CampaignCheckpoint edited = d.at("UW3", ++step, 9);
  edited.measurements.back().when =
      edited.measurements.back().when + Duration::millis(1);
  d.save(edited, kTrace, kFingerprint, 9);
  CampaignCheckpoint grown = d.at("UW3", ++step, 11);
  grown.measurements[8] = edited.measurements.back();
  d.save(grown, kTrace, kFingerprint, 2);

  // A changed fingerprint or kind re-formats every row, and so does the
  // change back.
  d.save(d.at("UW3", ++step, 11), kTrace, kFingerprint + 1, 11);
  d.save(d.at("UW3", ++step, 11), MeasurementKind::kTcpTransfer,
         kFingerprint + 1, 11);
  d.save(d.at("UW3", ++step, 13), kTrace, kFingerprint, 13);
  d.save(d.at("UW1", ++step, 8), kTrace, kFingerprint, 1);

  // A reopened store formats everything on its first save of each dataset.
  d.reopen();
  d.save(d.at("UW3", ++step, 14), kTrace, kFingerprint, 14);
  d.save(d.at("UW1", ++step, 8), kTrace, kFingerprint, 8);
  d.save(d.at("UW3", ++step, 20), kTrace, kFingerprint, 6);

  // Megabytes of rows, so the cached text spans several chunks.
  d.save(d.at("UW3", ++step, 25'000), kTrace, kFingerprint, 24'980);
  d.save(d.at("UW3", ++step, 25'000), kTrace, kFingerprint, 0);
  d.save(d.at("UW3", ++step, 50'001), kTrace, kFingerprint, 25'001);
}

}  // namespace
}  // namespace pathsel::meas
