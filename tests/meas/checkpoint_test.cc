// Crash-safety tests for the checkpoint format and store: self-CRC'd files,
// torn/truncated/corrupt candidates discarded, and alternating generations
// with fallback, also across a reopened store.  The torn-checkpoint sweep
// extends the adversarial-input fuzz corpus (serialize_fuzz_test covers the
// dataset files themselves).
#include "meas/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/atomic_io.h"

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

}  // namespace
}  // namespace pathsel::meas
