// Serve engine tests.  The load-bearing property is the differential: the
// incrementally maintained, snapshot-served answers must be BYTE-identical
// (serialize_result_columns) to a from-scratch batch analyze of the
// post-update graph — at every reader-thread count and across journal
// replay boundaries.  The robustness suite then pins graceful degradation:
// rejections change nothing, overload sheds deterministically, staleness is
// flagged, and per-query deadline budgets fire.
#include "serve/engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/result_columns.h"
#include "meas/serialize.h"
#include "serve/journal.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/atomic_io.h"
#include "util/metrics.h"

namespace pathsel::serve {
namespace {

// Full mesh over 6 hosts except the (4, 5) pair, which stays unmeasured so
// kNoPair has a target.  Distinct RTTs so arg-min relays are unambiguous;
// a lost sample per pair so loss summaries are non-degenerate.
meas::Dataset mesh_dataset() {
  meas::Dataset ds = test::make_dataset(6);
  double rtt = 10.0;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      if (a == 4 && b == 5) continue;
      test::add_invocations(ds, a, b, rtt, 3);
      test::add_invocation(ds, a, b, {rtt, rtt + 2.0, -1.0});
      rtt += 7.0;
    }
  }
  return ds;
}

EdgeUpdate update(int a, int b, double rtt, bool lost = false) {
  EdgeUpdate u;
  u.a = topo::HostId{a};
  u.b = topo::HostId{b};
  u.rtt_ms = rtt;
  u.lost = lost;
  return u;
}

ServeOptions base_options() {
  ServeOptions o;
  o.build = test::min_samples(3);
  o.threads = 1;
  return o;
}

// The ground truth: apply the updates to a freshly built table exactly as
// the engine does, then run the full batch pipeline the serve path claims
// byte-identity with.
std::vector<core::ResultColumns> batch_reference(
    const meas::Dataset& ds, const std::vector<EdgeUpdate>& updates) {
  core::PathTable table = core::PathTable::build(ds, test::min_samples(3));
  for (const EdgeUpdate& u : updates) {
    core::PathEdge* e = table.find_mutable(u.a, u.b);
    EXPECT_NE(e, nullptr);
    e->loss.add(u.lost ? 1.0 : 0.0);
    if (!u.lost) e->rtt.add(u.rtt_ms);
    ++e->invocations;
  }
  std::vector<core::ResultColumns> out;
  for (const core::Metric metric : {core::Metric::kRtt, core::Metric::kLoss}) {
    core::AnalyzerOptions analyzer;
    analyzer.metric = metric;
    analyzer.max_intermediate_hosts = 1;
    analyzer.threads = 1;
    const Result<std::vector<core::PairResult>> pairs =
        core::analyze_alternate_paths_checked(table, analyzer);
    EXPECT_TRUE(pairs.is_ok());
    core::ResultColumns cols = core::from_pairs(pairs.value(), metric);
    EXPECT_TRUE(core::annotate_significance(cols, 0.95, 1).is_ok());
    out.push_back(std::move(cols));
  }
  return out;
}

std::string served_bytes(ServeEngine& engine) {
  const SnapshotBoard::Pin pin = engine.pin(0);
  const std::vector<core::ResultColumns> sets{pin->rtt, pin->loss};
  return core::serialize_result_columns(sets);
}

std::vector<EdgeUpdate> mixed_updates() {
  return {
      update(0, 1, 3.5),           update(0, 1, 250.0),
      update(0, 1, 40.0, true),    update(2, 3, 1.0),
      update(2, 3, 1.0),           update(1, 4, 500.0, true),
      update(1, 4, 500.0, true),   update(0, 5, 77.25),
      update(3, 5, 0.125),         update(2, 4, 62.0),
  };
}

// Journals and snapshots written by earlier builds carry the fingerprint,
// so it must stay the CRC of the whole .ds text, however the writer chunks
// that text.
TEST(ServeFingerprint, IsCrcOfTheWholeDatasetText) {
  meas::Dataset ds = mesh_dataset();
  for (int i = 0; i < 6000; ++i) {
    test::add_invocation(ds, 0, 1, {10.0 + i * 0.001, 11.0, 12.0});
  }
  std::string text;
  meas::write_dataset_chunks(
      ds, [&text](std::string_view chunk) { text += chunk; });
  ASSERT_GT(text.size(), 3u * 64 * 1024);  // several write chunks
  EXPECT_EQ(ServeEngine::compute_fingerprint(ds, 7),
            (std::uint64_t{crc32(text)} << 32) | 7u);
}

TEST(ServeDifferential, InitialSnapshotMatchesBatch) {
  const meas::Dataset ds = mesh_dataset();
  Result<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::create(ds, base_options());
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  EXPECT_EQ(served_bytes(*engine.value()),
            core::serialize_result_columns(batch_reference(ds, {})));
}

TEST(ServeDifferential, ServedColumnsMatchBatchRebuildAfterUpdates) {
  const meas::Dataset ds = mesh_dataset();
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(ds, base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();

  const std::vector<EdgeUpdate> updates = mixed_updates();
  // Split across two flushes: intermediate snapshots must also be coherent.
  for (std::size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(engine.submit(updates[i]).is_ok());
    if (i == updates.size() / 2) {
      ASSERT_TRUE(engine.flush().is_ok());
    }
  }
  ASSERT_TRUE(engine.flush().is_ok());

  EXPECT_EQ(served_bytes(engine),
            core::serialize_result_columns(batch_reference(ds, updates)));
  const ServeCounters c = engine.counters();
  EXPECT_EQ(c.updates_accepted, updates.size());
  EXPECT_EQ(c.updates_applied, updates.size());
  EXPECT_EQ(c.updates_shed, 0u);
  EXPECT_EQ(c.snapshots_published, 3u);  // initial + two flushes
  EXPECT_EQ(engine.last_seq(), updates.size());
}

TEST(ServeDifferential, ReaderThreadsSeeIdenticalAnswers) {
  const meas::Dataset ds = mesh_dataset();
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(ds, base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();
  for (const EdgeUpdate& u : mixed_updates()) {
    ASSERT_TRUE(engine.submit(u).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());

  const std::vector<core::ResultColumns> ref =
      batch_reference(ds, mixed_updates());
  for (const int threads : {1, 4, 8}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < ref[0].size();
             i += static_cast<std::size_t>(threads)) {
          for (std::size_t m = 0; m < 2; ++m) {
            const core::Metric metric =
                m == 0 ? core::Metric::kRtt : core::Metric::kLoss;
            const BestResponse r = engine.query_best(
                metric, topo::HostId{ref[m].src[i]}, topo::HostId{ref[m].dst[i]},
                static_cast<std::size_t>(t));
            // Bit-compare every served field against the batch columns.
            if (r.kind != BestResponse::Kind::kOk ||
                r.direct != ref[m].default_value[i] ||
                r.alternate != ref[m].alternate_value[i] ||
                r.relay != ref[m].relay[i] ||
                static_cast<std::int8_t>(r.significance) !=
                    ref[m].significance[i]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "at " << threads << " reader threads";
  }
}

TEST(ServeDifferential, ReplayAfterRestartMatchesUninterruptedRun) {
  const meas::Dataset ds = mesh_dataset();
  const std::string dir = ::testing::TempDir() + "/serve_replay_jdir";
  const std::vector<EdgeUpdate> updates = mixed_updates();

  std::string before;
  {
    ServeOptions options = base_options();
    options.journal_dir = dir;
    Result<std::unique_ptr<ServeEngine>> created =
        ServeEngine::create(ds, options);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    for (const EdgeUpdate& u : updates) {
      ASSERT_TRUE(created.value()->submit(u).is_ok());
    }
    ASSERT_TRUE(created.value()->flush().is_ok());
    before = served_bytes(*created.value());
  }  // no clean shutdown beyond the journal: recovery rebuilds from it

  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(ds, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value()->last_seq(), updates.size());
  EXPECT_EQ(resumed.value()->counters().updates_replayed, updates.size());
  EXPECT_EQ(served_bytes(*resumed.value()), before);
  EXPECT_EQ(before,
            core::serialize_result_columns(batch_reference(ds, updates)));
}

TEST(ServeDifferential, TornJournalTailIsTruncatedAndReplayStillConverges) {
  const meas::Dataset ds = mesh_dataset();
  const std::string dir = ::testing::TempDir() + "/serve_torn_jdir";
  const std::vector<EdgeUpdate> updates = {update(0, 1, 5.0),
                                           update(2, 3, 9.0, true)};
  {
    ServeOptions options = base_options();
    options.journal_dir = dir;
    Result<std::unique_ptr<ServeEngine>> created =
        ServeEngine::create(ds, options);
    ASSERT_TRUE(created.is_ok());
    for (const EdgeUpdate& u : updates) {
      ASSERT_TRUE(created.value()->submit(u).is_ok());
    }
    ASSERT_TRUE(created.value()->flush().is_ok());
  }
  {  // Tear the tail: a half-written third record left by a "crash".
    FILE* f = std::fopen((dir + "/journal.0").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("\x07\x00\x00\x00garbage", f);
    std::fclose(f);
  }

  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(ds, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value()->counters().journal_truncations, 1u);
  bool logged = false;
  for (const std::string& line : resumed.value()->recovery_log()) {
    if (line.find("truncated torn tail") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
  EXPECT_EQ(served_bytes(*resumed.value()),
            core::serialize_result_columns(batch_reference(ds, updates)));

  // The repaired journal must accept appends again and carry them forward.
  ASSERT_TRUE(resumed.value()->submit(update(0, 2, 123.0)).is_ok());
  ASSERT_TRUE(resumed.value()->flush().is_ok());
  EXPECT_EQ(resumed.value()->last_seq(), 3u);
}

TEST(ServeJournaling, CompactionBoundsReplayAndRotatesGenerations) {
  const meas::Dataset ds = mesh_dataset();
  const std::string dir = ::testing::TempDir() + "/serve_compact_jdir";
  std::vector<EdgeUpdate> updates;
  {
    ServeOptions options = base_options();
    options.journal_dir = dir;
    options.compact_every = 2;
    Result<std::unique_ptr<ServeEngine>> created =
        ServeEngine::create(ds, options);
    ASSERT_TRUE(created.is_ok());
    for (int i = 0; i < 5; ++i) {
      const EdgeUpdate u = update(0, 1, 10.0 + i);
      updates.push_back(u);
      ASSERT_TRUE(created.value()->submit(u).is_ok());
      ASSERT_TRUE(created.value()->flush().is_ok());
    }
    EXPECT_EQ(created.value()->counters().compactions, 2u);
  }
  // Generations 1 and 2 exist (journal.1 and journal.0); the state snapshot
  // holds seq 4, so recovery replays only the single update after it.
  ASSERT_TRUE(::access((dir + "/state").c_str(), F_OK) == 0);
  ASSERT_TRUE(::access((dir + "/journal.1").c_str(), F_OK) == 0);

  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(ds, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value()->last_seq(), 5u);
  EXPECT_EQ(resumed.value()->counters().updates_replayed, 1u);
  bool restored = false;
  for (const std::string& line : resumed.value()->recovery_log()) {
    if (line.find("restored state snapshot at seq 4") != std::string::npos) {
      restored = true;
    }
  }
  EXPECT_TRUE(restored);
  EXPECT_EQ(served_bytes(*resumed.value()),
            core::serialize_result_columns(batch_reference(ds, updates)));
}

TEST(ServeJournaling, ForeignJournalIsRefusedNotReplayed) {
  const std::string dir = ::testing::TempDir() + "/serve_foreign_jdir";
  const meas::Dataset ds = mesh_dataset();
  {
    ServeOptions options = base_options();
    options.journal_dir = dir;
    Result<std::unique_ptr<ServeEngine>> created =
        ServeEngine::create(ds, options);
    ASSERT_TRUE(created.is_ok());
    ASSERT_TRUE(created.value()->submit(update(0, 1, 5.0)).is_ok());
    ASSERT_TRUE(created.value()->flush().is_ok());
  }

  // Same directory, different dataset: the fingerprint must refuse it.
  meas::Dataset other = mesh_dataset();
  test::add_invocations(other, 0, 1, 999.0, 3);
  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  const Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(other, options);
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_NE(resumed.status().message().find("unusable"), std::string::npos)
      << resumed.status().to_string();
}

TEST(ServeJournaling, JournalRecordForUnmeasuredPairFailsRecovery) {
  const std::string dir = ::testing::TempDir() + "/serve_badrec_jdir";
  ASSERT_TRUE(ensure_directory(dir).is_ok());
  const meas::Dataset ds = mesh_dataset();
  const std::uint64_t fp = ServeEngine::compute_fingerprint(ds, 3);
  JournalRecord bad;
  bad.seq = 1;
  bad.update = update(4, 5, 1.0);  // hosts known, pair unmeasured
  ASSERT_TRUE(write_file_atomic(dir + "/journal.0",
                                serialize_journal_header(fp, 0, 1) +
                                    serialize_journal_record(bad))
                  .is_ok());

  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  const Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(ds, options);
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_NE(resumed.status().message().find("unmeasured pair"),
            std::string::npos);
}

TEST(ServeRobustness, RejectionsAreExplainedAndLeaveServedBytesUntouched) {
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(mesh_dataset(), base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();
  const std::string before = served_bytes(engine);

  const struct {
    EdgeUpdate u;
    const char* needle;
  } cases[] = {
      {update(0, 99, 5.0), "not in the served dataset"},
      {update(99, 1, 5.0), "not in the served dataset"},
      {update(2, 2, 5.0), "two distinct hosts"},
      {update(4, 5, 5.0), "unmeasured or filtered out"},
      {update(0, 1, -1.0), "finite non-negative"},
      {update(0, 1, std::numeric_limits<double>::quiet_NaN()), "finite"},
      {update(0, 1, std::numeric_limits<double>::infinity()), "finite"},
  };
  for (const auto& c : cases) {
    const Status s = engine.submit(c.u);
    ASSERT_FALSE(s.is_ok());
    EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(s.message().find(c.needle), std::string::npos)
        << s.to_string();
  }
  ASSERT_TRUE(engine.flush().is_ok());  // nothing queued: no publish either

  EXPECT_EQ(served_bytes(engine), before);
  const ServeCounters c = engine.counters();
  EXPECT_EQ(c.updates_rejected, std::size(cases));
  EXPECT_EQ(c.updates_accepted, 0u);
  EXPECT_EQ(c.snapshots_published, 1u);
}

TEST(ServeRobustness, HugeAcceptedRttFlushesAndReplays) {
  // 1e300 is finite and non-negative, so submit accepts it; the edge's
  // variance then overflows and its pairs become indeterminate, not an
  // abort inside the t distribution with the record already journaled.
  const meas::Dataset ds = mesh_dataset();
  const std::string dir = ::testing::TempDir() + "/serve_huge_rtt_jdir";
  const std::vector<EdgeUpdate> updates{update(0, 1, 1e300)};

  std::string before;
  {
    ServeOptions options = base_options();
    options.journal_dir = dir;
    Result<std::unique_ptr<ServeEngine>> created =
        ServeEngine::create(ds, options);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    ASSERT_TRUE(created.value()->submit(updates[0]).is_ok());
    ASSERT_TRUE(created.value()->flush().is_ok());
    before = served_bytes(*created.value());
    const BestResponse best = created.value()->query_best(
        core::Metric::kRtt, topo::HostId{0}, topo::HostId{1}, 0);
    ASSERT_EQ(best.kind, BestResponse::Kind::kOk);
    EXPECT_EQ(best.significance, core::SignificanceClass::kIndeterminate);
  }
  EXPECT_EQ(before,
            core::serialize_result_columns(batch_reference(ds, updates)));

  ServeOptions options = base_options();
  options.journal_dir = dir;
  options.resume = true;
  Result<std::unique_ptr<ServeEngine>> resumed =
      ServeEngine::create(ds, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value()->counters().updates_replayed, 1u);
  EXPECT_EQ(served_bytes(*resumed.value()), before);
}

TEST(ServeRobustness, OverloadShedsTheOldestUpdatesDeterministically) {
  const meas::Dataset ds = mesh_dataset();
  ServeOptions options = base_options();
  options.queue_capacity = 2;
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(ds, options);
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();

  const std::vector<EdgeUpdate> all = {update(0, 1, 1.0), update(0, 2, 2.0),
                                       update(0, 3, 3.0), update(1, 2, 4.0)};
  for (const EdgeUpdate& u : all) ASSERT_TRUE(engine.submit(u).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());

  const ServeCounters c = engine.counters();
  EXPECT_EQ(c.updates_shed, 2u);
  EXPECT_EQ(c.updates_applied, 2u);
  // Freshest-wins: only the LAST two submissions survive the bounded queue.
  EXPECT_EQ(served_bytes(engine),
            core::serialize_result_columns(
                batch_reference(ds, {all[2], all[3]})));
}

TEST(ServeRobustness, StaleSnapshotsAreFlaggedWithTheirAge) {
  ServeOptions options = base_options();
  options.stale_after_ms = 100;
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(mesh_dataset(), options);
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();

  BestResponse fresh =
      engine.query_best(core::Metric::kRtt, topo::HostId{0}, topo::HostId{1}, 0);
  EXPECT_FALSE(fresh.meta.stale);
  EXPECT_EQ(fresh.meta.age_ms, 0);

  engine.advance_clock(100);
  EXPECT_FALSE(engine
                   .query_best(core::Metric::kRtt, topo::HostId{0},
                               topo::HostId{1}, 0)
                   .meta.stale);  // exactly at the threshold: not yet stale
  engine.advance_clock(1);
  const BestResponse stale =
      engine.query_best(core::Metric::kRtt, topo::HostId{0}, topo::HostId{1}, 0);
  EXPECT_TRUE(stale.meta.stale);
  EXPECT_EQ(stale.meta.age_ms, 101);
  EXPECT_EQ(stale.kind, BestResponse::Kind::kOk);  // stale is served, flagged
  EXPECT_EQ(engine.counters().stale_served, 1u);

  // A publish resets the age: submit + flush, and the flag clears.
  ASSERT_TRUE(engine.submit(update(0, 1, 9.0)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_FALSE(engine
                   .query_best(core::Metric::kRtt, topo::HostId{0},
                               topo::HostId{1}, 0)
                   .meta.stale);
}

TEST(ServeRobustness, QueryKindsCoverTheErrorSurface) {
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(mesh_dataset(), base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();

  EXPECT_EQ(engine.query_best(core::Metric::kRtt, topo::HostId{0},
                              topo::HostId{42}, 0)
                .kind,
            BestResponse::Kind::kUnknownHost);
  EXPECT_EQ(engine.query_best(core::Metric::kRtt, topo::HostId{4},
                              topo::HostId{5}, 0)
                .kind,
            BestResponse::Kind::kNoPair);
  // Reversed host order answers the same row.
  const BestResponse fwd =
      engine.query_best(core::Metric::kRtt, topo::HostId{0}, topo::HostId{1}, 0);
  const BestResponse rev =
      engine.query_best(core::Metric::kRtt, topo::HostId{1}, topo::HostId{0}, 0);
  EXPECT_EQ(fwd.kind, BestResponse::Kind::kOk);
  EXPECT_EQ(fwd.alternate, rev.alternate);
  EXPECT_EQ(fwd.relay, rev.relay);

  EXPECT_EQ(engine
                .query_disjoint(core::Metric::kRtt, 0, topo::HostId{0},
                                topo::HostId{1}, 0, -1.0)
                .kind,
            DisjointResponse::Kind::kInvalidK);
  EXPECT_EQ(engine
                .query_disjoint(core::Metric::kRtt, 2, topo::HostId{0},
                                topo::HostId{42}, 0, -1.0)
                .kind,
            DisjointResponse::Kind::kUnknownHost);
  // A zero budget trips the token before any sweep work: deterministic
  // deadline, counted as a timeout.
  EXPECT_EQ(engine
                .query_disjoint(core::Metric::kRtt, 2, topo::HostId{0},
                                topo::HostId{1}, 0, 0.0)
                .kind,
            DisjointResponse::Kind::kDeadline);
  EXPECT_EQ(engine.counters().query_timeouts, 1u);

  const DisjointResponse ok = engine.query_disjoint(
      core::Metric::kRtt, 2, topo::HostId{0}, topo::HostId{1}, 0, -1.0);
  EXPECT_EQ(ok.kind, DisjointResponse::Kind::kOk);
  EXPECT_FALSE(ok.result.paths.empty());
}

TEST(ServeRobustness, PairWithNoAlternateStillServesTheDirectPath) {
  // Two hosts, one pair: removing the only edge disconnects it, so the row
  // set is empty — but the direct path must still be answerable.
  meas::Dataset ds = test::make_dataset(2);
  test::add_invocations(ds, 0, 1, 25.0, 3);
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(ds, base_options());
  ASSERT_TRUE(created.is_ok());
  const BestResponse r = created.value()->query_best(
      core::Metric::kRtt, topo::HostId{0}, topo::HostId{1}, 0);
  EXPECT_EQ(r.kind, BestResponse::Kind::kNoAlternate);
  EXPECT_EQ(r.direct, 25.0);
}

TEST(ServeRobustness, MetricsSyncEmitsExactCounterDeltas) {
  MetricsRegistry::global().enable();
  MetricsRegistry::global().reset();
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(mesh_dataset(), base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();
  ASSERT_TRUE(engine.submit(update(0, 1, 5.0)).is_ok());
  ASSERT_FALSE(engine.submit(update(0, 99, 5.0)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  (void)engine.query_best(core::Metric::kRtt, topo::HostId{0}, topo::HostId{1},
                          0);
  engine.sync_metrics();
  engine.sync_metrics();  // second sync: no deltas, counters must not double

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  EXPECT_EQ(counter("core.serve.updates.accepted"), 1u);
  EXPECT_EQ(counter("core.serve.updates.rejected"), 1u);
  EXPECT_EQ(counter("core.serve.updates.applied"), 1u);
  EXPECT_EQ(counter("core.serve.queries.best"), 1u);
  EXPECT_EQ(counter("core.serve.snapshots.published"), 2u);
  MetricsRegistry::global().reset();
}

// ---- SnapshotBoard -------------------------------------------------------

std::unique_ptr<const ServeSnapshot> snapshot_with_seq(std::uint64_t seq) {
  auto s = std::make_unique<ServeSnapshot>();
  s->seq = seq;
  return s;
}

TEST(ServeSnapshotBoard, PinKeepsRetiredSnapshotsAliveUntilRelease) {
  SnapshotBoard board{2};
  board.publish(snapshot_with_seq(1));
  {
    const SnapshotBoard::Pin pin = board.pin(0);
    EXPECT_EQ(pin->seq, 1u);
    board.publish(snapshot_with_seq(2));
    // The pinned snapshot survived the publish: still readable, and the
    // writer is holding it on the retired list instead of freeing it.
    EXPECT_EQ(pin->seq, 1u);
    EXPECT_EQ(board.retired_count(), 1u);
    // A fresh pin on another slot sees the new snapshot.
    EXPECT_EQ(board.pin(1)->seq, 2u);
  }
  // Released: the next publish reclaims both retired snapshots.
  board.publish(snapshot_with_seq(3));
  EXPECT_EQ(board.retired_count(), 0u);
  EXPECT_EQ(board.pin(0)->seq, 3u);
}

TEST(ServeSnapshotBoard, MovedPinTransfersOwnership) {
  SnapshotBoard board{1};
  board.publish(snapshot_with_seq(7));
  SnapshotBoard::Pin a = board.pin(0);
  const SnapshotBoard::Pin b = std::move(a);
  EXPECT_EQ(a.get(), nullptr);  // NOLINT(bugprone-use-after-move): spec check
  EXPECT_EQ(b->seq, 7u);
}

TEST(ServeSnapshotBoard, ConcurrentReadersNeverSeeAFreedSnapshot) {
  // Race harness for TSan/ASan: readers pin and dereference while the
  // writer publishes as fast as it can.  Sequence numbers must be
  // monotonically non-decreasing per reader; any use-after-free trips the
  // sanitizers.
  constexpr std::size_t kReaders = 4;
  constexpr std::uint64_t kPublishes = 2000;
  SnapshotBoard board{kReaders};
  board.publish(snapshot_with_seq(0));

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t slot = 0; slot < kReaders; ++slot) {
    readers.emplace_back([&, slot] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotBoard::Pin pin = board.pin(slot);
        const std::uint64_t seq = pin->seq;
        if (seq < last || seq > kPublishes) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last = seq;
      }
    });
  }
  for (std::uint64_t seq = 1; seq <= kPublishes; ++seq) {
    board.publish(snapshot_with_seq(seq));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(board.pin(0)->seq, kPublishes);
}

TEST(ServeEngineConcurrency, ReadersRaceTheWriterWithoutTearing) {
  // End-to-end race harness: four reader threads hammer queries (distinct
  // slots) while the writer thread applies updates and republishes.  Every
  // response must be internally coherent: an Ok answer carries a positive
  // alternate and a real relay.  Run under TSan via the Serve regex.
  const meas::Dataset ds = mesh_dataset();
  Result<std::unique_ptr<ServeEngine>> created =
      ServeEngine::create(ds, base_options());
  ASSERT_TRUE(created.is_ok());
  ServeEngine& engine = *created.value();

  const std::vector<core::ResultColumns> ref = batch_reference(ds, {});
  std::atomic<bool> stop{false};
  std::atomic<int> incoherent{0};
  std::vector<std::thread> readers;
  for (std::size_t slot = 0; slot < 4; ++slot) {
    readers.emplace_back([&, slot] {
      std::uint64_t last_seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < ref[0].size(); ++i) {
          const BestResponse r =
              engine.query_best(core::Metric::kRtt, topo::HostId{ref[0].src[i]},
                                topo::HostId{ref[0].dst[i]}, slot);
          if (r.kind != BestResponse::Kind::kOk || r.alternate <= 0.0 ||
              r.relay == core::kNoRelay || r.meta.seq < last_seq) {
            incoherent.fetch_add(1, std::memory_order_relaxed);
          }
          last_seq = r.meta.seq;
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(engine.submit(update(0, 1, 10.0 + round)).is_ok());
    ASSERT_TRUE(engine.submit(update(2, 3, 20.0 + round, round % 2 == 0))
                    .is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(incoherent.load(), 0);
  EXPECT_EQ(engine.counters().snapshots_published, 51u);
}

}  // namespace
}  // namespace pathsel::serve
