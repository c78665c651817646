// Thread-count invariance of collection.  A fault-free campaign records its
// measurements on the event loop and resolves the probes in fixed chunks on
// a thread pool; the dataset, every checkpoint snapshot and a cancel/resume
// split must not depend on how many executors ran those chunks.  A faulted
// campaign probes inline, and its bytes must not depend on the count either.
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "meas/checkpoint.h"
#include "meas/collector.h"
#include "meas/serialize.h"
#include "sim/fault.h"
#include "topo/generator.h"

namespace pathsel::meas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 7};

sim::Network make_network() {
  topo::GeneratorConfig g;
  g.seed = 4242;
  g.backbone_count = 3;
  g.regional_count = 6;
  g.stub_count = 12;
  g.rate_limited_host_fraction = 0.25;
  sim::NetworkConfig cfg;
  cfg.seed = 4242;
  return sim::Network{topo::generate_topology(g), cfg};
}

std::vector<topo::HostId> first_hosts(int n) {
  std::vector<topo::HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(topo::HostId{i});
  return out;
}

// Every discipline and kind, each large enough to span several chunks of
// the probe stage.
struct Case {
  const char* name;
  Discipline discipline;
  MeasurementKind kind;
  Duration mean_interval;
};

constexpr Case kCases[] = {
    {"per_server", Discipline::kUniformPerServer, MeasurementKind::kTraceroute,
     Duration::minutes(15)},
    {"pair_traceroute", Discipline::kExponentialPair,
     MeasurementKind::kTraceroute, Duration::seconds(60)},
    {"pair_tcp", Discipline::kExponentialPair, MeasurementKind::kTcpTransfer,
     Duration::seconds(60)},
    {"episode_mesh", Discipline::kEpisodeFullMesh, MeasurementKind::kTraceroute,
     Duration::hours(1)},
};

CollectorConfig config_for(const Case& c) {
  CollectorConfig cfg;
  cfg.seed = 17;
  cfg.discipline = c.discipline;
  cfg.kind = c.kind;
  cfg.duration = Duration::days(2);
  cfg.mean_interval = c.mean_interval;
  cfg.allow_rate_limited_targets = c.discipline != Discipline::kUniformPerServer;
  return cfg;
}

std::string dataset_bytes(const Dataset& ds) {
  std::string out;
  write_dataset_chunks(ds, [&out](std::string_view chunk) { out += chunk; });
  return out;
}

// Collects `c` at `threads`, returning the .ds bytes and the serialized
// periodic checkpoints.
struct Collected {
  std::string bytes;
  std::vector<std::string> checkpoints;
};

Collected collect_at(const sim::Network& net, const Case& c, int threads) {
  const CollectorConfig cfg = config_for(c);
  Collected run;
  CollectControls controls;
  controls.threads = threads;
  controls.checkpoint_interval = Duration::hours(5);
  controls.on_checkpoint = [&](const CampaignCheckpoint& cp) {
    run.checkpoints.push_back(serialize_checkpoint(cp, cfg.kind, 0));
    return Status::ok();
  };
  Result<Dataset> ds =
      collect_resumable(net, first_hosts(10), cfg, c.name, controls);
  EXPECT_TRUE(ds.is_ok()) << ds.status().message();
  if (ds.is_ok()) run.bytes = dataset_bytes(ds.value());
  return run;
}

TEST(CollectorThreads, DatasetBytesIndependentOfThreadCount) {
  const sim::Network net = make_network();
  for (const Case& c : kCases) {
    const Collected serial = collect_at(net, c, 1);
    const Dataset plain = collect(net, first_hosts(10), config_for(c), c.name);
    EXPECT_GT(plain.measurements.size(), 1500u) << c.name;
    EXPECT_TRUE(dataset_bytes(plain) == serial.bytes)
        << c.name << ": checkpointing changed the dataset";
    for (const int threads : kThreadCounts) {
      EXPECT_TRUE(collect_at(net, c, threads).bytes == serial.bytes)
          << c.name << " at " << threads << " threads";
    }
  }
}

// Faulted collection probes inline on the collector's thread, and its fault
// injector reuses the Network's default paths, so the same bytes must come
// out whatever the pool size the campaign was handed.
TEST(CollectorThreads, FaultedDatasetBytesIndependentOfThreadCount) {
  const sim::Network net = make_network();
  for (const Case& c : kCases) {
    CollectorConfig cfg = config_for(c);
    const sim::FaultPlan plan{sim::FaultConfig::at_intensity(0.15, 7),
                              net.topology(), cfg.duration};
    ASSERT_FALSE(plan.routing_transitions().empty());
    cfg.faults = &plan;
    cfg.retry.max_retries = 2;
    std::string serial;
    for (const int threads : kThreadCounts) {
      CollectControls controls;
      controls.threads = threads;
      const Result<Dataset> ds =
          collect_resumable(net, first_hosts(10), cfg, c.name, controls);
      ASSERT_TRUE(ds.is_ok()) << ds.status().message();
      const std::string bytes = dataset_bytes(ds.value());
      if (threads == 1) {
        serial = bytes;
        EXPECT_NE(bytes.find(" f "), std::string::npos)
            << c.name << ": no attempt failed under the plan";
      }
      EXPECT_TRUE(bytes == serial) << c.name << " at " << threads << " threads";
    }
  }
}

// Also resumes the middle snapshot at 4 threads: a snapshot holding
// unresolved probes would be identical across thread counts, but would not
// resume to the same dataset.
TEST(CollectorThreads, CheckpointSnapshotsIndependentOfThreadCount) {
  const sim::Network net = make_network();
  for (const Case& c : kCases) {
    const Collected serial = collect_at(net, c, 1);
    ASSERT_GE(serial.checkpoints.size(), 8u) << c.name;
    for (const int threads : kThreadCounts) {
      EXPECT_TRUE(collect_at(net, c, threads).checkpoints == serial.checkpoints)
          << c.name << " at " << threads << " threads";
    }

    const CollectorConfig cfg = config_for(c);
    Result<CampaignCheckpoint> middle = parse_checkpoint(
        serial.checkpoints[serial.checkpoints.size() / 2], cfg.kind, 0);
    ASSERT_TRUE(middle.is_ok()) << middle.status().message();
    CollectControls controls;
    controls.threads = 4;
    const Result<Dataset> resumed = collect_resumable(
        net, first_hosts(10), cfg, c.name, controls, std::move(middle.value()));
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().message();
    EXPECT_TRUE(dataset_bytes(resumed.value()) == serial.bytes)
        << c.name << ": resume from a periodic snapshot differs";
  }
}

// Cancels a 4-thread run wherever a wall-clock deadline lands, resumes the
// cancel snapshot at 1 thread, and compares with an uninterrupted run.  The
// snapshot holds the probes recorded since the last resolution, so it must
// be taken after they are resolved.  Several deadlines are tried so that at
// least one lands mid-run on any machine.
TEST(CollectorThreads, CancelAtFourThreadsResumeAtOne) {
  const sim::Network net = make_network();
  const Case& c = kCases[1];
  CollectorConfig cfg = config_for(c);
  cfg.duration = Duration::days(7);
  cfg.mean_interval = Duration::seconds(20);
  const std::string expected =
      dataset_bytes(collect(net, first_hosts(10), cfg, c.name));

  int mid_run_cancels = 0;
  for (const double deadline_s : {0.0, 0.0005, 0.002, 0.005, 0.02}) {
    CancelToken token;
    std::vector<CampaignCheckpoint> snapshots;
    CollectControls controls;
    controls.threads = 4;
    controls.cancel = &token;
    controls.on_checkpoint = [&snapshots](const CampaignCheckpoint& cp) {
      snapshots.push_back(cp);
      return Status::ok();
    };
    token.set_deadline_after_seconds(deadline_s);
    const Result<Dataset> stopped =
        collect_resumable(net, first_hosts(10), cfg, c.name, controls);
    if (stopped.is_ok()) continue;  // finished before the deadline
    ASSERT_EQ(stopped.status().code(), ErrorCode::kDeadlineExceeded);
    ASSERT_EQ(snapshots.size(), 1u);
    if (!snapshots.back().measurements.empty()) ++mid_run_cancels;

    CollectControls resume_controls;
    resume_controls.threads = 1;
    const Result<Dataset> resumed =
        collect_resumable(net, first_hosts(10), cfg, c.name, resume_controls,
                          std::move(snapshots.back()));
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().message();
    EXPECT_TRUE(dataset_bytes(resumed.value()) == expected)
        << "resume after a cancel at " << deadline_s << " s differs";
  }
  EXPECT_GT(mid_run_cancels, 0) << "no deadline landed mid-run";
}

}  // namespace
}  // namespace pathsel::meas
