// Measurement campaign driver.
//
// Reproduces the collection disciplines of §4.2:
//  - kUniformPerServer (UW1): each server is probed on its own uniform
//    schedule (mean 15 minutes) with a random target; rate-limiting hosts
//    stay in the pool as sources but are removed from the target pool.
//  - kExponentialPair (UW3, UW4-B, and the D2/N2 re-enactments): a random
//    ordered pair is measured at exponentially distributed intervals.
//  - kEpisodeFullMesh (UW4-A): episodes at exponentially distributed
//    intervals; within an episode every ordered pair is measured once,
//    spread over a several-minute window (traceroutes take real time).
// Attempts fail when either endpoint is down (HostAvailability) or the
// network-level measurement failure fires; failures are recorded, matching
// the paper's treatment of unreachable servers and five-minute timeouts.
//
// Checkpoint/resume: the campaign's event loop runs over *typed* events
// (plain data, no closures), so the entire in-flight state — pending events,
// RNG stream positions, accumulated measurements — is serializable.  A
// CampaignCheckpoint taken at any event boundary and fed back through
// collect_resumable() continues the run with every RNG draw and every event
// dispatch in the original order, producing a byte-identical dataset to an
// uninterrupted run.
//
// Schedule and probe stages: a fault-free campaign's event loop (the
// schedule) draws every campaign RNG value, checks availability and records
// each measurement's when/src/dst/episode in order, but does not probe.  The
// probes — pure functions of (network, paths, src, dst, t) — are resolved
// afterwards in fixed-size chunks on a thread pool, before every checkpoint
// and before the final sort.  Chunk boundaries never depend on the thread
// count and every probe writes only its own measurement, so the dataset's
// bytes do not depend on CollectControls::threads.  Fault-aware campaigns
// stay serial: whether a retry is scheduled depends on the probe's outcome.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "meas/availability.h"
#include "meas/dataset.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::meas {

enum class Discipline {
  kUniformPerServer,
  kExponentialPair,
  kEpisodeFullMesh,
};

/// Bounded retry with exponential backoff for failed attempts, mirroring
/// how the paper's collection scripts re-ran failed measurements.  The
/// retried attempt happens at first-attempt time + initial_backoff *
/// backoff_multiplier^retries_so_far; a retry that would land past the end
/// of the trace is abandoned and the failure recorded.
struct RetryPolicy {
  int max_retries = 0;
  Duration initial_backoff = Duration::seconds(30);
  double backoff_multiplier = 2.0;
};

struct CollectorConfig {
  std::uint64_t seed = 11;
  Discipline discipline = Discipline::kExponentialPair;
  MeasurementKind kind = MeasurementKind::kTraceroute;
  Duration duration = Duration::days(7);
  /// Mean inter-request interval: per server for kUniformPerServer, per pair
  /// selection for kExponentialPair, per episode for kEpisodeFullMesh.
  Duration mean_interval = Duration::seconds(90);
  /// Width of the window over which one episode's measurements spread.
  Duration episode_window = Duration::minutes(4);
  /// When false (UW1-style), ICMP-rate-limited hosts are removed from the
  /// target pool but stay in the pool of sources.
  bool allow_rate_limited_targets = true;
  AvailabilityConfig availability{};
  /// D2-style loss correction flag copied into the dataset.
  bool first_sample_loss_only = false;
  /// Fault schedule layered onto the campaign.  Must outlive the collect()
  /// call.  nullptr or a disabled plan takes the legacy fault-free code path
  /// (same RNG draws, byte-identical datasets).
  const sim::FaultPlan* faults = nullptr;
  /// Retrying is fault-aware behavior: setting max_retries > 0 records
  /// per-measurement failure reasons and attempt counts even without a plan.
  RetryPolicy retry{};
};

/// One pending campaign event.  Events fire in ascending (t, seq) order; seq
/// is allocated at scheduling time, so equal-time events fire in scheduling
/// order.  Every field is plain data so checkpoints can round-trip the
/// pending set through text.
enum class CampaignEventKind : std::uint8_t {
  kServerProbe = 0,   // UW1 per-server fire; a = server index into hosts
  kNextPair = 1,      // exponential-pair scheduler fire
  kNextEpisode = 2,   // episode scheduler fire
  kEpisodeProbe = 3,  // one ordered pair within an episode; a/b = src/dst ids
  kRetry = 4,         // retry attempt; a/b = src/dst ids
};
constexpr int kCampaignEventKindCount = 5;

struct CampaignEvent {
  SimTime t;
  std::uint64_t seq = 0;
  CampaignEventKind kind = CampaignEventKind::kNextPair;
  std::int32_t a = 0;      // server index (kServerProbe) or src host id
  std::int32_t b = 0;      // dst host id (kEpisodeProbe, kRetry)
  SimTime first{};         // first-attempt time (kRetry)
  std::int32_t episode = -1;  // kEpisodeProbe, kRetry
  std::int32_t tried = 0;     // retries already attempted (kRetry)
};

/// A campaign frozen at an event boundary: everything needed to continue the
/// run with identical RNG draws and event order.  The fault injector is NOT
/// stored — routed state is a pure function of the inter-transition epoch,
/// so resume rebuilds a fresh injector and advances it to `now`, then
/// cross-checks the recorded epoch to detect a checkpoint/plan mismatch.
struct CampaignCheckpoint {
  std::string dataset_name;
  SimTime now;                   // simulated time of the boundary
  std::uint64_t next_seq = 0;    // next event sequence number
  std::int32_t episode_count = 0;
  std::array<std::uint64_t, 4> rng_state{};  // the campaign stream
  std::vector<std::array<std::uint64_t, 4>> server_rng_states;  // UW1 only
  std::uint64_t injector_epoch = 0;
  std::vector<CampaignEvent> pending;     // sorted by (t, seq)
  std::vector<Measurement> measurements;  // in push (recording) order
};

/// Knobs for a resumable, cancellable collection run.
struct CollectControls {
  /// Polled at every event boundary; a tripped token stops the run after
  /// writing a final checkpoint (if checkpointing is configured) and
  /// surfaces cancel->status().  May be null.
  const CancelToken* cancel = nullptr;
  /// Simulated-time cadence between periodic checkpoints; zero disables
  /// periodic checkpoints.  Checkpoint instants depend only on simulated
  /// time, so they are deterministic across runs.
  Duration checkpoint_interval{};
  /// Called with each snapshot (periodic and the final one on cancellation).
  /// A non-ok return aborts the run with that status.  May be null.
  std::function<Status(const CampaignCheckpoint&)> on_checkpoint;
  /// Executors resolving fault-free probes; 0 means default_thread_count().
  /// The dataset and every checkpoint are byte-identical at any value.
  int threads = 0;
};

/// Runs a campaign over the given hosts and returns the dataset.
[[nodiscard]] Dataset collect(const sim::Network& network,
                              std::vector<topo::HostId> hosts,
                              const CollectorConfig& config, std::string name);

/// collect() with cancellation, periodic checkpoints, and optional resume.
/// `resume` (nullable) must come from a run with the same network, hosts,
/// and config — meas/checkpoint fingerprints files to enforce this, and the
/// collector cross-checks what it can (host/RNG-stream counts, the fault
/// injector epoch) and fails with kInvalidArgument on mismatch.  A resumed run
/// produces a byte-identical dataset to an uninterrupted one.
[[nodiscard]] Result<Dataset> collect_resumable(
    const sim::Network& network, std::vector<topo::HostId> hosts,
    const CollectorConfig& config, std::string name,
    const CollectControls& controls,
    const CampaignCheckpoint* resume = nullptr);

}  // namespace pathsel::meas
