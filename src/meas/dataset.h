// Measurement records and datasets.
//
// A Dataset is what a measurement campaign produces: the host list and a
// flat, time-ordered list of measurements between ordered host pairs.  This
// mirrors the paper's five datasets (Table 1): traceroute campaigns record
// three RTT samples per invocation plus the forward AS path; npd/tcpanaly
// campaigns (N2) record the achieved bandwidth of a TCP transfer plus the
// RTT/loss observed during it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/network.h"
#include "topo/ids.h"
#include "util/sim_time.h"

namespace pathsel::meas {

enum class MeasurementKind { kTraceroute, kTcpTransfer };

/// Why a measurement attempt yielded no data.  Recorded by fault-aware
/// campaigns; legacy (fault-free) collection leaves kNone even on failures,
/// which keeps historical datasets byte-identical.
enum class FailureReason : std::uint8_t {
  kNone = 0,          // completed, or legacy failure with no recorded cause
  kEndpointDown = 1,  // source or target host unavailable (dead, flaky, crashed)
  kProbeFailure = 2,  // network-level failure: unreachable or timed out
  kBlackhole = 3,     // path crossed a failed link before routing reconverged
  kNoRoute = 4,       // routing had no path between the endpoints
  kStuckProbe = 5,    // probe process hung until the five-minute timeout
};

inline constexpr std::size_t kFailureReasonCount = 6;

[[nodiscard]] const char* to_string(FailureReason reason) noexcept;

/// Names one path of a dataset's AsPathPool.
using AsPathId = std::uint32_t;

/// The distinct forward AS paths of one dataset.  A measurement names its
/// path by id: id 0 is the empty path and the others follow first-seen
/// order.  Ids are local to the pool and never serialized — the .ds writer
/// prints the path itself — so pools that met their paths in different
/// orders write the same bytes.  Interning is serial: the pool is not
/// thread-safe.
class AsPathPool {
 public:
  static constexpr AsPathId kEmpty = 0;

  AsPathPool();

  /// The id of `path`, added on first sight.
  AsPathId intern(std::span<const topo::AsId> path);

  /// The path `id` names; `id` must come from this pool (or a copy of it).
  [[nodiscard]] std::span<const topo::AsId> at(AsPathId id) const noexcept {
    return {ases_.data() + begins_[id], begins_[id + 1] - begins_[id]};
  }

  /// Distinct paths held, the empty path included.
  [[nodiscard]] std::size_t size() const noexcept { return begins_.size() - 1; }

 private:
  [[nodiscard]] std::size_t slot_of(std::span<const topo::AsId> path) const;

  std::vector<topo::AsId> ases_;  // every path, back to back
  // Path i is ases_[begins_[i], begins_[i + 1]).
  std::vector<std::uint32_t> begins_;
  // Open-addressed hash index over ids 1.. (0 marks a free slot: the empty
  // path is never looked up); a power of two, at most half full.
  std::vector<AsPathId> slots_;
};

struct Measurement {
  SimTime when;
  topo::HostId src;
  topo::HostId dst;
  std::int32_t episode = -1;  // UW4-A episode index; -1 for other disciplines
  bool completed = false;
  /// Final failure cause (kNone when completed or for legacy datasets).
  FailureReason failure = FailureReason::kNone;
  /// Attempts spent on this measurement, including retries; 1 unless the
  /// campaign ran with a retry policy.
  std::uint8_t attempts = 1;

  // Traceroute payload.
  std::array<sim::ProbeSample, 3> samples{};
  /// Forward AS path, an id into the owning dataset's (or checkpoint's)
  /// AsPathPool.
  AsPathId path = AsPathPool::kEmpty;

  // TCP payload.
  double bandwidth_kBps = 0.0;
  double tcp_rtt_ms = 0.0;
  double tcp_loss_rate = 0.0;
};

struct Dataset {
  std::string name;
  MeasurementKind kind = MeasurementKind::kTraceroute;
  Duration duration;
  std::vector<topo::HostId> hosts;
  std::vector<Measurement> measurements;
  /// The AS paths the measurements' `path` ids name.
  AsPathPool paths;
  /// D2-style correction: rate-limiting servers cannot be identified, so
  /// only the first sample of each invocation counts toward loss (§4.2).
  bool first_sample_loss_only = false;
  /// Number of full-mesh episodes (UW4-A); 0 otherwise.
  std::int32_t episode_count = 0;

  /// The forward AS path of `m`, one of this dataset's measurements.
  [[nodiscard]] std::span<const topo::AsId> as_path(
      const Measurement& m) const noexcept {
    return paths.at(m.path);
  }

  /// Number of ordered host pairs with at least one completed measurement.
  [[nodiscard]] std::size_t covered_paths() const;

  /// Total completed measurements.
  [[nodiscard]] std::size_t completed_count() const;

  /// Potential ordered pairs: hosts * (hosts - 1).
  [[nodiscard]] std::size_t potential_paths() const noexcept {
    return hosts.size() * (hosts.size() - 1);
  }
};

}  // namespace pathsel::meas
