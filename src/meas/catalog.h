// The eight datasets of Table 1, regenerated.
//
// Two simulated "worlds" stand in for the two measurement eras:
//  - world95: the 1995 Internet the Paxson D2/N2 traces saw — NSFNET
//    transition period, fewer backbones, badly congested public exchanges,
//    global host set;
//  - world98: the 1998-99 North American Internet behind the UW datasets —
//    more backbones, still-hot exchanges, a research backbone.
// Each dataset reproduces its row of Table 1: host count, duration,
// NA-vs-world host pool, collection discipline, rate-limit handling and
// (roughly) measurement count.  D2-NA and N2-NA are subsets of D2/N2
// restricted to the North American hosts, exactly as in the paper.
//
// CatalogConfig.scale shrinks trace durations for fast tests; 1.0 regenerates
// full-size datasets.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "meas/collector.h"
#include "meas/dataset.h"
#include "sim/network.h"

namespace pathsel::meas {

struct CatalogConfig {
  std::uint64_t seed = 1999;
  /// Multiplies every trace duration (and hence measurement count).
  double scale = 1.0;
  /// Fault-injection intensity in [0, 1] applied to every collected dataset
  /// (sim::FaultConfig::at_intensity); campaigns then retry failures twice
  /// with exponential backoff.  0 keeps the legacy fault-free campaigns
  /// byte-identical.
  double fault_intensity = 0.0;
  /// Seed for the fault schedules (independent of the measurement seed so
  /// the same campaign can be replayed under different fault draws).
  std::uint64_t fault_seed = 1999;
};

/// A declarative description of one catalog dataset: everything needed to
/// collect it (or, for the -NA restrictions, to derive it from its parent)
/// without actually running the campaign.  Specs let the campaign layer
/// (meas/campaign) own the collection loop — checkpointing, cancellation,
/// resume — while the catalog stays the single source of truth for Table 1's
/// parameters.
struct DatasetSpec {
  std::string name;
  /// Non-empty for derived datasets (D2-NA, N2-NA): the primary dataset this
  /// one is a host-restricted subset of.  Derived specs are never collected;
  /// they filter the parent's measurements.
  std::string parent;
  bool uses_world95 = false;
  std::vector<topo::HostId> hosts;
  /// Collector parameters with `faults` unset; Catalog::materialize wires in
  /// the fault plan implied by CatalogConfig::fault_intensity.
  CollectorConfig config;
  std::uint64_t fault_tag = 0;
};

/// A spec made runnable: the world, the owned fault plan (null at zero
/// intensity), the final CollectorConfig with the plan wired in, and the
/// checkpoint fingerprint binding this exact campaign.  Keep it alive for
/// the duration of the collect call (config.faults points into `plan`).
struct MaterializedSpec {
  const sim::Network* net = nullptr;
  std::unique_ptr<sim::FaultPlan> plan;
  CollectorConfig config;
  std::vector<topo::HostId> hosts;
  std::string name;
  std::uint64_t fingerprint = 0;
};

class Catalog {
 public:
  explicit Catalog(CatalogConfig config = {});

  /// The two simulated worlds (lazily constructed, cached).
  [[nodiscard]] const sim::Network& world95();
  [[nodiscard]] const sim::Network& world98();

  /// The paper's dataset names in canonical (Table 1) order.
  [[nodiscard]] static const std::vector<std::string>& dataset_names();

  /// The spec for one dataset name.  Aborts on unknown names (use
  /// dataset_names() / is_dataset_name() to validate user input first).
  [[nodiscard]] DatasetSpec spec(std::string_view name);
  [[nodiscard]] static bool is_dataset_name(std::string_view name);
  /// The dataset a derived name filters ("D2" for "D2-NA", "N2" for
  /// "N2-NA"); empty for a primary dataset.  spec(name).parent without
  /// building a world.
  [[nodiscard]] static std::string_view parent_of(std::string_view name);

  /// Prepares a primary (non-derived) spec for collection: resolves the
  /// world, builds the fault plan at the catalog's fault intensity (enabling
  /// the standard 2-retry policy), and computes the checkpoint fingerprint.
  [[nodiscard]] MaterializedSpec materialize(const DatasetSpec& spec);

  /// The dataset with one of the paper's names ("D2", "D2-NA", "N2",
  /// "N2-NA", "UW1", "UW3", "UW4-A", "UW4-B"), collected on first use and
  /// cached; a derived dataset is filtered from its (cached) parent.  The
  /// reference stays valid for the catalog's lifetime.  Aborts on unknown
  /// names.
  [[nodiscard]] const Dataset& by_name(std::string_view name);
  /// Same as by_name("UW3"); perfbench/serve.cc still calls it.
  [[nodiscard]] const Dataset& uw3() { return by_name("UW3"); }

  /// Restriction of a dataset to measurements between the given hosts.
  [[nodiscard]] static Dataset subset(const Dataset& parent, std::string name,
                                      const std::vector<topo::HostId>& keep);

 private:
  /// Collects a primary spec with no controls (the by_name path).
  [[nodiscard]] Dataset collect_primary(const DatasetSpec& spec);
  /// The 15 UW4 hosts: a fixed shuffle of the UW3 host set.
  [[nodiscard]] const std::vector<topo::HostId>& uw4_hosts();
  [[nodiscard]] Duration scaled(Duration d) const;
  [[nodiscard]] std::vector<topo::HostId> pick_hosts(
      const sim::Network& net, std::size_t count, std::size_t na_count,
      bool exclude_rate_limited, std::uint64_t stream);

  CatalogConfig config_;
  std::unique_ptr<sim::Network> world95_;
  std::unique_ptr<sim::Network> world98_;
  std::map<std::string, Dataset, std::less<>> datasets_;  // by name
  std::vector<topo::HostId> uw4_hosts_;
};

}  // namespace pathsel::meas
