#include "core/path_table.h"

#include <algorithm>
#include <cmath>

#include "stats/quantile.h"
#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

std::uint64_t edge_key(topo::HostId x, topo::HostId y) {
  const auto lo = static_cast<std::uint32_t>(std::min(x, y).value());
  const auto hi = static_cast<std::uint32_t>(std::max(x, y).value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

int scaled_min_samples(int full_scale_threshold, double scale) {
  return std::max(
      3, static_cast<int>(std::llround(full_scale_threshold * scale)));
}

double PathEdge::propagation_ms() const {
  PATHSEL_EXPECT(!rtt_samples.empty(),
                 "propagation estimate requires retained RTT samples");
  return stats::quantile(rtt_samples, 0.10);
}

namespace {

// Replays one pair's measurements, in measurement order, into a PathEdge.
// All adds for an edge hit only that edge's summaries, so the floating-point
// stream is the same one the measurement-order loop over the whole dataset
// would produce.
PathEdge accumulate_edge(const meas::Dataset& dataset,
                         std::span<const std::size_t> measurement_indices,
                         const BuildOptions& options) {
  PathEdge e;
  const auto& first = dataset.measurements[measurement_indices.front()];
  e.a = std::min(first.src, first.dst);
  e.b = std::max(first.src, first.dst);
  for (const std::size_t mi : measurement_indices) {
    const auto& m = dataset.measurements[mi];
    e.invocations += 1;

    if (dataset.kind == meas::MeasurementKind::kTraceroute) {
      for (std::size_t i = 0; i < m.samples.size(); ++i) {
        const auto& s = m.samples[i];
        if (!s.lost) {
          e.rtt.add(s.rtt_ms);
          if (options.keep_samples) e.rtt_samples.push_back(s.rtt_ms);
        }
        // D2 heuristic: rate-limiting servers cannot be identified, so only
        // the first sample of an invocation counts toward loss.
        if (!dataset.first_sample_loss_only || i == 0) {
          e.loss.add(s.lost ? 1.0 : 0.0);
        }
      }
      if (e.as_path.empty()) {
        const std::span<const topo::AsId> path = dataset.as_path(m);
        e.as_path.assign(path.begin(), path.end());
      }
    } else {
      e.bandwidth.add(m.bandwidth_kBps);
      e.tcp_rtt.add(m.tcp_rtt_ms);
      e.tcp_loss.add(m.tcp_loss_rate);
    }
  }
  return e;
}

}  // namespace

PathTable PathTable::build(const meas::Dataset& dataset,
                           const BuildOptions& options) {
  Result<PathTable> table = build_checked(dataset, options);
  PATHSEL_EXPECT(table.is_ok(), "PathTable::build cancelled; use "
                                "build_checked for cancellable builds");
  return std::move(table.value());
}

Result<PathTable> PathTable::build_checked(const meas::Dataset& dataset,
                                           const BuildOptions& options) {
  const ScopedTimer timer{"core.path_table.build"};
  PathTable table;
  table.hosts_ = dataset.hosts;

  // Pass 1 (serial, no floating point): group measurement indices per
  // undirected pair, preserving measurement order within each group.  The
  // cancel poll is amortised over 64k-measurement strides.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < dataset.measurements.size(); ++i) {
    if (options.cancel != nullptr && (i & 0xffff) == 0 &&
        options.cancel->cancelled()) {
      return options.cancel->status();
    }
    const auto& m = dataset.measurements[i];
    if (!m.completed) continue;
    if (options.filter && !options.filter(m)) continue;
    groups[edge_key(m.src, m.dst)].push_back(i);
  }
  // edge_key sorts as (min host, max host), so ascending keys are exactly
  // the (a, b)-sorted edge order.
  std::vector<std::uint64_t> keys;
  keys.reserve(groups.size());
  for (const auto& [key, indices] : groups) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  // Pass 2 (parallel): replay each pair's measurements into its edge.  The
  // chunk size is fixed so the merged edge list is identical for every
  // thread count.
  constexpr std::size_t kChunk = 64;
  ThreadPool& pool =
      ThreadPool::shared(resolve_thread_count(options.threads));
  Result<std::vector<PathEdge>> edges = pool.map_chunks<PathEdge>(
      keys.size(), kChunk,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<PathEdge> local;
        local.reserve(end - begin);
        for (std::size_t k = begin; k < end; ++k) {
          PathEdge edge =
              accumulate_edge(dataset, groups.find(keys[k])->second, options);
          if (edge.invocations < options.min_samples) continue;
          // A traceroute path where every sample was lost has no RTT estimate
          // and cannot back an alternate hop.
          if (dataset.kind == meas::MeasurementKind::kTraceroute &&
              edge.rtt.count() < 2) {
            continue;
          }
          local.push_back(std::move(edge));
        }
        return local;
      },
      options.cancel);
  if (!edges.is_ok()) return edges.status();
  table.edges_ = std::move(edges.value());
  table.reindex();
  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    m.count("core.path_table.builds");
    m.count("core.path_table.measurements_replayed",
            dataset.measurements.size());
    m.count("core.path_table.edges_built", table.edges_.size());
  }
  return table;
}

void PathTable::reindex() {
  edge_index_.clear();
  host_index_.clear();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    edge_index_.emplace(edge_key(edges_[i].a, edges_[i].b), i);
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    host_index_.emplace(hosts_[i], i);
  }
}

const PathEdge* PathTable::find(topo::HostId x, topo::HostId y) const {
  const auto it = edge_index_.find(edge_key(x, y));
  return it == edge_index_.end() ? nullptr : &edges_[it->second];
}

PathEdge* PathTable::find_mutable(topo::HostId x, topo::HostId y) {
  const auto it = edge_index_.find(edge_key(x, y));
  return it == edge_index_.end() ? nullptr : &edges_[it->second];
}

std::size_t PathTable::host_index(topo::HostId h) const {
  const auto it = host_index_.find(h);
  PATHSEL_EXPECT(it != host_index_.end(), "host not in path table");
  return it->second;
}

PathTable PathTable::without_hosts(
    std::span<const topo::HostId> removed) const {
  auto is_removed = [removed](topo::HostId h) {
    return std::find(removed.begin(), removed.end(), h) != removed.end();
  };
  PathTable out;
  for (const topo::HostId h : hosts_) {
    if (!is_removed(h)) out.hosts_.push_back(h);
  }
  for (const PathEdge& e : edges_) {
    if (!is_removed(e.a) && !is_removed(e.b)) out.edges_.push_back(e);
  }
  out.reindex();
  return out;
}

}  // namespace pathsel::core
