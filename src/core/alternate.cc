#include "core/alternate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/dense_kernel.h"
#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Degraded-coverage runs (min_samples lowered after heavy fault loss) can
// leave an edge with a single surviving sample; from_summary would abort on
// it, so fall back to a zero-variance point estimate instead.
stats::MeanEstimate estimate_or_point(const stats::Summary& s) {
  if (s.count() < 2) {
    return stats::MeanEstimate{.mean = s.empty() ? 0.0 : s.mean()};
  }
  return stats::MeanEstimate::from_summary(s);
}

}  // namespace

double edge_metric_value(const PathEdge& edge, Metric metric) {
  switch (metric) {
    case Metric::kRtt:
      return edge.rtt.mean();
    case Metric::kLoss:
      return edge.loss.mean();
    case Metric::kPropagation:
      return edge.propagation_ms();
  }
  return 0.0;
}

double metric_weight(double value, Metric metric) {
  if (metric == Metric::kLoss) {
    return -std::log(1.0 - std::min(value, kMaxComposableLoss));
  }
  return value;
}

double edge_weight(const PathEdge& edge, Metric metric) {
  return metric_weight(edge_metric_value(edge, metric), metric);
}

double compose_metric(std::span<const PathEdge* const> edges, Metric metric) {
  PATHSEL_EXPECT(!edges.empty(), "compose_metric of empty path");
  if (metric == Metric::kLoss) {
    double survive = 1.0;
    for (const PathEdge* e : edges) {
      survive *= 1.0 - std::min(e->loss.mean(), kMaxComposableLoss);
    }
    return 1.0 - survive;
  }
  double total = 0.0;
  for (const PathEdge* e : edges) total += edge_metric_value(*e, metric);
  return total;
}

stats::MeanEstimate compose_estimate(std::span<const PathEdge* const> edges,
                                     Metric metric) {
  PATHSEL_EXPECT(!edges.empty(), "compose_estimate of empty path");
  if (metric == Metric::kLoss) {
    // Delta method for f(p_1..p_k) = 1 - prod(1 - p_i):
    // df/dp_i = prod_{j != i}(1 - p_j) = survive / (1 - p_i).
    double survive = 1.0;
    for (const PathEdge* e : edges) {
      survive *= 1.0 - std::min(e->loss.mean(), kMaxComposableLoss);
    }
    stats::MeanEstimate out{};
    for (const PathEdge* e : edges) {
      const double pi = std::min(e->loss.mean(), kMaxComposableLoss);
      const double deriv = survive / (1.0 - pi);
      out = out + estimate_or_point(e->loss).scaled(deriv);
    }
    out.mean = 1.0 - survive;
    return out;
  }
  if (metric == Metric::kRtt) {
    stats::MeanEstimate out{};
    for (const PathEdge* e : edges) {
      out = out + estimate_or_point(e->rtt);
    }
    return out;
  }
  // Propagation delay has no per-sample uncertainty model in the paper.
  return stats::MeanEstimate{};
}

std::vector<std::size_t> shortest_path(const ArcGraph& graph,
                                       std::size_t src, std::size_t dst,
                                       std::size_t max_edges,
                                       std::size_t skip) {
  struct Parent {
    std::size_t node = 0;
    std::size_t edge = 0;
  };
  // Row r of dist/parent (n entries each) is Bellman-Ford round r's
  // snapshot; Dijkstra uses row 0 alone.  A single final parent array would
  // let a later-round improvement of an intermediate node splice an
  // over-budget path into the walk-back (and report a value inconsistent
  // with the distance).
  const std::size_t n = graph.size();
  std::vector<double> dist((max_edges + 1) * n, kInf);
  std::vector<Parent> parent((max_edges + 1) * n);
  dist[src] = 0.0;
  std::vector<std::size_t> edges;
  if (max_edges == 0) {
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      if (u == dst) break;
      for (const Arc& arc : graph[u]) {
        if (arc.edge == skip) continue;
        const double nd = d + arc.weight;
        if (nd < dist[arc.to]) {
          dist[arc.to] = nd;
          parent[arc.to] = {u, arc.edge};
          heap.emplace(nd, arc.to);
        }
      }
    }
    if (dist[dst] == kInf) return edges;
    for (std::size_t cursor = dst; cursor != src; cursor = parent[cursor].node) {
      edges.push_back(parent[cursor].edge);
    }
  } else {
    // Dijkstra cannot enforce an edge budget, so run max_edges rounds: row r
    // holds the best <= r-edge distances, and an entry improved in round r
    // extends a path settled by round r-1.
    for (std::size_t r = 1; r <= max_edges; ++r) {
      const double* prev = &dist[(r - 1) * n];
      double* cur = &dist[r * n];
      std::copy(prev, prev + n, cur);
      for (std::size_t u = 0; u < n; ++u) {
        if (prev[u] == kInf) continue;
        for (const Arc& arc : graph[u]) {
          if (arc.edge == skip) continue;
          const double nd = prev[u] + arc.weight;
          if (nd < cur[arc.to]) {
            cur[arc.to] = nd;
            parent[r * n + arc.to] = {u, arc.edge};
          }
        }
      }
    }
    if (dist[max_edges * n + dst] == kInf) return edges;
    // Walk back dst -> src within the edge budget.  An entry whose value
    // already existed in round r-1 was settled earlier (values only change
    // by strict improvement, so the comparison is exact); the first round
    // that differs is the one whose parent produced the final value, and its
    // predecessor is read from that round's snapshot at round r-1 — never
    // from a later improvement.
    std::size_t r = max_edges;
    for (std::size_t cursor = dst; cursor != src; --r) {
      while (r > 1 && dist[(r - 1) * n + cursor] == dist[r * n + cursor]) --r;
      edges.push_back(parent[r * n + cursor].edge);
      cursor = parent[r * n + cursor].node;
    }
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

namespace {

// Both directions of every table edge, in table.edges() order, with the
// edge's index as its id and its weight computed once per sweep.
ArcGraph build_arc_graph(const PathTable& table, Metric metric) {
  ArcGraph graph(table.hosts().size());
  for (std::size_t i = 0; i < table.edges().size(); ++i) {
    const PathEdge& e = table.edges()[i];
    const std::size_t ia = table.host_index(e.a);
    const std::size_t ib = table.host_index(e.b);
    const double weight = edge_weight(e, metric);
    graph[ia].push_back({ib, i, weight});
    graph[ib].push_back({ia, i, weight});
  }
  return graph;
}

// The per-edge body of the sweep, independent of every other edge.  Returns
// false when removing the direct edge disconnects the pair.
bool analyze_one_pair(const PathTable& table, const ArcGraph& graph,
                      std::size_t index, const AnalyzerOptions& options,
                      PairResult& out) {
  const PathEdge& direct = table.edges()[index];
  const std::size_t budget =
      options.max_intermediate_hosts > 0
          ? static_cast<std::size_t>(options.max_intermediate_hosts) + 1
          : 0;
  const std::vector<std::size_t> ids =
      shortest_path(graph, table.host_index(direct.a),
                    table.host_index(direct.b), budget, index);
  if (ids.empty()) return false;  // no alternate path exists

  std::vector<const PathEdge*> path_edges;
  std::vector<topo::HostId> via;
  topo::HostId cursor = direct.a;
  for (const std::size_t id : ids) {
    const PathEdge& e = table.edges()[id];
    if (cursor != direct.a) via.push_back(cursor);
    path_edges.push_back(&e);
    cursor = e.a == cursor ? e.b : e.a;
  }
  finish_pair_result(direct, path_edges, std::move(via), options.metric, out);
  return true;
}

}  // namespace

void finish_pair_result(const PathEdge& direct,
                        std::span<const PathEdge* const> path_edges,
                        std::vector<topo::HostId> via, Metric metric,
                        PairResult& out) {
  out.a = direct.a;
  out.b = direct.b;
  out.default_value = edge_metric_value(direct, metric);
  out.alternate_value = compose_metric(path_edges, metric);
  out.via = std::move(via);
  if (metric != Metric::kPropagation) {
    out.default_estimate = metric == Metric::kRtt
                               ? estimate_or_point(direct.rtt)
                               : estimate_or_point(direct.loss);
    out.alternate_estimate = compose_estimate(path_edges, metric);
  }
}

std::vector<PairResult> analyze_alternate_paths(const PathTable& table,
                                                const AnalyzerOptions& options) {
  Result<std::vector<PairResult>> results =
      analyze_alternate_paths_checked(table, options);
  PATHSEL_EXPECT(results.is_ok(),
                 "alternate-path sweep cancelled; use "
                 "analyze_alternate_paths_checked for cancellable sweeps");
  return std::move(results.value());
}

Result<std::vector<PairResult>> analyze_alternate_paths_checked(
    const PathTable& table, const AnalyzerOptions& options) {
  PATHSEL_EXPECT(options.kernel != Kernel::kDense ||
                     options.max_intermediate_hosts == 1,
                 "dense kernel requires max_intermediate_hosts == 1");
  const bool dense = dense_kernel_applicable(table.hosts().size(),
                                             table.edges().size(), options);
  const std::uint64_t sweep_start = wall_clock_ns();
  std::vector<PairResult> results;
  {
    const ScopedTimer timer{"core.alternate.sweep"};
    if (dense) {
      Result<std::vector<PairResult>> swept =
          analyze_alternate_paths_dense(table, options);
      if (!swept.is_ok()) return swept.status();
      results = std::move(swept.value());
    } else {
      const ArcGraph graph = build_arc_graph(table, options.metric);
      const std::size_t edge_count = table.edges().size();

      // Chunk size is fixed so chunk boundaries — and therefore the merged
      // output — do not depend on the thread count.
      constexpr std::size_t kChunk = 16;
      ThreadPool& pool =
          ThreadPool::shared(resolve_thread_count(options.threads));
      Result<std::vector<PairResult>> swept = pool.map_chunks<PairResult>(
          edge_count, kChunk,
          [&](std::size_t begin, std::size_t end, std::size_t) {
            std::vector<PairResult> local;
            local.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i) {
              PairResult r;
              if (analyze_one_pair(table, graph, i, options, r)) {
                local.push_back(std::move(r));
              }
            }
            return local;
          },
          options.cancel);
      if (!swept.is_ok()) return swept.status();
      results = std::move(swept.value());
    }
  }
  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    m.count("core.alternate.sweeps");
    m.count(dense ? "core.alternate.kernel.dense"
                  : "core.alternate.kernel.search");
    m.count("core.alternate.pairs_analyzed", table.edges().size());
    m.count("core.alternate.pairs_disconnected",
            table.edges().size() - results.size());
    m.observe("core.alternate.sweep_ms",
              static_cast<double>(wall_clock_ns() - sweep_start) / 1e6);
  }
  return results;
}

}  // namespace pathsel::core
