#include "core/disjoint.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "core/result_columns.h"
#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

// The measured mesh, built once per sweep and shared read-only by every
// pair: a dense hosts x hosts matrix of edge indices (table.edges() order,
// kNoEdge where unmeasured) and each edge's additive weight.
struct Mesh {
  std::size_t hosts = 0;
  std::vector<std::uint32_t> edge_at;
  std::vector<double> weight;

  [[nodiscard]] std::uint32_t edge(std::size_t u, std::size_t v) const {
    return edge_at[u * hosts + v];
  }
};

Mesh build_mesh(const PathTable& table, Metric metric) {
  Mesh mesh;
  mesh.hosts = table.hosts().size();
  mesh.edge_at.assign(mesh.hosts * mesh.hosts, kNoEdge);
  mesh.weight.reserve(table.edges().size());
  for (const PathEdge& e : table.edges()) {
    const std::size_t ia = table.host_index(e.a);
    const std::size_t ib = table.host_index(e.b);
    const auto index = static_cast<std::uint32_t>(mesh.weight.size());
    mesh.edge_at[ia * mesh.hosts + ib] = index;
    mesh.edge_at[ib * mesh.hosts + ia] = index;
    mesh.weight.push_back(edge_weight(e, metric));
  }
  return mesh;
}

// Direction of a traversal u -> v as stored in Pair::flow.
std::int8_t direction(std::size_t u, std::size_t v) { return u < v ? 1 : -1; }

// One pair's state over the shared mesh.  flow[e] is 0 while edge e is
// unused, and otherwise the direction() a path crosses it in.  Node numbering
// is the host index in link-disjoint mode; in node-disjoint mode host i splits
// into an entry node 2i and an exit node 2i+1, joined by a zero-weight arc
// that split[i] marks used, so a second path through the same relay must
// cancel the first or be rejected.  src and dst never split: paths leave
// src's exit node and arrive at dst's entry node.
struct Pair {
  const Mesh* mesh = nullptr;
  bool split_nodes = false;
  std::uint32_t direct = kNoEdge;
  std::size_t src_host = 0;
  std::size_t dst_host = 0;
  std::vector<std::int8_t> flow;
  std::vector<std::int8_t> split;
  std::vector<double> potential;
  std::vector<double> dist;
  std::vector<std::size_t> parent;
  std::vector<char> settled;

  [[nodiscard]] std::size_t nodes() const {
    return split_nodes ? 2 * mesh->hosts : mesh->hosts;
  }
  [[nodiscard]] std::size_t host(std::size_t node) const {
    return split_nodes ? node / 2 : node;
  }
  [[nodiscard]] std::size_t src() const {
    return split_nodes ? 2 * src_host + 1 : src_host;
  }
  [[nodiscard]] std::size_t dst() const {
    return split_nodes ? 2 * dst_host : dst_host;
  }
  // The node of host v that residual arcs out of `node` lead to: the
  // opposite half (entry <-> exit) in node-disjoint mode.
  [[nodiscard]] std::size_t target(std::size_t node, std::size_t v) const {
    return split_nodes ? 2 * v + (node % 2 == 0 ? 1 : 0) : v;
  }

  // Weight of the residual arc from `node` to target(node, v), or kInf when
  // the residual graph has none.  An unused edge offers +w; a used one offers
  // only the reverse of its flow at -w, the Bhandari interlacing arc.  In
  // node-disjoint mode forward arcs leave exit nodes and reverse arcs leave
  // entry nodes, and the split arc runs entry -> exit while unused and
  // exit -> entry while used.  A used edge offers no forward arc the other
  // way, in node-disjoint mode too: flow along it would only add a cycle of
  // weight 2w >= 0, which no optimum needs.
  [[nodiscard]] double arc(std::size_t node, std::size_t v) const {
    const std::size_t u = host(node);
    const bool exit_side = !split_nodes || node % 2 == 1;
    const bool entry_side = !split_nodes || node % 2 == 0;
    if (u == v) {
      if (!split_nodes || u == src_host || u == dst_host) return kInf;
      return (split[u] != 0) == exit_side ? 0.0 : kInf;
    }
    const std::uint32_t e = mesh->edge(u, v);
    if (e == kNoEdge || e == direct) return kInf;
    if (flow[e] == 0) return exit_side ? mesh->weight[e] : kInf;
    if (flow[e] == direction(v, u) && entry_side) return -mesh->weight[e];
    return kInf;
  }
};

// One Suurballe round: dense Dijkstra from src on reduced costs
// w + potential(u) - potential(v), clamped at 0 where rounding makes them
// negative.  It settles the unsettled node of smallest distance (ties: the
// smallest node), scans neighbours in ascending host index and relaxes with
// strict <, so every equal-cost tie is a pure function of the mesh.  It stops
// once dst settles and raises each potential by min(dist, dist(dst)), which
// keeps every residual arc's reduced cost >= 0 for the next round.
bool shortest_path(Pair& p) {
  const std::size_t nodes = p.nodes();
  const std::size_t dst = p.dst();
  p.dist.assign(nodes, kInf);
  p.settled.assign(nodes, 0);
  p.dist[p.src()] = 0.0;
  while (true) {
    std::size_t x = nodes;
    for (std::size_t y = 0; y < nodes; ++y) {
      if (p.settled[y] == 0 && (x == nodes || p.dist[y] < p.dist[x])) x = y;
    }
    if (x == nodes || p.dist[x] == kInf) return false;
    p.settled[x] = 1;
    if (x == dst) break;
    for (std::size_t v = 0; v < p.mesh->hosts; ++v) {
      const double w = p.arc(x, v);
      const std::size_t y = p.target(x, v);
      if (w == kInf || p.settled[y] != 0) continue;
      const double reduced =
          std::max(0.0, w + p.potential[x] - p.potential[y]);
      const double nd = p.dist[x] + reduced;
      if (nd < p.dist[y]) {
        p.dist[y] = nd;
        p.parent[y] = x;
      }
    }
  }
  for (std::size_t y = 0; y < nodes; ++y) {
    p.potential[y] += std::min(p.dist[y], p.dist[dst]);
  }
  return true;
}

// Applies the path just found: a forward arc claims its edge in the
// traversed direction, an interlacing arc cancels the flow it reverses, and
// a split arc toggles its relay.
void augment(Pair& p) {
  for (std::size_t y = p.dst(); y != p.src(); y = p.parent[y]) {
    const std::size_t u = p.host(p.parent[y]);
    const std::size_t v = p.host(y);
    if (u == v) {
      p.split[u] ^= 1;
      continue;
    }
    std::int8_t& f = p.flow[p.mesh->edge(u, v)];
    f = f == 0 ? direction(u, v) : 0;
  }
}

// Peels the flow into host walks src -> dst.  Every relay has balanced flow
// and src sends one unit per path, so walking from src — always along the
// smallest-index host the flow still leaves towards — consumes one path at
// a time deterministically.
std::vector<std::vector<std::size_t>> decompose(Pair& p) {
  std::vector<std::vector<std::size_t>> walks;
  while (true) {
    std::vector<std::size_t> walk{p.src_host};
    while (walk.back() != p.dst_host) {
      const std::size_t u = walk.back();
      std::size_t v = 0;
      for (; v < p.mesh->hosts; ++v) {
        const std::uint32_t e = p.mesh->edge(u, v);
        if (e != kNoEdge && p.flow[e] == direction(u, v)) break;
      }
      if (v == p.mesh->hosts) {
        PATHSEL_EXPECT(walk.size() == 1,
                       "disjoint decomposition: unbalanced flow");
        return walks;
      }
      p.flow[p.mesh->edge(u, v)] = 0;
      walk.push_back(v);
    }
    walks.push_back(std::move(walk));
  }
}

// Maps a host walk to its relays and composes the metric along its edges.
DisjointPath finish_path(const PathTable& table, const Mesh& mesh,
                         Metric metric, const std::vector<std::size_t>& walk) {
  DisjointPath out;
  std::vector<const PathEdge*> edges;
  edges.reserve(walk.size() - 1);
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    edges.push_back(&table.edges()[mesh.edge(walk[i], walk[i + 1])]);
  }
  for (std::size_t i = 1; i + 1 < walk.size(); ++i) {
    out.via.push_back(table.hosts()[walk[i]]);
  }
  out.value = compose_metric(edges, metric);
  return out;
}

// Successive shortest paths (Suurballe/Bhandari) for the pair whose direct
// edge is table.edges()[direct]; `p` is scratch reused across pairs.
PairDisjointResult analyze_pair(const PathTable& table, const Mesh& mesh,
                                std::size_t direct,
                                const DisjointOptions& options, Pair& p) {
  const PathEdge& edge = table.edges()[direct];
  PairDisjointResult result;
  result.a = edge.a;
  result.b = edge.b;
  result.default_value = edge_metric_value(edge, options.metric);
  result.requested_k = options.k;

  p.mesh = &mesh;
  p.split_nodes = options.mode == DisjointMode::kNodeDisjoint;
  p.direct = static_cast<std::uint32_t>(direct);
  p.src_host = table.host_index(edge.a);
  p.dst_host = table.host_index(edge.b);
  p.flow.assign(mesh.weight.size(), 0);
  p.split.assign(mesh.hosts, 0);
  p.potential.assign(p.nodes(), 0.0);  // every weight is >= 0
  p.parent.resize(p.nodes());

  for (int j = 0; j < options.k; ++j) {
    if (!shortest_path(p)) break;  // the mesh holds no further disjoint path
    augment(p);
  }

  for (std::size_t e = 0; e < mesh.weight.size(); ++e) {
    if (p.flow[e] != 0) result.total_weight += mesh.weight[e];
  }
  for (const std::vector<std::size_t>& walk : decompose(p)) {
    result.paths.push_back(finish_path(table, mesh, options.metric, walk));
  }
  std::sort(result.paths.begin(), result.paths.end(),
            [](const DisjointPath& x, const DisjointPath& y) {
              if (x.value != y.value) return x.value < y.value;
              return x.via < y.via;
            });
  return result;
}

// What both entry points check before any work: k within the graph's
// ceiling, and probe samples to weigh every edge with.
Status check_inputs(const PathTable& table, int k) {
  const Status valid = validate_disjoint_k(k, table.hosts().size());
  if (!valid.is_ok()) return valid;
  const auto edges = table.edges();
  if (std::any_of(edges.begin(), edges.end(),
                  [](const PathEdge& e) { return e.loss.empty(); })) {
    return Status::error(ErrorCode::kInvalidArgument,
                         kPerProbeNeedsTraceroute);
  }
  return Status::ok();
}

}  // namespace

const char* to_string(DisjointMode mode) noexcept {
  return mode == DisjointMode::kLinkDisjoint ? "link" : "node";
}

Status validate_disjoint_k(int k, std::size_t hosts) {
  if (k < 1) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "disjoint k must be at least 1 (got " +
                             std::to_string(k) + ")");
  }
  if (hosts < 3 || static_cast<std::size_t>(k) > hosts - 2) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "disjoint k=" + std::to_string(k) +
            " exceeds the graph's disjoint-path ceiling of N-2 = " +
            (hosts < 2 ? std::string{"0"} : std::to_string(hosts - 2)) +
            " for N = " + std::to_string(hosts) +
            " hosts; request a smaller k");
  }
  return Status::ok();
}

Result<std::vector<PairDisjointResult>> compute_disjoint_alternates(
    const PathTable& table, const DisjointOptions& options) {
  const Status valid = check_inputs(table, options.k);
  if (!valid.is_ok()) return valid;

  const std::uint64_t sweep_start = wall_clock_ns();
  std::vector<PairDisjointResult> results;
  {
    const ScopedTimer timer{"core.disjoint.sweep"};
    const Mesh mesh = build_mesh(table, options.metric);
    // Chunk size is fixed so chunk boundaries — and therefore the merged
    // output — do not depend on the thread count.
    constexpr std::size_t kChunk = 16;
    ThreadPool& pool = ThreadPool::shared(resolve_thread_count(options.threads));
    Result<std::vector<PairDisjointResult>> swept =
        pool.map_chunks<PairDisjointResult>(
            table.edges().size(), kChunk,
            [&](std::size_t begin, std::size_t end, std::size_t) {
              Pair scratch;
              std::vector<PairDisjointResult> local;
              local.reserve(end - begin);
              for (std::size_t i = begin; i < end; ++i) {
                local.push_back(analyze_pair(table, mesh, i, options, scratch));
              }
              return local;
            },
            options.cancel);
    if (!swept.is_ok()) return swept.status();
    results = std::move(swept.value());
  }

  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    std::size_t found = 0;
    std::size_t disconnected = 0;
    for (const PairDisjointResult& r : results) {
      found += r.paths.size();
      if (r.paths.empty()) ++disconnected;
    }
    m.count("core.disjoint.sweeps");
    m.count("core.disjoint.pairs", results.size());
    m.count("core.disjoint.paths_found", found);
    m.count("core.disjoint.pairs_disconnected", disconnected);
    m.observe("core.disjoint.sweep_ms",
              static_cast<double>(wall_clock_ns() - sweep_start) / 1e6);
  }
  return results;
}

Result<PairDisjointResult> compute_disjoint_for_pair(
    const PathTable& table, const PathEdge& direct,
    const DisjointOptions& options) {
  const Status valid = check_inputs(table, options.k);
  if (!valid.is_ok()) return valid;
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return options.cancel->status();
  }
  Pair scratch;
  PairDisjointResult result =
      analyze_pair(table, build_mesh(table, options.metric),
                   static_cast<std::size_t>(&direct - table.edges().data()),
                   options, scratch);
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return options.cancel->status();
  }
  return result;
}

std::string render_disjoint_rows(std::span<const PairDisjointResult> results,
                                 char sep) {
  std::string out;
  const std::array<const char*, 7> header{"a",
                                          "b",
                                          "requested_k",
                                          "found_k",
                                          "default_value",
                                          "best_value",
                                          "total_weight"};
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += header[i];
  }
  out.push_back('\n');
  char row[160];
  for (const PairDisjointResult& r : results) {
    std::snprintf(row, sizeof(row),
                  "%d%c%d%c%d%c%d%c%.6g%c%.6g%c%.6g\n", r.a.value(), sep,
                  r.b.value(), sep, r.requested_k, sep, r.found_k(), sep,
                  r.default_value, sep,
                  r.paths.empty() ? -1.0 : r.paths.front().value, sep,
                  r.total_weight);
    out += row;
  }
  return out;
}

std::string render_disjoint_header(const std::string& dataset,
                                   const DisjointOptions& options,
                                   int min_samples) {
  return "# disjoint alternates: dataset=" + dataset +
         " mode=" + to_string(options.mode) +
         " k=" + std::to_string(options.k) +
         " metric=" + metric_name(options.metric) +
         " min_samples=" + std::to_string(min_samples) + "\n";
}

}  // namespace pathsel::core
