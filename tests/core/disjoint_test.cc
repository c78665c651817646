// Suurballe/Bhandari k-disjoint alternates: differential tests against
// brute-force path enumeration and a Bellman-Ford oracle, degenerate graphs,
// and the determinism / thread-invariance / point-query contracts.
#include "core/disjoint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string_view>

#include <gtest/gtest.h>

#include "core/alternate.h"
#include "meas/catalog.h"
#include "test_util.h"
#include "util/metrics.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Triangle: direct 0-1 slow (100 ms), detour 0-2-1 fast (30 + 30 ms).
PathTable triangle_table() {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 100.0, 5);
  add_invocations(ds, 0, 2, 30.0, 5);
  add_invocations(ds, 2, 1, 30.0, 5);
  return PathTable::build(ds, test::min_samples(1));
}

const PairDisjointResult* find_pair(
    const std::vector<PairDisjointResult>& results, int a, int b) {
  for (const PairDisjointResult& r : results) {
    if (r.a == topo::HostId{a} && r.b == topo::HostId{b}) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Brute force reference: enumerate all simple alternate paths, then find the
// largest j <= k admitting a mutually disjoint j-subset and the minimal
// total weight over those subsets.

struct RefPath {
  std::vector<std::size_t> edges;  // indices into table.edges()
  std::vector<std::size_t> nodes;  // host indices, endpoints included
  double weight = 0.0;
};

void enumerate_paths(const PathTable& table, std::size_t direct,
                     Metric metric, std::size_t src, std::size_t dst,
                     std::vector<RefPath>& out) {
  const std::size_t n = table.hosts().size();
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t e = 0; e < table.edges().size(); ++e) {
    if (e == direct) continue;
    const PathEdge& edge = table.edges()[e];
    const std::size_t ia = table.host_index(edge.a);
    const std::size_t ib = table.host_index(edge.b);
    adj[ia].push_back({ib, e});
    adj[ib].push_back({ia, e});
  }
  std::vector<char> visited(n, 0);
  RefPath current;
  current.nodes.push_back(src);
  visited[src] = 1;
  auto dfs = [&](auto&& self, std::size_t at) -> void {
    if (at == dst) {
      out.push_back(current);
      return;
    }
    for (const auto& [next, e] : adj[at]) {
      if (visited[next]) continue;
      visited[next] = 1;
      current.nodes.push_back(next);
      current.edges.push_back(e);
      current.weight += edge_weight(table.edges()[e], metric);
      self(self, next);
      current.weight -= edge_weight(table.edges()[e], metric);
      current.edges.pop_back();
      current.nodes.pop_back();
      visited[next] = 0;
    }
  };
  dfs(dfs, src);
}

bool compatible(const RefPath& a, const RefPath& b, DisjointMode mode,
                std::size_t src, std::size_t dst) {
  for (const std::size_t e : a.edges) {
    if (std::find(b.edges.begin(), b.edges.end(), e) != b.edges.end()) {
      return false;
    }
  }
  if (mode == DisjointMode::kNodeDisjoint) {
    for (const std::size_t v : a.nodes) {
      if (v == src || v == dst) continue;
      if (std::find(b.nodes.begin(), b.nodes.end(), v) != b.nodes.end()) {
        return false;
      }
    }
  }
  return true;
}

// Minimal total weight over all mutually disjoint subsets of exactly
// `target` paths; kInf when no such subset exists.
double best_subset(const std::vector<RefPath>& paths, DisjointMode mode,
                   std::size_t src, std::size_t dst, std::size_t target) {
  double best = kInf;
  std::vector<std::size_t> chosen;
  auto rec = [&](auto&& self, std::size_t from, double weight) -> void {
    if (chosen.size() == target) {
      best = std::min(best, weight);
      return;
    }
    for (std::size_t i = from; i < paths.size(); ++i) {
      bool ok = true;
      for (const std::size_t c : chosen) {
        if (!compatible(paths[i], paths[c], mode, src, dst)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      chosen.push_back(i);
      self(self, i + 1, weight + paths[i].weight);
      chosen.pop_back();
    }
  };
  rec(rec, 0, 0.0);
  return best;
}

// Sparse seeded random graph as a dataset: every present edge gets enough
// invocations to pass the min_samples(1) filter, rtt uniform in [10, 200),
// a third of the samples lost so the loss metric is non-trivial.
meas::Dataset random_dataset(int hosts, double edge_prob,
                             std::uint64_t seed) {
  auto ds = make_dataset(hosts);
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) {
      if (uniform(rng) >= edge_prob) continue;
      const double rtt = 10.0 + 190.0 * uniform(rng);
      const bool lossy = uniform(rng) < 0.5;
      add_invocation(ds, a, b, {rtt, rtt, rtt});
      add_invocation(ds, a, b,
                     lossy ? std::initializer_list<double>{-1.0, rtt, rtt}
                           : std::initializer_list<double>{rtt, rtt, rtt});
    }
  }
  return ds;
}

// Returns the number of pairs actually cross-checked so callers can assert
// the differential was not vacuous.
std::size_t check_against_brute_force(const PathTable& table, Metric metric,
                                      DisjointMode mode, int k) {
  std::size_t checked = 0;
  DisjointOptions options;
  options.metric = metric;
  options.mode = mode;
  options.k = k;
  options.threads = 1;
  const auto swept = compute_disjoint_alternates(table, options);
  EXPECT_TRUE(swept.is_ok()) << swept.status().to_string();
  if (!swept.is_ok()) return 0;
  EXPECT_EQ(swept.value().size(), table.edges().size());
  if (swept.value().size() != table.edges().size()) return 0;
  for (std::size_t i = 0; i < table.edges().size(); ++i) {
    const PathEdge& edge = table.edges()[i];
    const std::size_t src = table.host_index(edge.a);
    const std::size_t dst = table.host_index(edge.b);
    std::vector<RefPath> all;
    enumerate_paths(table, i, metric, src, dst, all);
    if (all.size() > 400) continue;  // keep the subset search bounded
    const PairDisjointResult& r = swept.value()[i];
    // Largest feasible disjoint set size, capped at k.
    int expect_found = 0;
    double expect_weight = 0.0;
    for (int j = k; j >= 1; --j) {
      const double w = best_subset(all, mode, src, dst,
                                   static_cast<std::size_t>(j));
      if (w < kInf) {
        expect_found = j;
        expect_weight = w;
        break;
      }
    }
    EXPECT_EQ(r.found_k(), expect_found)
        << "pair " << edge.a.value() << "-" << edge.b.value();
    if (expect_found > 0) {
      EXPECT_NEAR(r.total_weight, expect_weight,
                  1e-9 * std::max(1.0, expect_weight))
          << "pair " << edge.a.value() << "-" << edge.b.value();
    }
    // The returned paths must actually be pairwise disjoint.
    for (std::size_t p = 0; p < r.paths.size(); ++p) {
      for (std::size_t q = p + 1; q < r.paths.size(); ++q) {
        std::vector<topo::HostId> shared;
        for (const topo::HostId h : r.paths[p].via) {
          if (std::find(r.paths[q].via.begin(), r.paths[q].via.end(), h) !=
              r.paths[q].via.end()) {
            shared.push_back(h);
          }
        }
        if (mode == DisjointMode::kNodeDisjoint) {
          EXPECT_TRUE(shared.empty());
        }
      }
    }
    ++checked;
  }
  return checked;
}

// ---------------------------------------------------------------------------
// Bellman-Ford oracle: successive shortest paths without potentials.  Each
// round rebuilds the residual arc list from the segment states, sorts it by
// (tail, head, segment) and relaxes it with strict < for up to `nodes`
// rounds, which tolerates the negative interlacing arcs directly.  Node mode
// splits every relay i into entry 2i -> exit 2i+1 and turns each measured
// edge into two independent directed segments.  It shares no code with the
// library's Dijkstra solver beyond edge_weight and compose_metric.

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct OracleSegment {
  std::size_t from = 0;
  std::size_t to = 0;
  double weight = 0.0;
  std::size_t edge = kNone;  // index into table.edges(); kNone for a split
  int state = 0;             // 0 unused, +1 used from->to, -1 to->from
  bool directed = false;
};

struct OracleArc {
  std::size_t tail = 0;
  std::size_t head = 0;
  double weight = 0.0;
  std::size_t segment = 0;
  int direction = 0;
};

std::vector<OracleArc> residual_arcs(const std::vector<OracleSegment>& segs) {
  std::vector<OracleArc> arcs;
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const OracleSegment& seg = segs[s];
    if (seg.state == 0) {
      arcs.push_back({seg.from, seg.to, seg.weight, s, +1});
      if (!seg.directed) arcs.push_back({seg.to, seg.from, seg.weight, s, -1});
    } else if (seg.state > 0) {
      arcs.push_back({seg.to, seg.from, -seg.weight, s, -1});
    } else {
      arcs.push_back({seg.from, seg.to, -seg.weight, s, +1});
    }
  }
  std::sort(arcs.begin(), arcs.end(),
            [](const OracleArc& a, const OracleArc& b) {
              if (a.tail != b.tail) return a.tail < b.tail;
              if (a.head != b.head) return a.head < b.head;
              return a.segment < b.segment;
            });
  return arcs;
}

bool bellman_ford(const std::vector<OracleArc>& arcs, std::size_t nodes,
                  std::size_t src, std::size_t dst,
                  std::vector<std::size_t>& parent_arc) {
  std::vector<double> dist(nodes, kInf);
  parent_arc.assign(nodes, kNone);
  dist[src] = 0.0;
  for (std::size_t round = 0; round < nodes; ++round) {
    bool improved = false;
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      if (dist[arcs[a].tail] == kInf) continue;
      const double nd = dist[arcs[a].tail] + arcs[a].weight;
      if (nd < dist[arcs[a].head]) {
        dist[arcs[a].head] = nd;
        parent_arc[arcs[a].head] = a;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return dist[dst] != kInf;
}

// The oracle's answer for the pair whose direct edge is table.edges()[direct],
// in the library's result shape: paths peeled from src along the
// smallest-(head, segment) used segment, sorted best-first.
PairDisjointResult oracle_pair(const PathTable& table, std::size_t direct,
                               const DisjointOptions& options) {
  const PathEdge& edge = table.edges()[direct];
  const bool split = options.mode == DisjointMode::kNodeDisjoint;
  const std::size_t n = table.hosts().size();
  const std::size_t ia = table.host_index(edge.a);
  const std::size_t ib = table.host_index(edge.b);
  const std::size_t nodes = split ? 2 * n : n;
  const std::size_t src = split ? 2 * ia + 1 : ia;
  const std::size_t dst = split ? 2 * ib : ib;
  std::vector<OracleSegment> segs;
  for (std::size_t i = 0; split && i < n; ++i) {
    if (i != ia && i != ib) {
      segs.push_back({2 * i, 2 * i + 1, 0.0, kNone, 0, true});
    }
  }
  for (std::size_t e = 0; e < table.edges().size(); ++e) {
    if (e == direct) continue;
    const std::size_t ea = table.host_index(table.edges()[e].a);
    const std::size_t eb = table.host_index(table.edges()[e].b);
    const double w = edge_weight(table.edges()[e], options.metric);
    if (split) {
      segs.push_back({2 * ea + 1, 2 * eb, w, e, 0, true});
      segs.push_back({2 * eb + 1, 2 * ea, w, e, 0, true});
    } else {
      segs.push_back({ea, eb, w, e, 0, false});
    }
  }

  std::vector<std::size_t> parent_arc;
  for (int j = 0; j < options.k; ++j) {
    const std::vector<OracleArc> arcs = residual_arcs(segs);
    if (!bellman_ford(arcs, nodes, src, dst, parent_arc)) break;
    for (std::size_t at = dst; at != src;) {
      const OracleArc& arc = arcs[parent_arc[at]];
      OracleSegment& seg = segs[arc.segment];
      seg.state = seg.state == 0 ? arc.direction : 0;
      at = arc.tail;
    }
  }

  PairDisjointResult result;
  result.a = edge.a;
  result.b = edge.b;
  result.default_value = edge_metric_value(edge, options.metric);
  result.requested_k = options.k;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> out(nodes);
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const OracleSegment& seg = segs[s];
    if (seg.state != 0 && seg.edge != kNone) result.total_weight += seg.weight;
    if (seg.state > 0) out[seg.from].push_back({seg.to, s});
    if (seg.state < 0) out[seg.to].push_back({seg.from, s});
  }
  for (auto& heads : out) std::sort(heads.begin(), heads.end());
  while (!out[src].empty()) {
    std::vector<std::size_t> hosts{ia};
    for (std::size_t at = src; at != dst;) {
      if (out[at].empty()) {
        ADD_FAILURE() << "oracle: unbalanced flow";
        return result;
      }
      const std::size_t next = out[at].front().first;
      out[at].erase(out[at].begin());
      at = next;
      const std::size_t host = split ? at / 2 : at;
      if (hosts.back() != host) hosts.push_back(host);
    }
    DisjointPath path;
    std::vector<const PathEdge*> edges;
    for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
      edges.push_back(table.find(table.hosts()[hosts[i]],
                                 table.hosts()[hosts[i + 1]]));
      if (i > 0) path.via.push_back(table.hosts()[hosts[i]]);
    }
    path.value = compose_metric(edges, options.metric);
    result.paths.push_back(std::move(path));
  }
  std::sort(result.paths.begin(), result.paths.end(),
            [](const DisjointPath& x, const DisjointPath& y) {
              if (x.value != y.value) return x.value < y.value;
              return x.via < y.via;
            });
  return result;
}

// Tie-heavy mesh: RTTs are small integers, so equal-cost path sets are common
// and their sums exact.  About half the edges lose nothing and weigh exactly
// 0 under Metric::kLoss; every lossy edge loses one sample of a distinct
// number of invocations, so non-zero loss weights never tie by accident.
meas::Dataset tie_heavy_dataset(int hosts, double edge_prob,
                                std::uint64_t seed) {
  auto ds = make_dataset(hosts);
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  int lossy_edges = 0;
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) {
      if (uniform(rng) >= edge_prob) continue;
      const double rtt = 1.0 + static_cast<double>(rng() % 4);
      const bool lossy = uniform(rng) < 0.5;
      const int invocations = lossy ? 2 + lossy_edges++ : 2;
      for (int i = 0; i < invocations; ++i) {
        add_invocation(ds, a, b,
                       (lossy && i == 0)
                           ? std::initializer_list<double>{-1.0, rtt, rtt}
                           : std::initializer_list<double>{rtt, rtt, rtt});
      }
    }
  }
  return ds;
}

// Number of mutually disjoint `target`-subsets of `paths` whose total weight
// is within rounding of the minimum; 1 means the optimum is unique, and
// `best` then holds its path indices.
std::size_t optimal_subsets(const std::vector<RefPath>& paths,
                            DisjointMode mode, std::size_t src,
                            std::size_t dst, std::size_t target,
                            std::vector<std::size_t>& best) {
  const double optimum = best_subset(paths, mode, src, dst, target);
  if (optimum == kInf) return 0;
  const double tolerance = 1e-12 * std::max(1.0, optimum);
  std::size_t count = 0;
  std::vector<std::size_t> chosen;
  auto rec = [&](auto&& self, std::size_t from, double weight) -> void {
    if (weight > optimum + tolerance) return;
    if (chosen.size() == target) {
      if (++count == 1) best = chosen;
      return;
    }
    for (std::size_t i = from; i < paths.size(); ++i) {
      bool ok = true;
      for (const std::size_t c : chosen) {
        ok = ok && compatible(paths[i], paths[c], mode, src, dst);
      }
      if (!ok) continue;
      chosen.push_back(i);
      self(self, i + 1, weight + paths[i].weight);
      chosen.pop_back();
    }
  };
  rec(rec, 0, 0.0);
  return count;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct OracleTally {
  std::size_t compared = 0;  // pairs whose found_k and total_weight matched
  std::size_t unique = 0;    // ... whose optimal path set is unique
  std::size_t tied = 0;      // ... with several optimal path sets
};

// Solver vs oracle on every pair of `table`: equal found_k and bit-equal
// total_weight always, and bit-equal paths wherever brute force shows the
// optimal path set is unique.  Pairs with too many simple paths to
// enumerate count as neither unique nor tied.
void check_against_oracle(const PathTable& table, Metric metric,
                          DisjointMode mode, int k, OracleTally& tally) {
  DisjointOptions options;
  options.metric = metric;
  options.mode = mode;
  options.k = k;
  options.threads = 1;
  const auto swept = compute_disjoint_alternates(table, options);
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  for (std::size_t i = 0; i < table.edges().size(); ++i) {
    const PairDisjointResult& got = swept.value()[i];
    const PairDisjointResult want = oracle_pair(table, i, options);
    const std::string where = "pair " + std::to_string(got.a.value()) + "-" +
                              std::to_string(got.b.value()) + " k=" +
                              std::to_string(k) + " " + to_string(mode);
    EXPECT_EQ(got.found_k(), want.found_k()) << where;
    EXPECT_EQ(bits(got.total_weight), bits(want.total_weight)) << where;
    ++tally.compared;

    const std::size_t src = table.host_index(got.a);
    const std::size_t dst = table.host_index(got.b);
    std::vector<RefPath> all;
    enumerate_paths(table, i, metric, src, dst, all);
    if (want.found_k() == 0 || all.size() > 200) continue;
    std::vector<std::size_t> best;
    if (optimal_subsets(all, mode, src, dst,
                        static_cast<std::size_t>(want.found_k()), best) != 1) {
      ++tally.tied;
      continue;
    }
    ++tally.unique;
    std::vector<std::vector<topo::HostId>> expect_via;
    for (const std::size_t b : best) {
      std::vector<topo::HostId> via;
      for (std::size_t h = 1; h + 1 < all[b].nodes.size(); ++h) {
        via.push_back(table.hosts()[all[b].nodes[h]]);
      }
      expect_via.push_back(std::move(via));
    }
    std::vector<std::vector<topo::HostId>> got_via;
    for (const DisjointPath& path : got.paths) got_via.push_back(path.via);
    std::sort(expect_via.begin(), expect_via.end());
    std::sort(got_via.begin(), got_via.end());
    EXPECT_EQ(got_via, expect_via) << where;
    EXPECT_EQ(got.paths.size(), want.paths.size()) << where;
    if (got.paths.size() != want.paths.size()) continue;
    for (std::size_t p = 0; p < got.paths.size(); ++p) {
      EXPECT_EQ(bits(got.paths[p].value), bits(want.paths[p].value)) << where;
      EXPECT_EQ(got.paths[p].via, want.paths[p].via) << where;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(Disjoint, ValidateKRejectsOutOfRange) {
  EXPECT_FALSE(validate_disjoint_k(0, 10).is_ok());
  EXPECT_FALSE(validate_disjoint_k(-3, 10).is_ok());
  EXPECT_TRUE(validate_disjoint_k(1, 3).is_ok());
  EXPECT_FALSE(validate_disjoint_k(2, 3).is_ok());  // N-2 = 1
  EXPECT_TRUE(validate_disjoint_k(8, 10).is_ok());
  EXPECT_FALSE(validate_disjoint_k(9, 10).is_ok());
  EXPECT_FALSE(validate_disjoint_k(1, 2).is_ok());  // no relay exists
  const Status s = validate_disjoint_k(5, 4);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(Disjoint, ComputeRejectsInvalidK) {
  const auto swept =
      compute_disjoint_alternates(triangle_table(), {.k = 2});
  ASSERT_FALSE(swept.is_ok());
  EXPECT_EQ(swept.status().code(), ErrorCode::kInvalidArgument);
}

// A TCP table's edges hold transfers and no probe samples: the sweep and
// the point query refuse it with analyze_with_coverage's error instead of
// aborting on an empty summary.
TEST(Disjoint, RejectsATcpTable) {
  auto ds = make_dataset(4);
  ds.kind = meas::MeasurementKind::kTcpTransfer;
  for (const auto& [a, b] : {std::pair{0, 1}, {0, 2}, {2, 1}, {1, 3}, {3, 0}}) {
    test::add_transfer(ds, a, b, 300.0, 40.0, 0.004);
  }
  const PathTable table = PathTable::build(ds, test::min_samples(1));
  ASSERT_EQ(table.edges().size(), 5u);
  for (const Metric metric : {Metric::kRtt, Metric::kLoss}) {
    const DisjointOptions options{.metric = metric, .k = 2};
    const auto swept = compute_disjoint_alternates(table, options);
    ASSERT_FALSE(swept.is_ok());
    EXPECT_EQ(swept.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(swept.status().message(), kPerProbeNeedsTraceroute);
    const auto point =
        compute_disjoint_for_pair(table, table.edges()[0], options);
    ASSERT_FALSE(point.is_ok());
    EXPECT_EQ(point.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(Disjoint, TriangleSingleAlternate) {
  const auto swept =
      compute_disjoint_alternates(triangle_table(), {.k = 1});
  ASSERT_TRUE(swept.is_ok());
  const PairDisjointResult* r = find_pair(swept.value(), 0, 1);
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->default_value, 100.0);
  EXPECT_EQ(r->found_k(), 1);
  EXPECT_EQ(r->requested_k, 1);
  ASSERT_EQ(r->paths.size(), 1u);
  EXPECT_DOUBLE_EQ(r->paths[0].value, 60.0);
  ASSERT_EQ(r->paths[0].via.size(), 1u);
  EXPECT_EQ(r->paths[0].via[0], topo::HostId{2});
}

TEST(Disjoint, ReportsFewerThanRequested) {
  // A 4-host triangle+tail so k=2 passes validation, but the 0-1 pair still
  // has exactly one alternate: found_k < requested_k is data, not an error.
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 2);
  add_invocations(ds, 0, 2, 30.0, 2);
  add_invocations(ds, 2, 1, 30.0, 2);
  add_invocations(ds, 2, 3, 10.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto swept = compute_disjoint_alternates(table, {.k = 2});
  ASSERT_TRUE(swept.is_ok());
  const PairDisjointResult* r = find_pair(swept.value(), 0, 1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->requested_k, 2);
  EXPECT_EQ(r->found_k(), 1);
}

TEST(Disjoint, DisconnectedPairReportedEmpty) {
  // Path graph 0-1-2: removing the direct edge disconnects each pair.
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 2);
  add_invocations(ds, 1, 2, 10.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto swept = compute_disjoint_alternates(table, {.k = 1});
  ASSERT_TRUE(swept.is_ok());
  ASSERT_EQ(swept.value().size(), 2u);
  for (const PairDisjointResult& r : swept.value()) {
    EXPECT_EQ(r.found_k(), 0);
    EXPECT_TRUE(r.paths.empty());
    EXPECT_DOUBLE_EQ(r.total_weight, 0.0);
  }
}

TEST(Disjoint, BridgeOnlyGraphHasNoDisjointAlternate) {
  // Two triangles joined by a bridge 2-3: the bridge pair loses all
  // connectivity when its direct edge is removed.
  auto ds = make_dataset(6);
  add_invocations(ds, 0, 1, 10.0, 2);
  add_invocations(ds, 1, 2, 10.0, 2);
  add_invocations(ds, 2, 0, 10.0, 2);
  add_invocations(ds, 3, 4, 10.0, 2);
  add_invocations(ds, 4, 5, 10.0, 2);
  add_invocations(ds, 5, 3, 10.0, 2);
  add_invocations(ds, 2, 3, 50.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto swept = compute_disjoint_alternates(table, {.k = 2});
  ASSERT_TRUE(swept.is_ok());
  const PairDisjointResult* bridge = find_pair(swept.value(), 2, 3);
  ASSERT_NE(bridge, nullptr);
  EXPECT_EQ(bridge->found_k(), 0);
  // In-triangle pairs keep their single alternate.
  const PairDisjointResult* tri = find_pair(swept.value(), 0, 1);
  ASSERT_NE(tri, nullptr);
  EXPECT_EQ(tri->found_k(), 1);
}

TEST(Disjoint, NodeModeForbidsSharedRelay) {
  // Two link-disjoint alternates for 0-1 share relay 2: 0-2-1 and
  // 0-3-2-4-1.  Link mode finds both; node mode must drop to one.
  auto ds = make_dataset(5);
  add_invocations(ds, 0, 1, 100.0, 2);
  add_invocations(ds, 0, 2, 10.0, 2);
  add_invocations(ds, 2, 1, 10.0, 2);
  add_invocations(ds, 0, 3, 10.0, 2);
  add_invocations(ds, 3, 2, 10.0, 2);
  add_invocations(ds, 2, 4, 10.0, 2);
  add_invocations(ds, 4, 1, 10.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));

  const auto link = compute_disjoint_alternates(
      table, {.k = 2, .mode = DisjointMode::kLinkDisjoint});
  ASSERT_TRUE(link.is_ok());
  const PairDisjointResult* rl = find_pair(link.value(), 0, 1);
  ASSERT_NE(rl, nullptr);
  EXPECT_EQ(rl->found_k(), 2);

  const auto node = compute_disjoint_alternates(
      table, {.k = 2, .mode = DisjointMode::kNodeDisjoint});
  ASSERT_TRUE(node.is_ok());
  const PairDisjointResult* rn = find_pair(node.value(), 0, 1);
  ASSERT_NE(rn, nullptr);
  EXPECT_EQ(rn->found_k(), 1);
  ASSERT_EQ(rn->paths[0].via.size(), 1u);
  EXPECT_EQ(rn->paths[0].via[0], topo::HostId{2});
}

TEST(Disjoint, FirstPathIsShortestAlternate) {
  // Suurballe's first iteration is a plain shortest alternate path, so the
  // k=1 value must match the unrestricted alternate analysis exactly.
  const auto ds = random_dataset(10, 0.45, 7);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto swept = compute_disjoint_alternates(table, {.k = 1});
  ASSERT_TRUE(swept.is_ok());
  const auto alternates = analyze_alternate_paths(table, AnalyzerOptions{});
  std::size_t matched = 0;
  for (const PairResult& alt : alternates) {
    const PairDisjointResult* r =
        find_pair(swept.value(), alt.a.value(), alt.b.value());
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->found_k(), 1);
    EXPECT_DOUBLE_EQ(r->paths[0].value, alt.alternate_value);
    ++matched;
  }
  EXPECT_GT(matched, 10u);
}

TEST(DisjointDifferential, MatchesBruteForceRtt) {
  std::size_t checked = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const auto ds = random_dataset(8, 0.4, seed);
    const auto table = PathTable::build(ds, test::min_samples(1));
    if (table.hosts().size() < 5 || table.edges().size() < 4) continue;
    for (const int k : {1, 2, 3}) {
      checked += check_against_brute_force(table, Metric::kRtt,
                                           DisjointMode::kLinkDisjoint, k);
    }
  }
  EXPECT_GT(checked, 20u);  // the differential must not be vacuous
}

TEST(DisjointDifferential, MatchesBruteForceLoss) {
  std::size_t checked = 0;
  for (const std::uint64_t seed : {21u, 22u}) {
    const auto ds = random_dataset(8, 0.4, seed);
    const auto table = PathTable::build(ds, test::min_samples(1));
    if (table.hosts().size() < 5 || table.edges().size() < 4) continue;
    for (const int k : {1, 2}) {
      checked += check_against_brute_force(table, Metric::kLoss,
                                           DisjointMode::kLinkDisjoint, k);
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(DisjointDifferential, MatchesBruteForceNodeMode) {
  std::size_t checked = 0;
  for (const std::uint64_t seed : {31u, 32u}) {
    const auto ds = random_dataset(8, 0.4, seed);
    const auto table = PathTable::build(ds, test::min_samples(1));
    if (table.hosts().size() < 5 || table.edges().size() < 4) continue;
    for (const int k : {1, 2}) {
      checked += check_against_brute_force(table, Metric::kRtt,
                                           DisjointMode::kNodeDisjoint, k);
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(DisjointDifferential, LossValueComposes) {
  // Each edge loses 1 sample in 6 across two invocations; the composed
  // alternate loss must be 1 - (1 - l)^2.
  auto ds = make_dataset(3);
  for (const auto& [a, b] : {std::pair{0, 1}, {0, 2}, {2, 1}}) {
    add_invocation(ds, a, b, {10.0, 10.0, 10.0});
    add_invocation(ds, a, b, {-1.0, 10.0, 10.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto swept = compute_disjoint_alternates(
      table, {.metric = Metric::kLoss, .k = 1});
  ASSERT_TRUE(swept.is_ok());
  const PairDisjointResult* r = find_pair(swept.value(), 0, 1);
  ASSERT_NE(r, nullptr);
  const double l = 1.0 / 6.0;
  EXPECT_DOUBLE_EQ(r->default_value, l);
  ASSERT_EQ(r->found_k(), 1);
  EXPECT_NEAR(r->paths[0].value, 1.0 - (1.0 - l) * (1.0 - l), 1e-12);
}

TEST(DisjointOracle, IntegerRttTiesMatchBellmanFord) {
  OracleTally tally;
  for (const std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    const auto table =
        PathTable::build(tie_heavy_dataset(8, 0.5, seed), test::min_samples(1));
    for (const DisjointMode mode :
         {DisjointMode::kLinkDisjoint, DisjointMode::kNodeDisjoint}) {
      for (const int k : {1, 2, 3}) {
        check_against_oracle(table, Metric::kRtt, mode, k, tally);
      }
    }
  }
  // Neither half may be vacuous: unique optima to compare paths on, and
  // ties for the solvers to break differently.
  EXPECT_GT(tally.compared, 300u);
  EXPECT_GT(tally.unique, 200u);
  EXPECT_GT(tally.tied, 50u);
}

TEST(DisjointOracle, ZeroLossEdgesMatchBellmanFord) {
  OracleTally tally;
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    const auto table =
        PathTable::build(tie_heavy_dataset(8, 0.5, seed), test::min_samples(1));
    for (const DisjointMode mode :
         {DisjointMode::kLinkDisjoint, DisjointMode::kNodeDisjoint}) {
      for (const int k : {1, 2, 3}) {
        check_against_oracle(table, Metric::kLoss, mode, k, tally);
      }
    }
  }
  EXPECT_GT(tally.compared, 300u);
  EXPECT_GT(tally.unique, 200u);
  EXPECT_GT(tally.tied, 50u);
}

TEST(DisjointPointQuery, MatchesSweepRowForEveryCatalogPair) {
  // compute_disjoint_for_pair promises the sweep's computation bit for bit;
  // check every pair of a catalog table in both modes and both metrics.
  meas::Catalog catalog{meas::CatalogConfig{.seed = 1999, .scale = 0.05}};
  const PathTable table =
      PathTable::build(catalog.by_name("UW3"), test::min_samples(5));
  ASSERT_GT(table.edges().size(), 100u);
  for (const Metric metric : {Metric::kRtt, Metric::kLoss}) {
    for (const DisjointMode mode :
         {DisjointMode::kLinkDisjoint, DisjointMode::kNodeDisjoint}) {
      const DisjointOptions options{.metric = metric, .k = 2, .mode = mode};
      const auto swept = compute_disjoint_alternates(table, options);
      ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
      ASSERT_EQ(swept.value().size(), table.edges().size());
      for (std::size_t i = 0; i < table.edges().size(); ++i) {
        const auto point =
            compute_disjoint_for_pair(table, table.edges()[i], options);
        ASSERT_TRUE(point.is_ok()) << point.status().to_string();
        const PairDisjointResult& x = swept.value()[i];
        const PairDisjointResult& y = point.value();
        EXPECT_EQ(x.a, y.a);
        EXPECT_EQ(x.b, y.b);
        EXPECT_EQ(x.requested_k, y.requested_k);
        EXPECT_EQ(bits(x.default_value), bits(y.default_value));
        EXPECT_EQ(bits(x.total_weight), bits(y.total_weight));
        ASSERT_EQ(x.paths.size(), y.paths.size());
        for (std::size_t p = 0; p < x.paths.size(); ++p) {
          EXPECT_EQ(bits(x.paths[p].value), bits(y.paths[p].value));
          EXPECT_EQ(x.paths[p].via, y.paths[p].via);
        }
      }
    }
  }
}

TEST(DisjointThreadInvariance, BitIdenticalAcrossThreadCounts) {
  const auto ds = random_dataset(12, 0.4, 99);
  const auto table = PathTable::build(ds, test::min_samples(1));
  ASSERT_GT(table.edges().size(), 8u);
  std::vector<std::vector<PairDisjointResult>> runs;
  for (const int threads : {1, 4, 8}) {
    DisjointOptions options;
    options.k = 3;
    options.threads = threads;
    const auto swept = compute_disjoint_alternates(table, options);
    ASSERT_TRUE(swept.is_ok());
    runs.push_back(swept.value());
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const PairDisjointResult& x = runs[0][i];
      const PairDisjointResult& y = runs[run][i];
      EXPECT_EQ(x.a, y.a);
      EXPECT_EQ(x.b, y.b);
      // Bitwise equality, not NEAR: determinism is the contract.
      EXPECT_EQ(x.total_weight, y.total_weight);
      ASSERT_EQ(x.paths.size(), y.paths.size());
      for (std::size_t p = 0; p < x.paths.size(); ++p) {
        EXPECT_EQ(x.paths[p].value, y.paths[p].value);
        EXPECT_EQ(x.paths[p].via, y.paths[p].via);
      }
    }
  }
}

TEST(DisjointCancel, TrippedTokenSurfacesStatus) {
  const auto ds = random_dataset(10, 0.5, 5);
  const auto table = PathTable::build(ds, test::min_samples(1));
  CancelToken token;
  token.cancel();
  DisjointOptions options;
  options.k = 2;
  options.cancel = &token;
  const auto swept = compute_disjoint_alternates(table, options);
  ASSERT_FALSE(swept.is_ok());
  EXPECT_EQ(swept.status().code(), ErrorCode::kCancelled);
}

TEST(DisjointRender, RowsMatchPinnedGolden) {
  // render_disjoint_rows is the single formatter behind both the campaign
  // TSV and `analyze --disjoint --csv`; this inline golden pins the row
  // schema so neither caller can drift.  Covers a found pair, a
  // fewer-than-requested pair, and a disconnected pair (best_value -1).
  std::vector<PairDisjointResult> results;
  {
    PairDisjointResult r;
    r.a = topo::HostId{0};
    r.b = topo::HostId{1};
    r.default_value = 100.0;
    r.requested_k = 2;
    r.paths.push_back({60.0, {topo::HostId{2}}});
    r.paths.push_back({123.456789, {topo::HostId{3}, topo::HostId{4}}});
    r.total_weight = 183.456789;
    results.push_back(std::move(r));
  }
  {
    PairDisjointResult r;
    r.a = topo::HostId{0};
    r.b = topo::HostId{2};
    r.default_value = 0.0416666666666667;
    r.requested_k = 2;
    r.paths.push_back({0.25, {topo::HostId{1}}});
    r.total_weight = 0.287682072451781;
    results.push_back(std::move(r));
  }
  {
    PairDisjointResult r;
    r.a = topo::HostId{5};
    r.b = topo::HostId{9};
    r.default_value = 12.5;
    r.requested_k = 2;
    r.total_weight = 0.0;
    results.push_back(std::move(r));
  }

  const std::string tsv = render_disjoint_rows(results, '\t');
  EXPECT_EQ(tsv,
            "a\tb\trequested_k\tfound_k\tdefault_value\tbest_value\t"
            "total_weight\n"
            "0\t1\t2\t2\t100\t60\t183.457\n"
            "0\t2\t2\t1\t0.0416667\t0.25\t0.287682\n"
            "5\t9\t2\t0\t12.5\t-1\t0\n");

  // Same rows, comma separator: only the delimiter may differ.
  const std::string csv = render_disjoint_rows(results, ',');
  std::string swapped = tsv;
  std::replace(swapped.begin(), swapped.end(), '\t', ',');
  EXPECT_EQ(csv, swapped);
}

TEST(DisjointRender, HeaderMatchesPinnedGolden) {
  // The campaign's and the matrix cells' .disjoint.tsv share this line.
  EXPECT_EQ(render_disjoint_header("UW3", DisjointOptions{}, 30),
            "# disjoint alternates: dataset=UW3 mode=link k=2 metric=rtt "
            "min_samples=30\n");
  DisjointOptions loss;
  loss.metric = Metric::kLoss;
  loss.k = 3;
  loss.mode = DisjointMode::kNodeDisjoint;
  EXPECT_EQ(render_disjoint_header("D2-NA", loss, 6),
            "# disjoint alternates: dataset=D2-NA mode=node k=3 metric=loss "
            "min_samples=6\n");
}

TEST(DisjointMetrics, CountersPopulated) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.enable();
  const MetricsSnapshot before = m.snapshot();
  const auto swept =
      compute_disjoint_alternates(triangle_table(), {.k = 1});
  ASSERT_TRUE(swept.is_ok());
  const MetricsSnapshot after = m.snapshot();
  const auto counter = [](const MetricsSnapshot& snap,
                          std::string_view name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  EXPECT_EQ(counter(after, "core.disjoint.sweeps"),
            counter(before, "core.disjoint.sweeps") + 1);
  EXPECT_EQ(counter(after, "core.disjoint.pairs"),
            counter(before, "core.disjoint.pairs") + 3);
}

}  // namespace
}  // namespace pathsel::core
