// Online serving throughput and latency: how fast does the serve engine
// fold incremental updates, and how quickly does it answer while updating?
//
// Builds a ServeEngine over the UW3 dataset (no journal: the fsync'd write
// path is covered by the crash-safety tests; gating CI on disk latency
// would measure the runner, not the code), then drives three deterministic
// phases: update rounds over every measured pair with a flush barrier per
// round (updates/sec, incremental recompute cost), single-reader query
// sweeps over every pair and both metrics (p50/p99/max lock-free read
// latency), and a concurrent sweep with four reader threads racing the
// writer.  A small disjoint batch exercises the budgeted Suurballe path,
// including deterministic zero-budget timeouts.
//
// Every core.serve.* counter in the --json report is exact for a fixed
// (seed, scale): accepted == applied, shed == 0, query counts are closed
// formulas — the perf gate compares them verbatim, so a silently changed
// work profile fails even when the timings look fine.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"
#include "serve/engine.h"

namespace pathsel {
namespace {

constexpr int kUpdateRounds = 6;
constexpr int kQueryRounds = 8;
constexpr std::size_t kConcurrentReaders = 4;
constexpr std::size_t kDisjointQueries = 48;
constexpr std::size_t kDeadlineQueries = 8;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

void run() {
  bench::print_experiment_header(
      "Serve engine", "online updates + lock-free queries over UW3",
      "served answers stay bit-identical to batch recomputation (pinned by "
      "the differential tests) while updates fold in at O(rows-touched) "
      "instead of O(N^3) and reads stay lock-free");

  meas::Catalog catalog = bench::make_catalog();
  const meas::Dataset& ds = catalog.by_name("UW3");

  serve::ServeOptions options;
  options.build.min_samples = bench::scaled_min_samples();
  const auto build_start = Clock::now();
  Result<std::unique_ptr<serve::ServeEngine>> created =
      serve::ServeEngine::create(ds, options);
  if (!created.is_ok()) {
    bench::notef("engine build failed: %s\n",
                 created.status().to_string().c_str());
    return;
  }
  serve::ServeEngine& engine = *created.value();
  const double build_ms = ms_since(build_start);

  // The measured pair list drives both updates and queries, in edges() order.
  const core::PathTable table = core::PathTable::build(ds, options.build);
  std::vector<std::pair<topo::HostId, topo::HostId>> pairs;
  pairs.reserve(table.edges().size());
  for (const core::PathEdge& e : table.edges()) pairs.emplace_back(e.a, e.b);
  bench::notef("serving %zu measured pairs over %zu hosts (build %.1f ms)\n",
               pairs.size(), table.hosts().size(), build_ms);

  // --- Update rounds: every pair gets one new probe, then a flush barrier.
  const auto update_start = Clock::now();
  for (int round = 0; round < kUpdateRounds; ++round) {
    std::size_t i = 0;
    for (const auto& [a, b] : pairs) {
      serve::EdgeUpdate u;
      u.a = a;
      u.b = b;
      u.rtt_ms = 20.0 + static_cast<double>((i * 7 + static_cast<std::size_t>(
                                                         round) * 13) %
                                            200);
      u.lost = (i + static_cast<std::size_t>(round)) % 17 == 0;
      if (Status s = engine.submit(u); !s.is_ok()) {
        bench::notef("unexpected rejection: %s\n", s.to_string().c_str());
        return;
      }
      ++i;
    }
    if (Status s = engine.flush(); !s.is_ok()) {
      bench::notef("flush failed: %s\n", s.to_string().c_str());
      return;
    }
  }
  const double update_ms = ms_since(update_start);
  const std::size_t updates =
      pairs.size() * static_cast<std::size_t>(kUpdateRounds);
  bench::notef("updates: %zu applied in %.1f ms (%.0f updates/sec, "
               "%d flush barriers)\n",
               updates, update_ms, 1e3 * static_cast<double>(updates) /
                                       (update_ms > 0.0 ? update_ms : 1.0),
               kUpdateRounds);

  // --- Single-reader query latency over every pair, both metrics.
  std::vector<double> best_us;
  best_us.reserve(pairs.size() * 2 * static_cast<std::size_t>(kQueryRounds));
  for (int round = 0; round < kQueryRounds; ++round) {
    for (const core::Metric metric :
         {core::Metric::kRtt, core::Metric::kLoss}) {
      for (const auto& [a, b] : pairs) {
        const auto q = Clock::now();
        const serve::BestResponse r = engine.query_best(metric, a, b, 0);
        best_us.push_back(1e3 * ms_since(q));
        if (r.kind != serve::BestResponse::Kind::kOk &&
            r.kind != serve::BestResponse::Kind::kNoAlternate) {
          bench::notef("unexpected query kind for (%d, %d)\n", a.value(),
                       b.value());
          return;
        }
      }
    }
  }
  std::sort(best_us.begin(), best_us.end());

  // --- Budgeted disjoint queries, plus deterministic zero-budget timeouts.
  std::vector<double> disjoint_us;
  disjoint_us.reserve(kDisjointQueries);
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / kDisjointQueries);
  std::size_t issued = 0;
  for (std::size_t i = 0; i < pairs.size() && issued < kDisjointQueries;
       i += stride, ++issued) {
    const auto q = Clock::now();
    (void)engine.query_disjoint(core::Metric::kRtt, 2, pairs[i].first,
                                pairs[i].second, 0, -1.0);
    disjoint_us.push_back(1e3 * ms_since(q));
  }
  for (std::size_t i = 0; i < kDeadlineQueries; ++i) {
    (void)engine.query_disjoint(core::Metric::kRtt, 2, pairs[0].first,
                                pairs[0].second, 0, 0.0);
  }
  std::sort(disjoint_us.begin(), disjoint_us.end());

  Table latency{"serve query latency (UW3, microseconds)"};
  latency.set_header({"query", "count", "p50", "p99", "max"});
  latency.add_row({"best (both metrics)", std::to_string(best_us.size()),
                   Table::fmt(percentile(best_us, 0.50), 2),
                   Table::fmt(percentile(best_us, 0.99), 2),
                   Table::fmt(best_us.empty() ? 0.0 : best_us.back(), 2)});
  latency.add_row({"disjoint k=2", std::to_string(disjoint_us.size()),
                   Table::fmt(percentile(disjoint_us, 0.50), 2),
                   Table::fmt(percentile(disjoint_us, 0.99), 2),
                   Table::fmt(disjoint_us.empty() ? 0.0 : disjoint_us.back(),
                              2)});
  bench::emit(latency);

  // --- Concurrent readers racing the writer: one more update round while
  // four reader threads sweep every pair.  Fixed per-thread work keeps the
  // query counters exact; the wall time shows reads don't block on writes.
  const auto race_start = Clock::now();
  std::vector<std::thread> readers;
  readers.reserve(kConcurrentReaders);
  for (std::size_t slot = 0; slot < kConcurrentReaders; ++slot) {
    readers.emplace_back([&engine, &pairs, slot] {
      for (int round = 0; round < kQueryRounds; ++round) {
        for (const auto& [a, b] : pairs) {
          (void)engine.query_best(core::Metric::kRtt, a, b, slot + 1);
        }
      }
    });
  }
  std::size_t i = 0;
  for (const auto& [a, b] : pairs) {
    serve::EdgeUpdate u;
    u.a = a;
    u.b = b;
    u.rtt_ms = 30.0 + static_cast<double>(i % 100);
    (void)engine.submit(u);
    ++i;
  }
  (void)engine.flush();
  for (std::thread& t : readers) t.join();
  const double race_ms = ms_since(race_start);
  const std::size_t race_queries =
      kConcurrentReaders * static_cast<std::size_t>(kQueryRounds) *
      pairs.size();
  bench::notef("concurrent sweep: %zu queries across %zu readers + 1 update "
               "round in %.1f ms (%.0f queries/sec)\n",
               race_queries, kConcurrentReaders, race_ms,
               1e3 * static_cast<double>(race_queries) /
                   (race_ms > 0.0 ? race_ms : 1.0));

  const serve::ServeCounters counters = engine.counters();
  bench::notef("counters: %llu accepted, %llu applied, %llu shed, "
               "%llu snapshots, %llu best, %llu disjoint, %llu timeouts\n",
               static_cast<unsigned long long>(counters.updates_accepted),
               static_cast<unsigned long long>(counters.updates_applied),
               static_cast<unsigned long long>(counters.updates_shed),
               static_cast<unsigned long long>(counters.snapshots_published),
               static_cast<unsigned long long>(counters.queries_best),
               static_cast<unsigned long long>(counters.queries_disjoint),
               static_cast<unsigned long long>(counters.query_timeouts));
  engine.sync_metrics();  // exact core.serve.* counters into the report
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "serve")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
