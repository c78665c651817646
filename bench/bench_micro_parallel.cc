// Serial vs. multi-threaded alternate-path sweep and collection.
//
// Measures the end-to-end wall time of analyze_alternate_paths (the O(pairs ×
// Dijkstra) hot loop) and PathTable::build on a dense synthetic mesh, and of
// collecting the catalog's UW3 dataset at the bench scale, at 1, 2, 4 and 8
// threads, printing the speedup over the serial run.  The parallel layer
// guarantees bit-identical output for every thread count, which is
// re-checked here so a speedup can never come from dropped work.
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"

#include "core/alternate.h"
#include "core/path_table.h"
#include "meas/collector.h"
#include "meas/dataset.h"
#include "meas/serialize.h"
#include "util/expect.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace pathsel;

// A full mesh of `host_count` hosts with per-pair RTT levels drawn from a
// seeded Rng — enough edges that one sweep takes a measurable fraction of a
// second at every thread count.
meas::Dataset make_mesh(int host_count, int invocations) {
  meas::Dataset ds;
  ds.name = "parallel-bench-mesh";
  ds.kind = meas::MeasurementKind::kTraceroute;
  ds.duration = Duration::days(1);
  for (int i = 0; i < host_count; ++i) ds.hosts.push_back(topo::HostId{i});
  Rng rng{42};
  for (int i = 0; i < host_count; ++i) {
    for (int j = i + 1; j < host_count; ++j) {
      const double base = rng.lognormal(4.0, 0.6);  // ~30-200 ms levels
      for (int k = 0; k < invocations; ++k) {
        meas::Measurement m;
        m.src = topo::HostId{i};
        m.dst = topo::HostId{j};
        m.completed = true;
        for (auto& s : m.samples) {
          s.lost = rng.bernoulli(0.03);
          s.rtt_ms = base + rng.uniform(0.0, 5.0);
        }
        ds.measurements.push_back(std::move(m));
      }
    }
  }
  return ds;
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool same_results(const std::vector<core::PairResult>& a,
                  const std::vector<core::PairResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].default_value != b[i].default_value ||
        a[i].alternate_value != b[i].alternate_value ||
        a[i].via != b[i].via) {
      return false;
    }
  }
  return true;
}

meas::Dataset collect_at(const meas::MaterializedSpec& spec, int threads) {
  meas::CollectControls controls;
  controls.threads = threads;
  Result<meas::Dataset> ds = meas::collect_resumable(
      *spec.net, spec.hosts, spec.config, spec.name, controls);
  PATHSEL_EXPECT(ds.is_ok(), "uncancellable collection failed");
  return std::move(ds.value());
}

std::string dataset_bytes(const meas::Dataset& ds) {
  std::string bytes;
  meas::write_dataset_chunks(
      ds, [&bytes](std::string_view chunk) { bytes += chunk; });
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "micro_parallel")) return 2;
  namespace bench = pathsel::bench;
  constexpr int kHosts = 96;
  constexpr int kInvocations = 5;
  constexpr int kReps = 3;
  const meas::Dataset ds = make_mesh(kHosts, kInvocations);

  std::printf("==============================================================\n");
  std::printf("micro_parallel: alternate-path sweep, serial vs. threaded\n");
  std::printf("mesh: %d hosts, %zu measurements; hardware threads: %u\n",
              kHosts, ds.measurements.size(), hardware_thread_count());
  std::printf("==============================================================\n");

  core::BuildOptions build_serial;
  build_serial.min_samples = 2;
  build_serial.threads = 1;
  const core::PathTable table = core::PathTable::build(ds, build_serial);
  std::printf("path graph: %zu edges over %zu hosts\n\n", table.edges().size(),
              table.hosts().size());

  core::AnalyzerOptions serial_opt;
  serial_opt.threads = 1;
  const auto serial_results = core::analyze_alternate_paths(table, serial_opt);
  const double serial_sweep_ms = best_of_ms(kReps, [&] {
    (void)core::analyze_alternate_paths(table, serial_opt);
  });
  const double serial_build_ms = best_of_ms(kReps, [&] {
    (void)core::PathTable::build(ds, build_serial);
  });

  meas::Catalog catalog = bench::make_catalog();
  const meas::MaterializedSpec uw3 = catalog.materialize(catalog.spec("UW3"));
  const std::string serial_bytes = dataset_bytes(collect_at(uw3, 1));
  const double serial_collect_ms =
      best_of_ms(kReps, [&] { (void)collect_at(uw3, 1); });

  bench::notef("threads,sweep_ms,sweep_speedup,build_ms,build_speedup,"
               "collect_ms,collect_speedup,identical\n");
  bench::notef("1,%.2f,1.00,%.2f,1.00,%.2f,1.00,yes\n", serial_sweep_ms,
               serial_build_ms, serial_collect_ms);
  for (const int threads : {2, 4, 8}) {
    core::AnalyzerOptions opt;
    opt.threads = threads;
    core::BuildOptions build;
    build.min_samples = 2;
    build.threads = threads;
    const auto results = core::analyze_alternate_paths(table, opt);
    const bool identical = same_results(serial_results, results) &&
                           dataset_bytes(collect_at(uw3, threads)) ==
                               serial_bytes;
    const double sweep_ms = best_of_ms(kReps, [&] {
      (void)core::analyze_alternate_paths(table, opt);
    });
    const double build_ms = best_of_ms(kReps, [&] {
      (void)core::PathTable::build(ds, build);
    });
    const double collect_ms =
        best_of_ms(kReps, [&] { (void)collect_at(uw3, threads); });
    bench::notef("%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%s\n", threads, sweep_ms,
                 serial_sweep_ms / sweep_ms, build_ms,
                 serial_build_ms / build_ms, collect_ms,
                 serial_collect_ms / collect_ms, identical ? "yes" : "NO");
  }
  bench::notef("\nsummary: sweep over %zu pairs, UW3 collection of %zu bytes; "
               "speedup scales with available cores, output bit-identical at "
               "every thread count\n",
               serial_results.size(), serial_bytes.size());
  return pathsel::bench::finish();
}
