// Shared pieces of the repository benchmark: run options, the span tracer,
// the result a workload hands back, and small statistics helpers.
//
// The benchmark measures every layer from outside: it times calls into each
// layer's public functions and never instruments the library itself.  A run
// is either untraced (end-to-end metrics) or traced (spans around each call,
// per-layer self time, MetricsRegistry counters); end-to-end numbers always
// come from untraced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; every file the run writes goes
  /// below it.
  std::string work_dir;
  std::string commit = "unknown";
  /// Serve only: run the on-demand update-rate sweep instead of the gated
  /// workload.
  bool sweep = false;
};

// ---- Time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double ms_between(std::uint64_t start_ns,
                                       std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// ---- Statistics -------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// ---- Tracing ----------------------------------------------------------------

/// One timed call: name, start, end, the enclosing span on the same thread
/// (-1 for a top-level span) and the recording thread.  Every span of a run
/// shares the tracer's run id.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t thread = 0;
};

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus time covered by child spans
};

/// Records spans in memory, per thread, and summarises them when the run
/// ends.  Disabled, every Scope is a single branch.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    struct ThreadBuffer* buffer_ = nullptr;
    std::int32_t index_ = -1;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Starts recording; the calling thread becomes the main thread whose
  /// top-level spans the attribution is measured against.
  void start(std::string run_id);
  /// Stops recording and fixes the run's wall time.
  void stop();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Pauses recording without ending the run (used for the untraced
  /// comparison units inside a traced run).
  void set_paused(bool paused) noexcept {
    paused_.store(paused, std::memory_order_relaxed);
  }

  /// Records an already finished span on the calling thread (for work that
  /// ran with recording paused).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Self/total time per span name, over every thread.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Wall time of the run minus the main thread's top-level spans.
  [[nodiscard]] double unattributed_ms() const;
  [[nodiscard]] double wall_ms() const {
    return ms_between(start_ns_, stop_ns_);
  }
  /// Writes every span as one JSON object per line.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] struct ThreadBuffer* buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> paused_{false};
  std::string run_id_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t stop_ns_ = 0;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<struct ThreadBuffer>> buffers_;
};

/// The process-wide tracer the workloads record into.
[[nodiscard]] Tracer& tracer();

/// RAII span on the process-wide tracer.
#define PB_CONCAT_INNER(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT_INNER(a, b)
#define PB_SPAN(name) \
  ::perfbench::Tracer::Scope PB_CONCAT(pb_span_, __LINE__) { ::perfbench::tracer(), name }

// ---- Results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Number of observations the value summarises (1 for a single count).
  std::size_t samples = 1;
};

struct WorkloadResult {
  /// Operations the workload attempted and how many of them failed (a
  /// rejected update, a failed flush, a degraded cell, a failed output
  /// check).  Simulated probe failures are data, not failures.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Descriptions of failed output checks; empty when every check passed.
  std::vector<std::string> check_failures;
  /// Everything the run measured: end-to-end figures in an untraced run,
  /// per-layer figures in a traced one.  run.py keeps the metrics
  /// BENCHMARK.json declares for the mode; the rest are printed only.
  std::map<std::string, Metric> metrics;
  /// MetricsRegistry counters over one counted unit of a traced run.
  std::map<std::string, std::uint64_t> counters;
  /// Thread and worker counts the workload ran with, for the run context.
  std::map<std::string, std::string> context;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      check_failures.push_back(what);
    }
  }
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

// ---- Workloads --------------------------------------------------------------

[[nodiscard]] WorkloadResult run_study(const Options& options);
[[nodiscard]] WorkloadResult run_serve(const Options& options);
[[nodiscard]] WorkloadResult run_whatif(const Options& options);

// ---- Run context ------------------------------------------------------------

/// Times a fixed single-threaded integer loop; recorded next to every result
/// (never used to normalise) so a slow-host run can be told from a
/// regression.
[[nodiscard]] double calibrate_host_ms();

/// nproc, CPU model, compiler, build type, resolved SIMD path.
[[nodiscard]] std::map<std::string, std::string> host_context();

/// Peak resident set of this process (and, with children, of the largest
/// reaped child), in MiB.
[[nodiscard]] double peak_rss_mb(bool include_children);

/// Recreates `path` as an empty directory.
[[nodiscard]] bool fresh_directory(const std::string& path);

/// Per-layer metric helpers over the tracer's totals: self time of `span`
/// divided by `units`, in ms (0 when the span never ran).
[[nodiscard]] double self_ms_per_unit(
    const std::map<std::string, SpanTotals>& totals, const std::string& span,
    double units);

/// Counts one unit of a traced run: start_counting() clears and enables the
/// MetricsRegistry, stop_counting() disables it and returns its counters.
/// The registry stays off everywhere else, so the counters are exact work
/// counts of that unit alone.
void start_counting();
[[nodiscard]] std::map<std::string, std::uint64_t> stop_counting();

/// Pauses the MetricsRegistry for its lifetime (around the benchmark's own
/// checks inside a counted unit).
class RegistryPause {
 public:
  RegistryPause();
  ~RegistryPause();
  RegistryPause(const RegistryPause&) = delete;
  RegistryPause& operator=(const RegistryPause&) = delete;

 private:
  bool was_enabled_;
};

}  // namespace perfbench
