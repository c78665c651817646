#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/dense_kernel.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

double calibrate_host_ms() {
  // Four independent xorshift chains: no memory traffic, the same
  // instruction stream on every run, and enough instruction-level
  // parallelism that a busy sibling hardware thread or a lower clock shows.
  // Median of three trials, each about 0.1 s on a 4-vCPU Xeon VM.
  std::vector<double> trials;
  for (int t = 0; t < 3; ++t) {
    std::uint64_t x[4] = {0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull,
                          0x94D049BB133111EBull, 0x2545F4914F6CDD1Dull};
    const std::uint64_t start = now_ns();
    for (int i = 0; i < 25'000'000; ++i) {
      for (std::uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
    }
    const std::uint64_t end = now_ns();
    // Publishing the state keeps the loop from being optimised away.
    asm volatile("" : : "r"(x[0] ^ x[1] ^ x[2] ^ x[3]));
    trials.push_back(ms_between(start, end));
  }
  return median(trials);
}

std::map<std::string, std::string> host_context() {
  std::map<std::string, std::string> ctx;
  ctx["nproc"] = std::to_string(std::thread::hardware_concurrency());
  ctx["default_threads"] = std::to_string(pathsel::default_thread_count());
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      ctx["cpu_model"] =
          colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  ctx["compiler"] = PERFBENCH_COMPILER;
  ctx["build_type"] = PERFBENCH_BUILD_TYPE;
  ctx["simd"] = pathsel::core::simd_mode_name(
      pathsel::core::resolve_simd_mode(pathsel::core::SimdMode::kAuto));
  return ctx;
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb = std::max(kb, children.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

bool fresh_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return false;
  return std::filesystem::create_directories(path, ec) && !ec;
}

void start_counting() {
  pathsel::MetricsRegistry::global().reset();
  pathsel::MetricsRegistry::global().enable(true);
}

std::map<std::string, std::uint64_t> stop_counting() {
  pathsel::MetricsRegistry& registry = pathsel::MetricsRegistry::global();
  registry.enable(false);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : registry.snapshot().counters) {
    out[name] = value;
  }
  return out;
}

RegistryPause::RegistryPause()
    : was_enabled_{pathsel::MetricsRegistry::global().enabled()} {
  pathsel::MetricsRegistry::global().enable(false);
}

RegistryPause::~RegistryPause() {
  pathsel::MetricsRegistry::global().enable(was_enabled_);
}

}  // namespace perfbench
