#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

// One thread's spans plus its stack of open span indexes.  Owned by the
// tracer; a thread finds its own buffer through a thread_local pointer.
// start() is called once per process, before any worker thread exists.
struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

namespace {

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local const Tracer* tls_owner = nullptr;

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Tracer::~Tracer() = default;

void Tracer::start(std::string run_id) {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    buffers_.clear();
  }
  tls_buffer = nullptr;
  tls_owner = nullptr;
  run_id_ = std::move(run_id);
  paused_.store(false, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
  start_ns_ = now_ns();
  (void)buffer_for_this_thread();  // the main thread is thread 0
}

void Tracer::stop() {
  stop_ns_ = now_ns();
  enabled_.store(false, std::memory_order_relaxed);
}

ThreadBuffer* Tracer::buffer_for_this_thread() {
  if (tls_owner == this && tls_buffer != nullptr) return tls_buffer;
  const std::lock_guard<std::mutex> lock{mutex_};
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(1 << 12);
  tls_buffer = buffer.get();
  tls_owner = this;
  buffers_.push_back(std::move(buffer));
  return tls_buffer;
}

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.enabled_.load(std::memory_order_relaxed) ||
      t.paused_.load(std::memory_order_relaxed)) {
    return;
  }
  buffer_ = t.buffer_for_this_thread();
  Span s;
  s.name = name;
  s.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  s.thread = buffer_->thread;
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(s);
  buffer_->open.push_back(index_);
  buffer_->spans.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer_->open.pop_back();
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer* buffer = buffer_for_this_thread();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = buffer->open.empty() ? -1 : buffer->open.back();
  s.thread = buffer->thread;
  buffer->spans.push_back(s);
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::map<std::string, SpanTotals> out;
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      SpanTotals& t = out[spans[i].name];
      ++t.calls;
      t.total_ns += dur;
      t.self_ns += dur >= child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

double Tracer::unattributed_ms() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (buffers_.empty()) return wall_ms();
  std::uint64_t top_ns = 0;
  for (const Span& s : buffers_.front()->spans) {
    if (s.parent < 0) top_ns += s.end_ns - s.start_ns;
  }
  const std::uint64_t wall = stop_ns_ - start_ns_;
  return wall >= top_ns ? static_cast<double>(wall - top_ns) / 1e6 : 0.0;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  const std::lock_guard<std::mutex> lock{mutex_};
  char line[512];
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      std::snprintf(line, sizeof line,
                    "{\"run\":\"%s\",\"thread\":%u,\"id\":%zu,\"parent\":%d,"
                    "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                    run_id_.c_str(), s.thread, i, s.parent, s.name,
                    static_cast<unsigned long long>(s.start_ns - start_ns_),
                    static_cast<unsigned long long>(s.end_ns - start_ns_));
      os << line;
    }
  }
  return static_cast<bool>(os);
}

double self_ms_per_unit(const std::map<std::string, SpanTotals>& totals,
                        const std::string& span, double units) {
  const auto it = totals.find(span);
  if (it == totals.end() || units <= 0.0) return 0.0;
  return static_cast<double>(it->second.self_ns) / 1e6 / units;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto idx = static_cast<std::size_t>(rank + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace perfbench
