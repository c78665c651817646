#include "meas/serialize.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_set>

#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/metrics.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts: far above anything the collectors
// produce, far below anything that could exhaust memory while "parsing".
constexpr std::size_t kMaxHosts = 1'000'000;
constexpr std::size_t kMaxAsPath = 1024;

// write_dataset_chunks hands its sink about this much text at a time.
constexpr std::size_t kWriteChunk = 64 * 1024;

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

// ---- writer ---------------------------------------------------------------

using codec::append_field;

void append_header(std::string& out, const Dataset& dataset) {
  out += kDatasetHeader;
  out += '\n';
  codec::append_line(out, "name", dataset.name);
  codec::append_line(out, "kind",
                     dataset.kind == MeasurementKind::kTraceroute
                         ? "traceroute"
                         : "tcp");
  codec::append_line(out, "duration_ms", dataset.duration.total_millis());
  codec::append_line(out, "first_sample_loss_only",
                     dataset.first_sample_loss_only ? 1 : 0);
  codec::append_line(out, "episodes", dataset.episode_count);
  out += "hosts";
  append_field(out, dataset.hosts.size());
  for (const auto h : dataset.hosts) append_field(out, h.value());
  out += '\n';
}

// ---- reader ---------------------------------------------------------------

using codec::Tokens;

// Parses the fields after a row's "m" tag.  `line` is the whole row, for
// error messages.
bool parse_row(Tokens& ls, std::string_view line, MeasurementKind kind,
               const std::unordered_set<std::int32_t>* declared_hosts,
               Measurement& out, std::string* error) {
  auto reject = [&](const char* what) {
    return fail(error, what + std::string{line});
  };
  Measurement m;
  std::int64_t when_ms = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  int completed = 0;
  if (!ls.next_int(when_ms) || !ls.next_int(src) || !ls.next_int(dst) ||
      !ls.next_int(m.episode) || !ls.next_int(completed)) {
    return reject("malformed measurement line: ");
  }
  if (when_ms < 0) return reject("negative measurement time: ");
  if (declared_hosts != nullptr &&
      (!declared_hosts->contains(src) || !declared_hosts->contains(dst))) {
    return reject("measurement references undeclared host: ");
  }
  if (src < 0 || dst < 0) return reject("negative host id: ");
  if (src == dst) return reject("measurement with src == dst: ");
  if (m.episode < -1 || completed < 0 || completed > 1) {
    return reject("malformed measurement line: ");
  }
  m.when = SimTime::at(Duration::millis(when_ms));
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.completed = completed != 0;
  if (kind == MeasurementKind::kTraceroute) {
    for (auto& s : m.samples) {
      int lost = 0;
      if (!ls.next_int(lost) || !ls.next_real(s.rtt_ms)) {
        return reject("malformed traceroute samples: ");
      }
      if (lost < 0 || lost > 1 || !finite_nonneg(s.rtt_ms)) {
        return reject("sample out of range: ");
      }
      s.lost = lost != 0;
    }
    std::int64_t as_count = 0;
    if (!ls.next_int(as_count)) return reject("missing AS path length: ");
    if (as_count < 0 || as_count > static_cast<std::int64_t>(kMaxAsPath)) {
      return reject("AS path length out of range: ");
    }
    m.as_path.reserve(static_cast<std::size_t>(as_count));
    for (std::int64_t i = 0; i < as_count; ++i) {
      std::int32_t as = 0;
      if (!ls.next_int(as)) return reject("AS path shorter than its count: ");
      if (as < 0) return reject("negative AS id: ");
      m.as_path.push_back(topo::AsId{as});
    }
  } else {
    if (!ls.next_real(m.bandwidth_kBps) || !ls.next_real(m.tcp_rtt_ms) ||
        !ls.next_real(m.tcp_loss_rate)) {
      return reject("malformed transfer fields: ");
    }
    if (!finite_nonneg(m.bandwidth_kBps) || !finite_nonneg(m.tcp_rtt_ms) ||
        !finite_nonneg(m.tcp_loss_rate) || m.tcp_loss_rate > 1.0) {
      return reject("transfer fields out of range: ");
    }
  }
  // Optional fault-aware tokens, each at most once, in any order.
  bool saw_failure = false;
  bool saw_attempts = false;
  for (std::string_view token = ls.next(); !token.empty(); token = ls.next()) {
    std::int64_t v = 0;
    if (!ls.next_int(v)) return reject("malformed trailing token: ");
    if (token == "f" && !saw_failure) {
      if (v < 1 || v >= static_cast<std::int64_t>(kFailureReasonCount)) {
        return reject("failure reason out of range: ");
      }
      if (m.completed) {
        return reject("completed measurement with a failure reason: ");
      }
      m.failure = static_cast<FailureReason>(v);
      saw_failure = true;
    } else if (token == "a" && !saw_attempts) {
      if (v < 1 || v > 255) return reject("attempts out of range: ");
      m.attempts = static_cast<std::uint8_t>(v);
      saw_attempts = true;
    } else {
      return reject("unexpected trailing token: ");
    }
  }
  out = std::move(m);
  return true;
}

// Parses a dataset from the lines `read_line(std::string_view&)` yields, in
// the order and with the line breaks std::getline would give.
template <typename NextLine>
std::optional<Dataset> parse_dataset(NextLine&& read_line, std::string* error) {
  ScopedTimer timer{"meas.dataset.read"};
  std::uint64_t bytes = 0;  // line bytes plus one newline each
  auto next_line = [&](std::string_view& l) {
    if (!read_line(l)) return false;
    bytes += l.size() + 1;
    return true;
  };
  std::string_view line;
  if (!next_line(line) || line != kDatasetHeader) {
    fail(error, "missing or unsupported header");
    return std::nullopt;
  }

  Dataset ds;
  // Fixed header block in order.
  auto expect_field = [&](const char* key, std::string_view& value) -> bool {
    if (!next_line(line)) return fail(error, std::string("missing field ") + key);
    if (!codec::split_field(line, key, value)) {
      return fail(error, std::string("expected field ") + key);
    }
    return true;
  };

  std::string_view value;
  if (!expect_field("name", value)) return std::nullopt;
  ds.name = value;
  if (!expect_field("kind", value)) return std::nullopt;
  if (value == "traceroute") {
    ds.kind = MeasurementKind::kTraceroute;
  } else if (value == "tcp") {
    ds.kind = MeasurementKind::kTcpTransfer;
  } else {
    fail(error, "unknown kind: " + std::string{value});
    return std::nullopt;
  }
  std::int64_t parsed = 0;
  if (!expect_field("duration_ms", value)) return std::nullopt;
  if (!codec::parse_i64(value, parsed) || parsed < 0) {
    fail(error, "invalid duration_ms: " + std::string{value});
    return std::nullopt;
  }
  ds.duration = Duration::millis(parsed);
  if (!expect_field("first_sample_loss_only", value)) return std::nullopt;
  if (value != "0" && value != "1") {
    fail(error, "invalid first_sample_loss_only: " + std::string{value});
    return std::nullopt;
  }
  ds.first_sample_loss_only = value == "1";
  if (!expect_field("episodes", value)) return std::nullopt;
  if (!codec::parse_i64(value, parsed) || parsed < 0 ||
      parsed > std::numeric_limits<std::int32_t>::max()) {
    fail(error, "invalid episodes: " + std::string{value});
    return std::nullopt;
  }
  ds.episode_count = static_cast<std::int32_t>(parsed);

  if (!next_line(line)) {
    fail(error, "missing hosts line");
    return std::nullopt;
  }
  std::unordered_set<std::int32_t> host_ids;
  {
    Tokens ls{line};
    std::int64_t count = 0;
    if (ls.next() != "hosts" || !ls.next_int(count)) {
      fail(error, "malformed hosts line");
      return std::nullopt;
    }
    if (count < 0 || count > static_cast<std::int64_t>(kMaxHosts)) {
      fail(error, "hosts count out of range");
      return std::nullopt;
    }
    for (std::int64_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      if (!ls.next_int(id)) {
        fail(error, "hosts line shorter than its count");
        return std::nullopt;
      }
      if (id < 0) {
        fail(error, "negative host id");
        return std::nullopt;
      }
      if (!host_ids.insert(id).second) {
        fail(error, "duplicate host id");
        return std::nullopt;
      }
      ds.hosts.push_back(topo::HostId{id});
    }
    if (!ls.next().empty()) {
      fail(error, "trailing tokens on hosts line");
      return std::nullopt;
    }
  }

  // Fault-aware campaigns (meas/collector with a FaultPlan or retries) stamp
  // a reason onto every failed row; legacy fault-free campaigns stamp
  // nothing.  Mixing the two within one file can only come from corruption
  // (a torn rewrite, spliced runs), so it is rejected after the scan.
  bool any_fault_token = false;
  bool any_failed_without_reason = false;
  while (next_line(line)) {
    if (line.empty()) continue;
    Tokens ls{line};
    if (ls.next() != "m") {
      fail(error, "unexpected line: " + std::string{line});
      return std::nullopt;
    }
    Measurement m;
    if (!parse_row(ls, line, ds.kind, &host_ids, m, error)) {
      return std::nullopt;
    }
    if (m.failure != FailureReason::kNone || m.attempts > 1) {
      any_fault_token = true;
    }
    if (!m.completed && m.failure == FailureReason::kNone) {
      any_failed_without_reason = true;
    }
    ds.measurements.push_back(std::move(m));
  }
  if (any_fault_token && any_failed_without_reason) {
    fail(error,
         "fault-aware dataset has failed measurements without a failure "
         "reason (file mixes fault-aware and legacy rows)");
    return std::nullopt;
  }
  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.count("meas.dataset.records_read", ds.measurements.size());
  metrics.count("meas.dataset.bytes_read", bytes);
  return ds;
}

// parse_dataset over text in memory.
std::optional<Dataset> parse_dataset_text(std::string_view text,
                                          std::string* error) {
  codec::Lines lines{text};
  return parse_dataset(
      [&lines](std::string_view& line) { return lines.next(line); }, error);
}

}  // namespace

void append_measurement(std::string& out, const Measurement& m,
                        MeasurementKind kind) {
  out += 'm';
  append_field(out, m.when.since_start().total_millis());
  append_field(out, m.src.value());
  append_field(out, m.dst.value());
  append_field(out, m.episode);
  append_field(out, m.completed ? 1 : 0);
  if (kind == MeasurementKind::kTraceroute) {
    for (const auto& s : m.samples) {
      append_field(out, s.lost ? 1 : 0);
      append_field(out, s.rtt_ms);
    }
    append_field(out, m.as_path.size());
    for (const auto as : m.as_path) append_field(out, as.value());
  } else {
    append_field(out, m.bandwidth_kBps);
    append_field(out, m.tcp_rtt_ms);
    append_field(out, m.tcp_loss_rate);
  }
  // Fault-aware extras; omitted at their defaults so fault-free datasets
  // keep the historical byte stream.
  if (m.failure != FailureReason::kNone) {
    out += " f";
    append_field(out, static_cast<int>(m.failure));
  }
  if (m.attempts > 1) {
    out += " a";
    append_field(out, static_cast<int>(m.attempts));
  }
  out += '\n';
}

void write_dataset_chunks(
    const Dataset& dataset,
    const std::function<void(std::string_view)>& sink) {
  ScopedTimer timer{"meas.dataset.write"};
  std::string buf;
  buf.reserve(kWriteChunk + kWriteChunk / 4);
  std::uint64_t bytes = 0;
  auto flush = [&] {
    bytes += buf.size();
    sink(buf);
    buf.clear();
  };
  append_header(buf, dataset);
  for (const auto& m : dataset.measurements) {
    append_measurement(buf, m, dataset.kind);
    if (buf.size() >= kWriteChunk) flush();
  }
  flush();
  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.count("meas.dataset.records_written", dataset.measurements.size());
  metrics.count("meas.dataset.bytes_written", bytes);
}

void write_dataset(std::ostream& os, const Dataset& dataset) {
  write_dataset_chunks(dataset, [&os](std::string_view text) {
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
}

std::optional<Dataset> read_dataset(std::istream& is, std::string* error) {
  std::string buf;
  return parse_dataset(
      [&is, &buf](std::string_view& line) {
        if (!std::getline(is, buf)) return false;
        line = buf;
        return true;
      },
      error);
}

bool parse_measurement(std::string_view line, MeasurementKind kind,
                       const std::unordered_set<std::int32_t>* declared_hosts,
                       Measurement& out, std::string* error) {
  Tokens ls{line};
  if (ls.next() != "m") {
    return fail(error, "malformed measurement line: " + std::string{line});
  }
  return parse_row(ls, line, kind, declared_hosts, out, error);
}

Result<Dataset> load_dataset(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.is_ok()) return text.status();
  std::string error;
  std::optional<Dataset> ds = parse_dataset_text(text.value(), &error);
  if (!ds.has_value()) {
    return Status::error(ErrorCode::kParseError, path + ": " + error);
  }
  return std::move(*ds);
}

Status save_dataset(const std::string& path, const Dataset& dataset) {
  std::string text;
  write_dataset_chunks(dataset, [&text](std::string_view chunk) {
    text += chunk;
  });
  return write_file_atomic(path, text);
}

}  // namespace pathsel::meas
