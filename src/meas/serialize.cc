#include "meas/serialize.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "util/atomic_io.h"
#include "util/codec.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts: far above anything the collectors
// produce, far below anything that could exhaust memory while "parsing".
constexpr std::size_t kMaxHosts = 1'000'000;
constexpr std::size_t kMaxAsPath = 1024;

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

void write_dataset(std::ostream& os, const Dataset& dataset) {
  os << kDatasetHeader << '\n';
  os << "name " << dataset.name << '\n';
  os << "kind "
     << (dataset.kind == MeasurementKind::kTraceroute ? "traceroute" : "tcp")
     << '\n';
  os << "duration_ms " << dataset.duration.total_millis() << '\n';
  os << "first_sample_loss_only " << (dataset.first_sample_loss_only ? 1 : 0)
     << '\n';
  os << "episodes " << dataset.episode_count << '\n';
  os << "hosts " << dataset.hosts.size();
  for (const auto h : dataset.hosts) os << ' ' << h.value();
  os << '\n';

  for (const auto& m : dataset.measurements) {
    write_measurement(os, m, dataset.kind);
  }
}

void write_measurement(std::ostream& os, const Measurement& m,
                       MeasurementKind kind) {
  os.precision(17);
  os << "m " << m.when.since_start().total_millis() << ' ' << m.src.value()
     << ' ' << m.dst.value() << ' ' << m.episode << ' '
     << (m.completed ? 1 : 0);
  if (kind == MeasurementKind::kTraceroute) {
    for (const auto& s : m.samples) {
      os << ' ' << (s.lost ? 1 : 0) << ' ' << s.rtt_ms;
    }
    os << ' ' << m.as_path.size();
    for (const auto as : m.as_path) os << ' ' << as.value();
  } else {
    os << ' ' << m.bandwidth_kBps << ' ' << m.tcp_rtt_ms << ' '
       << m.tcp_loss_rate;
  }
  // Fault-aware extras; omitted at their defaults so fault-free datasets
  // keep the historical byte stream.
  if (m.failure != FailureReason::kNone) {
    os << " f " << static_cast<int>(m.failure);
  }
  if (m.attempts > 1) {
    os << " a " << static_cast<int>(m.attempts);
  }
  os << '\n';
}

std::optional<Dataset> read_dataset(std::istream& is, std::string* error) {
  std::string line;
  auto next_line = [&is, &line]() -> bool {
    return static_cast<bool>(std::getline(is, line));
  };

  if (!next_line() || line != kDatasetHeader) {
    fail(error, "missing or unsupported header");
    return std::nullopt;
  }

  Dataset ds;
  // Fixed header block in order.
  auto expect_field = [&](const char* key, std::string& value) -> bool {
    if (!next_line()) return fail(error, std::string("missing field ") + key);
    std::istringstream ls{line};
    std::string k;
    ls >> k;
    if (k != key) return fail(error, std::string("expected field ") + key);
    std::getline(ls, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    return true;
  };

  std::string value;
  if (!expect_field("name", value)) return std::nullopt;
  ds.name = value;
  if (!expect_field("kind", value)) return std::nullopt;
  if (value == "traceroute") {
    ds.kind = MeasurementKind::kTraceroute;
  } else if (value == "tcp") {
    ds.kind = MeasurementKind::kTcpTransfer;
  } else {
    fail(error, "unknown kind: " + value);
    return std::nullopt;
  }
  std::int64_t parsed = 0;
  if (!expect_field("duration_ms", value)) return std::nullopt;
  if (!codec::parse_i64(value, parsed) || parsed < 0) {
    fail(error, "invalid duration_ms: " + value);
    return std::nullopt;
  }
  ds.duration = Duration::millis(parsed);
  if (!expect_field("first_sample_loss_only", value)) return std::nullopt;
  if (value != "0" && value != "1") {
    fail(error, "invalid first_sample_loss_only: " + value);
    return std::nullopt;
  }
  ds.first_sample_loss_only = value == "1";
  if (!expect_field("episodes", value)) return std::nullopt;
  if (!codec::parse_i64(value, parsed) || parsed < 0 ||
      parsed > std::numeric_limits<std::int32_t>::max()) {
    fail(error, "invalid episodes: " + value);
    return std::nullopt;
  }
  ds.episode_count = static_cast<std::int32_t>(parsed);

  if (!next_line()) {
    fail(error, "missing hosts line");
    return std::nullopt;
  }
  std::unordered_set<std::int32_t> host_ids;
  {
    std::istringstream ls{line};
    std::string key;
    std::size_t count = 0;
    if (!(ls >> key >> count) || key != "hosts") {
      fail(error, "malformed hosts line");
      return std::nullopt;
    }
    if (count > kMaxHosts) {
      fail(error, "hosts count out of range");
      return std::nullopt;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      if (!(ls >> id)) {
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
    if (ls >> value) {
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
  while (next_line()) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    std::string tag;
    ls >> tag;
    if (tag != "m") {
      fail(error, "unexpected line: " + line);
      return std::nullopt;
    }
    Measurement m;
    if (!parse_measurement(line, ds.kind, &host_ids, m, error)) {
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
  return ds;
}

bool parse_measurement(const std::string& line, MeasurementKind kind,
                       const std::unordered_set<std::int32_t>* declared_hosts,
                       Measurement& out, std::string* error) {
  std::istringstream ls{line};
  std::string tag;
  ls >> tag;
  if (tag != "m") {
    return fail(error, "malformed measurement line: " + line);
  }
  Measurement m;
  std::int64_t when_ms = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  int completed = 0;
  if (!(ls >> when_ms >> src >> dst >> m.episode >> completed)) {
    return fail(error, "malformed measurement line: " + line);
  }
  if (when_ms < 0) {
    return fail(error, "negative measurement time: " + line);
  }
  if (declared_hosts != nullptr &&
      (!declared_hosts->contains(src) || !declared_hosts->contains(dst))) {
    return fail(error, "measurement references undeclared host: " + line);
  }
  if (src < 0 || dst < 0) {
    return fail(error, "negative host id: " + line);
  }
  if (src == dst) {
    return fail(error, "measurement with src == dst: " + line);
  }
  if (m.episode < -1 || completed < 0 || completed > 1) {
    return fail(error, "malformed measurement line: " + line);
  }
  m.when = SimTime::at(Duration::millis(when_ms));
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.completed = completed != 0;
  if (kind == MeasurementKind::kTraceroute) {
    for (auto& s : m.samples) {
      int lost = 0;
      if (!(ls >> lost >> s.rtt_ms)) {
        return fail(error, "malformed traceroute samples: " + line);
      }
      if (lost < 0 || lost > 1 || !finite_nonneg(s.rtt_ms)) {
        return fail(error, "sample out of range: " + line);
      }
      s.lost = lost != 0;
    }
    std::size_t as_count = 0;
    if (!(ls >> as_count)) {
      return fail(error, "missing AS path length: " + line);
    }
    if (as_count > kMaxAsPath) {
      return fail(error, "AS path length out of range: " + line);
    }
    for (std::size_t i = 0; i < as_count; ++i) {
      std::int32_t as = 0;
      if (!(ls >> as)) {
        return fail(error, "AS path shorter than its count: " + line);
      }
      if (as < 0) {
        return fail(error, "negative AS id: " + line);
      }
      m.as_path.push_back(topo::AsId{as});
    }
  } else {
    if (!(ls >> m.bandwidth_kBps >> m.tcp_rtt_ms >> m.tcp_loss_rate)) {
      return fail(error, "malformed transfer fields: " + line);
    }
    if (!finite_nonneg(m.bandwidth_kBps) || !finite_nonneg(m.tcp_rtt_ms) ||
        !finite_nonneg(m.tcp_loss_rate) || m.tcp_loss_rate > 1.0) {
      return fail(error, "transfer fields out of range: " + line);
    }
  }
  // Optional fault-aware tokens, each at most once, in any order.
  bool saw_failure = false;
  bool saw_attempts = false;
  std::string token;
  while (ls >> token) {
    std::int64_t v = 0;
    std::string arg;
    if (!(ls >> arg) || !codec::parse_i64(arg, v)) {
      return fail(error, "malformed trailing token: " + line);
    }
    if (token == "f" && !saw_failure) {
      if (v < 1 || v >= static_cast<std::int64_t>(kFailureReasonCount)) {
        return fail(error, "failure reason out of range: " + line);
      }
      if (m.completed) {
        return fail(error, "completed measurement with a failure reason: " + line);
      }
      m.failure = static_cast<FailureReason>(v);
      saw_failure = true;
    } else if (token == "a" && !saw_attempts) {
      if (v < 1 || v > 255) {
        return fail(error, "attempts out of range: " + line);
      }
      m.attempts = static_cast<std::uint8_t>(v);
      saw_attempts = true;
    } else {
      return fail(error, "unexpected trailing token: " + line);
    }
  }
  out = std::move(m);
  return true;
}

Result<Dataset> load_dataset(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.is_ok()) return text.status();
  std::istringstream is{text.value()};
  std::string error;
  std::optional<Dataset> ds = read_dataset(is, &error);
  if (!ds.has_value()) {
    return Status::error(ErrorCode::kParseError, path + ": " + error);
  }
  return std::move(*ds);
}

Status save_dataset(const std::string& path, const Dataset& dataset) {
  std::ostringstream os;
  write_dataset(os, dataset);
  return write_file_atomic(path, os.str());
}

}  // namespace pathsel::meas
