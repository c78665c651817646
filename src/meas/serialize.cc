#include "meas/serialize.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/metrics.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts: far above anything the collectors
// produce, far below anything that could exhaust memory while "parsing".
constexpr std::size_t kMaxHosts = 1'000'000;
constexpr std::size_t kMaxAsPath = 1024;

// write_dataset_chunks hands its sink about this much text at a time, and
// the read_dataset stream adapter reads blocks of this size.
constexpr std::size_t kChunk = 64 * 1024;

// Longest row text apart from its AS path: the tag, five integers, three
// (lost, rtt) pairs or three transfer reals, the fault-aware extras and the
// newline.
constexpr std::size_t kMaxRowText =
    1 + 5 * 21 + 3 * (3 + codec::kMaxRealText) + 16;

// Fewest bytes a valid row of either kind takes ("m 0 0 1 0 0 0 0 0\n" for
// tcp): a cap on the rows a text of a given size can hold.
constexpr std::size_t kMinRowBytes = 18;

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

// A row's AS path fields, " <n> <as>...".
void append_path(std::string& out, std::span<const topo::AsId> path) {
  append_field(out, path.size());
  for (const auto as : path) append_field(out, as.value());
}

template <typename Int>
char* put_int(char* p, Int v) {
  *p++ = ' ';
  return std::to_chars(p, p + 20, v).ptr;
}

char* put_real(char* p, double v) {
  *p++ = ' ';
  return codec::format_real(p, v);
}

// Writes one row at `p`, which has room for kMaxRowText + path.size()
// characters; `path` is the row's AS path text (traceroute rows only).
char* format_row(char* p, const Measurement& m, MeasurementKind kind,
                 std::string_view path) {
  *p++ = 'm';
  p = put_int(p, m.when.since_start().total_millis());
  p = put_int(p, m.src.value());
  p = put_int(p, m.dst.value());
  p = put_int(p, m.episode);
  *p++ = ' ';
  *p++ = m.completed ? '1' : '0';
  if (kind == MeasurementKind::kTraceroute) {
    for (const auto& s : m.samples) {
      *p++ = ' ';
      *p++ = s.lost ? '1' : '0';
      p = put_real(p, s.rtt_ms);
    }
    std::memcpy(p, path.data(), path.size());
    p += path.size();
  } else {
    p = put_real(p, m.bandwidth_kBps);
    p = put_real(p, m.tcp_rtt_ms);
    p = put_real(p, m.tcp_loss_rate);
  }
  // Fault-aware extras; omitted at their defaults so fault-free datasets
  // keep the historical byte stream.
  if (m.failure != FailureReason::kNone) {
    *p++ = ' ';
    *p++ = 'f';
    p = put_int(p, static_cast<int>(m.failure));
  }
  if (m.attempts > 1) {
    *p++ = ' ';
    *p++ = 'a';
    p = put_int(p, static_cast<int>(m.attempts));
  }
  *p++ = '\n';
  return p;
}

// The row text of every path in a pool, formatted once per write.
class PathTexts {
 public:
  explicit PathTexts(const AsPathPool& pool) {
    begins_.reserve(pool.size() + 1);
    for (AsPathId id = 0; id < pool.size(); ++id) {
      begins_.push_back(text_.size());
      const std::size_t before = text_.size();
      append_path(text_, pool.at(id));
      longest_ = std::max(longest_, text_.size() - before);
    }
    begins_.push_back(text_.size());
  }

  std::string_view operator[](AsPathId id) const {
    return std::string_view{text_}.substr(begins_[id],
                                          begins_[id + 1] - begins_[id]);
  }
  [[nodiscard]] std::size_t longest() const noexcept { return longest_; }

 private:
  std::string text_;
  std::vector<std::size_t> begins_;
  std::size_t longest_ = 0;
};

// ---- reader ---------------------------------------------------------------

using codec::Tokens;

// The host ids a dataset declares: a bitmap over [0, max id] when that is
// not much larger than the list, a sorted list otherwise.
class HostSet {
 public:
  explicit HostSet(const std::vector<topo::HostId>& hosts) {
    std::int32_t top = -1;
    for (const auto h : hosts) top = std::max(top, h.value());
    const auto span = static_cast<std::size_t>(top) + 1;
    if (span <= std::max<std::size_t>(1 << 16, 64 * hosts.size())) {
      bits_.assign((span + 63) / 64, 0);
      for (const auto h : hosts) {
        bits_[h.index() / 64] |= std::uint64_t{1} << (h.index() % 64);
      }
    } else {
      sorted_.reserve(hosts.size());
      for (const auto h : hosts) sorted_.push_back(h.value());
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    if (id < 0) return false;
    if (!sorted_.empty()) {
      return std::binary_search(sorted_.begin(), sorted_.end(), id);
    }
    const auto i = static_cast<std::size_t>(id);
    return i / 64 < bits_.size() && ((bits_[i / 64] >> (i % 64)) & 1) != 0;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::int32_t> sorted_;
};

// Parses the fields after a row's "m" tag into `m`, a default-constructed
// row.  `line` is the whole row, for error messages; `hosts` (nullable)
// restricts src/dst to declared ids; `ases` is scratch for the AS path.
bool parse_row(Tokens& ls, std::string_view line, MeasurementKind kind,
               const HostSet* hosts, AsPathPool& paths,
               std::vector<topo::AsId>& ases, Measurement& m,
               std::string* error) {
  auto reject = [&](const char* what) {
    return fail(error, what + std::string{line});
  };
  std::int64_t when_ms = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  int completed = 0;
  if (!ls.next_int(when_ms) || !ls.next_int(src) || !ls.next_int(dst) ||
      !ls.next_int(m.episode) || !ls.next_int(completed)) {
    return reject("malformed measurement line: ");
  }
  if (when_ms < 0) return reject("negative measurement time: ");
  if (hosts != nullptr && (!hosts->contains(src) || !hosts->contains(dst))) {
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
    ases.clear();
    for (std::int64_t i = 0; i < as_count; ++i) {
      std::int32_t as = 0;
      if (!ls.next_int(as)) return reject("AS path shorter than its count: ");
      if (as < 0) return reject("negative AS id: ");
      ases.push_back(topo::AsId{as});
    }
    m.path = paths.intern(ases);
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
  return true;
}

constexpr std::uint64_t kPow10[] = {
    1, 10, 100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000};

// How many decimal digits start the 8 bytes at `p`, with their value in
// `value`: one little-endian load and no branch per digit.
int leading_digits8(const char* p, std::uint64_t& value) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  // Digit bytes become 0..9.  A byte is not a digit when it is >= 10, which
  // adding 0x76 to its low seven bits (no carry out) or its own top bit
  // shows in bit 7.
  const std::uint64_t t = w ^ 0x3030303030303030ULL;
  const std::uint64_t stop =
      (t | ((t & 0x7f7f7f7f7f7f7f7fULL) + 0x7676767676767676ULL)) &
      0x8080808080808080ULL;
  const int n = stop == 0 ? 8 : std::countr_zero(stop) / 8;
  if (n == 0) {
    value = 0;
    return 0;
  }
  // The digits move to the top bytes, so the bytes below read as leading
  // zeros; then pairs, quads and octets of digits combine.
  std::uint64_t v = t << (8 * (8 - n));
  v = (v * 10 + (v >> 8)) & 0x00ff00ff00ff00ffULL;
  v = (v * 100 + (v >> 16)) & 0x0000ffff0000ffffULL;
  value = (v * 10000 + (v >> 32)) & 0xffffffffULL;
  return n;
}

// Reads the run of decimal digits at [p, end) into `value` and returns its
// end.  It stops after 19 digits: a run that long does not fit `value`,
// which then holds no number.
const char* scan_digits(const char* p, const char* end,
                        std::uint64_t& value) noexcept {
  const char* const first = p;
  std::uint64_t v = 0;
  while (std::endian::native == std::endian::little && end - p >= 8) {
    std::uint64_t part = 0;
    const int n = leading_digits8(p, part);
    v = v * kPow10[n] + part;
    p += n;
    if (n < 8 || p - first > 18) {
      value = v;
      return p;
    }
  }
  while (p != end && p - first < 19 &&
         static_cast<unsigned char>(*p - '0') < 10) {
    v = 10 * v + static_cast<unsigned char>(*p - '0');
    ++p;
  }
  value = v;
  return p;
}

// Reads a row spelled exactly as format_row writes it: one space before
// every field, unsigned integers (an episode may be -1), reals that start
// with a digit, and no fault-aware tokens.  Every step declines anything
// else, so a row it takes is one parse_row takes with the same fields, and
// a row it declines goes to parse_row, which decides it.
class CanonicalRow {
 public:
  explicit CanonicalRow(std::string_view line)
      : p_{line.data()}, end_{line.data() + line.size()} {}

  bool tag() { return p_ != end_ && *p_++ == 'm'; }

  // " <digits>": at most 18 of them, fitting Int.
  template <typename Int>
  bool integer(Int& out) {
    if (p_ == end_ || *p_ != ' ') return false;
    const char* const digits = p_ + 1;
    std::uint64_t v = 0;
    const char* const stop = scan_digits(digits, end_, v);
    if (stop == digits || stop - digits > 18 || !at_break(stop) ||
        v > static_cast<std::uint64_t>(std::numeric_limits<Int>::max())) {
      return false;
    }
    out = static_cast<Int>(v);
    p_ = stop;
    return true;
  }

  // " -1" or an integer.
  bool episode(std::int32_t& out) {
    if (end_ - p_ >= 3 && p_[1] == '-' && p_[2] == '1' && p_[0] == ' ' &&
        at_break(p_ + 3)) {
      out = -1;
      p_ += 3;
      return true;
    }
    return integer(out);
  }

  // " 0" or " 1".
  bool flag(bool& out) {
    if (end_ - p_ < 2 || p_[0] != ' ' || (p_[1] != '0' && p_[1] != '1') ||
        !at_break(p_ + 2)) {
      return false;
    }
    out = p_[1] == '1';
    p_ += 2;
    return true;
  }

  // " <real>", starting with a digit: finite and non-negative.
  bool real(double& out) {
    if (end_ - p_ < 2 || p_[0] != ' ' ||
        static_cast<unsigned char>(p_[1] - '0') >= 10) {
      return false;
    }
    double v = 0.0;
    const std::from_chars_result r =
        std::from_chars(p_ + 1, end_, v, std::chars_format::general);
    if (r.ec != std::errc{} || !at_break(r.ptr) || !std::isfinite(v)) {
      return false;
    }
    out = v;
    p_ = r.ptr;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }
  // The text not read yet.
  [[nodiscard]] std::string_view rest() const noexcept {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

 private:
  [[nodiscard]] bool at_break(const char* q) const noexcept {
    return q == end_ || *q == ' ';
  }

  const char* p_;
  const char* end_;
};

// Hashes strings and views alike, for lookups by view.
struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

// The one dataset parser.  It takes the text as whole lines in one or more
// feed() calls, then the unterminated last line (if any) in finish(), and
// checks everything in the order the lines arrive.
class DatasetParser {
 public:
  // `expected_bytes` is the text's full size when known (0 otherwise): the
  // row vector is sized from it once the first rows show their length.
  DatasetParser(std::string* error, std::uint64_t expected_bytes)
      : error_{error}, expected_bytes_{expected_bytes} {}

  // Parses `text`, whole lines each ending in '\n'; false once rejected.
  bool feed(std::string_view text) {
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p != end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (!take_line({p, static_cast<std::size_t>(nl - p)})) return false;
      p = nl + 1;
      if (ds_.measurements.size() == kSampleRows) {
        reserve(bytes_ + static_cast<std::uint64_t>(p - text.data()));
      }
    }
    bytes_ += text.size();
    return true;
  }

  // Parses `tail`, the text after the last '\n' (empty when the text ended
  // on a line boundary), and hands over the dataset; nullopt once rejected.
  std::optional<Dataset> finish(std::string_view tail) {
    if (!tail.empty() && !take_line(tail)) return std::nullopt;
    if (stage_ != Stage::kRows) {
      fail(error_, missing_text());
      return std::nullopt;
    }
    // Fault-aware campaigns (meas/collector with a FaultPlan or retries)
    // stamp a reason onto every failed row; legacy fault-free campaigns
    // stamp nothing.  Mixing the two within one file can only come from
    // corruption (a torn rewrite, spliced runs), so it is rejected after
    // the scan.
    if (any_fault_token_ && any_failed_without_reason_) {
      fail(error_,
           "fault-aware dataset has failed measurements without a failure "
           "reason (file mixes fault-aware and legacy rows)");
      return std::nullopt;
    }
    // Every writer ends every line with '\n', so a last line without one is
    // a file torn mid-line, whose final token may be a prefix of its value.
    if (!tail.empty()) {
      fail(error_, "torn file: last line has no newline");
      return std::nullopt;
    }
    MetricsRegistry& metrics = MetricsRegistry::global();
    metrics.count("meas.dataset.records_read", ds_.measurements.size());
    metrics.count("meas.dataset.bytes_read", bytes_);
    return std::move(ds_);
  }

 private:
  // The line the parser expects next: the fixed header block in order,
  // then rows.
  enum class Stage {
    kHeader,
    kName,
    kKind,
    kDuration,
    kFirstSampleLossOnly,
    kEpisodes,
    kHosts,
    kRows
  };

  // Rows whose length sizes the row vector.
  static constexpr std::size_t kSampleRows = 256;

  // Reserves rows for the expected text at the bytes per row seen so far
  // (`seen` bytes, the header included), with a quarter to spare.
  void reserve(std::uint64_t seen) {
    if (expected_bytes_ <= seen) return;
    const std::uint64_t rows = kSampleRows * expected_bytes_ / seen;
    ds_.measurements.reserve(static_cast<std::size_t>(
        std::min(rows + rows / 4, expected_bytes_ / kMinRowBytes)));
  }

  bool take_line(std::string_view line) {
    if (stage_ == Stage::kRows) return line.empty() || row(line);
    return header_line(line);
  }

  // Fills `m`, a default-constructed row, from a canonical row (see
  // CanonicalRow) that parse_row would accept; false when the row is not
  // one, and then `m` may be partly filled but the pool is untouched.
  bool scan(std::string_view line, Measurement& m) {
    CanonicalRow r{line};
    std::int64_t when_ms = 0;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    if (!r.tag() || !r.integer(when_ms) || !r.integer(src) ||
        !r.integer(dst) || !r.episode(m.episode) || !r.flag(m.completed) ||
        !hosts_->contains(src) || !hosts_->contains(dst) || src == dst) {
      return false;
    }
    if (ds_.kind == MeasurementKind::kTraceroute) {
      for (auto& s : m.samples) {
        if (!r.flag(s.lost) || !r.real(s.rtt_ms)) return false;
      }
      // A row that ends in the text of a path seen before has that path.
      const std::string_view path = r.rest();
      if (const auto seen = path_ids_.find(path); seen != path_ids_.end()) {
        m.path = seen->second;
      } else {
        std::size_t count = 0;
        if (!r.integer(count) || count > kMaxAsPath) return false;
        ases_.clear();
        for (std::size_t i = 0; i < count; ++i) {
          std::int32_t as = 0;
          if (!r.integer(as)) return false;
          ases_.push_back(topo::AsId{as});
        }
        if (!r.done()) return false;
        m.path = ds_.paths.intern(ases_);
        path_ids_.emplace(path, m.path);
      }
    } else if (!r.real(m.bandwidth_kBps) || !r.real(m.tcp_rtt_ms) ||
               !r.real(m.tcp_loss_rate) || m.tcp_loss_rate > 1.0 ||
               !r.done()) {
      return false;
    }
    m.when = SimTime::at(Duration::millis(when_ms));
    m.src = topo::HostId{src};
    m.dst = topo::HostId{dst};
    return true;
  }

  bool row(std::string_view line) {
    Measurement& m = ds_.measurements.emplace_back();
    if (!scan(line, m)) {
      m = Measurement{};
      Tokens ls{line};
      if (ls.next() != "m") {
        return fail(error_, "unexpected line: " + std::string{line});
      }
      if (!parse_row(ls, line, ds_.kind, &*hosts_, ds_.paths, ases_, m,
                     error_)) {
        return false;
      }
    }
    if (m.failure != FailureReason::kNone || m.attempts > 1) {
      any_fault_token_ = true;
    }
    if (!m.completed && m.failure == FailureReason::kNone) {
      any_failed_without_reason_ = true;
    }
    return true;
  }

  // What finish() reports when the text ends before the rows begin.
  [[nodiscard]] std::string missing_text() const {
    switch (stage_) {
      case Stage::kHeader: return "missing or unsupported header";
      case Stage::kName: return "missing field name";
      case Stage::kKind: return "missing field kind";
      case Stage::kDuration: return "missing field duration_ms";
      case Stage::kFirstSampleLossOnly:
        return "missing field first_sample_loss_only";
      case Stage::kEpisodes: return "missing field episodes";
      case Stage::kHosts:
      case Stage::kRows: break;
    }
    return "missing hosts line";
  }

  bool header_line(std::string_view line) {
    std::string_view value;
    auto field = [&](const char* key) {
      if (codec::split_field(line, key, value)) return true;
      return fail(error_, std::string("expected field ") + key);
    };
    std::int64_t parsed = 0;
    switch (stage_) {
      case Stage::kHeader:
        if (line != kDatasetHeader) {
          return fail(error_, "missing or unsupported header");
        }
        stage_ = Stage::kName;
        return true;
      case Stage::kName:
        if (!field("name")) return false;
        ds_.name = value;
        stage_ = Stage::kKind;
        return true;
      case Stage::kKind:
        if (!field("kind")) return false;
        if (value == "traceroute") {
          ds_.kind = MeasurementKind::kTraceroute;
        } else if (value == "tcp") {
          ds_.kind = MeasurementKind::kTcpTransfer;
        } else {
          return fail(error_, "unknown kind: " + std::string{value});
        }
        stage_ = Stage::kDuration;
        return true;
      case Stage::kDuration:
        if (!field("duration_ms")) return false;
        if (!codec::parse_i64(value, parsed) || parsed < 0) {
          return fail(error_, "invalid duration_ms: " + std::string{value});
        }
        ds_.duration = Duration::millis(parsed);
        stage_ = Stage::kFirstSampleLossOnly;
        return true;
      case Stage::kFirstSampleLossOnly:
        if (!field("first_sample_loss_only")) return false;
        if (value != "0" && value != "1") {
          return fail(error_,
                      "invalid first_sample_loss_only: " + std::string{value});
        }
        ds_.first_sample_loss_only = value == "1";
        stage_ = Stage::kEpisodes;
        return true;
      case Stage::kEpisodes:
        if (!field("episodes")) return false;
        if (!codec::parse_i64(value, parsed) || parsed < 0 ||
            parsed > std::numeric_limits<std::int32_t>::max()) {
          return fail(error_, "invalid episodes: " + std::string{value});
        }
        ds_.episode_count = static_cast<std::int32_t>(parsed);
        stage_ = Stage::kHosts;
        return true;
      case Stage::kHosts:
        if (!hosts_line(line)) return false;
        hosts_.emplace(ds_.hosts);
        stage_ = Stage::kRows;
        return true;
      case Stage::kRows: break;
    }
    return false;
  }

  bool hosts_line(std::string_view line) {
    Tokens ls{line};
    std::int64_t count = 0;
    if (ls.next() != "hosts" || !ls.next_int(count)) {
      return fail(error_, "malformed hosts line");
    }
    if (count < 0 || count > static_cast<std::int64_t>(kMaxHosts)) {
      return fail(error_, "hosts count out of range");
    }
    std::unordered_set<std::int32_t> seen;
    for (std::int64_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      if (!ls.next_int(id)) {
        return fail(error_, "hosts line shorter than its count");
      }
      if (id < 0) return fail(error_, "negative host id");
      if (!seen.insert(id).second) return fail(error_, "duplicate host id");
      ds_.hosts.push_back(topo::HostId{id});
    }
    if (!ls.next().empty()) {
      return fail(error_, "trailing tokens on hosts line");
    }
    return true;
  }

  std::string* error_;
  std::uint64_t expected_bytes_;
  Dataset ds_;
  Stage stage_ = Stage::kHeader;
  std::optional<HostSet> hosts_;  // set with the hosts line
  std::vector<topo::AsId> ases_;  // scratch for one row's AS path
  // The ids of the canonical path texts scan() has met.
  std::unordered_map<std::string, AsPathId, TextHash, std::equal_to<>>
      path_ids_;
  std::uint64_t bytes_ = 0;
  bool any_fault_token_ = false;
  bool any_failed_without_reason_ = false;
};

}  // namespace

void append_measurement(std::string& out, const Measurement& m,
                        MeasurementKind kind, const AsPathPool& paths) {
  std::string path;
  if (kind == MeasurementKind::kTraceroute) {
    append_path(path, paths.at(m.path));
  }
  const std::size_t before = out.size();
  out.resize(before + kMaxRowText + path.size());
  char* const first = out.data() + before;
  out.resize(before + static_cast<std::size_t>(
                          format_row(first, m, kind, path) - first));
}

void write_dataset_chunks(
    const Dataset& dataset,
    const std::function<void(std::string_view)>& sink) {
  ScopedTimer timer{"meas.dataset.write"};
  std::string header;
  append_header(header, dataset);
  std::uint64_t bytes = header.size();
  sink(header);

  const bool traceroute = dataset.kind == MeasurementKind::kTraceroute;
  const PathTexts texts{dataset.paths};
  // Rows are formatted straight into this buffer, flushed whenever it holds
  // at least a chunk; the slack fits one more row of any path.
  const std::size_t capacity = kChunk + kMaxRowText + texts.longest();
  const std::unique_ptr<char[]> buf{new char[capacity]};
  char* p = buf.get();
  auto flush = [&] {
    const auto n = static_cast<std::size_t>(p - buf.get());
    bytes += n;
    sink({buf.get(), n});
    p = buf.get();
  };
  for (const auto& m : dataset.measurements) {
    p = format_row(p, m, dataset.kind, traceroute ? texts[m.path] : "");
    if (static_cast<std::size_t>(p - buf.get()) >= kChunk) flush();
  }
  if (p != buf.get()) flush();
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
  ScopedTimer timer{"meas.dataset.read"};
  std::streambuf* in = is.rdbuf();
  // The bytes the stream says are ready, to size the row vector.
  const std::streamsize ready = in == nullptr ? 0 : in->in_avail();
  DatasetParser parser{error, ready > 0 ? static_cast<std::uint64_t>(ready)
                                        : std::uint64_t{0}};
  if (in == nullptr) return parser.finish({});
  // The carried partial line, then the next block; a line longer than a
  // block grows the buffer.
  std::string buf(2 * kChunk, '\0');
  std::size_t carried = 0;
  for (;;) {
    if (buf.size() - carried < kChunk) buf.resize(2 * buf.size());
    const std::streamsize got = in->sgetn(
        buf.data() + carried, static_cast<std::streamsize>(kChunk));
    if (got <= 0) break;
    const std::string_view text{buf.data(),
                                carried + static_cast<std::size_t>(got)};
    const std::size_t cut = text.rfind('\n');
    if (cut == std::string_view::npos) {  // no whole line yet
      carried = text.size();
      continue;
    }
    if (!parser.feed(text.substr(0, cut + 1))) return std::nullopt;
    carried = text.size() - (cut + 1);
    std::memmove(buf.data(), buf.data() + cut + 1, carried);
  }
  is.setstate(std::ios::eofbit);
  return parser.finish({buf.data(), carried});
}

bool parse_measurement(std::string_view line, MeasurementKind kind,
                       AsPathPool& paths, Measurement& out,
                       std::string* error) {
  Tokens ls{line};
  if (ls.next() != "m") {
    return fail(error, "malformed measurement line: " + std::string{line});
  }
  out = Measurement{};
  std::vector<topo::AsId> ases;
  return parse_row(ls, line, kind, nullptr, paths, ases, out, error);
}

Result<Dataset> load_dataset(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.is_ok()) return text.status();
  const std::string_view all = text.value();
  std::string error;
  std::optional<Dataset> ds;
  {
    ScopedTimer timer{"meas.dataset.read"};
    DatasetParser parser{&error, all.size()};
    const std::size_t cut = all.rfind('\n');
    const std::size_t whole = cut == std::string_view::npos ? 0 : cut + 1;
    if (parser.feed(all.substr(0, whole))) {
      ds = parser.finish(all.substr(whole));
    }
  }
  if (!ds.has_value()) {
    return Status::error(ErrorCode::kParseError, path + ": " + error);
  }
  return std::move(*ds);
}

Status save_dataset(const std::string& path, const Dataset& dataset) {
  std::vector<std::string> chunks;
  write_dataset_chunks(dataset, [&chunks](std::string_view chunk) {
    chunks.emplace_back(chunk);
  });
  const std::vector<std::string_view> parts{chunks.begin(), chunks.end()};
  return write_file_atomic(path, parts);
}

}  // namespace pathsel::meas
