#include "core/result_columns.h"

#include "core/dense_kernel.h"
#include "util/atomic_io.h"
#include "util/codec.h"

namespace pathsel::core {

namespace {

template <typename T, typename TakeFn>
void take_column(codec::Cursor& c, std::vector<T>& out, std::size_t n,
                 const char* what, TakeFn&& take) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n && !c.failed(); ++i) {
    out.push_back(take(c, what));
  }
}

Status parse_error(std::string message) {
  return Status::error(ErrorCode::kParseError,
                       "result columns: " + std::move(message));
}

bool valid_significance(std::int8_t v) noexcept {
  return v >= static_cast<std::int8_t>(SignificanceClass::kUnclassified) &&
         v <= static_cast<std::int8_t>(SignificanceClass::kZero);
}

}  // namespace

const char* metric_name(Metric metric) noexcept {
  switch (metric) {
    case Metric::kRtt: return "rtt";
    case Metric::kLoss: return "loss";
    case Metric::kPropagation: return "propagation";
  }
  return "unknown";
}

std::span<const std::int32_t> ResultColumns::via_of(std::size_t i) const {
  return std::span<const std::int32_t>{via}.subspan(
      via_offset[i], static_cast<std::size_t>(hop_count[i]));
}

ResultColumns from_pairs(std::span<const PairResult> results, Metric metric) {
  ResultColumns c;
  c.metric = metric;
  const std::size_t n = results.size();
  c.src.reserve(n);
  c.dst.reserve(n);
  c.default_value.reserve(n);
  c.alternate_value.reserve(n);
  c.default_mean.reserve(n);
  c.default_var.reserve(n);
  c.default_dof_denom.reserve(n);
  c.alternate_mean.reserve(n);
  c.alternate_var.reserve(n);
  c.alternate_dof_denom.reserve(n);
  c.relay.reserve(n);
  c.hop_count.reserve(n);
  c.significance.assign(
      n, static_cast<std::int8_t>(SignificanceClass::kUnclassified));
  c.via_offset.reserve(n);
  for (const PairResult& r : results) {
    c.src.push_back(r.a.value());
    c.dst.push_back(r.b.value());
    c.default_value.push_back(r.default_value);
    c.alternate_value.push_back(r.alternate_value);
    c.default_mean.push_back(r.default_estimate.mean);
    c.default_var.push_back(r.default_estimate.var_of_mean);
    c.default_dof_denom.push_back(r.default_estimate.dof_denom);
    c.alternate_mean.push_back(r.alternate_estimate.mean);
    c.alternate_var.push_back(r.alternate_estimate.var_of_mean);
    c.alternate_dof_denom.push_back(r.alternate_estimate.dof_denom);
    c.relay.push_back(r.via.empty() ? kNoRelay : r.via.front().value());
    c.hop_count.push_back(static_cast<std::int32_t>(r.via.size()));
    c.via_offset.push_back(c.via.size());
    for (const topo::HostId h : r.via) c.via.push_back(h.value());
  }
  return c;
}

const char* to_string(SignificanceClass cls) noexcept {
  switch (cls) {
    case SignificanceClass::kUnclassified:
      return "unclassified";
    case SignificanceClass::kBetter:
      return "better";
    case SignificanceClass::kWorse:
      return "worse";
    case SignificanceClass::kIndeterminate:
      return "indeterminate";
    case SignificanceClass::kZero:
      return "zero";
  }
  return "unclassified";
}

void overwrite_row(ResultColumns& c, std::size_t i, const PairResult& r) {
  PATHSEL_EXPECT(i < c.size(), "overwrite_row index out of range");
  PATHSEL_EXPECT(c.src[i] == r.a.value() && c.dst[i] == r.b.value(),
                 "overwrite_row pair identity mismatch");
  PATHSEL_EXPECT(
      c.hop_count[i] == static_cast<std::int32_t>(r.via.size()),
      "overwrite_row relay-sequence length changed");
  c.default_value[i] = r.default_value;
  c.alternate_value[i] = r.alternate_value;
  c.default_mean[i] = r.default_estimate.mean;
  c.default_var[i] = r.default_estimate.var_of_mean;
  c.default_dof_denom[i] = r.default_estimate.dof_denom;
  c.alternate_mean[i] = r.alternate_estimate.mean;
  c.alternate_var[i] = r.alternate_estimate.var_of_mean;
  c.alternate_dof_denom[i] = r.alternate_estimate.dof_denom;
  c.relay[i] = r.via.empty() ? kNoRelay : r.via.front().value();
  const std::uint64_t base = c.via_offset[i];
  for (std::size_t h = 0; h < r.via.size(); ++h) {
    c.via[base + h] = r.via[h].value();
  }
}

std::vector<PairResult> to_pairs(const ResultColumns& columns) {
  std::vector<PairResult> out;
  out.resize(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    PairResult& r = out[i];
    r.a = topo::HostId{columns.src[i]};
    r.b = topo::HostId{columns.dst[i]};
    r.default_value = columns.default_value[i];
    r.alternate_value = columns.alternate_value[i];
    r.default_estimate = columns.default_estimate(i);
    r.alternate_estimate = columns.alternate_estimate(i);
    r.via.reserve(static_cast<std::size_t>(columns.hop_count[i]));
    for (const std::int32_t h : columns.via_of(i)) {
      r.via.push_back(topo::HostId{h});
    }
  }
  return out;
}

std::string serialize_result_columns(std::span<const ResultColumns> sets) {
  codec::Writer w;
  w.put_u32(kResultColumnsMagic);
  w.put_u32(kResultColumnsVersion);
  w.put_u32(static_cast<std::uint32_t>(sets.size()));
  for (const ResultColumns& c : sets) {
    const std::size_t n = c.size();
    w.put_u32(static_cast<std::uint32_t>(c.metric));
    w.put_u64(static_cast<std::uint64_t>(n));
    w.put_u64(static_cast<std::uint64_t>(c.via.size()));
    for (std::size_t i = 0; i < n; ++i) w.put_i32(c.src[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_i32(c.dst[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_i32(c.relay[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_i32(c.hop_count[i]);
    for (std::size_t i = 0; i < n; ++i) {
      w.put_u8(static_cast<std::uint8_t>(c.significance[i]));
    }
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.default_value[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.alternate_value[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.default_mean[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.default_var[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.default_dof_denom[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.alternate_mean[i]);
    for (std::size_t i = 0; i < n; ++i) w.put_f64(c.alternate_var[i]);
    for (std::size_t i = 0; i < n; ++i) {
      w.put_f64(c.alternate_dof_denom[i]);
    }
    for (std::size_t i = 0; i < c.via.size(); ++i) w.put_i32(c.via[i]);
  }
  return std::move(w).seal();
}

Result<std::vector<ResultColumns>> parse_result_columns(
    std::string_view bytes) {
  // Header + trailing CRC is the smallest well-formed file (zero sets).
  if (bytes.size() < 16) {
    return parse_error("truncated file: " + std::to_string(bytes.size()) +
                       " bytes is smaller than an empty results file");
  }
  codec::Cursor header{bytes};
  const std::uint32_t magic = header.take_u32("magic");
  if (magic != kResultColumnsMagic) {
    return parse_error("bad magic: not a pathsel results file");
  }
  const std::uint32_t version = header.take_u32("schema version");
  if (version == 0 || version > kResultColumnsVersion) {
    return parse_error(
        "schema version " + std::to_string(version) +
        " is not supported by this build (reads versions 1.." +
        std::to_string(kResultColumnsVersion) +
        "); regenerate the file or upgrade pathsel");
  }
  // The CRC is verified before any structural field is trusted, so a bit
  // flip anywhere — counts included — is reported as corruption, not as
  // whatever structure the flipped bytes happen to spell.
  const std::optional<std::string_view> payload = codec::unseal(bytes);
  if (!payload) {
    return parse_error("CRC-32 mismatch: file is corrupted or torn");
  }

  codec::Cursor c{*payload};
  (void)c.take_u32("magic");
  (void)c.take_u32("schema version");
  const std::uint32_t set_count = c.take_u32("column-set count");
  std::vector<ResultColumns> sets;
  for (std::uint32_t s = 0; s < set_count && !c.failed(); ++s) {
    ResultColumns cols;
    const std::uint32_t metric = c.take_u32("metric");
    if (c.failed()) break;
    if (metric > static_cast<std::uint32_t>(Metric::kPropagation)) {
      return parse_error("unknown metric tag " + std::to_string(metric));
    }
    cols.metric = static_cast<Metric>(metric);
    const std::uint64_t n64 = c.take_u64("pair count");
    const std::uint64_t m64 = c.take_u64("via count");
    if (c.failed()) break;
    // Fixed per-pair footprint: 4 i32 + 1 i8 + 8 f64 = 81 bytes, plus 4
    // per flattened via entry.  Anything larger than the bytes present is
    // a lie told by a corrupted length field — reject before allocating.
    if (!c.fits(n64, 81) || !c.fits(m64, 4)) {
      return parse_error("column lengths exceed the file size (pairs=" +
                         std::to_string(n64) + ", via=" + std::to_string(m64) +
                         ")");
    }
    const auto n = static_cast<std::size_t>(n64);
    const auto m = static_cast<std::size_t>(m64);
    const auto take_i32s = [](codec::Cursor& cur, const char* w) {
      return cur.take_i32(w);
    };
    take_column(c, cols.src, n, "src column", take_i32s);
    take_column(c, cols.dst, n, "dst column", take_i32s);
    take_column(c, cols.relay, n, "relay column", take_i32s);
    take_column(c, cols.hop_count, n, "hop_count column", take_i32s);
    take_column(c, cols.significance, n, "significance column",
                [](codec::Cursor& cur, const char* w) {
                  return static_cast<std::int8_t>(cur.take_u8(w));
                });
    const auto take_f64s = [](codec::Cursor& cur, const char* w) {
      return cur.take_f64(w);
    };
    take_column(c, cols.default_value, n, "default_value column", take_f64s);
    take_column(c, cols.alternate_value, n, "alternate_value column",
                take_f64s);
    take_column(c, cols.default_mean, n, "default_mean column", take_f64s);
    take_column(c, cols.default_var, n, "default_var column", take_f64s);
    take_column(c, cols.default_dof_denom, n, "default_dof_denom column",
                take_f64s);
    take_column(c, cols.alternate_mean, n, "alternate_mean column", take_f64s);
    take_column(c, cols.alternate_var, n, "alternate_var column", take_f64s);
    take_column(c, cols.alternate_dof_denom, n, "alternate_dof_denom column",
                take_f64s);
    take_column(c, cols.via, m, "via column", take_i32s);
    if (c.failed()) break;

    // Structural invariants the CRC cannot express: hop counts must tile
    // the flattened via column exactly, and the relay column must agree
    // with the sequences it summarizes.
    cols.via_offset.reserve(n);
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t hops = cols.hop_count[i];
      if (hops < 0) {
        return parse_error("negative hop count at pair " + std::to_string(i));
      }
      if (static_cast<std::uint64_t>(hops) > m64 - offset) {
        return parse_error("hop counts overrun the via column at pair " +
                           std::to_string(i));
      }
      cols.via_offset.push_back(offset);
      const std::int32_t expected_relay =
          hops == 0 ? kNoRelay
                    : cols.via[static_cast<std::size_t>(offset)];
      if (cols.relay[i] != expected_relay) {
        return parse_error("relay column disagrees with the via sequence at "
                           "pair " +
                           std::to_string(i));
      }
      if (!valid_significance(cols.significance[i])) {
        return parse_error("significance class out of range at pair " +
                           std::to_string(i));
      }
      offset += static_cast<std::uint64_t>(hops);
    }
    if (offset != m64) {
      return parse_error("hop counts sum to " + std::to_string(offset) +
                         " but the via column holds " + std::to_string(m64) +
                         " entries");
    }
    sets.push_back(std::move(cols));
  }
  if (c.failed()) return parse_error(c.error());
  if (c.remaining() != 0) {
    return parse_error(std::to_string(c.remaining()) +
                       " trailing bytes after the last column set");
  }
  return sets;
}

Status write_result_columns(const std::string& path,
                            std::span<const ResultColumns> sets) {
  return write_file_atomic(path, serialize_result_columns(sets));
}

Result<std::vector<ResultColumns>> read_result_columns(
    const std::string& path) {
  Result<std::string> bytes = read_file(path);
  if (!bytes.is_ok()) return bytes.status();
  Result<std::vector<ResultColumns>> parsed =
      parse_result_columns(bytes.value());
  if (!parsed.is_ok()) {
    return Status::error(parsed.status().code(),
                         path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace pathsel::core
