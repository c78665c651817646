// Columnar (struct-of-arrays) results core.
//
// ResultColumns is the one result type every consumer reads once a sweep
// has returned: figure CDFs, significance classification, confidence CDFs,
// coverage accounting, the AS/propagation/time-of-day/top-hosts analyses,
// the campaign report writers, the serve engine and the matrix cells.  It
// holds one parallel column per PairResult field (src/dst, direct/alternate
// metric value, mean/variance/dof columns for both estimates, relay, hop
// count, significance class) plus a flattened relay-sequence column, tagged
// with the metric the sweep ran — one column set per metric.  The layout
// suits SIMD post-processing, cheap snapshot sharing in the serve engine and
// compact interchange between scenario-matrix workers, and its improvement()
// and ratio() are the only definitions of the paper's x axes.
//
// Sweeps still *emit* PairResults (the engines' per-pair output record);
// from_pairs() transposes them once, with the sweep's real metric.
// to_pairs() is its inverse — the round-trip reproduces every field bit for
// bit, which tests/core/result_columns_test.cc locks in.
//
// On disk the columns use a versioned little-endian binary format:
//
//   u32 magic "PSRC"            (0x43525350 when read as LE u32)
//   u32 schema version          (currently 1; newer versions are rejected
//                                with an explanatory Status, never guessed)
//   u32 column-set count
//   per set:
//     u32 metric                (Metric enum value)
//     u64 pair count n
//     u64 flattened via count m (must equal the hop-count column's sum)
//     columns, in this fixed order:
//       src, dst, relay, hop_count        i32[n] each
//       significance                      i8[n]
//       default_value, alternate_value,
//       default_mean, default_var, default_dof_denom,
//       alternate_mean, alternate_var, alternate_dof_denom
//                                         f64[n] each (IEEE-754 bit patterns)
//       via                               i32[m]
//   u32 CRC-32 (util/atomic_io crc32, IEEE) of every preceding byte
//
// Fields are encoded with util/codec.h, and the trailing CRC is its CRC-tail
// envelope (Writer::seal / unseal).
//
// Writers are crash-safe (write_file_atomic: tmp + fsync + rename); readers
// validate structure before allocating (an absurd count in a corrupted file
// must not allocate), verify the CRC, and report every malformed input as a
// Status — never a crash or a partially filled container (the bit-flip fuzz
// suite runs the reader over every single-bit corruption of a real file).
// Serialization is deterministic: serialize -> parse -> serialize is
// byte-stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/alternate.h"
#include "util/status.h"

namespace pathsel::core {

/// Lower-case metric tag ("rtt", "loss", "propagation") for reports.
[[nodiscard]] const char* metric_name(Metric metric) noexcept;

/// Per-pair significance class, stored as one byte per pair.  kUnclassified
/// until annotate_significance (core/confidence.h) fills the column.
enum class SignificanceClass : std::int8_t {
  kUnclassified = -1,
  kBetter = 0,
  kWorse = 1,
  kIndeterminate = 2,
  kZero = 3,  // loss-rate only
};

struct ResultColumns {
  Metric metric = Metric::kRtt;

  // One entry per analyzed pair, all columns the same length.
  std::vector<std::int32_t> src;
  std::vector<std::int32_t> dst;
  std::vector<double> default_value;
  std::vector<double> alternate_value;
  std::vector<double> default_mean;
  std::vector<double> default_var;        // variance of the mean
  std::vector<double> default_dof_denom;  // Welch-Satterthwaite denominator
  std::vector<double> alternate_mean;
  std::vector<double> alternate_var;
  std::vector<double> alternate_dof_denom;
  /// First intermediate host of the best alternate (the one-hop relay);
  /// dense_kernel.h kNoRelay for a relay-free path (never produced by the
  /// analyzers, but representable so to_pairs round-trips any input).
  std::vector<std::int32_t> relay;
  /// Number of intermediate hosts on the alternate path.
  std::vector<std::int32_t> hop_count;
  std::vector<std::int8_t> significance;  // SignificanceClass values

  /// Relay sequences of all pairs, flattened; pair i's hosts occupy
  /// [via_offset[i], via_offset[i] + hop_count[i]).
  std::vector<std::int32_t> via;
  /// Exclusive prefix sums of hop_count (derived, not serialized).
  std::vector<std::uint64_t> via_offset;

  [[nodiscard]] std::size_t size() const noexcept { return src.size(); }
  [[nodiscard]] bool empty() const noexcept { return src.empty(); }

  /// The pair's relay sequence (intermediate hosts from src to dst).
  [[nodiscard]] std::span<const std::int32_t> via_of(std::size_t i) const;

  /// Positive when the alternate is better (the paper's x axes).
  [[nodiscard]] double improvement(std::size_t i) const noexcept {
    return default_value[i] - alternate_value[i];
  }
  /// default / alternate, >1 when the alternate is better (Figure 2).
  [[nodiscard]] double ratio(std::size_t i) const noexcept {
    return alternate_value[i] > 0.0 ? default_value[i] / alternate_value[i]
                                    : 1.0;
  }
  [[nodiscard]] stats::MeanEstimate default_estimate(std::size_t i) const
      noexcept {
    return {default_mean[i], default_var[i], default_dof_denom[i]};
  }
  [[nodiscard]] stats::MeanEstimate alternate_estimate(std::size_t i) const
      noexcept {
    return {alternate_mean[i], alternate_var[i], alternate_dof_denom[i]};
  }
};

/// Transposes a sweep's PairResult vector into columns (O(1) per field —
/// a straight copy, no recomputation).  `metric` tags the column set; the
/// significance column starts kUnclassified.
[[nodiscard]] ResultColumns from_pairs(std::span<const PairResult> results,
                                       Metric metric);

/// Inverse of from_pairs: every PairResult field is reproduced bit for bit
/// (the significance column, which PairResult cannot hold, is dropped).
[[nodiscard]] std::vector<PairResult> to_pairs(const ResultColumns& columns);

/// Lower-case name of a significance class ("better", "worse", ...), for
/// serve responses and reports.
[[nodiscard]] const char* to_string(SignificanceClass cls) noexcept;

/// Rewrites row i in place from a freshly computed PairResult, field for
/// field exactly as from_pairs stores it, so an incrementally maintained
/// column set stays byte-identical to a from_pairs rebuild.  The pair
/// identity and relay-sequence length must match the existing row (the serve
/// engine's row set is time-invariant; a changed hop count would shift the
/// flattened via pool).  The significance column is left untouched — callers
/// re-classify it separately (core/confidence.h classify_pair).
void overwrite_row(ResultColumns& columns, std::size_t i, const PairResult& r);

inline constexpr std::uint32_t kResultColumnsMagic = 0x43525350;  // "PSRC"
inline constexpr std::uint32_t kResultColumnsVersion = 1;

/// Serializes column sets into the binary format above (deterministic;
/// equal inputs produce equal bytes).
[[nodiscard]] std::string serialize_result_columns(
    std::span<const ResultColumns> sets);

/// Parses a serialized image.  Malformed input — wrong magic, newer schema
/// version, truncation, CRC mismatch, inconsistent counts or hop sums —
/// returns an explanatory kParseError and allocates nothing absurd.
[[nodiscard]] Result<std::vector<ResultColumns>> parse_result_columns(
    std::string_view bytes);

/// serialize + crash-safe write (tmp + fsync + rename + dir fsync).
[[nodiscard]] Status write_result_columns(const std::string& path,
                                          std::span<const ResultColumns> sets);

/// Whole-file read + parse; kIoError for unreadable paths, kParseError for
/// malformed contents.
[[nodiscard]] Result<std::vector<ResultColumns>> read_result_columns(
    const std::string& path);

}  // namespace pathsel::core
