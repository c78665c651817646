// Dataset serialization.
//
// Regenerated traces are shareable: a dataset round-trips through a simple
// line-oriented text format (one header block, one line per measurement).
// The reader is strict — a malformed file yields an error message, never a
// partially filled dataset — so downstream analyses can trust loaded data.
//
//   pathsel-dataset v1
//   name UW3
//   kind traceroute            # or: tcp
//   duration_ms 604800000
//   first_sample_loss_only 0
//   episodes 0
//   hosts 3 0 5 9
//   m <when_ms> <src> <dst> <episode> <completed>
//     traceroute: ... <lost0> <rtt0> <lost1> <rtt1> <lost2> <rtt2> <n_as> <as...>
//     tcp:        ... <bandwidth_kBps> <rtt_ms> <loss_rate>
//   Fault-aware campaigns append optional trailing tokens to a measurement:
//     f <reason>    failure reason code (FailureReason), written when nonzero
//     a <attempts>  attempts including retries, written when > 1
//   Legacy datasets contain neither token, so writing a fault-free dataset
//   reproduces the historical byte stream exactly.
//
// Token language.  Lines split into tokens at the C locale's whitespace, so
// a trailing \r or extra spaces are harmless, and every token is parsed
// whole, so a number glued to its neighbour ("0f", "7a") is malformed.
// Integers are base-10 and doubles decimal, with no hex, inf or nan; the
// language is the shared text codec's, defined in util/codec.h.  The writer
// prints doubles so that every finite value round-trips bit for bit.
//
// The reader validates everything it parses — host ids must be declared in
// the hosts line, RTTs/rates must be finite and in range, counts must be
// sane — and rejects trailing garbage; a malformed or truncated file yields
// an error, never a crash or a partially filled dataset.  Every line,
// the last included, ends with '\n': a file whose last line lacks it was
// torn mid-line and is rejected, so a prefix parses only if it ends on a
// line boundary at or after the hosts line.
//
// One row reader.  Every row, .ds or checkpoint (parse_measurements),
// canonical, faulted or spelled any other way the token language allows,
// goes through one reader: each field skips a run of whitespace and reads
// one token, digits eight at a time and any other token whole through the
// codec's parsers, checked as it is read, so a row gets the message of the
// first check it fails.  A memo of the row texts after the samples saves
// reading a repeated path's numbers.  load_dataset hands the parser the
// whole file; the read_dataset stream adapter hands it ~64 KiB blocks of
// whole lines, so both accept the same language and reject with the same
// messages.  One writer formats rows into a reserved buffer, copying each
// pooled path's text, formatted once per write.
//
// The stream overloads (write_dataset / read_dataset) are thin adapters.
// Outside the tests that check both readers agree, only perfbench/study.cc
// uses them; they can go with the next change to that benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "meas/dataset.h"
#include "util/codec.h"
#include "util/status.h"

namespace pathsel::meas {

/// First line of a dataset file: the format name and version.
inline constexpr char kDatasetHeader[] = "pathsel-dataset v1";

/// Stream adapter over write_dataset_chunks; the stream's failbit reflects
/// I/O errors.  The text reaches the stream in bounded chunks, never as one
/// whole-file copy.
void write_dataset(std::ostream& os, const Dataset& dataset);

/// Formats the dataset as write_dataset does and hands `sink` the text in
/// chunks of about 64 KiB, so no whole-file copy is ever held.
void write_dataset_chunks(
    const Dataset& dataset,
    const std::function<void(std::string_view)>& sink);

/// Stream adapter over the dataset parser: reads `is` to its end in ~64 KiB
/// blocks.  On failure returns nullopt and, if `error` is non-null, stores a
/// human-readable reason.
///
/// Beyond per-row validation, the reader enforces a whole-file invariant:
/// fault-aware campaigns record a failure reason on *every* failed row, so a
/// file that mixes fault-aware markers (any `f`/`a` token) with failed rows
/// lacking one is corrupt — most likely spliced from two different runs —
/// and is rejected.  Legacy fault-free datasets carry neither token and are
/// unaffected.
[[nodiscard]] std::optional<Dataset> read_dataset(std::istream& is,
                                                  std::string* error = nullptr);

/// Reads and parses a dataset file: kIoError when it cannot be read,
/// kParseError (message prefixed with the path) when the text is rejected by
/// the rules read_dataset applies.
[[nodiscard]] Result<Dataset> load_dataset(const std::string& path);

/// Writes the dataset to `path` atomically (util/atomic_io.h): on failure,
/// a full disk or a file-size limit included, the destination is untouched.
[[nodiscard]] Status save_dataset(const std::string& path,
                                  const Dataset& dataset);

/// Appends one measurement row (the full "m ..." line, newline included)
/// exactly as write_dataset writes it; `paths` is the pool `m.path` indexes.
/// Checkpoints embed pending measurements with this writer so a resumed
/// campaign re-serializes byte-identically.
void append_measurement(std::string& out, const Measurement& m,
                        MeasurementKind kind, const AsPathPool& paths);

/// Reads the next `count` lines of `lines` as rows written by
/// append_measurement, appending them to `out`, through the row reader
/// read_dataset uses and with its validation (any host id is accepted),
/// interning their AS paths into `paths`.  On failure returns false and, if
/// `error` is non-null, stores a human-readable reason.
[[nodiscard]] bool parse_measurements(codec::Lines& lines, std::uint64_t count,
                                      MeasurementKind kind, AsPathPool& paths,
                                      std::vector<Measurement>& out,
                                      std::string* error = nullptr);

}  // namespace pathsel::meas
