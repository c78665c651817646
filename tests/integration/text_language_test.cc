// Accept/reject table for the text readers: checkpoint files,
// matrix cell summaries, serve update specs and trace budgets, and grid
// fault values.  Each row is one input and whether its reader takes it.
// The goldens in format_golden_test pin what the writers emit; this table
// pins the language the readers accept around those bytes, so a refactor
// of the shared text codec cannot widen or narrow it unnoticed.
//
// Every line-level row is re-sealed with a canonical crc trailer, so the
// row tests the field, not the checksum.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "matrix/cell.h"
#include "matrix/grid.h"
#include "meas/checkpoint.h"
#include "serve/engine.h"
#include "serve/journal.h"
#include "serve/trace.h"
#include "test_util.h"
#include "util/atomic_io.h"

namespace pathsel {
namespace {

constexpr std::uint64_t kFingerprint = 0x0123456789abcdefULL;

enum class Reader {
  kCheckpointLine,   // replaces the checkpoint line with the row's key
  kCheckpointCrc,    // the checkpoint's trailer; "{}" is the payload crc
  kCellSummaryLine,  // replaces the cell summary line with the row's key
  kUpdate,           // serve::parse_update
  kTraceBudget,      // BUDGET of "query disjoint rtt 2 0 1 BUDGET"
  kGridFault,        // one value of a grid's [faults] section
};

struct Row {
  Reader reader;
  std::string input;
  bool accepted;
};

meas::CampaignCheckpoint checkpoint_fixture() {
  meas::CampaignCheckpoint cp;
  cp.dataset_name = "UW3";
  cp.now = SimTime::at(Duration::millis(43200000));
  cp.next_seq = 17;
  cp.episode_count = 2;
  cp.rng_state = {1, 0xffffffffffffffffULL, 0x0123456789abcdefULL, 0};
  cp.server_rng_states = {{2, 3, 5, 7}};
  cp.injector_epoch = 9;
  meas::CampaignEvent retry;
  retry.t = SimTime::at(Duration::millis(43200500));
  retry.seq = 16;
  retry.kind = meas::CampaignEventKind::kRetry;
  retry.a = 3;
  retry.b = 0;
  retry.first = SimTime::at(Duration::millis(43190000));
  retry.episode = 1;
  retry.tried = 2;
  cp.pending = {retry};
  return cp;
}

matrix::CellSummary cell_summary_fixture() {
  matrix::CellSummary s;
  s.grid_fp = 0x00000000000000abULL;
  s.cell_fp = 0x0123456789abcdefULL;
  s.index = 7;
  s.dataset = "UW3";
  s.fault = 0.1;
  s.metric = "rtt";
  s.policy = "one-hop";
  s.min_samples = 3;
  s.seed = 1999;
  s.coverage = 0.5;
  s.artifacts.push_back({"cells/x/results.psrc", 42, 0x0000beefu});
  return s;
}

// The text without its last line (the crc trailer).
std::string_view payload_of(std::string_view text) {
  return text.substr(0, text.rfind('\n', text.size() - 2) + 1);
}

// `text` with its first line that starts with `input`'s key (the input up to
// its first space or tab) replaced by `input`.
std::string replace_line(std::string_view text, std::string_view input) {
  const std::string key{input.substr(0, input.find_first_of(" \t"))};
  std::size_t at = 0;
  while (text.compare(at, key.size() + 1, key + ' ') != 0) {
    at = text.find('\n', at) + 1;
  }
  const std::size_t eol = text.find('\n', at);
  return std::string{text.substr(0, at)} + std::string{input} +
         std::string{text.substr(eol)};
}

// The trailer template with "{}" replaced by `crc` (decimal).
std::string trailer(std::string_view pattern, std::uint32_t crc) {
  std::string out{pattern};
  out.replace(out.find("{}"), 2, std::to_string(crc));
  return out + "\n";
}

std::string decimal_sealed(const std::string& payload) {
  return payload + trailer("crc {}", crc32(payload));
}

std::string hex_sealed(const std::string& payload) {
  char line[32];
  std::snprintf(line, sizeof line, "crc %08lx\n",
                static_cast<unsigned long>(crc32(payload)));
  return payload + line;
}

bool checkpoint_accepts(const std::string& text) {
  return meas::parse_checkpoint(text, meas::MeasurementKind::kTraceroute,
                                kFingerprint)
      .is_ok();
}

bool trace_accepts_budget(const std::string& budget) {
  static const std::unique_ptr<serve::ServeEngine> engine = [] {
    meas::Dataset ds = test::make_dataset(4);
    test::add_invocations(ds, 0, 1, 10.0, 3);
    test::add_invocations(ds, 0, 2, 4.0, 3);
    test::add_invocations(ds, 2, 1, 5.0, 3);
    serve::ServeOptions options;
    options.build = test::min_samples(3);
    options.threads = 1;
    return std::move(serve::ServeEngine::create(ds, options).value());
  }();
  std::istringstream in{"query disjoint rtt 2 0 1 " + budget + "\n"};
  std::ostringstream out;
  std::ostringstream err;
  const Result<serve::TraceStats> stats =
      serve::run_trace(*engine, in, out, err);
  return stats.is_ok() && stats.value().rejected == 0;
}

bool accepts(const Row& row) {
  switch (row.reader) {
    case Reader::kCheckpointLine: {
      const std::string text = meas::serialize_checkpoint(
          checkpoint_fixture(), meas::MeasurementKind::kTraceroute,
          kFingerprint);
      return checkpoint_accepts(
          decimal_sealed(replace_line(payload_of(text), row.input)));
    }
    case Reader::kCheckpointCrc: {
      const std::string payload{payload_of(meas::serialize_checkpoint(
          checkpoint_fixture(), meas::MeasurementKind::kTraceroute,
          kFingerprint))};
      return checkpoint_accepts(payload +
                                trailer(row.input, crc32(payload)));
    }
    case Reader::kCellSummaryLine: {
      const std::string text =
          matrix::serialize_cell_summary(cell_summary_fixture());
      return matrix::parse_cell_summary(
                 hex_sealed(replace_line(payload_of(text), row.input)))
          .is_ok();
    }
    case Reader::kUpdate:
      return serve::parse_update(row.input).is_ok();
    case Reader::kTraceBudget:
      return trace_accepts_budget(row.input);
    case Reader::kGridFault:
      return matrix::parse_grid("[faults]\nvalues = " + row.input + "\n")
          .is_ok();
  }
  return false;
}

std::string describe(const Row& row) {
  static const char* const kNames[] = {
      "checkpoint line", "checkpoint crc", "cell summary line",
      "update",          "trace budget",   "grid fault"};
  std::string shown;
  for (const char c : row.input) {
    if (c == '\t') {
      shown += "\\t";
    } else if (c == '\r') {
      shown += "\\r";
    } else if (c == '\v') {
      shown += "\\v";
    } else if (c == '\f') {
      shown += "\\f";
    } else {
      shown += c;
    }
  }
  return std::string{kNames[static_cast<int>(row.reader)]} + " '" + shown +
         "'";
}

TEST(TextLanguage, ReaderOutcomeTable) {
  using R = Reader;
  const Row rows[] = {
      // Checkpoint rng / r / e lines: C-locale whitespace between tokens,
      // a '+' sign and leading zeros on each number.
      {R::kCheckpointLine, "rng 1 18446744073709551615 81985529216486895 0",
       true},
      {R::kCheckpointLine, "rng\t1\t18446744073709551615\t81985529216486895\t0",
       true},
      {R::kCheckpointLine, "rng +1 18446744073709551615 81985529216486895 0",
       true},
      {R::kCheckpointLine, "rng 01 18446744073709551615 81985529216486895 00",
       true},
      {R::kCheckpointLine,
       "rng 1 18446744073709551615 81985529216486895 0\r", true},
      {R::kCheckpointLine, "rng 1 18446744073709551615 81985529216486895",
       false},
      {R::kCheckpointLine, "rng 1 18446744073709551615 81985529216486895 0 0",
       false},
      {R::kCheckpointLine, "rng -1 18446744073709551615 81985529216486895 0",
       false},
      {R::kCheckpointLine, "r 2 3 5 7", true},
      {R::kCheckpointLine, "r\t2\t3\t5\t7", true},
      {R::kCheckpointLine, "r +2 3 5 7", true},
      {R::kCheckpointLine, "r 002 3 5 7", true},
      {R::kCheckpointLine, "r 2 3 5 7\r", true},
      {R::kCheckpointLine, "r 2 3 5 7x", false},
      {R::kCheckpointLine, "e 4 43200500 16 3 0 43190000 1 2", true},
      {R::kCheckpointLine, "e\t4\t43200500\t16\t3\t0\t43190000\t1\t2", true},
      {R::kCheckpointLine, "e +4 +43200500 16 +3 0 43190000 +1 2", true},
      {R::kCheckpointLine, "e 04 043200500 016 3 0 43190000 01 2", true},
      {R::kCheckpointLine, "e 4 43200500 16 3 0 43190000 1 2\r", true},
      {R::kCheckpointLine, "e 4 43200500 16 3 0 43190000 1", false},
      // Whole tokens: seven tokens are not eight fields (3-4 is not a = 3,
      // b = -4), and an unsigned sequence number takes no '-' (-16 does not
      // wrap to 2^64 - 16).  Both were accepted by the istream reader.
      {R::kCheckpointLine, "e 1 10 1 3-4 5 6 7", false},
      {R::kCheckpointLine, "e 4 43200500 -16 3 0 43190000 1 2", false},
      // Header values: leading whitespace and '+' parse, trailing \r does not.
      {R::kCheckpointLine, "next_seq  17", true},
      {R::kCheckpointLine, "next_seq +17", true},
      {R::kCheckpointLine, "next_seq 17\r", false},

      // Checkpoint crc trailers: only the canonical spelling, as in cell
      // summaries (a sign or a leading zero was accepted).
      {R::kCheckpointCrc, "crc {}", true},
      {R::kCheckpointCrc, "crc +{}", false},
      {R::kCheckpointCrc, "crc 0{}", false},
      {R::kCheckpointCrc, "crc {}x", false},

      // Cell summary fields: hex fingerprints and crcs in either case and
      // with strtoull's 0x prefix.
      {R::kCellSummaryLine, "grid_fp 00000000000000ab", true},
      {R::kCellSummaryLine, "grid_fp 00000000000000AB", true},
      {R::kCellSummaryLine, "grid_fp 0x00000000000000ab", true},
      {R::kCellSummaryLine, "cell_fp 0X0123456789ABCDEF", true},
      {R::kCellSummaryLine, "grid_fp 00000000000000ag", false},
      {R::kCellSummaryLine, "artifact cells/x/results.psrc 42 0000BEEF", true},
      {R::kCellSummaryLine, "artifact cells/x/results.psrc 42 0x0000beef",
       true},
      {R::kCellSummaryLine, "coverage 0.5", true},
      {R::kCellSummaryLine, "coverage 1e400", false},
      // Subnormals read back as written (strtod's ERANGE rejected them).
      {R::kCellSummaryLine, "coverage 4.9406564584124654e-324", true},
      {R::kCellSummaryLine, "coverage 2.2250738585072009e-308", true},
      // No hex floats, inf or nan (strtod took them).
      {R::kCellSummaryLine, "fault 0x1p-2", false},
      {R::kCellSummaryLine, "coverage inf", false},

      // Serve update specs.
      {R::kUpdate, "sample 1 2 3.5 0", true},
      {R::kUpdate, "sample\t1\t2\t3.5\t0", true},
      // Tokens split at all C-locale whitespace (it was space and tab).
      {R::kUpdate, "sample\v1 2 3.5 0", true},
      {R::kUpdate, "sample 1 2 3.5 0\f", true},
      {R::kUpdate, "sample 1 2 +3.5 0", true},
      {R::kUpdate, "sample 1 2 0x1p3 0", false},
      {R::kUpdate, "sample 1 2 inf 0", false},
      {R::kUpdate, "sample 1 2 3.5", false},

      // Trace query budgets.
      {R::kTraceBudget, "5", true},
      {R::kTraceBudget, "0", true},
      {R::kTraceBudget, "-1", false},
      // No inf, nan or hex floats (a nan budget was accepted).
      {R::kTraceBudget, "inf", false},
      {R::kTraceBudget, "nan", false},
      {R::kTraceBudget, "0x1p3", false},
      {R::kTraceBudget, "5ms", false},

      // Grid fault intensities.
      {R::kGridFault, "0.25", true},
      {R::kGridFault, "+0.25", true},
      {R::kGridFault, "0x1p-2", false},  // no hex floats
      {R::kGridFault, "inf", false},
      {R::kGridFault, "nan", false},
      {R::kGridFault, "1.5", false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(accepts(row), row.accepted) << describe(row);
  }
}

}  // namespace
}  // namespace pathsel
