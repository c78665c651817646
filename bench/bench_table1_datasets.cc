// Table 1: characteristics of the datasets.
//
// The bench also round-trips every dataset through a .ds file (save_dataset,
// load_dataset) and requires the re-serialized bytes to match, so its
// JSON metrics carry the codec's meas.dataset.write / meas.dataset.read
// phases and record/byte counters for the perf gate.  The round trip adds
// nothing to the printed table or the JSON results.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"

namespace pathsel {
namespace {

// Saves the dataset, loads it back and re-serializes it; false (with a
// message on stderr) unless the bytes match.
bool round_trips(const meas::Dataset& ds) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pathsel_bench_table1_" + std::to_string(::getpid()) + ".ds"))
          .string();
  const Status saved = meas::save_dataset(path, ds);
  const Result<std::string> bytes = read_file(path);
  const Result<meas::Dataset> loaded = meas::load_dataset(path);
  std::remove(path.c_str());
  if (!saved.is_ok() || !bytes.is_ok() || !loaded.is_ok()) {
    std::fprintf(stderr, "%s: round trip failed: %s\n", ds.name.c_str(),
                 (!saved.is_ok()   ? saved
                  : !bytes.is_ok() ? bytes.status()
                                   : loaded.status())
                     .message()
                     .c_str());
    return false;
  }
  std::string again;
  meas::write_dataset_chunks(loaded.value(), [&again](std::string_view text) {
    again += text;
  });
  if (again != bytes.value()) {
    std::fprintf(stderr, "%s: read back re-serializes to different bytes\n",
                 ds.name.c_str());
    return false;
  }
  return true;
}

bool run() {
  bench::print_experiment_header(
      "Table 1", "characteristics of the regenerated datasets",
      "8 datasets; 15-39 hosts; 7.5k-217k measurements; 86-100% coverage");
  auto catalog = bench::make_catalog();

  Table table{"Table 1: dataset characteristics"};
  table.set_header({"dataset", "method", "duration", "hosts", "measurements",
                    "% paths covered", "paper: meas", "paper: cover"});
  struct Row {
    const char* name;
    const char* paper_meas;
    const char* paper_cover;
  };
  const Row rows[] = {
      {"D2-NA", "14896", "95%"}, {"D2", "35109", "97%"},
      {"N2-NA", "7582", "86%"},  {"N2", "18274", "88%"},
      {"UW1", "54034", "88%"},   {"UW3", "94420", "87%"},
      {"UW4-A", "216928", "100%"}, {"UW4-B", "9169", "100%"},
  };
  for (const Row& row : rows) {
    const meas::Dataset& ds = catalog.by_name(row.name);
    const char* method =
        ds.kind == meas::MeasurementKind::kTraceroute ? "traceroute" : "tcpanaly";
    char days[32];
    std::snprintf(days, sizeof days, "%.1f days", ds.duration.total_days());
    table.add_row({ds.name, method, days, std::to_string(ds.hosts.size()),
                   std::to_string(ds.completed_count()),
                   Table::pct(static_cast<double>(ds.covered_paths()) /
                              static_cast<double>(ds.potential_paths())),
                   row.paper_meas, row.paper_cover});
  }
  bench::emit(table);

  bool ok = true;
  for (const Row& row : rows) ok = round_trips(catalog.by_name(row.name)) && ok;
  return ok;
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "table1_datasets")) return 2;
  const bool ok = pathsel::run();
  const int rc = pathsel::bench::finish();
  return ok ? rc : 1;
}
