#include "matrix/queue.h"

#include <cstdio>

#include "util/codec.h"

namespace pathsel::matrix {

namespace {

std::string cell_file_stem(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell-%05zu", index);
  return buf;
}

}  // namespace

std::string queue_dir(const std::string& work_dir) {
  return work_dir + "/queue";
}

std::string cells_dir(const std::string& work_dir) {
  return work_dir + "/cells";
}

std::string datasets_dir(const std::string& work_dir) {
  return work_dir + "/datasets";
}

std::string report_path(const std::string& work_dir) {
  return work_dir + "/report.txt";
}

std::string grid_file_path(const std::string& work_dir) {
  return work_dir + "/grid.canonical";
}

std::string cell_summary_path(const std::string& work_dir, std::size_t index) {
  return queue_dir(work_dir) + "/" + cell_file_stem(index) + ".summary";
}

std::string cell_work_dir(const std::string& work_dir, std::size_t index,
                          std::uint64_t cell_fp) {
  return cells_dir(work_dir) + "/" + cell_file_stem(index) + "-" +
         codec::to_text(codec::Hex{cell_fp});
}

Result<FileLock> try_claim_collection(const std::string& work_dir,
                                      std::uint64_t key) {
  return FileLock::try_acquire(queue_dir(work_dir) + "/collection-" +
                               codec::to_text(codec::Hex{key}) + ".lock");
}

Result<CellSummary> load_valid_summary(const std::string& work_dir,
                                       std::size_t index,
                                       std::uint64_t grid_fp,
                                       std::uint64_t cell_fp) {
  const std::string path = cell_summary_path(work_dir, index);
  const Result<std::string> text = read_file(path);
  if (!text.is_ok()) return text.status();
  Result<CellSummary> parsed = parse_cell_summary(text.value());
  if (!parsed.is_ok()) {
    return Status::error(ErrorCode::kParseError,
                         path + ": " + parsed.status().message());
  }
  const CellSummary& s = parsed.value();
  if (s.grid_fp != grid_fp || s.cell_fp != cell_fp || s.index != index) {
    return Status::error(ErrorCode::kInvalidArgument,
                         path + ": summary belongs to a different grid or "
                                "cell (stale state from an edited grid)");
  }
  return parsed;
}

}  // namespace pathsel::matrix
