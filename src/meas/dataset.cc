#include "meas/dataset.h"

#include <algorithm>
#include <unordered_set>

namespace pathsel::meas {

namespace {

std::uint64_t hash_path(std::span<const topo::AsId> path) noexcept {
  std::uint64_t h = path.size();
  for (const topo::AsId as : path) {
    h = (h ^ static_cast<std::uint32_t>(as.value())) * 0x9e3779b97f4a7c15ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

AsPathPool::AsPathPool() : begins_{0, 0}, slots_(16, kEmpty) {}

std::size_t AsPathPool::slot_of(std::span<const topo::AsId> path) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_path(path) & mask;; i = (i + 1) & mask) {
    const AsPathId id = slots_[i];
    if (id == kEmpty || std::ranges::equal(at(id), path)) return i;
  }
}

AsPathId AsPathPool::intern(std::span<const topo::AsId> path) {
  if (path.empty()) return kEmpty;
  const std::size_t slot = slot_of(path);
  if (slots_[slot] != kEmpty) return slots_[slot];
  const auto id = static_cast<AsPathId>(size());
  ases_.insert(ases_.end(), path.begin(), path.end());
  begins_.push_back(static_cast<std::uint32_t>(ases_.size()));
  if (2 * size() <= slots_.size()) {
    slots_[slot] = id;
  } else {
    slots_.assign(2 * slots_.size(), kEmpty);
    for (AsPathId i = 1; i <= id; ++i) slots_[slot_of(at(i))] = i;
  }
  return id;
}

const char* to_string(FailureReason reason) noexcept {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kEndpointDown: return "endpoint down";
    case FailureReason::kProbeFailure: return "probe failure";
    case FailureReason::kBlackhole: return "blackhole";
    case FailureReason::kNoRoute: return "no route";
    case FailureReason::kStuckProbe: return "stuck probe";
  }
  return "?";
}

std::size_t Dataset::covered_paths() const {
  std::unordered_set<std::uint64_t> seen;
  for (const auto& m : measurements) {
    if (!m.completed) continue;
    seen.insert(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src.value()))
         << 32) |
        static_cast<std::uint32_t>(m.dst.value()));
  }
  return seen.size();
}

std::size_t Dataset::completed_count() const {
  std::size_t n = 0;
  for (const auto& m : measurements) n += m.completed ? 1 : 0;
  return n;
}

}  // namespace pathsel::meas
