// Internal contract between the dense kernel's dispatch layer and its
// per-ISA inner loops (scalar TU: dense_kernel.cc; AVX2 TU:
// dense_kernel_avx2.cc, compiled with -mavx2 -mfma only where the toolchain
// accepts them).  Not installed; include only from src/core and tests.
//
// Both implementations compute exactly
//
//   for k in [k_begin, k_end) ascending:
//     if w[i][k] == +inf: continue
//     for j in [j_begin, j_end):
//       cand = w[i][k] + w[k][j]
//       if cand < best[j]: best[j] = cand; via[j] = k
//
// where best_row and via_row point at best[j_begin] and via[j_begin] (so one
// cell can be computed into two scalars), with IEEE double addition and a
// strict `<`, so for any tiling that feeds every k block in ascending order
// the two are bit-identical: the same additions happen in the same order per
// (i, j) cell, and ties keep the smallest relay index in both.  The
// differential suite (tests/core/dense_kernel_simd_test.cc) locks this lane
// by lane.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pathsel::core::detail {

/// Portable inner loop (baseline ISA; compilers may auto-vectorize it, which
/// cannot change results — min and add are lane-independent).
void min_plus_row_scalar(const double* w, std::size_t n, std::size_t i,
                         std::size_t k_begin, std::size_t k_end,
                         std::size_t j_begin, std::size_t j_end,
                         double* best_row, std::int32_t* via_row);

/// AVX2 inner loop: 4 j-columns per vector, blend-on-strict-less for both
/// the best plane (256-bit doubles) and the via plane (128-bit int32 lanes,
/// mask narrowed with permutevar8x32).  When the binary was built without
/// AVX2 support this symbol still exists and forwards to the scalar loop —
/// the dispatch layer never selects it in that case (avx2_compiled()).
void min_plus_row_avx2(const double* w, std::size_t n, std::size_t i,
                       std::size_t k_begin, std::size_t k_end,
                       std::size_t j_begin, std::size_t j_end,
                       double* best_row, std::int32_t* via_row);

/// Whether this binary carries a real AVX2 inner loop (compile-time half of
/// core::avx2_supported(); the runtime half is CPU detection).
[[nodiscard]] bool avx2_compiled() noexcept;

}  // namespace pathsel::core::detail
