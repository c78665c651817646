// AVX2 inner loop for the dense min-plus kernel.
//
// This is the only translation unit compiled with -mavx2 -mfma (set
// per-source in src/core/CMakeLists.txt), so the rest of the library stays
// runnable on baseline x86-64 — the dispatch in dense_kernel.cc selects this
// loop only after __builtin_cpu_supports("avx2") says the CPU executes it.
//
// Bit-identity with the scalar loop: the vector body performs the same IEEE
// additions (w_ik + w_k[j]; no FMA contraction is possible — min-plus has no
// multiply, so -mfma only licenses the compiler for address math) and the
// same strict-< compare per (i, j, k) triple, and k advances sequentially
// exactly as in the scalar loop.  Lanes are independent, so processing 4 j
// columns at once cannot reorder any cell's k sequence; ties (cand ==
// best) fail the strict compare in every lane and keep the earlier —
// smaller — relay index.
#include "core/dense_kernel_impl.h"

#include <limits>

#if defined(PATHSEL_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define PATHSEL_AVX2_BODY 1
#include <immintrin.h>
#else
#define PATHSEL_AVX2_BODY 0
#endif

namespace pathsel::core::detail {

bool avx2_compiled() noexcept { return PATHSEL_AVX2_BODY != 0; }

#if PATHSEL_AVX2_BODY

void min_plus_row_avx2(const double* w, std::size_t n, std::size_t i,
                       std::size_t k_begin, std::size_t k_end,
                       std::size_t j_begin, std::size_t j_end,
                       double* best_row, std::int32_t* via_row) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Narrows the 4×64-bit compare mask to 4×32-bit lanes for the via blend
  // (lane l of the result is 32-bit word 2l of the input, i.e. the low half
  // of each all-ones/all-zeros 64-bit lane).
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double w_ik = w[i * n + k];
    if (w_ik == kInf) continue;  // also skips k == i
    const double* w_k = w + k * n + j_begin;
    const __m256d vw_ik = _mm256_set1_pd(w_ik);
    const __m128i vk = _mm_set1_epi32(static_cast<std::int32_t>(k));
    const std::size_t width = j_end - j_begin;
    std::size_t j = 0;
    for (; j + 4 <= width; j += 4) {
      const __m256d cand = _mm256_add_pd(vw_ik, _mm256_loadu_pd(w_k + j));
      const __m256d best = _mm256_loadu_pd(best_row + j);
      const __m256d lt = _mm256_cmp_pd(cand, best, _CMP_LT_OQ);
      // After the first few k, improvements are rare: skip both stores when
      // no lane won (saves the read-modify-write on best and via).
      if (_mm256_movemask_pd(lt) == 0) continue;
      _mm256_storeu_pd(best_row + j, _mm256_blendv_pd(best, cand, lt));
      const __m128i m32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lt), narrow));
      const __m128i old_via =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(via_row + j));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(via_row + j),
                       _mm_blendv_epi8(old_via, vk, m32));
    }
    // Ragged tail (width not a multiple of 4): scalar, same k.
    for (; j < width; ++j) {
      const double cand = w_ik + w_k[j];
      if (cand < best_row[j]) {
        best_row[j] = cand;
        via_row[j] = static_cast<std::int32_t>(k);
      }
    }
  }
}

#else  // !PATHSEL_AVX2_BODY

// Keeps the symbol on toolchains/architectures without AVX2; unreachable in
// practice because resolve_simd_mode() requires avx2_compiled().
void min_plus_row_avx2(const double* w, std::size_t n, std::size_t i,
                       std::size_t k_begin, std::size_t k_end,
                       std::size_t j_begin, std::size_t j_end,
                       double* best_row, std::int32_t* via_row) {
  min_plus_row_scalar(w, n, i, k_begin, k_end, j_begin, j_end, best_row,
                      via_row);
}

#endif  // PATHSEL_AVX2_BODY

}  // namespace pathsel::core::detail
