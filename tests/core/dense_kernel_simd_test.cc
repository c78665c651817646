// SIMD dispatch and lane-level edge cases for the dense min-plus kernel.
//
// The differential suite (dense_kernel_diff_test.cc) proves SIMD ≡ scalar ≡
// search end to end over the 21 seeded tables; this file attacks the places
// a vectorized arg-min can silently diverge: matrix sizes that are not a
// multiple of the 4-lane vector width (ragged tails), all-+inf rows, equal-
// cost relays whose ties land on every lane position, the PATHSEL_SIMD /
// AnalyzerOptions dispatch precedence, and the memory-estimate guard that
// replaced the old fixed 8192-host auto cap.
#include "core/dense_kernel.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/alternate.h"
#include "util/rng.h"

namespace pathsel::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Random asymmetric weight matrix: each off-diagonal cell is finite with
// probability `density` (min_plus_square requires no symmetry; the sweep
// builds symmetric matrices but the kernel contract is general).
WeightMatrix random_matrix(std::size_t n, double density, std::uint64_t seed) {
  WeightMatrix w;
  w.n = n;
  w.w.assign(n * n, kInf);
  Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || !rng.bernoulli(density)) continue;
      w.w[i * n + j] = rng.uniform(1.0, 100.0);
    }
  }
  return w;
}

MinPlusSquare square(const WeightMatrix& w, SimdMode simd, int threads = 1) {
  auto result = min_plus_square(w, threads, nullptr, simd);
  EXPECT_TRUE(result.is_ok());
  return std::move(result.value());
}

// Bitwise equality: doubles compared through memcmp so even a ±0.0 or NaN
// payload difference would surface (the kernel never produces NaNs, but the
// check must not paper over one).
void expect_bitwise_equal(const MinPlusSquare& a, const MinPlusSquare& b) {
  ASSERT_EQ(a.n, b.n);
  ASSERT_EQ(a.best.size(), b.best.size());
  ASSERT_EQ(a.via, b.via);
  EXPECT_EQ(std::memcmp(a.best.data(), b.best.data(),
                        a.best.size() * sizeof(double)),
            0);
}

// Reference arg-min for one matrix, straight from the definition.
MinPlusSquare brute_force(const WeightMatrix& w) {
  MinPlusSquare out;
  out.n = w.n;
  out.best.assign(w.n * w.n, kInf);
  out.via.assign(w.n * w.n, kNoRelay);
  for (std::size_t i = 0; i < w.n; ++i) {
    for (std::size_t j = 0; j < w.n; ++j) {
      for (std::size_t k = 0; k < w.n; ++k) {
        const double cand = w.w[i * w.n + k] + w.w[k * w.n + j];
        if (cand < out.best[i * w.n + j]) {
          out.best[i * w.n + j] = cand;
          out.via[i * w.n + j] = static_cast<std::int32_t>(k);
        }
      }
    }
  }
  return out;
}

class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    if (const char* old = std::getenv("PATHSEL_SIMD")) saved_ = old;
    ::setenv("PATHSEL_SIMD", value, 1);
  }
  ~ScopedSimdEnv() {
    if (saved_.empty()) {
      ::unsetenv("PATHSEL_SIMD");
    } else {
      ::setenv("PATHSEL_SIMD", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST(DenseKernelSimd, DispatchResolvesCoherently) {
  ::unsetenv("PATHSEL_SIMD");
  EXPECT_EQ(resolve_simd_mode(SimdMode::kScalar), SimdMode::kScalar);
  EXPECT_EQ(resolve_simd_mode(SimdMode::kAvx2),
            avx2_supported() ? SimdMode::kAvx2 : SimdMode::kScalar);
  const SimdMode resolved = resolve_simd_mode(SimdMode::kAuto);
  EXPECT_NE(resolved, SimdMode::kAuto);
  // kAuto picks the widest supported path.
  EXPECT_EQ(resolved, avx2_supported() ? SimdMode::kAvx2 : SimdMode::kScalar);
  EXPECT_STREQ(simd_mode_name(SimdMode::kAuto), "auto");
  EXPECT_STREQ(simd_mode_name(SimdMode::kAvx2), "avx2");
  EXPECT_STREQ(simd_mode_name(SimdMode::kScalar), "scalar");
}

TEST(DenseKernelSimd, EnvSteersAutoButNotExplicitRequests) {
  {
    ScopedSimdEnv env{"scalar"};
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAuto), SimdMode::kScalar);
    // An explicit AnalyzerOptions request outranks the environment.
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAvx2),
              avx2_supported() ? SimdMode::kAvx2 : SimdMode::kScalar);
  }
  {
    ScopedSimdEnv env{"avx2"};
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAuto),
              avx2_supported() ? SimdMode::kAvx2 : SimdMode::kScalar);
    EXPECT_EQ(resolve_simd_mode(SimdMode::kScalar), SimdMode::kScalar);
  }
  {
    // Unknown values warn (once) and mean auto; they must not abort.
    ScopedSimdEnv env{"sse9"};
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAuto),
              avx2_supported() ? SimdMode::kAvx2 : SimdMode::kScalar);
  }
}

TEST(DenseKernelSimd, BitIdenticalAcrossRaggedWidths) {
  // Sizes straddling every tail length mod 4 (the vector width), the row
  // chunk (8), and the k/j block boundaries.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{9},
        std::size_t{15}, std::size_t{17}, std::size_t{33}, std::size_t{64},
        std::size_t{65}}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const WeightMatrix w = random_matrix(n, 0.6, 1000 + n);
    const MinPlusSquare scalar = square(w, SimdMode::kScalar);
    const MinPlusSquare simd = square(w, SimdMode::kAvx2);
    expect_bitwise_equal(scalar, simd);
    const MinPlusSquare reference = brute_force(w);
    expect_bitwise_equal(scalar, reference);
    // The single-cell primitive the serve engine refreshes rows with.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(min_plus_relay(w, i, j), scalar.via[i * n + j]);
      }
    }
  }
}

TEST(DenseKernelSimd, ThreadCountInvariantUnderEveryMode) {
  const WeightMatrix w = random_matrix(65, 0.7, 77);
  for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
    SCOPED_TRACE(testing::Message() << "simd=" << simd_mode_name(simd));
    const MinPlusSquare base = square(w, simd, 1);
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      expect_bitwise_equal(base, square(w, simd, threads));
    }
  }
}

TEST(DenseKernelSimd, AllInfRowsStayInfEverywhere) {
  // Hosts 3 and 4 are isolated (their rows and columns are all +inf) in a
  // 9-host matrix: no cell may ever pick them as a relay, and every cell
  // whose endpoints include them stays (+inf, kNoRelay) under both modes.
  WeightMatrix w = random_matrix(9, 1.0, 42);
  for (std::size_t iso : {std::size_t{3}, std::size_t{4}}) {
    for (std::size_t j = 0; j < w.n; ++j) {
      w.w[iso * w.n + j] = kInf;
      w.w[j * w.n + iso] = kInf;
    }
  }
  for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
    SCOPED_TRACE(testing::Message() << "simd=" << simd_mode_name(simd));
    const MinPlusSquare mp = square(w, simd);
    for (std::size_t i = 0; i < w.n; ++i) {
      for (std::size_t j = 0; j < w.n; ++j) {
        EXPECT_NE(mp.via[i * w.n + j], 3);
        EXPECT_NE(mp.via[i * w.n + j], 4);
        if (i == 3 || i == 4 || j == 3 || j == 4) {
          EXPECT_EQ(mp.best[i * w.n + j], kInf);
          EXPECT_EQ(mp.via[i * w.n + j], kNoRelay);
        }
      }
    }
  }
  // Fully disconnected matrix: everything stays at the identity.
  WeightMatrix empty;
  empty.n = 6;
  empty.w.assign(36, kInf);
  for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
    const MinPlusSquare mp = square(empty, simd);
    for (const double v : mp.best) EXPECT_EQ(v, kInf);
    for (const std::int32_t v : mp.via) EXPECT_EQ(v, kNoRelay);
  }
}

TEST(DenseKernelSimd, TieBreaksToSmallestRelayOnEveryLane) {
  // Row 0 reaches relays 2..10 at unit cost; each relay reaches every
  // column j at a cost drawn from {5, 7} by a fixed pattern, so equal-cost
  // ties occur at every lane position of the 4-wide vectors and across the
  // ragged tail (n = 13).  The strict-< blend must keep the first
  // (smallest-k) winner in every lane; brute force is the oracle.
  const std::size_t n = 13;
  WeightMatrix w;
  w.n = n;
  w.w.assign(n * n, kInf);
  for (std::size_t k = 2; k <= 10; ++k) {
    w.w[0 * n + k] = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == k) continue;
      w.w[k * n + j] = (k * 31 + j * 17) % 3 == 0 ? 5.0 : 7.0;
    }
  }
  const MinPlusSquare scalar = square(w, SimdMode::kScalar);
  const MinPlusSquare simd = square(w, SimdMode::kAvx2);
  expect_bitwise_equal(scalar, simd);
  expect_bitwise_equal(scalar, brute_force(w));
  // Sanity on one fully tied column: every relay k=2..10 reaches j=2 at 7.0
  // except k=2 itself (diagonal); (2*31 + j*17) patterns guarantee at least
  // one all-equal column exists — assert the smallest relay won there.
  for (std::size_t j = 1; j < n; ++j) {
    const std::int32_t k = scalar.via[0 * n + j];
    if (k == kNoRelay) continue;
    const double best = scalar.best[0 * n + j];
    for (std::int32_t earlier = 2; earlier < k; ++earlier) {
      const double cand = w.w[0 * n + static_cast<std::size_t>(earlier)] +
                          w.w[static_cast<std::size_t>(earlier) * n + j];
      EXPECT_GT(cand, best) << "relay " << earlier << " tied or beat the "
                            << "winner " << k << " at column " << j
                            << " but lost the tie-break";
    }
  }
}

// ---------------------------------------------------------------------------
// Memory-estimate guard (the old fixed 8192-host cap is gone).

TEST(DenseKernelSimd, MemoryEstimateCountsAllThreePlanes) {
  // N² cells × (8-byte weight + 8-byte best + 4-byte via).
  EXPECT_EQ(dense_kernel_memory_bytes(1000), 1000u * 1000u * 20u);
  EXPECT_EQ(dense_kernel_memory_bytes(0), 0u);
}

TEST(DenseKernelSimd, AutoAdmitsHostsAboveTheOldCapWithinBudget) {
  AnalyzerOptions o;
  o.max_intermediate_hosts = 1;
  // 10⁴ hosts, densely measured: beyond the old 8192 cap, well inside the
  // default 4 GiB budget (20 × 10⁸ B = 2 GB) and past the cost ratio.
  const std::size_t hosts = 10'000;
  const std::size_t edges = hosts * (hosts - 1) / 4;  // half density
  EXPECT_TRUE(dense_kernel_applicable(hosts, edges, o));
  // The budget decides between 14,650 hosts (≈ 4.29e9 B) and 14,700 hosts
  // (≈ 4.32e9 B), both complete meshes far past the cost ratio.
  const auto mesh_edges = [](std::size_t n) { return n * (n - 1) / 2; };
  ASSERT_LE(dense_kernel_memory_bytes(14'650), kDenseDefaultMemoryBudget);
  ASSERT_GT(dense_kernel_memory_bytes(14'700), kDenseDefaultMemoryBudget);
  EXPECT_TRUE(dense_kernel_applicable(14'650, mesh_edges(14'650), o));
  EXPECT_FALSE(dense_kernel_applicable(14'700, mesh_edges(14'700), o));
  // Forcing the kernel overrides the budget — explicit opt-in.
  o.kernel = Kernel::kDense;
  EXPECT_TRUE(dense_kernel_applicable(14'700, mesh_edges(14'700), o));
}

}  // namespace
}  // namespace pathsel::core
