// b-bit and C-MinHash sketches: in-place truncation (mask_components), the
// C-MinHash sketch kernel, and the end-to-end quality floor of b-bit
// truncation (candidate recall on Table-III-style samples).
//
// Same contract as kernels_test.cpp: scalar and AVX2 paths must be
// *bit-identical*.

#include "core/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "core/minhash.hpp"
#include "eval/candidate_recall.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

using kernels::Backend;

bool avx2_available() { return kernels::backend_available(Backend::kAvx2); }

std::vector<std::uint64_t> random_values(common::Xoshiro256& rng,
                                         std::size_t count,
                                         std::uint64_t mask) {
  std::vector<std::uint64_t> values(count);
  for (auto& v : values) v = rng() & mask;
  return values;
}

// ---------------------------------------------------------- mask_components

TEST(MaskComponents, TruncatesEveryValueInPlace) {
  common::Xoshiro256 rng(17);
  kernels::SketchMatrix matrix(4, 19);
  kernels::SketchMatrix reference(4, 19);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 19; ++j) {
      const std::uint64_t v = rng();
      matrix.row(i)[j] = v;
      reference.row(i)[j] = v;
    }
  }
  kernels::mask_components(matrix, sketch_bits_mask(8));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 19; ++j) {
      EXPECT_EQ(matrix.row(i)[j], reference.row(i)[j] & 0xFF);
    }
  }
}

// ------------------------------------------------------------- cmin_sketch

TEST(CMinSketch, ScalarMatchesFamilyReference) {
  common::Xoshiro256 rng(23);
  for (const std::uint64_t modulus : {std::uint64_t{0}, std::uint64_t{1} << 20,
                                      std::uint64_t{1000003}}) {
    const CMinHashFamily family(33, modulus, 42);
    const auto features = random_values(rng, 101, ~std::uint64_t{0});
    std::vector<std::uint64_t> out(33);
    kernels::cmin_sketch(family.multiplier(), family.offsets(),
                         family.modulus(), features, out, Backend::kScalar);
    for (std::size_t k = 0; k < 33; ++k) {
      std::uint64_t expected = ~std::uint64_t{0};
      for (const std::uint64_t x : features) {
        expected = std::min(expected, family.hash(k, x));
      }
      EXPECT_EQ(out[k], expected) << "modulus=" << modulus << " k=" << k;
    }
  }
}

TEST(CMinSketch, Avx2BitIdenticalToScalar) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available";
  common::Xoshiro256 rng(29);
  // Hash counts straddle the 4-lane chunking; pow2 and 0 moduli take the
  // vector path, the prime modulus falls back to scalar inside dispatch.
  for (const std::size_t count : {1u, 4u, 5u, 64u, 67u}) {
    for (const std::uint64_t modulus :
         {std::uint64_t{0}, std::uint64_t{1} << 16, std::uint64_t{1000003}}) {
      const CMinHashFamily family(count, modulus, 7 + count);
      const auto features = random_values(rng, 53, ~std::uint64_t{0});
      std::vector<std::uint64_t> scalar_out(count);
      std::vector<std::uint64_t> avx2_out(count);
      kernels::cmin_sketch(family.multiplier(), family.offsets(),
                           family.modulus(), features, scalar_out,
                           Backend::kScalar);
      kernels::cmin_sketch(family.multiplier(), family.offsets(),
                           family.modulus(), features, avx2_out,
                           Backend::kAvx2);
      EXPECT_EQ(scalar_out, avx2_out)
          << "count=" << count << " modulus=" << modulus;
    }
  }
}

TEST(CMinSketch, EmptyFeatureSetYieldsSentinels) {
  const CMinHashFamily family(8, 0, 1);
  std::vector<std::uint64_t> out(8, 0);
  kernels::cmin_sketch(family.multiplier(), family.offsets(), family.modulus(),
                       {}, out);
  for (const std::uint64_t v : out) {
    EXPECT_EQ(v, kernels::kEmptyFeatureMin);
  }
}

// ----------------------------------------------- b-bit recall quality floor

TEST(BBitQuality, CandidateRecallAboveFloorAtEightBits) {
  // ISSUE acceptance: truncating sketches to b = 8 with the ORIGINAL θ
  // driving LSH band-shape selection must keep candidate recall ≥ 0.95 on a
  // Table-III-style staggered sample.
  const auto data = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = 150, .seed = 5});
  std::vector<std::string_view> seqs;
  seqs.reserve(data.reads.size());
  for (const auto& read : data.reads) seqs.emplace_back(read.seq);
  const MinHasher hasher({.kmer = 5, .num_hashes = 64, .canonical = true,
                          .seed = 1});
  kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs);
  kernels::mask_components(sketches, sketch_bits_mask(8));

  const auto report = eval::candidate_recall(
      sketches, 0.9, {.backend = candidates::Backend::kLshBanded},
      SketchEstimator::kComponentMatch);
  EXPECT_GE(report.recall, 0.95)
      << "true=" << report.true_pairs << " recovered=" << report.recovered_pairs;
}

}  // namespace
}  // namespace mrmc::core
