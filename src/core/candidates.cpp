#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/kernels.hpp"

namespace mrmc::core::candidates {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kExactAllPairs: return "exact";
    case Backend::kLshBanded: return "lsh";
  }
  return "?";
}

double lsh_collision_probability(double jaccard, std::size_t bands,
                                 std::size_t rows) noexcept {
  return 1.0 - std::pow(1.0 - std::pow(jaccard, static_cast<double>(rows)),
                        static_cast<double>(bands));
}

double lsh_threshold(std::size_t bands, std::size_t rows) noexcept {
  return std::pow(1.0 / static_cast<double>(bands),
                  1.0 / static_cast<double>(rows));
}

BandShape validated_band_shape(std::size_t sketch_size, std::size_t bands) {
  MRMC_REQUIRE(bands >= 1, "need at least one band");
  MRMC_REQUIRE(sketch_size >= 1, "need a nonempty sketch");
  MRMC_REQUIRE(sketch_size % bands == 0, "bands must divide the sketch length");
  return {bands, sketch_size / bands};
}

BandShape select_band_shape(std::size_t sketch_size, double theta,
                            double target_recall) {
  MRMC_REQUIRE(sketch_size >= 1, "need a nonempty sketch");
  MRMC_REQUIRE(theta >= 0.0 && theta <= 1.0, "theta in [0, 1]");
  MRMC_REQUIRE(target_recall > 0.0 && target_recall <= 1.0,
               "target_recall in (0, 1]");
  // At fixed J the collision probability rises monotonically with the band
  // count (shorter bands match more easily and there are more of them), so
  // scanning bands upward finds the unique cheapest shape that meets the
  // target.
  for (std::size_t bands = 1; bands <= sketch_size; ++bands) {
    if (sketch_size % bands != 0) continue;
    const std::size_t rows = sketch_size / bands;
    if (lsh_collision_probability(theta, bands, rows) >= target_recall) {
      return {bands, rows};
    }
  }
  return {sketch_size, 1};  // most sensitive shape; target unreachable
}

BandShape resolve_band_shape(const Params& params, std::size_t sketch_size,
                             double theta) {
  return params.bands != 0
             ? validated_band_shape(sketch_size, params.bands)
             : select_band_shape(sketch_size, theta, params.target_recall);
}

std::uint64_t band_bucket_key(std::span<const std::uint64_t> sketch,
                              std::size_t band, const BandShape& shape,
                              std::uint64_t seed) noexcept {
  std::uint64_t h = common::mix64(seed ^ (band * 0x9e3779b97f4a7c15ULL));
  for (std::size_t r = band * shape.rows; r < (band + 1) * shape.rows; ++r) {
    h = common::mix64(h ^ sketch[r]);
  }
  return h;
}

namespace {

std::vector<Pair> all_pairs(std::size_t n) {
  std::vector<Pair> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

/// Sort-based batch bucketing: one (key, id) entry per (read, band), sorted
/// so each bucket is a contiguous run.  Memory-lean relative to hash maps
/// at millions of reads, and trivially deterministic.
std::vector<Pair> lsh_pairs(const kernels::SketchMatrix& sketches,
                            const BandShape& shape, std::uint64_t seed,
                            common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(n * shape.bands);
  auto fill_row = [&](std::size_t i) {
    const auto sketch = sketches.row(i);
    for (std::size_t band = 0; band < shape.bands; ++band) {
      entries[i * shape.bands + band] = {
          band_bucket_key(sketch, band, shape, seed),
          static_cast<std::uint32_t>(i)};
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_row(i);
  }
  std::sort(entries.begin(), entries.end());

  std::vector<Pair> pairs;
  for (std::size_t lo = 0; lo < entries.size();) {
    std::size_t hi = lo + 1;
    while (hi < entries.size() && entries[hi].first == entries[lo].first) ++hi;
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < hi; ++j) {
        // ids ascend within a run (the sort's tiebreak), so a < b holds;
        // equal ids (two bands of one read colliding on the same key) must
        // not become a self-pair.
        if (entries[i].second == entries[j].second) continue;
        pairs.emplace_back(entries[i].second, entries[j].second);
      }
    }
    lo = hi;
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

std::vector<Pair> enumerate_pairs(const kernels::SketchMatrix& sketches,
                                  const Params& params, double theta,
                                  common::ThreadPool* pool) {
  if (sketches.rows() < 2) return {};
  if (params.backend == Backend::kExactAllPairs) {
    return all_pairs(sketches.rows());
  }
  const BandShape shape = resolve_band_shape(params, sketches.cols(), theta);
  return lsh_pairs(sketches, shape, params.seed, pool);
}

PairScorer::PairScorer(const kernels::SketchMatrix& sketches,
                       SketchEstimator estimator)
    : sketches_(sketches),
      set_based_(estimator == SketchEstimator::kSetBased),
      store_(set_based_ ? SortedSketchStore(sketches) : SortedSketchStore()),
      // Multiply-by-reciprocal, exactly as kernels::component_match_matrix
      // does, so exact-backend graphs match the dense matrix to the last bit.
      inv_cols_(sketches.cols() == 0
                    ? 0.0
                    : 1.0 / static_cast<double>(sketches.cols())) {}

double PairScorer::operator()(std::size_t a, std::size_t b) const noexcept {
  if (set_based_) return store_.jaccard(a, b);
  return static_cast<double>(
             kernels::count_equal(sketches_.row(a), sketches_.row(b))) *
         inv_cols_;
}

SparseSimilarityGraph verify_pairs(const kernels::SketchMatrix& sketches,
                                   std::span<const Pair> pairs,
                                   SketchEstimator estimator,
                                   common::ThreadPool* pool) {
  SparseSimilarityGraph graph;
  graph.num_vertices = sketches.rows();
  graph.edges.resize(pairs.size());

  const PairScorer similarity(sketches, estimator);
  auto score = [&](std::size_t p) {
    const auto [a, b] = pairs[p];
    MRMC_REQUIRE(a < b && b < sketches.rows(), "candidate pair out of range");
    graph.edges[p] = Edge{a, b, similarity(a, b)};
  };
  if (pool != nullptr) {
    pool->parallel_for(pairs.size(), score);
  } else {
    for (std::size_t p = 0; p < pairs.size(); ++p) score(p);
  }
  return graph;
}

SparseSimilarityGraph build_graph(const kernels::SketchMatrix& sketches,
                                  const Params& params, double theta,
                                  SketchEstimator estimator,
                                  common::ThreadPool* pool) {
  const std::vector<Pair> pairs =
      enumerate_pairs(sketches, params, theta, pool);
  return verify_pairs(sketches, pairs, estimator, pool);
}

}  // namespace mrmc::core::candidates
