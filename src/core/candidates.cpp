#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

BucketIndex build_bucket_index(const kernels::SketchMatrix& sketches,
                               const Params& params, double theta,
                               common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  const bool exact = params.backend == Backend::kExactAllPairs;
  BucketIndex index;
  if (!exact && n < 2) return index;
  const BandShape shape =
      exact ? BandShape{1, sketches.cols()}
            : resolve_band_shape(params, sketches.cols(), theta);
  const std::size_t bands = shape.bands;
  const std::size_t slots = n * bands;
  MRMC_REQUIRE(slots < std::numeric_limits<std::uint32_t>::max(),
               "too many (read, band) entries for 32-bit bucket ids");
  index.bands = bands;
  index.bucket_of.assign(slots, 0);
  if (exact) {
    index.start = {0, static_cast<std::uint32_t>(n)};
    return index;
  }

  // One (key, slot) entry per slot, sorted so each bucket is a contiguous
  // run of equal keys.  Memory-lean relative to hash maps at millions of
  // reads, and trivially deterministic.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(slots);
  auto fill_row = [&](std::size_t i) {
    const auto sketch = sketches.row(i);
    for (std::size_t band = 0; band < bands; ++band) {
      const std::size_t slot = i * bands + band;
      entries[slot] = {band_bucket_key(sketch, band, shape, params.seed),
                       static_cast<std::uint32_t>(slot)};
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_row(i);
  }
  std::sort(entries.begin(), entries.end());
  for (std::size_t e = 0; e < slots; ++e) {
    if (e == 0 || entries[e].first != entries[e - 1].first) {
      index.start.push_back(static_cast<std::uint32_t>(e));
    }
    index.bucket_of[entries[e].second] =
        static_cast<std::uint32_t>(index.start.size() - 1);
  }
  index.start.push_back(static_cast<std::uint32_t>(slots));
  return index;
}

std::vector<Pair> enumerate_pairs(const kernels::SketchMatrix& sketches,
                                  const Params& params, double theta,
                                  common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  if (n < 2) return {};
  const BucketIndex index = build_bucket_index(sketches, params, theta, pool);
  // Each bucket's read ids, ascending: the slots in order, each placed at
  // its bucket's next offset.
  std::vector<std::uint32_t> members(index.bucket_of.size());
  std::vector<std::uint32_t> cursor(index.start.begin(), index.start.end() - 1);
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    members[cursor[index.bucket_of[slot]]++] =
        static_cast<std::uint32_t>(slot / index.bands);
  }
  // One bucket of distinct ascending reads (the exact backend) expands in
  // (a, b) order already; otherwise a pair may surface from several buckets.
  const bool presorted = index.bands == 1 && index.num_buckets() == 1;
  std::vector<Pair> pairs;
  if (presorted) pairs.reserve(n * (n - 1) / 2);
  for (std::size_t bucket = 0; bucket < index.num_buckets(); ++bucket) {
    const auto first = members.begin() + index.start[bucket];
    const auto last = members.begin() + index.start[bucket + 1];
    for (auto i = first; i != last; ++i) {
      for (auto j = i + 1; j != last; ++j) {
        // Two bands of one read sharing a key must not become a self-pair.
        if (*i != *j) pairs.emplace_back(*i, *j);
      }
    }
  }
  if (!presorted) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  }
  return pairs;
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
