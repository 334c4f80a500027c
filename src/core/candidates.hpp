// core::candidates — the pair-enumeration layer every clustering path goes
// through.  The paper (and the seed reproduction) compares all O(n^2) sketch
// pairs in the similarity job, the greedy sweep, and the hierarchical
// matrix; this layer makes "which pairs do we even score?" a first-class,
// swappable decision with two backends behind one interface:
//
//   * kExactAllPairs — every (i, j), i < j.  Today's behavior, the default
//     for small inputs, and the recall oracle the LSH backend is measured
//     against (eval/candidate_recall).
//   * kLshBanded — minhash sketches are split into `bands` bands of `rows`
//     components; two sketches land in the same bucket of some band with
//     probability 1 - (1 - J^rows)^bands (the classic S-curve), so only
//     bucket-mates become candidate pairs.  Near-linear in practice where
//     all-pairs is quadratic (bench/ablation_lsh_index).
//
// Both backends build one BucketIndex (exact: one bucket of every read).
// enumerate_pairs expands its buckets into pairs; the greedy bucket sweep
// (core/greedy) probes them for earlier representatives only.
//
// Candidates are then *verified*: every pair is scored with the batched
// sketch kernels (PairScorer: count_equal / SortedSketchStore) into a
// SparseSimilarityGraph that hierarchical (similarity_matrix_from_graph),
// pig's CalculatePairwiseSimilarity and greedy_cluster_graph consume.  The
// S-curve / band-shape math lives here and only here.
//
// Everything in this header is deterministic: candidate sets and edge lists
// are sorted and deduplicated, so they are byte-identical across thread
// counts, record split orders, local vs distributed execution, and scalar
// vs AVX2 kernel backends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/minhash.hpp"

namespace mrmc::core::candidates {

enum class Backend {
  kExactAllPairs,  ///< every pair; the recall oracle
  kLshBanded,      ///< banded minhash buckets propose pairs
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// A resolved banding: bands * rows == sketch_size.
struct BandShape {
  std::size_t bands = 0;
  std::size_t rows = 0;
};

/// Probability that two sketches with Jaccard similarity `jaccard` collide
/// in at least one band: 1 - (1 - J^rows)^bands.
[[nodiscard]] double lsh_collision_probability(double jaccard, std::size_t bands,
                                               std::size_t rows) noexcept;

/// The similarity at which the S-curve crosses 1/2 — the banding's effective
/// threshold: (1/bands)^(1/rows) approximately.
[[nodiscard]] double lsh_threshold(std::size_t bands, std::size_t rows) noexcept;

/// Validates an explicit band count against the sketch length.  Throws
/// common::InvalidArgument unless bands >= 1 and bands divides sketch_size.
[[nodiscard]] BandShape validated_band_shape(std::size_t sketch_size,
                                             std::size_t bands);

/// θ-driven shape selection: among the divisor pairs (bands, rows) with
/// bands * rows == sketch_size, pick the cheapest banding (fewest bands —
/// fewest buckets, fewest candidates) whose S-curve still recovers pairs at
/// similarity `theta` with probability >= `target_recall`.  The collision
/// probability at fixed J rises monotonically with the band count, so the
/// answer is unique; when even the most sensitive shape (rows == 1) misses
/// the target, that shape is returned.
[[nodiscard]] BandShape select_band_shape(std::size_t sketch_size, double theta,
                                          double target_recall = 0.95);

struct Params {
  Backend backend = Backend::kExactAllPairs;
  /// Explicit band count for the LSH backend; 0 = choose from θ via
  /// select_band_shape.  Must divide the sketch length when nonzero.
  std::size_t bands = 0;
  /// Auto band-shape target: minimum S-curve collision probability at θ.
  double target_recall = 0.95;
  std::uint64_t seed = 0x5ca1ab1eULL;
};

/// Resolve `params` against a concrete sketch length (validates explicit
/// band counts, runs the S-curve selection for bands == 0).
[[nodiscard]] BandShape resolve_band_shape(const Params& params,
                                           std::size_t sketch_size,
                                           double theta);

/// The banding hash: bucket key of `sketch`'s band `band` under `shape`.
/// build_bucket_index and the candidate MapReduce job both call it, so
/// their buckets (and therefore their candidate sets) agree.
[[nodiscard]] std::uint64_t band_bucket_key(std::span<const std::uint64_t> sketch,
                                            std::size_t band,
                                            const BandShape& shape,
                                            std::uint64_t seed) noexcept;

/// Every read filed under its buckets, `bands` slots per read (slot
/// read·bands + band).  Bucket b holds start[b + 1] - start[b] slots; a
/// read whose bands share a key fills that bucket once per such band.
struct BucketIndex {
  std::size_t bands = 0;
  std::vector<std::uint32_t> bucket_of;  ///< slot -> dense bucket id
  std::vector<std::uint32_t> start;      ///< num_buckets() + 1 offsets

  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return start.empty() ? 0 : start.size() - 1;
  }
};

/// The one bucket index behind enumerate_pairs and the greedy bucket sweep.
/// Exact backend: one bucket that holds every read, built without a sort.
/// LSH backend: the band_bucket_keys of the shape `params` resolves at
/// `theta` (computed on `pool` when given), then one sort of (key, slot)
/// entries into dense bucket ids; equal keys share a bucket in any band.
/// Under LSH, fewer than two reads resolve no shape and get no buckets.
[[nodiscard]] BucketIndex build_bucket_index(
    const kernels::SketchMatrix& sketches, const Params& params, double theta,
    common::ThreadPool* pool = nullptr);

/// An unordered candidate pair, stored with a < b.
using Pair = std::pair<std::uint32_t, std::uint32_t>;

/// Enumerate candidate pairs for the whole sketch matrix under `params`:
/// the bucket-mates of build_bucket_index — all pairs (exact backend) or
/// reads sharing a band key (LSH backend).  The result is sorted by (a, b)
/// and deduplicated — identical at any `pool` size, and identical to what
/// the candidate MapReduce job produces for the same inputs.
[[nodiscard]] std::vector<Pair> enumerate_pairs(
    const kernels::SketchMatrix& sketches, const Params& params, double theta,
    common::ThreadPool* pool = nullptr);

/// A verified candidate edge.  `similarity` is kept in double, computed with
/// the same reciprocal-multiply the batched kernels use, so densifying an
/// exact-backend graph (one float cast per edge) reproduces the all-pairs
/// similarity matrix bit-for-bit, while threshold comparisons in the graph
/// sweep see the same doubles the exhaustive sweep sees.
struct Edge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double similarity = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The sparse output of candidate verification: edges sorted by (a, b),
/// a < b, unique.  Consumed by greedy_cluster_graph, by
/// similarity_matrix_from_graph (hierarchical), and by pig's
/// CalculatePairwiseSimilarity.
struct SparseSimilarityGraph {
  std::size_t num_vertices = 0;
  std::vector<Edge> edges;
};

/// The similarity of sketch rows (a, b) under `estimator`: the one copy of
/// the pair-scoring arithmetic.  verify_pairs, the greedy bucket sweep,
/// eval::candidate_recall's oracle, set-based pairwise_similarity_matrix and
/// the similarity and verify MapReduce jobs all score through it, so their
/// threshold decisions agree bit for bit.
///
/// A score is two steps: counts() gives the integer lanes behind it, and
/// score() maps them to the double.  Component-match fills lane 0 with
/// count_equal and scores it as count · (1/cols), the reciprocal multiply of
/// kernels::component_match_matrix.  Set-based fills lanes 0 and 1 with
/// |∩| and |∪| of the sorted unique minima (SortedSketchStore) and scores
/// them with jaccard_from_counts.  The MapReduce jobs ship the counts
/// (lanes() columns of values ≤ max_count()) and the driver calls score() on
/// what arrives, so both sides compute the identical double.
class PairScorer {
 public:
  /// Lane 0 and, set-based only, lane 1 of one pair's counts.
  using Counts = std::array<std::uint64_t, 2>;

  PairScorer(const kernels::SketchMatrix& sketches, SketchEstimator estimator);

  /// How many lanes of Counts carry data: 1 component-match, 2 set-based.
  [[nodiscard]] std::uint32_t lanes() const noexcept {
    return set_based_ ? 2 : 1;
  }
  /// The largest value a lane can hold: cols matches, or 2 · cols for |∪|.
  [[nodiscard]] std::uint64_t max_count() const noexcept {
    return set_based_ ? 2 * sketches_.cols() : sketches_.cols();
  }

  [[nodiscard]] Counts counts(std::size_t a, std::size_t b) const noexcept {
    if (set_based_) {
      const auto [inter, uni] = store_.jaccard_counts(a, b);
      return {inter, uni};
    }
    return {kernels::count_equal(sketches_.row(a), sketches_.row(b)), 0};
  }

  /// The one counts-to-double map.
  [[nodiscard]] double score(const Counts& counts) const noexcept {
    if (set_based_) return jaccard_from_counts(counts[0], counts[1]);
    return static_cast<double>(counts[0]) * inv_cols_;
  }

  [[nodiscard]] double operator()(std::size_t a, std::size_t b) const noexcept {
    return score(counts(a, b));
  }

 private:
  const kernels::SketchMatrix& sketches_;
  bool set_based_;
  SortedSketchStore store_;  ///< set-based only
  double inv_cols_;
};

/// Score every candidate pair with the sketch kernels (PairScorer).  Pairs
/// must be sorted unique (enumerate_pairs output); edges come back in the
/// same order.  Bit-identical at any pool size and under scalar or AVX2 kernel
/// dispatch.
[[nodiscard]] SparseSimilarityGraph verify_pairs(
    const kernels::SketchMatrix& sketches, std::span<const Pair> pairs,
    SketchEstimator estimator, common::ThreadPool* pool = nullptr);

/// enumerate_pairs + verify_pairs in one call.
[[nodiscard]] SparseSimilarityGraph build_graph(
    const kernels::SketchMatrix& sketches, const Params& params, double theta,
    SketchEstimator estimator, common::ThreadPool* pool = nullptr);

}  // namespace mrmc::core::candidates
