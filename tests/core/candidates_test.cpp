// core::candidates — the pair-enumeration layer.  Covers the S-curve
// properties, band-shape selection and validation, backend equivalence
// (exact graphs reproduce the dense all-pairs matrix bit-for-bit, and the
// greedy bucket sweep reproduces the graph greedy over verified pairs on
// either backend), determinism of the candidate MapReduce job across
// thread counts / split sizes / fault plans / kernel backends, and the
// recall harness in eval/.  Kept as its own binary so the TSan leg can
// build and run it in isolation.
#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/candidate_jobs.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "eval/candidate_recall.hpp"
#include "obs/metrics.hpp"
#include "simdata/datasets.hpp"
#include "simdata/marker16s.hpp"

namespace mrmc::core {
namespace {

std::vector<Sketch> family_sketches(std::size_t families, std::size_t per_family,
                                    std::size_t length, double noise,
                                    std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<Sketch> sketches;
  for (std::size_t f = 0; f < families; ++f) {
    Sketch base(length);
    for (auto& v : base) v = rng();
    for (std::size_t m = 0; m < per_family; ++m) {
      Sketch member = base;
      for (auto& v : member) {
        if (rng.chance(noise)) v = rng();
      }
      sketches.push_back(std::move(member));
    }
  }
  return sketches;
}

kernels::SketchMatrix family_matrix(std::size_t families, std::size_t per_family,
                                    std::size_t length, double noise,
                                    std::uint64_t seed) {
  const auto sketches = family_sketches(families, per_family, length, noise, seed);
  return kernels::SketchMatrix::from_sketches(
      std::span<const Sketch>(sketches));
}

/// A random sketch of `length` components.
Sketch random_sketch(common::Xoshiro256& rng, std::size_t length) {
  Sketch sketch(length);
  for (auto& v : sketch) v = rng();
  return sketch;
}

// ---------------------------------------------------------------- the S-curve

TEST(LshCollisionProbability, BoundaryValues) {
  EXPECT_DOUBLE_EQ(candidates::lsh_collision_probability(0.0, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(candidates::lsh_collision_probability(1.0, 10, 5), 1.0);
}

TEST(CollisionProbability, MonotoneInSimilarity) {
  for (const auto& [bands, rows] :
       {std::pair<std::size_t, std::size_t>{8, 5}, {20, 2}, {4, 10}}) {
    double previous = -1.0;
    for (double j = 0.0; j <= 1.0; j += 0.05) {
      const double p = candidates::lsh_collision_probability(j, bands, rows);
      EXPECT_GE(p, previous) << "bands=" << bands << " J=" << j;
      previous = p;
    }
  }
}

TEST(CollisionProbability, MonotoneInBandCountAtFixedRows) {
  // More bands = more chances to collide, at every similarity level.
  for (double j = 0.1; j < 1.0; j += 0.2) {
    double previous = -1.0;
    for (std::size_t bands = 1; bands <= 32; bands *= 2) {
      const double p = candidates::lsh_collision_probability(j, bands, 4);
      EXPECT_GE(p, previous) << "J=" << j << " bands=" << bands;
      previous = p;
    }
  }
}

TEST(CollisionProbability, ThresholdIsTheSCurveMidpoint) {
  // At J = lsh_threshold the collision probability approaches
  // 1 - (1 - 1/b)^b, which lives in (0.5, 0.75) for b >= 2.
  for (const auto& [bands, rows] :
       {std::pair<std::size_t, std::size_t>{8, 5}, {10, 4}, {20, 2}}) {
    const double mid = candidates::lsh_collision_probability(
        candidates::lsh_threshold(bands, rows), bands, rows);
    EXPECT_GT(mid, 0.5) << "bands=" << bands;
    EXPECT_LT(mid, 0.75) << "bands=" << bands;
  }
}

// ------------------------------------------------------------ shape selection

TEST(BandShape, ValidationErrors) {
  EXPECT_THROW((void)candidates::validated_band_shape(40, 0),
               common::InvalidArgument);
  EXPECT_THROW((void)candidates::validated_band_shape(40, 7),
               common::InvalidArgument);
  EXPECT_THROW((void)candidates::validated_band_shape(0, 1),
               common::InvalidArgument);
  const auto shape = candidates::validated_band_shape(40, 8);
  EXPECT_EQ(shape.bands, 8u);
  EXPECT_EQ(shape.rows, 5u);
}

TEST(BandShape, SelectionMeetsTheRecallTargetAtTheta) {
  for (const double theta : {0.5, 0.7, 0.9, 0.95}) {
    const auto shape = candidates::select_band_shape(40, theta, 0.95);
    EXPECT_EQ(shape.bands * shape.rows, 40u);
    EXPECT_GE(candidates::lsh_collision_probability(theta, shape.bands,
                                                    shape.rows),
              0.95)
        << "theta=" << theta;
  }
}

TEST(BandShape, SelectionPrefersTheCheapestQualifyingShape) {
  // 40 hashes at theta 0.9: (4,10) catches only ~0.82, (5,8) ~0.945,
  // (8,5) ~0.9992 — the first shape at or above 0.95 recall is bands=8.
  const auto shape = candidates::select_band_shape(40, 0.9, 0.95);
  EXPECT_EQ(shape.bands, 8u);
  EXPECT_EQ(shape.rows, 5u);
  // Everything collides at any banding when theta = 1.
  EXPECT_EQ(candidates::select_band_shape(40, 1.0, 0.95).bands, 1u);
}

TEST(BandShape, LowThetaNeedsMoreBands) {
  const auto high = candidates::select_band_shape(40, 0.9, 0.95);
  const auto low = candidates::select_band_shape(40, 0.5, 0.95);
  EXPECT_GT(low.bands, high.bands);
}

TEST(BandShape, ResolveHonorsExplicitBands) {
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  params.bands = 20;
  const auto shape = candidates::resolve_band_shape(params, 40, 0.9);
  EXPECT_EQ(shape.bands, 20u);
  params.bands = 6;  // does not divide 40
  EXPECT_THROW((void)candidates::resolve_band_shape(params, 40, 0.9),
               common::InvalidArgument);
}

// ---------------------------------------------------------------- LSH index
// The banded index as every consumer builds it: band_bucket_key runs, here
// read back through enumerate_pairs under an explicit band count.

candidates::Params banded(std::size_t bands) {
  candidates::Params lsh;
  lsh.backend = candidates::Backend::kLshBanded;
  lsh.bands = bands;
  return lsh;
}

std::vector<candidates::Pair> bucket_mates(const std::vector<Sketch>& sketches,
                                           std::size_t bands) {
  return candidates::enumerate_pairs(
      kernels::SketchMatrix::from_sketches(std::span<const Sketch>(sketches)),
      banded(bands), 0.5);
}

TEST(LshIndex, RejectsBadShapes) {
  // Explicit band counts must tile the sketch, for the enumerator and the
  // greedy bucket sweep alike.
  const auto matrix = family_matrix(2, 2, 50, 0.1, 1);
  for (const std::size_t bands : {std::size_t{7}, std::size_t{100}}) {
    EXPECT_THROW((void)candidates::enumerate_pairs(matrix, banded(bands), 0.5),
                 common::InvalidArgument);
    EXPECT_THROW((void)greedy_cluster(matrix, {}, banded(bands), 0.5),
                 common::InvalidArgument);
  }
}

TEST(LshIndex, IdenticalSketchesAlwaysCandidates) {
  common::Xoshiro256 rng(1);
  const Sketch sketch = random_sketch(rng, 40);
  const std::vector<Sketch> sketches{sketch, random_sketch(rng, 40), sketch};
  EXPECT_EQ(bucket_mates(sketches, 8),
            (std::vector<candidates::Pair>{{0, 2}}));
}

TEST(LshIndex, DisjointSketchesRarelyCollide) {
  common::Xoshiro256 rng(2);
  std::vector<Sketch> sketches;
  for (int id = 0; id < 50; ++id) sketches.push_back(random_sketch(rng, 40));
  EXPECT_LT(bucket_mates(sketches, 8).size(), 3u);
}

TEST(LshIndex, SimilarSketchesCollide) {
  // rows = 2: a sensitive shape.
  common::Xoshiro256 rng(3);
  const Sketch base = random_sketch(rng, 40);
  Sketch similar = base;
  for (std::size_t i = 0; i < 4; ++i) similar[i * 10] = rng();  // J ~ 0.9
  EXPECT_EQ(bucket_mates({base, similar}, 20),
            (std::vector<candidates::Pair>{{0, 1}}));
}

TEST(LshIndex, CandidatesDedupAcrossBands) {
  common::Xoshiro256 rng(4);
  const Sketch sketch = random_sketch(rng, 40);
  // The pair collides in all 8 bands but must be returned once.
  EXPECT_EQ(bucket_mates({sketch, sketch}, 8).size(), 1u);
}

// -------------------------------------------------------------- enumeration

TEST(EnumeratePairs, ExactBackendIsAllPairs) {
  const auto matrix = family_matrix(3, 4, 40, 0.1, 11);
  const auto pairs = candidates::enumerate_pairs(matrix, {}, 0.9);
  ASSERT_EQ(pairs.size(), 12u * 11u / 2u);
  std::size_t k = 0;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; ++j) {
      EXPECT_EQ(pairs[k++], (candidates::Pair{i, j}));
    }
  }
}

/// The LSH candidate definition computed directly: i < j are candidates
/// when some band key of i equals some band key of j (in any band).
std::vector<candidates::Pair> band_key_pairs(const kernels::SketchMatrix& matrix,
                                             const candidates::Params& params,
                                             double theta) {
  const std::size_t n = matrix.rows();
  std::vector<candidates::Pair> pairs;
  if (n < 2) return pairs;
  const auto shape = candidates::resolve_band_shape(params, matrix.cols(), theta);
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t band = 0; band < shape.bands; ++band) {
      keys[i].push_back(
          candidates::band_bucket_key(matrix.row(i), band, shape, params.seed));
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const bool shared = std::any_of(
          keys[i].begin(), keys[i].end(), [&](std::uint64_t key) {
            return std::find(keys[j].begin(), keys[j].end(), key) !=
                   keys[j].end();
          });
      if (shared) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

TEST(EnumeratePairs, EveryPairSharingABandKeyAndAllPairsWhenExact) {
  // Noisy families: about 200 reads, many but not all pairs share a band.
  const auto all = family_sketches(20, 10, 40, 0.3, 14);
  for (const std::size_t n : {0, 1, 2, 200}) {
    const auto matrix = n == 0 ? kernels::SketchMatrix(0, 40)
                               : kernels::SketchMatrix::from_sketches(
                                     std::span<const Sketch>(all.data(), n));
    std::vector<candidates::Pair> every;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) every.emplace_back(i, j);
    }
    EXPECT_EQ(candidates::enumerate_pairs(matrix, {}, 0.5), every) << n;
    // Automatic shapes at two thresholds, an explicit shape, and rows = 1.
    for (const auto& [bands, theta] :
         {std::pair<std::size_t, double>{0, 0.9}, {0, 0.3}, {8, 0.5},
          {40, 0.5}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " bands=" << bands
                                      << " theta=" << theta);
      const auto params = banded(bands);
      const auto pairs = candidates::enumerate_pairs(matrix, params, theta);
      EXPECT_EQ(pairs, band_key_pairs(matrix, params, theta));
      if (n == 200) {
        EXPECT_LT(pairs.size(), every.size());
      }
    }
  }
}

TEST(EnumeratePairs, KeysSharedAcrossBandsAreOneBucket) {
  // rows = 1, so band b's key is mix(mix(seed ^ b·φ) ^ sketch[b]); the
  // component that makes band 1's key equal band 0's is solved for, and the
  // construction is checked below.
  const candidates::Params params = banded(4);
  const candidates::BandShape shape{4, 1};
  const std::uint64_t shift =
      common::mix64(params.seed) ^
      common::mix64(params.seed ^ 0x9e3779b97f4a7c15ULL);
  common::Xoshiro256 rng(15);
  const Sketch lone = random_sketch(rng, 4);
  Sketch twin_bands = random_sketch(rng, 4);  // its bands 0 and 1 share a key
  twin_bands[1] = twin_bands[0] ^ shift;
  Sketch cross = random_sketch(rng, 4);  // its band 1 = band 0 of `lone`
  cross[1] = lone[0] ^ shift;
  const std::vector<Sketch> sketches{lone, twin_bands, random_sketch(rng, 4),
                                     cross, twin_bands};
  const auto matrix =
      kernels::SketchMatrix::from_sketches(std::span<const Sketch>(sketches));
  const auto key = [&](std::size_t row, std::size_t band) {
    return candidates::band_bucket_key(matrix.row(row), band, shape,
                                       params.seed);
  };
  ASSERT_EQ(key(1, 0), key(1, 1));
  ASSERT_EQ(key(3, 1), key(0, 0));

  const auto pairs = candidates::enumerate_pairs(matrix, params, 0.5);
  EXPECT_EQ(pairs, band_key_pairs(matrix, params, 0.5));
  // (0, 3) share a key only across bands; reads 1 and 4 fill their shared
  // bucket twice each, which yields (1, 4) once and no self-pair.
  EXPECT_EQ(pairs, (std::vector<candidates::Pair>{{0, 3}, {1, 4}}));
}

TEST(EnumeratePairs, LshIsASortedUniqueSubsetContainingTruePairs) {
  const auto matrix = family_matrix(8, 6, 40, 0.02, 12);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto pairs = candidates::enumerate_pairs(matrix, params, 0.9);
  EXPECT_LT(pairs.size(), 48u * 47u / 2u);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_LT(b, matrix.rows());
  }
  // Identical sketches collide in every band, so within-family pairs of the
  // low-noise families must all be present.
  std::size_t family_pairs = 0;
  for (const auto& [a, b] : pairs) family_pairs += a / 6 == b / 6 ? 1 : 0;
  EXPECT_GE(family_pairs, 8u * 3u);  // well over half of each family's 15
}

TEST(EnumeratePairs, IdenticalAtAnyPoolSize) {
  const auto matrix = family_matrix(6, 5, 40, 0.05, 13);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const auto serial = candidates::enumerate_pairs(matrix, params, 0.9);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, params, 0.9, &one), serial);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, params, 0.9, &four), serial);
}

// ------------------------------------------------------------- verification

TEST(VerifyPairs, ExactGraphReproducesTheDenseMatrixBitForBit) {
  const auto matrix = family_matrix(4, 5, 40, 0.2, 14);
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const auto graph = candidates::build_graph(matrix, {}, 0.9, estimator);
    const SimilarityMatrix dense = pairwise_similarity_matrix(matrix, estimator);
    ASSERT_EQ(graph.edges.size(), 20u * 19u / 2u);
    for (const auto& edge : graph.edges) {
      // One float narrowing, exactly like the dense fill.
      EXPECT_EQ(static_cast<float>(edge.similarity), dense.at(edge.a, edge.b));
    }
    const SimilarityMatrix densified =
        similarity_matrix_from_graph(graph);
    ASSERT_EQ(densified.size(), dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      for (std::size_t j = 0; j < dense.size(); ++j) {
        EXPECT_EQ(densified.at(i, j), dense.at(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(VerifyPairs, IdenticalUnderScalarAndActiveKernelBackends) {
  const auto matrix = family_matrix(5, 6, 40, 0.1, 15);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto active = candidates::build_graph(
      matrix, params, 0.9, SketchEstimator::kComponentMatch);
  kernels::ScopedBackendOverride scalar(kernels::Backend::kScalar);
  const auto forced = candidates::build_graph(
      matrix, params, 0.9, SketchEstimator::kComponentMatch);
  EXPECT_EQ(active.edges, forced.edges);
}

// ------------------------------------------------------------- graph greedy

/// The pipeline's effective greedy knobs at `bits`: below 64 bits every
/// estimator scores component matches against the b-bit adjusted θ.
GreedyParams effective_greedy(double theta, SketchEstimator estimator,
                              std::size_t bits) {
  if (bits == 64) return {.theta = theta, .estimator = estimator};
  const double component = estimator == SketchEstimator::kSetBased
                               ? set_based_equivalent_threshold(theta)
                               : theta;
  return {.theta = bbit_adjusted_threshold(component, bits),
          .estimator = SketchEstimator::kComponentMatch};
}

TEST(GreedyClusterGraph, MatchesExhaustiveSweepOnTheExactGraph) {
  // Every θ = m / K lands exactly on a component-match similarity, so the
  // sweep and the graph must make the same threshold decision on the
  // boundary (both score with PairScorer).  The exact graph holds every
  // pair, so the graph's edge inspections are the sweep's comparisons.
  for (const std::size_t length : {std::size_t{10}, std::size_t{40}, std::size_t{100}}) {
    for (const double noise : {0.15, 0.5}) {
      for (const std::size_t bits : {std::size_t{64}, std::size_t{8}}) {
        auto matrix = family_matrix(6, 7, length, noise, 16);
        if (bits < 64) kernels::mask_components(matrix, sketch_bits_mask(bits));
        for (std::size_t m = 0; m <= length; ++m) {
          const double theta =
              static_cast<double>(m) / static_cast<double>(length);
          for (const auto estimator :
               {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
            SCOPED_TRACE(::testing::Message()
                         << "K=" << length << " noise=" << noise
                         << " bits=" << bits << " theta=" << m << "/" << length
                         << " set_based="
                         << (estimator == SketchEstimator::kSetBased));
            const GreedyParams params = effective_greedy(theta, estimator, bits);
            const auto graph =
                candidates::build_graph(matrix, {}, theta, params.estimator);
            const auto from_graph = greedy_cluster_graph(graph, params);
            const auto exhaustive = greedy_cluster(matrix, params);
            EXPECT_EQ(from_graph.labels, exhaustive.labels);
            EXPECT_EQ(from_graph.num_clusters, exhaustive.num_clusters);
            EXPECT_EQ(from_graph.representatives, exhaustive.representatives);
            EXPECT_EQ(from_graph.comparisons, exhaustive.comparisons);
          }
        }
      }
    }
  }
}

TEST(GreedyClusterGraph, EmptyGraphIsAllSingletons) {
  candidates::SparseSimilarityGraph graph;
  graph.num_vertices = 4;
  const auto result = greedy_cluster_graph(graph, {.theta = 0.9});
  EXPECT_EQ(result.num_clusters, 4u);
  EXPECT_EQ(result.labels, (std::vector<int>{0, 1, 2, 3}));
}

TEST(GreedyClusterGraph, RejectsOutOfRangeEdges) {
  candidates::SparseSimilarityGraph graph;
  graph.num_vertices = 3;
  graph.edges.push_back({1, 5, 0.9});
  EXPECT_THROW((void)greedy_cluster_graph(graph, {.theta = 0.5}),
               common::InvalidArgument);
}

// ----------------------------------------------------------- bucket sweep
// greedy_cluster(sketches, params, lsh, band_theta) must reproduce the
// composed oracle greedy_cluster_graph(verify_pairs(enumerate_pairs(...)))
// exactly, on either backend: labels, representatives and cluster count.

/// 16S amplicon reads (80 bp, 1 % error) from `genes` genes of one fixed
/// community; `seed` draws the reads.
std::vector<bio::FastaRecord> amplicon_sample(std::size_t reads,
                                              std::size_t genes,
                                              std::uint64_t seed) {
  const auto community = simdata::generate_16s_genes(genes, {}, 42);
  simdata::AmpliconParams amplicon;
  amplicon.errors = simdata::ErrorModel::uniform(0.01);
  amplicon.read_length = 80;
  return simdata::amplicon_reads(community,
                                 std::vector<double>(community.size(), 1.0),
                                 reads, amplicon, seed)
      .reads;
}

kernels::SketchMatrix amplicon_sketches(std::size_t reads, std::uint64_t seed,
                                        std::size_t bits = 64) {
  const auto sample = amplicon_sample(reads, reads / 10, seed);
  std::vector<std::string_view> seqs;
  for (const auto& read : sample) seqs.emplace_back(read.seq);
  auto sketches =
      MinHasher({.kmer = 12, .num_hashes = 40, .seed = 42}).sketch_matrix(seqs);
  if (bits < 64) kernels::mask_components(sketches, sketch_bits_mask(bits));
  return sketches;
}

GreedyResult composed_lsh_greedy(const kernels::SketchMatrix& sketches,
                                 const GreedyParams& params,
                                 const candidates::Params& lsh,
                                 double band_theta) {
  const auto pairs = candidates::enumerate_pairs(sketches, lsh, band_theta);
  return greedy_cluster_graph(
      candidates::verify_pairs(sketches, pairs, params.estimator), params);
}

void expect_same_clustering(const GreedyResult& got,
                            const GreedyResult& oracle) {
  EXPECT_EQ(got.labels, oracle.labels);
  EXPECT_EQ(got.representatives, oracle.representatives);
  EXPECT_EQ(got.num_clusters, oracle.num_clusters);
}

/// Chimeras: for each of 30 random 100-bp pairs (a, b), the reads a, b and
/// a's first half joined to b's second half.  At θ = 0.15 each chimera
/// passes both earlier representatives a and b, and shares a bucket with b
/// before a in band order about half the time — so only the join rule
/// (smallest-id passing representative, not the first one found) decides
/// its label.
std::vector<std::string> chimera_reads() {
  common::Xoshiro256 rng(23);
  const auto random_read = [&] {
    std::string read(100, 'A');
    for (char& c : read) c = "ACGT"[rng.bounded(4)];
    return read;
  };
  std::vector<std::string> sample;
  for (int t = 0; t < 30; ++t) {
    const std::string a = random_read();
    const std::string b = random_read();
    sample.push_back(a);
    sample.push_back(b);
    sample.push_back(a.substr(0, 50) + b.substr(50));
  }
  return sample;
}

constexpr MinHashParams kChimeraHashes{.kmer = 12, .num_hashes = 40, .seed = 2};

kernels::SketchMatrix chimera_sketches(std::size_t bits) {
  const auto sample = chimera_reads();
  const std::vector<std::string_view> seqs(sample.begin(), sample.end());
  auto sketches = MinHasher(kChimeraHashes).sketch_matrix(seqs);
  if (bits < 64) kernels::mask_components(sketches, sketch_bits_mask(bits));
  return sketches;
}

TEST(GreedyBucketSweep, MatchesTheComposedGraphGreedy) {
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const std::vector<common::ThreadPool*> pools = {nullptr, &one, &four};
  // Input 0 is the chimeras; inputs 1-3 are amplicon samples of that seed.
  for (const std::uint64_t input : {0, 1, 2, 3}) {
    for (const std::size_t bits : {std::size_t{64}, std::size_t{8}}) {
      const auto sketches = input == 0 ? chimera_sketches(bits)
                                       : amplicon_sketches(300, input, bits);
      const std::vector<double> thetas =
          input == 0 ? std::vector<double>{0.15, 0.3}
                     : std::vector<double>{0.25, 0.3, 0.4, 0.5, 0.9};
      for (const double theta : thetas) {
        for (const auto estimator :
             {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
          // The band shape keeps the original θ.
          const GreedyParams params = effective_greedy(theta, estimator, bits);
          // Automatic, 10 × 4, and the most sensitive 40 × 1.
          for (const std::size_t bands :
               {std::size_t{0}, std::size_t{10}, std::size_t{40}}) {
            const candidates::Params lsh = banded(bands);
            const auto oracle = composed_lsh_greedy(sketches, params, lsh, theta);
            for (common::ThreadPool* pool : pools) {
              SCOPED_TRACE(::testing::Message()
                           << "input=" << input << " bits=" << bits
                           << " theta=" << theta << " set_based="
                           << (estimator == SketchEstimator::kSetBased)
                           << " bands=" << bands << " threads="
                           << (pool == nullptr ? 0 : pool->size()));
              expect_same_clustering(
                  greedy_cluster(sketches, params, lsh, theta, pool), oracle);
            }
          }
        }
      }
    }
  }
}

TEST(GreedyBucketSweep, TinyInputsMatchTheOracle) {
  const auto sketches = amplicon_sketches(40, 7);
  candidates::Params lsh;
  lsh.backend = candidates::Backend::kLshBanded;
  common::ThreadPool pool(4);
  for (const std::size_t n : {0, 1, 2}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    kernels::SketchMatrix head(n, sketches.cols());
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(sketches.row(i).begin(), sketches.row(i).end(),
                head.row(i).begin());
    }
    for (const double theta : {0.0, 0.3}) {
      const GreedyParams params{.theta = theta,
                                .estimator = SketchEstimator::kComponentMatch};
      const auto oracle = composed_lsh_greedy(head, params, lsh, theta);
      expect_same_clustering(greedy_cluster(head, params, lsh, theta), oracle);
      expect_same_clustering(greedy_cluster(head, params, lsh, theta, &pool),
                             oracle);
      EXPECT_EQ(oracle.labels.size(), n);
    }
  }
}

// The LSH sweep as an indexed greedy: against the exact sweep and the
// pipeline.

TEST(GreedyClusterIndexed, MatchesExactGreedyOnSeparatedData) {
  const auto matrix = family_matrix(5, 12, 40, 0.05, 5);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  expect_same_clustering(greedy_cluster(matrix, params, banded(20), 0.5),
                         greedy_cluster(matrix, params));
}

TEST(GreedyClusterIndexed, FarFewerComparisonsThanExact) {
  const auto matrix = family_matrix(40, 10, 40, 0.05, 6);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  const auto indexed = greedy_cluster(matrix, params, banded(20), 0.5);
  const auto exact = greedy_cluster(matrix, params);
  EXPECT_EQ(indexed.num_clusters, exact.num_clusters);
  EXPECT_LT(indexed.comparisons, exact.comparisons / 4);
}

TEST(GreedyClusterIndexed, MatchesThePipelinesGreedyLshLabels) {
  // The pipeline's greedy + LSH cluster step is this sweep on the same
  // sketches; the chimeras make the join rule decide labels.
  const auto sample = chimera_reads();
  std::vector<bio::FastaRecord> records;
  for (const auto& seq : sample) records.push_back({"r", "r", seq});
  const auto sketches = chimera_sketches(64);
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    for (const std::size_t bands : {std::size_t{10}, std::size_t{40}}) {
      SCOPED_TRACE(::testing::Message()
                   << "set_based=" << (estimator == SketchEstimator::kSetBased)
                   << " bands=" << bands);
      PipelineParams params;
      params.minhash = kChimeraHashes;
      params.mode = Mode::kGreedy;
      params.theta = 0.15;
      params.greedy_estimator = estimator;
      params.candidates = banded(bands);
      ExecutionOptions local;
      local.distributed = false;
      const auto pipeline = run_pipeline(records, params, local);
      const auto swept = greedy_cluster(sketches, {params.theta, estimator},
                                        params.candidates, params.theta);
      EXPECT_EQ(swept.labels, pipeline.labels);
      EXPECT_EQ(swept.num_clusters, pipeline.num_clusters);
    }
  }
}

TEST(GreedyClusterIndexed, EmptyAndSingle) {
  const auto sketches = chimera_sketches(64);
  for (const std::size_t n : {0, 1}) {
    kernels::SketchMatrix head(n, sketches.cols());
    const auto result = greedy_cluster(head, {.theta = 0.5}, banded(8), 0.5);
    EXPECT_EQ(result.labels, std::vector<int>(n, 0));
    EXPECT_EQ(result.num_clusters, n);
  }
}

TEST(GreedyClusterIndexed, LabelsAreDense) {
  const auto matrix = family_matrix(6, 6, 40, 0.3, 8);
  const auto result = greedy_cluster(matrix, {.theta = 0.6}, banded(10), 0.6);
  const std::set<int> distinct(result.labels.begin(), result.labels.end());
  EXPECT_EQ(distinct.size(), result.num_clusters);
  EXPECT_EQ(*distinct.begin(), 0);
  EXPECT_EQ(*distinct.rbegin(), static_cast<int>(distinct.size()) - 1);
}

TEST(GreedyBucketSweep, ScoresFarFewerPairsThanEnumerateAtTheta03) {
  // Deterministic selectivity gate on a fixed 2 k-read amplicon input at
  // θ = 0.3, below the band-shape cliff: the pipeline's sweep scores at most
  // a fifth of the pairs LSH enumeration proposes, with identical labels.
  const auto reads = amplicon_sample(2000, 200, 1);
  PipelineParams params;
  params.minhash = {.kmer = 12, .num_hashes = 40, .seed = 42};
  params.mode = Mode::kGreedy;
  params.theta = 0.3;
  params.greedy_estimator = SketchEstimator::kComponentMatch;
  params.candidates.backend = candidates::Backend::kLshBanded;
  ExecutionOptions local;
  local.distributed = false;
  local.threads = 2;
  const auto result = run_pipeline(reads, params, local);

  std::vector<std::string_view> seqs;
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  const auto sketches = MinHasher(params.minhash).sketch_matrix(seqs);
  const auto enumerated =
      candidates::enumerate_pairs(sketches, params.candidates, params.theta);
  ASSERT_GT(result.candidate_pairs, 0u);
  EXPECT_LE(result.candidate_pairs * 5, enumerated.size());
  const GreedyParams greedy{params.theta, params.greedy_estimator};
  EXPECT_EQ(result.labels,
            greedy_cluster_graph(
                candidates::verify_pairs(sketches, enumerated, greedy.estimator),
                greedy)
                .labels);
}

// ----------------------------------------------------- the MapReduce shape

class CandidateJobTest : public ::testing::Test {
 protected:
  static std::shared_ptr<const kernels::SketchMatrix> shared_family(
      std::uint64_t seed) {
    return std::make_shared<const kernels::SketchMatrix>(
        family_matrix(7, 6, 40, 0.05, seed));
  }

  static candidates::Params lsh_params() {
    candidates::Params params;
    params.backend = candidates::Backend::kLshBanded;
    return params;
  }
};

TEST_F(CandidateJobTest, MatchesLocalLshEnumeration) {
  const auto sketches = shared_family(21);
  const auto& matrix = *sketches;
  ExecutionOptions exec;

  const auto lsh = run_candidate_job(sketches, lsh_params(), 0.9, exec);
  EXPECT_EQ(lsh.pairs, candidates::enumerate_pairs(matrix, lsh_params(), 0.9));
  EXPECT_EQ(lsh.shape.bands, 8u);
  EXPECT_GT(lsh.stats.input_records, 0u);
}

TEST_F(CandidateJobTest, RejectsTheExactBackend) {
  // The exact backend has no candidates job: hierarchical mode runs the
  // similarity stage instead.
  EXPECT_THROW((void)run_candidate_job(shared_family(21), {}, 0.9, {}),
               common::InvalidArgument);
}

TEST_F(CandidateJobTest, ByteIdenticalAcrossThreadsSplitsAndNodes) {
  const auto sketches = shared_family(22);
  ExecutionOptions base;
  base.records_per_split = 16;
  const auto reference = run_candidate_job(sketches, lsh_params(), 0.9, base);
  ASSERT_FALSE(reference.pairs.empty());

  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t split : {5, 11, 64}) {
      for (const std::size_t nodes : {1, 4}) {
        ExecutionOptions exec;
        exec.threads = threads;
        exec.records_per_split = split;
        exec.cluster.nodes = nodes;
        const auto got = run_candidate_job(sketches, lsh_params(), 0.9, exec);
        EXPECT_EQ(got.pairs, reference.pairs)
            << "threads=" << threads << " split=" << split
            << " nodes=" << nodes;
      }
    }
  }
}

TEST_F(CandidateJobTest, VerifyJobMatchesLocalScoring) {
  const auto sketches = shared_family(23);
  const auto& matrix = *sketches;
  ExecutionOptions exec;
  exec.records_per_split = 16;
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const auto pairs = candidates::enumerate_pairs(matrix, lsh_params(), 0.9);
    const auto local = candidates::verify_pairs(matrix, pairs, estimator);
    const auto job = run_verify_job(sketches, pairs, estimator, exec);
    EXPECT_EQ(job.graph.num_vertices, local.num_vertices);
    EXPECT_EQ(job.graph.edges, local.edges);
  }
  // b-bit sketches, truncated as the sketch stage leaves them.
  for (const std::size_t bits : {std::size_t{8}, std::size_t{16}}) {
    kernels::SketchMatrix masked = matrix;
    kernels::mask_components(masked, sketch_bits_mask(bits));
    const auto truncated =
        std::make_shared<const kernels::SketchMatrix>(std::move(masked));
    const auto pairs =
        candidates::enumerate_pairs(*truncated, lsh_params(), 0.9);
    ASSERT_FALSE(pairs.empty());
    const auto local = candidates::verify_pairs(
        *truncated, pairs, SketchEstimator::kComponentMatch);
    const auto job = run_verify_job(truncated, pairs,
                                    SketchEstimator::kComponentMatch, exec);
    EXPECT_EQ(job.graph.edges, local.edges) << "bits=" << bits;
  }
}

TEST_F(CandidateJobTest, FaultPlanLeavesCandidatesAndEdgesIdentical) {
  const auto sketches = shared_family(24);
  ExecutionOptions healthy;
  healthy.records_per_split = 8;
  const auto reference =
      run_candidate_job(sketches, lsh_params(), 0.9, healthy);
  const auto reference_edges =
      run_verify_job(sketches, reference.pairs,
                     SketchEstimator::kComponentMatch, healthy);

  // Node 1 crashes early and never recovers; with 4 nodes at least one
  // stays up and the job replays the lost splits.
  ExecutionOptions faulty = healthy;
  faulty.fault_plan =
      mr::faults::FaultPlan({{1, 0.0001, mr::faults::kNever}});
  const auto chaos = run_candidate_job(sketches, lsh_params(), 0.9, faulty);
  EXPECT_EQ(chaos.pairs, reference.pairs);
  const auto chaos_edges = run_verify_job(
      sketches, chaos.pairs, SketchEstimator::kComponentMatch, faulty);
  EXPECT_EQ(chaos_edges.graph.edges, reference_edges.graph.edges);
}

// ---------------------------------------------------------- pipeline routing

class LshPipelineTest : public ::testing::Test {
 protected:
  static std::vector<bio::FastaRecord> sample_reads() {
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S8"), {.reads = 80, .seed = 1})
        .reads;
  }

  static PipelineParams lsh_pipeline_params(Mode mode) {
    PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 64, .canonical = true,
                      .seed = 1};
    params.mode = mode;
    params.theta = mode == Mode::kGreedy ? 0.34 : 0.5;
    params.candidates.backend = candidates::Backend::kLshBanded;
    return params;
  }
};

TEST_F(LshPipelineTest, DistributedMatchesLocalInBothModes) {
  const auto reads = sample_reads();
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    const auto params = lsh_pipeline_params(mode);
    ExecutionOptions distributed;
    distributed.distributed = true;
    distributed.cluster.nodes = 4;
    distributed.records_per_split = 16;
    ExecutionOptions local;
    local.distributed = false;
    const auto a = run_pipeline(reads, params, distributed);
    const auto b = run_pipeline(reads, params, local);
    EXPECT_EQ(a.labels, b.labels) << mode_name(mode);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    // Only hierarchical mode runs the candidate and verify jobs; greedy
    // scores bucket-mates inside its cluster job.  Both report the pairs
    // they scored, identically on either executor.
    const bool hierarchical = mode == Mode::kHierarchical;
    EXPECT_EQ(a.candidate_stats.input_records > 0, hierarchical);
    EXPECT_EQ(a.verify_stats.input_records > 0, hierarchical);
    EXPECT_GT(a.candidate_pairs, 0u);
    EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  }
}

TEST_F(LshPipelineTest, GreedySweepLocalMatchesDistributedAndCountsPairs) {
  // Greedy runs sketch -> greedy-cluster on both executors and both
  // backends: the same labels, the same scored pairs
  // (PipelineResult::candidate_pairs and counter greedy.pairs_scored), and a
  // deterministic simulated reducer cost.
  const auto reads = sample_reads();
  for (const auto backend :
       {candidates::Backend::kLshBanded, candidates::Backend::kExactAllPairs}) {
    for (const std::size_t bits : {std::size_t{64}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << candidates::backend_name(backend)
                                        << " bits=" << bits);
      auto params = lsh_pipeline_params(Mode::kGreedy);
      params.candidates.backend = backend;
      params.sketch_bits = bits;
      ExecutionOptions local;
      local.distributed = false;
      auto& local_counter =
          obs::Registry::global().counter("greedy.pairs_scored");
      const long before = local_counter.value();
      const auto in_process = run_pipeline(reads, params, local);
      EXPECT_EQ(local_counter.value() - before,
                static_cast<long>(in_process.candidate_pairs));
      EXPECT_GT(in_process.candidate_pairs, 0u);

      for (const std::size_t threads : {1, 3}) {
        ExecutionOptions distributed;
        distributed.threads = threads;
        distributed.cluster.nodes = 4;
        distributed.records_per_split = 16;
        const auto job = run_pipeline(reads, params, distributed);
        EXPECT_EQ(job.labels, in_process.labels);
        EXPECT_EQ(job.candidate_pairs, in_process.candidate_pairs);
        EXPECT_EQ(job.cluster_stats.counters.at("greedy.pairs_scored"),
                  static_cast<long>(in_process.candidate_pairs));
        EXPECT_EQ(job.candidate_stats.input_records, 0u);
        EXPECT_EQ(job.verify_stats.input_records, 0u);
        EXPECT_GT(job.cluster_stats.timeline.total_s, 0.0);
        ExecutionOptions again = distributed;
        again.threads = 2;
        EXPECT_EQ(
            run_pipeline(reads, params, again).cluster_stats.timeline.total_s,
            job.cluster_stats.timeline.total_s);
      }
    }
  }
}

TEST_F(LshPipelineTest, ByteIdenticalAcrossThreadCountsAndSplits) {
  const auto reads = sample_reads();
  const auto params = lsh_pipeline_params(Mode::kGreedy);
  ExecutionOptions base;
  base.records_per_split = 16;
  const auto reference = run_pipeline(reads, params, base);
  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t split : {7, 40}) {
      ExecutionOptions exec;
      exec.threads = threads;
      exec.records_per_split = split;
      const auto got = run_pipeline(reads, params, exec);
      EXPECT_EQ(got.labels, reference.labels)
          << "threads=" << threads << " split=" << split;
    }
  }
}

TEST_F(LshPipelineTest, ExactBackendKeepsTodaysOutputs) {
  // The default params (exact backend) must route through the legacy jobs
  // and reproduce the pre-candidates pipeline exactly.
  const auto reads = sample_reads();
  PipelineParams params = lsh_pipeline_params(Mode::kHierarchical);
  params.candidates = {};  // back to kExactAllPairs
  ExecutionOptions exec;
  exec.records_per_split = 16;
  const auto result = run_pipeline(reads, params, exec);
  EXPECT_EQ(result.candidate_stats.input_records, 0u);  // no candidate job ran
  EXPECT_GT(result.similarity_stats.input_records, 0u);
  EXPECT_EQ(result.candidate_pairs, 0u);
}

// ------------------------------------------------------------ recall harness

TEST(CandidateRecall, ExactBackendIsPerfect) {
  const auto matrix = family_matrix(5, 5, 40, 0.1, 31);
  const auto report = eval::candidate_recall(
      matrix, 0.9, {}, SketchEstimator::kComponentMatch);
  EXPECT_EQ(report.reads, 25u);
  EXPECT_EQ(report.candidate_pairs, 25u * 24u / 2u);
  EXPECT_EQ(report.recovered_pairs, report.true_pairs);
  EXPECT_DOUBLE_EQ(report.recall, 1.0);
}

TEST(CandidateRecall, LshMeetsTheTargetOnFamilyData) {
  const auto matrix = family_matrix(10, 6, 40, 0.02, 32);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto report = eval::candidate_recall(
      matrix, 0.9, params, SketchEstimator::kComponentMatch);
  EXPECT_GT(report.true_pairs, 0u);
  EXPECT_GE(report.recall, 0.95);
  EXPECT_GT(report.precision, 0.0);
  EXPECT_EQ(report.shape.bands, 8u);
}

TEST(CandidateRecall, SubsamplesAndParallelScoringAgree) {
  const auto matrix = family_matrix(8, 8, 40, 0.1, 33);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  common::ThreadPool pool(4);
  const auto serial = eval::candidate_recall(
      matrix, 0.8, params, SketchEstimator::kSetBased, 40);
  const auto parallel = eval::candidate_recall(
      matrix, 0.8, params, SketchEstimator::kSetBased, 40, &pool);
  EXPECT_EQ(serial.reads, 40u);
  EXPECT_EQ(serial.true_pairs, parallel.true_pairs);
  EXPECT_EQ(serial.candidate_pairs, parallel.candidate_pairs);
  EXPECT_EQ(serial.recovered_pairs, parallel.recovered_pairs);
}

}  // namespace
}  // namespace mrmc::core
