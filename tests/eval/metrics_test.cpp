#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace mrmc::eval {
namespace {

bio::FastaRecord read(std::string id, std::string seq) {
  return {std::move(id), "", std::move(seq)};
}

// ------------------------------------------------------------ cluster_sizes

TEST(ClusterSizes, CountsPerLabel) {
  EXPECT_EQ(cluster_sizes(std::vector<int>{0, 1, 1, 2, 1}),
            (std::vector<std::size_t>{1, 3, 1}));
  EXPECT_TRUE(cluster_sizes(std::vector<int>{}).empty());
}

TEST(ClusterSizes, RejectsNegativeLabels) {
  EXPECT_THROW(cluster_sizes(std::vector<int>{0, -1}), common::InvalidArgument);
}

// ------------------------------------------------- weighted_cluster_accuracy

TEST(WeightedClusterAccuracy, PerfectClustering) {
  const std::vector<int> labels{0, 0, 1, 1};
  const std::vector<int> truth{5, 5, 9, 9};
  EXPECT_DOUBLE_EQ(weighted_cluster_accuracy(labels, truth), 1.0);
}

TEST(WeightedClusterAccuracy, AllMerged) {
  // One cluster, half class 0 half class 1: majority rule gives 0.5.
  const std::vector<int> labels{0, 0, 0, 0};
  const std::vector<int> truth{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(weighted_cluster_accuracy(labels, truth), 0.5);
}

TEST(WeightedClusterAccuracy, WeightsByClusterSize) {
  // Cluster 0: 4 members, purity 1.0.  Cluster 1: 2 members, purity 0.5.
  // Weighted: (4*1 + 2*0.5) / 6 = 5/6.
  const std::vector<int> labels{0, 0, 0, 0, 1, 1};
  const std::vector<int> truth{7, 7, 7, 7, 8, 9};
  EXPECT_NEAR(weighted_cluster_accuracy(labels, truth), 5.0 / 6.0, 1e-12);
}

TEST(WeightedClusterAccuracy, MinClusterSizeFiltersSmallClusters) {
  // The impure cluster has 2 members; filtering at 3 leaves only the pure one.
  const std::vector<int> labels{0, 0, 0, 1, 1};
  const std::vector<int> truth{7, 7, 7, 8, 9};
  EXPECT_LT(weighted_cluster_accuracy(labels, truth), 1.0);
  EXPECT_DOUBLE_EQ(
      weighted_cluster_accuracy(labels, truth, {.min_cluster_size = 3}), 1.0);
}

TEST(WeightedClusterAccuracy, EmptyInputsAndMismatches) {
  EXPECT_DOUBLE_EQ(weighted_cluster_accuracy({}, {}), 0.0);
  EXPECT_THROW(
      weighted_cluster_accuracy(std::vector<int>{0}, std::vector<int>{}),
      common::InvalidArgument);
}

TEST(WeightedClusterAccuracy, SingletonsScorePerfect) {
  // Every sequence its own cluster: trivially pure (the known degenerate
  // case the paper's cluster-count column guards against).
  const std::vector<int> labels{0, 1, 2, 3};
  const std::vector<int> truth{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(weighted_cluster_accuracy(labels, truth), 1.0);
}

// -------------------------------------------------------- weighted_similarity

TEST(WeightedSimilarity, IdenticalSequencesScoreOne) {
  const std::vector<bio::FastaRecord> reads{
      read("a", "ACGTACGT"), read("b", "ACGTACGT"), read("c", "ACGTACGT")};
  const std::vector<int> labels{0, 0, 0};
  EXPECT_DOUBLE_EQ(weighted_similarity(labels, reads), 1.0);
}

TEST(WeightedSimilarity, SingletonClustersContributeNothing) {
  const std::vector<bio::FastaRecord> reads{read("a", "ACGT"), read("b", "TTTT")};
  const std::vector<int> labels{0, 1};
  EXPECT_DOUBLE_EQ(weighted_similarity(labels, reads), 0.0);
}

TEST(WeightedSimilarity, MixedClusterScoresBetween) {
  const std::vector<bio::FastaRecord> reads{
      read("a", "ACGTACGTGGCC"), read("b", "ACGTACGTGGCC"),
      read("c", "ACGTACGAGGCC")};  // one substitution vs a/b
  const std::vector<int> labels{0, 0, 0};
  const double sim = weighted_similarity(labels, reads);
  EXPECT_GT(sim, 0.9);
  EXPECT_LT(sim, 1.0);
}

TEST(WeightedSimilarity, WeightsLargerClustersMore) {
  // Big identical cluster (4 reads, sim 1) + small dissimilar pair.
  const std::vector<bio::FastaRecord> reads{
      read("a", "ACGTACGTACGT"), read("b", "ACGTACGTACGT"),
      read("c", "ACGTACGTACGT"), read("d", "ACGTACGTACGT"),
      read("e", "AAAAAAAAAAAA"), read("f", "TTTTTTTTTTTT")};
  const std::vector<int> labels{0, 0, 0, 0, 1, 1};
  const double sim = weighted_similarity(labels, reads);
  // (4*1 + 2*0) / 6 = 2/3.
  EXPECT_NEAR(sim, 2.0 / 3.0, 1e-9);
}

TEST(WeightedSimilarity, SamplingIsDeterministic) {
  std::vector<bio::FastaRecord> reads;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    // append, not "lit" + std::string: GCC 12 -Wrestrict false positive
    // (GCC PR 105329).
    reads.push_back(read(std::string("r").append(std::to_string(i)),
                         i % 2 ? "ACGTACGTACGTGGCA" : "ACGTACGAACGTGGCA"));
    labels.push_back(0);
  }
  SimilarityOptions options;
  options.max_pairs_per_cluster = 10;
  EXPECT_DOUBLE_EQ(weighted_similarity(labels, reads, options),
                   weighted_similarity(labels, reads, options));
}

TEST(WeightedSimilarity, MinClusterSizeFilter) {
  const std::vector<bio::FastaRecord> reads{
      read("a", "ACGT"), read("b", "ACGT"),  // cluster of 2
      read("c", "TTTT"), read("d", "TTTT"), read("e", "TTTT")};
  const std::vector<int> labels{0, 0, 1, 1, 1};
  SimilarityOptions options;
  options.min_cluster_size = 3;
  EXPECT_DOUBLE_EQ(weighted_similarity(labels, reads, options), 1.0);
}

// ---------------------------------------------------------- clusters_at_least

TEST(ClustersAtLeast, AppliesSizeThreshold) {
  const std::vector<int> labels{0, 0, 0, 1, 2, 2};
  EXPECT_EQ(clusters_at_least(labels, 1), 3u);
  EXPECT_EQ(clusters_at_least(labels, 2), 2u);
  EXPECT_EQ(clusters_at_least(labels, 3), 1u);
  EXPECT_EQ(clusters_at_least(labels, 4), 0u);
}

// -------------------------------------------------------------- diversity

TEST(ShannonIndex, UniformAndSkewed) {
  // 4 equal clusters: H = ln(4).
  const std::vector<int> uniform{0, 1, 2, 3};
  EXPECT_NEAR(shannon_index(uniform), std::log(4.0), 1e-12);
  // Single cluster: H = 0.
  EXPECT_DOUBLE_EQ(shannon_index(std::vector<int>{0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(shannon_index(std::vector<int>{}), 0.0);
}

TEST(Chao1Richness, ClassicFormula) {
  // 2 singletons, 1 doubleton, 1 tripleton: S=4, F1=2, F2=1 -> 4 + 4/2 = 6.
  const std::vector<int> labels{0, 1, 2, 2, 3, 3, 3};
  EXPECT_DOUBLE_EQ(chao1_richness(labels), 6.0);
}

TEST(Chao1Richness, BiasCorrectedWithoutDoubletons) {
  // 2 singletons, no doubletons: S=2 + F1(F1-1)/2 = 2 + 1 = 3.
  const std::vector<int> labels{0, 1};
  EXPECT_DOUBLE_EQ(chao1_richness(labels), 3.0);
  EXPECT_DOUBLE_EQ(chao1_richness(std::vector<int>{}), 0.0);
}

}  // namespace
}  // namespace mrmc::eval
