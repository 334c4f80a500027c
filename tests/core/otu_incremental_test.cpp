#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/greedy.hpp"
#include "core/incremental.hpp"
#include "core/otu_table.hpp"
#include "core/pipeline.hpp"
#include "simdata/marker16s.hpp"

namespace mrmc::core {
namespace {

// --------------------------------------------------------------- OTU tables

TEST(OtuTable, SortedBySizeWithAbundance) {
  const std::vector<int> labels{0, 1, 1, 1, 2, 2};
  const std::vector<Sketch> sketches(6, Sketch(8, 1));
  const auto table = build_otu_table(labels, sketches);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].label, 1);
  EXPECT_EQ(table[0].size, 3u);
  EXPECT_NEAR(table[0].abundance, 0.5, 1e-12);
  EXPECT_EQ(table[1].label, 2);
  EXPECT_EQ(table[2].label, 0);
}

TEST(OtuTable, MedoidIsTheCentralMember) {
  // Cluster of 3: members 0 and 2 each differ from member 1 in different
  // positions; member 1 is closest to both -> medoid.
  std::vector<Sketch> sketches{{1, 2, 3, 9}, {1, 2, 3, 4}, {1, 2, 8, 4}};
  const std::vector<int> labels{0, 0, 0};
  const auto table = build_otu_table(labels, sketches);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].representative, 1u);
}

TEST(OtuTable, RejectsMismatchedInputs) {
  EXPECT_THROW(build_otu_table(std::vector<int>{0}, std::vector<Sketch>{}),
               common::InvalidArgument);
  EXPECT_THROW(build_otu_table(std::vector<int>{-1},
                               std::vector<Sketch>{Sketch{}}),
               common::InvalidArgument);
}

TEST(OtuTable, RepresentativeReadsAreNamedByClusterAndSize) {
  const std::vector<int> labels{0, 0, 1};
  const std::vector<Sketch> sketches(3, Sketch(4, 7));
  const std::vector<bio::FastaRecord> reads{
      {"a", "a", "ACGT"}, {"b", "b", "ACGA"}, {"c", "c", "TTTT"}};
  const auto table = build_otu_table(labels, sketches);
  const auto reps = representative_reads(table, reads);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].id, "OTU0_size2");
  EXPECT_EQ(reps[1].id, "OTU1_size1");
  EXPECT_EQ(reps[1].seq, "TTTT");
}

TEST(OtuTable, TsvHasHeaderAndOneRowPerCluster) {
  const std::vector<int> labels{0, 1};
  const std::vector<Sketch> sketches(2, Sketch(4, 7));
  const std::vector<bio::FastaRecord> reads{{"x", "x", "AC"}, {"y", "y", "GT"}};
  const auto tsv = otu_table_tsv(build_otu_table(labels, sketches), reads);
  EXPECT_NE(tsv.find("label\tsize"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(tsv.begin(), tsv.end(), '\n')), 3);
}

// ------------------------------------------------------ incremental clustering

std::vector<std::string> otu_reads(std::size_t otus, std::size_t per_otu,
                                   std::uint64_t seed) {
  const auto genes = simdata::generate_16s_genes(otus, {}, seed);
  simdata::AmpliconParams params;
  params.errors = simdata::ErrorModel::uniform(0.004);
  params.read_length = 80;
  params.length_jitter = 0.05;
  const auto sample = simdata::amplicon_reads(
      genes, std::vector<double>(otus, 1.0), otus * per_otu, params, seed + 1);
  std::vector<std::string> seqs;
  for (const auto& read : sample.reads) seqs.push_back(read.seq);
  return seqs;
}

IncrementalClusterer make_clusterer() {
  return IncrementalClusterer({.kmer = 12, .num_hashes = 40, .seed = 2},
                              {.theta = 0.4,
                               .estimator = SketchEstimator::kComponentMatch},
                              20);
}

TEST(IncrementalClusterer, GrowsClustersAcrossBatches) {
  const auto batch1 = otu_reads(3, 5, 10);
  const auto batch2 = otu_reads(3, 5, 10);  // same OTUs, same seed genes

  auto clusterer = make_clusterer();
  for (const auto& seq : batch1) clusterer.add(seq);
  const std::size_t after_first = clusterer.num_clusters();
  for (const auto& seq : batch2) clusterer.add(seq);

  // Second batch reads (same gene pool) mostly join existing clusters.
  EXPECT_LE(clusterer.num_clusters(), after_first + 2);
  EXPECT_EQ(clusterer.num_reads(), batch1.size() + batch2.size());
}

TEST(IncrementalClusterer, SizesSumToReads) {
  const auto reads = otu_reads(4, 6, 11);
  auto clusterer = make_clusterer();
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto labels = clusterer.add_all(views);
  ASSERT_EQ(labels.size(), reads.size());

  std::size_t total = 0;
  for (const std::size_t size : clusterer.cluster_sizes()) total += size;
  EXPECT_EQ(total, reads.size());
}

TEST(IncrementalClusterer, RepresentativeSketchAccessible) {
  auto clusterer = make_clusterer();
  const int label = clusterer.add(otu_reads(1, 1, 13).front());
  EXPECT_EQ(clusterer.representative_sketch(label).size(), 40u);
  EXPECT_THROW((void)clusterer.representative_sketch(99), common::InvalidArgument);
}

// ---------------------------------------------------- indexed greedy sweep
// IncrementalClusterer::add_all over a fresh clusterer is the batch greedy
// sweep with LSH-indexed representatives.

/// `families` random 100-bp sequences, each followed by `per_family - 1`
/// copies carrying `substitutions` random point substitutions.
std::vector<std::string> family_reads(std::size_t families,
                                      std::size_t per_family,
                                      std::size_t substitutions,
                                      std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<std::string> reads;
  for (std::size_t f = 0; f < families; ++f) {
    std::string base(100, 'A');
    for (char& c : base) c = "ACGT"[rng.bounded(4)];
    reads.push_back(base);
    for (std::size_t m = 1; m < per_family; ++m) {
      std::string member = base;
      for (std::size_t s = 0; s < substitutions; ++s) {
        member[rng.bounded(member.size())] = "ACGT"[rng.bounded(4)];
      }
      reads.push_back(std::move(member));
    }
  }
  return reads;
}

constexpr MinHashParams kFamilyHashes{.kmer = 12, .num_hashes = 40, .seed = 2};

GreedyResult exact_greedy(const std::vector<std::string>& reads,
                          const GreedyParams& params) {
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  return greedy_cluster(MinHasher(kFamilyHashes).sketch_matrix(views), params);
}

TEST(GreedyClusterIndexed, MatchesExactGreedyOnSeparatedData) {
  const auto reads = family_reads(5, 12, 1, 5);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  IncrementalClusterer indexed(kFamilyHashes, params, 20);
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto exact = exact_greedy(reads, params);
  EXPECT_EQ(indexed.add_all(views), exact.labels);
  EXPECT_EQ(indexed.num_clusters(), exact.num_clusters);
}

TEST(GreedyClusterIndexed, FarFewerComparisonsThanExact) {
  const auto reads = family_reads(40, 10, 1, 6);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  IncrementalClusterer indexed(kFamilyHashes, params, 20);
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  (void)indexed.add_all(views);
  const auto exact = exact_greedy(reads, params);
  EXPECT_EQ(indexed.num_clusters(), exact.num_clusters);
  EXPECT_LT(indexed.comparisons(), exact.comparisons / 4);
}

TEST(GreedyClusterIndexed, MatchesThePipelinesGreedyLshLabels) {
  // Same sketches, same explicit bands, same bucket seed: a fresh
  // clusterer's add_all joins each read to the smallest-id passing
  // representative in its buckets, exactly as the pipeline's bucket sweep.
  // Each chimera (first half of a, second half of b) passes both earlier
  // representatives a and b, and shares a bucket with b before a in band
  // order about half the time — so the join rule decides its label.
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
  std::vector<bio::FastaRecord> records;
  for (const auto& seq : sample) records.push_back({"r", "r", seq});
  const std::vector<std::string_view> views(sample.begin(), sample.end());
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    for (const std::size_t bands : {std::size_t{10}, std::size_t{40}}) {
      SCOPED_TRACE(::testing::Message()
                   << "set_based=" << (estimator == SketchEstimator::kSetBased)
                   << " bands=" << bands);
      PipelineParams params;
      params.minhash = kFamilyHashes;
      params.mode = Mode::kGreedy;
      params.theta = 0.15;
      params.greedy_estimator = estimator;
      params.candidates.backend = candidates::Backend::kLshBanded;
      params.candidates.bands = bands;
      ExecutionOptions local;
      local.distributed = false;
      const auto pipeline = run_pipeline(records, params, local);

      IncrementalClusterer clusterer(kFamilyHashes, {params.theta, estimator},
                                     bands);
      EXPECT_EQ(clusterer.add_all(views), pipeline.labels);
      EXPECT_EQ(clusterer.num_clusters(), pipeline.num_clusters);
    }
  }
}

TEST(GreedyClusterIndexed, EmptyAndSingle) {
  IncrementalClusterer clusterer(kFamilyHashes, {.theta = 0.5}, 8);
  EXPECT_TRUE(clusterer.add_all({}).empty());
  EXPECT_EQ(clusterer.num_clusters(), 0u);
  EXPECT_EQ(clusterer.add(family_reads(1, 1, 0, 7).front()), 0);
  EXPECT_EQ(clusterer.num_clusters(), 1u);
}

TEST(GreedyClusterIndexed, LabelsAreDense) {
  const auto reads = family_reads(6, 6, 8, 8);
  IncrementalClusterer clusterer(kFamilyHashes, {.theta = 0.6}, 10);
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto labels = clusterer.add_all(views);
  const std::set<int> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), clusterer.num_clusters());
  EXPECT_EQ(*distinct.begin(), 0);
  EXPECT_EQ(*distinct.rbegin(), static_cast<int>(distinct.size()) - 1);
}

}  // namespace
}  // namespace mrmc::core
