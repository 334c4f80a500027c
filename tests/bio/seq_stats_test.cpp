#include "bio/seq_stats.hpp"

#include <gtest/gtest.h>

namespace mrmc::bio {
namespace {

std::vector<FastaRecord> make_records(std::initializer_list<const char*> seqs) {
  std::vector<FastaRecord> records;
  int i = 0;
  for (const char* seq : seqs) {
    // append, not "lit" + std::string: GCC 12 -Wrestrict false positive
    // (GCC PR 105329).
    records.push_back({std::string("r").append(std::to_string(i++)), "", seq});
  }
  return records;
}

TEST(SeqStats, EmptySet) {
  const SeqSetStats stats = compute_stats({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.total_bases, 0u);
}

TEST(SeqStats, BasicCounts) {
  const auto records = make_records({"ACGT", "AC", "ACGTACGT"});
  const SeqSetStats stats = compute_stats(records);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.total_bases, 14u);
  EXPECT_EQ(stats.min_length, 2u);
  EXPECT_EQ(stats.max_length, 8u);
  EXPECT_NEAR(stats.mean_length, 14.0 / 3.0, 1e-12);
  EXPECT_EQ(stats.median_length, 4u);
}

TEST(SeqStats, N50Definition) {
  // Lengths 8, 4, 2: cumulative from longest 8 >= 14/2 -> N50 = 8.
  EXPECT_EQ(compute_stats(make_records({"ACGT", "AC", "ACGTACGT"})).n50, 8u);
  // Lengths 5, 5, 5, 5: half of 20 reached at the second 5 -> N50 = 5.
  EXPECT_EQ(compute_stats(make_records({"AAAAA", "CCCCC", "GGGGG", "TTTTT"})).n50,
            5u);
}

TEST(SeqStats, GcAndComposition) {
  const SeqSetStats stats = compute_stats(make_records({"GGCC", "AATT"}));
  EXPECT_DOUBLE_EQ(stats.gc, 0.5);
  EXPECT_EQ(stats.base_counts[0], 2u);  // A
  EXPECT_EQ(stats.base_counts[1], 2u);  // C
  EXPECT_EQ(stats.base_counts[2], 2u);  // G
  EXPECT_EQ(stats.base_counts[3], 2u);  // T
}

TEST(SeqStats, AmbiguousFraction) {
  const SeqSetStats stats = compute_stats(make_records({"ACGNNNGT"}));
  EXPECT_NEAR(stats.ambiguous_fraction, 3.0 / 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.gc, 3.0 / 5.0);  // C+G+G over the 5 ACGT bases
}

TEST(SeqStats, SummaryMentionsKeyNumbers) {
  const auto summary =
      compute_stats(make_records({"ACGT", "ACGTACGT"})).summary();
  EXPECT_NE(summary.find("2 reads"), std::string::npos);
  EXPECT_NE(summary.find("12 bp"), std::string::npos);
  EXPECT_NE(summary.find("N50 8"), std::string::npos);
}

}  // namespace
}  // namespace mrmc::bio
