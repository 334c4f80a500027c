// Checkpoint invalidation at pipeline scope: a changed parameter or input,
// a truncated or corrupted file, and a stale directory must all fall back
// to recompute — never crash, never change the output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bio/fasta.hpp"
#include "core/pipeline.hpp"
#include "mr/recovery.hpp"
#include "pig/pig.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

std::string fresh_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir = ::testing::TempDir() + "/mrmc_invalidate_" + tag +
                          std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<bio::FastaRecord> sample_reads(std::uint64_t seed = 5) {
  return simdata::build_whole_metagenome(simdata::whole_metagenome_spec("S8"),
                                         {.reads = 40, .seed = seed})
      .reads;
}

PipelineParams hier_params() {
  PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 32, .canonical = true, .seed = 1};
  params.mode = Mode::kHierarchical;
  params.theta = 0.5;
  return params;
}

ExecutionOptions checkpointed(const std::string& dir) {
  ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;
  exec.checkpoint_dir = dir;
  return exec;
}

/// The on-disk checkpoint of driver sequence `sequence` ("<label>.<seq>-…").
std::filesystem::path checkpoint_of(const std::string& dir,
                                    std::size_t sequence) {
  // append, not "lit" + std::string: GCC 12 -Wrestrict false positive
  // (GCC PR 105329).
  const std::string needle =
      std::string(".").append(std::to_string(sequence)).append("-");
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(needle) != std::string::npos &&
        entry.path().extension() == ".ckpt") {
      return entry.path();
    }
  }
  ADD_FAILURE() << "no checkpoint with sequence " << sequence << " in " << dir;
  return {};
}

/// Replace the payload of checkpoint `file` under a valid header — same
/// key, matching size and checksum — so only the stage decoder can reject
/// it.
void forge_payload(const std::filesystem::path& file,
                   const std::string& payload) {
  std::ifstream in(file, std::ios::binary);
  std::string header(16, '\0');  // magic, version, key
  ASSERT_TRUE(in.read(header.data(), 16));
  mr::recovery::PayloadReader reader(std::string_view(header).substr(8));
  const std::uint64_t key = reader.u64();
  mr::recovery::CheckpointStore store(file.parent_path().string());
  ASSERT_TRUE(store.store(file.filename().string(), key, payload));
}

/// A payload that is only a count: `count` elements, none of them present.
std::string count_only_payload(std::uint64_t count) {
  mr::recovery::PayloadWriter writer;
  writer.u64(count);
  return writer.take();
}

// The hierarchical pipeline drives 3 stages: sketch, similarity, cluster.
constexpr std::size_t kStages = 3;

TEST(Invalidation, UnchangedRerunServesEveryStageFromCheckpoint) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("rerun");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(first.recovery.checkpoint_misses, kStages);
  EXPECT_EQ(first.recovery.checkpoint_writes, kStages);
  EXPECT_GT(first.sim_total_s, 0.0);

  const PipelineResult second =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(second.labels, first.labels);
  EXPECT_EQ(second.recovery.checkpoint_hits, kStages);
  EXPECT_EQ(second.recovery.checkpoint_misses, 0u);
  // Hit stages never ran a job, so no simulated time accrues.
  EXPECT_EQ(second.sim_total_s, 0.0);
}

TEST(Invalidation, ParamChangeRecomputesEverything) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("params");
  (void)run_pipeline(reads, hier_params(), checkpointed(dir));

  PipelineParams changed = hier_params();
  changed.theta = 0.6;
  const PipelineResult rerun =
      run_pipeline(reads, changed, checkpointed(dir));
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kStages);
  // The changed-params run matches its own uncheckpointed twin.
  ExecutionOptions plain;
  plain.threads = 2;
  plain.records_per_split = 16;
  const PipelineResult uncheckpointed = run_pipeline(reads, changed, plain);
  EXPECT_EQ(rerun.labels, uncheckpointed.labels);
}

TEST(Invalidation, InputChangeRecomputesEverything) {
  const std::string dir = fresh_dir("input");
  (void)run_pipeline(sample_reads(5), hier_params(), checkpointed(dir));

  const auto other_reads = sample_reads(6);
  const PipelineResult rerun =
      run_pipeline(other_reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kStages);
}

TEST(Invalidation, TruncatedCheckpointRecomputesThatStageOnly) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("truncate");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // Tear the "sketch" (sequence 0) file as a crashed write would.
  const std::filesystem::path victim = checkpoint_of(dir, 0);
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);

  // The deterministic recompute reproduces the identical payload, so the
  // chain stays intact and every downstream stage still hits.
  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);

  // The recompute rewrote the file: a third run hits everywhere again.
  const PipelineResult third =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(third.recovery.checkpoint_hits, kStages);
}

TEST(Invalidation, CorruptedCheckpointRecomputesThatStageOnly) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("corrupt");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // Flip one payload byte of the "similarity" (sequence 1) checkpoint:
  // right size, wrong checksum.
  const std::filesystem::path victim = checkpoint_of(dir, 1);
  ASSERT_FALSE(victim.empty());
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-1, std::ios::end);
    file.put('\x5a');
  }

  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);
}

TEST(Invalidation, HugeMatrixCountIsACorruptCheckpoint) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("huge_matrix");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // The "similarity" (sequence 1) payload claims a 2^32 × 2^32 matrix with
  // no cells.  n · n wraps to 0 in 64 bits, so only the count bound stops
  // the decoder from returning a matrix with no storage.
  const std::filesystem::path victim = checkpoint_of(dir, 1);
  ASSERT_FALSE(victim.empty());
  forge_payload(victim, count_only_payload(1ULL << 32));

  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);
}

/// One tuple whose only field is a bag of one such tuple, `depth` deep.
std::string nested_bags_payload(int depth) {
  mr::recovery::PayloadWriter writer;
  writer.u64(1);  // tuples
  for (int level = 0; level < depth; ++level) {
    writer.u64(1);  // fields
    writer.u32(5);  // Bag tag
    writer.u64(1);  // tuples
  }
  writer.u64(0);  // innermost tuple: no fields
  return writer.take();
}

TEST(Invalidation, ForgedPigRelationIsACorruptCheckpoint) {
  const auto reads = sample_reads();
  mr::SimDfs dfs({.nodes = 4, .block_size = 4096});
  dfs.write("/input.fa", bio::write_fasta_string(reads));
  pig::Algorithm3Params params;
  params.num_hashes = 32;
  const auto run = [&] {
    return pig::run_algorithm3(dfs, "/input.fa", "/h", "/g", params);
  };
  const std::string dir = fresh_dir("forged_relation");
  ::setenv("MRMC_CHECKPOINT_DIR", dir.c_str(), 1);
  const pig::Algorithm3Result first = run();
  const std::string hier_bytes = dfs.read("/h");

  // The first "group-all" (sequence 3) relation claims 2^61 tuples, then
  // nests bags 100 000 deep, then decodes cleanly but in the wrong shape:
  // one bag whose one tuple holds a bag instead of a (minwise, id) tuple.
  const std::filesystem::path victim = checkpoint_of(dir, 3);
  for (const std::string& payload :
       {count_only_payload(1ULL << 61), nested_bags_payload(100000),
        nested_bags_payload(2)}) {
    forge_payload(victim, payload);
    const pig::Algorithm3Result rerun = run();
    EXPECT_EQ(rerun.hierarchical, first.hierarchical);
    EXPECT_EQ(dfs.read("/h"), hier_bytes);
    EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
    EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
    EXPECT_EQ(rerun.recovery.checkpoint_hits, 7u);
  }
  ::unsetenv("MRMC_CHECKPOINT_DIR");
}

TEST(Invalidation, StaleDirectoryFromOtherRunsIsHarmless) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("stale");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // A different configuration reuses the same directory: its keys differ,
  // so it recomputes everything and files from both runs coexist.
  PipelineParams other = hier_params();
  other.minhash.num_hashes = 48;
  const PipelineResult second =
      run_pipeline(reads, other, checkpointed(dir));
  EXPECT_EQ(second.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(second.recovery.checkpoint_writes, kStages);

  // Both configurations now resume fully from the shared directory.
  const PipelineResult first_again =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(first_again.labels, first.labels);
  EXPECT_EQ(first_again.recovery.checkpoint_hits, kStages);
  const PipelineResult second_again =
      run_pipeline(reads, other, checkpointed(dir));
  EXPECT_EQ(second_again.labels, second.labels);
  EXPECT_EQ(second_again.recovery.checkpoint_hits, kStages);
}

}  // namespace
}  // namespace mrmc::core
