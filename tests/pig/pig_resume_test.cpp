// Resumable pig scripts: run_script drives every MapReduce statement on the
// same mr::recovery StageDriver as core::run_pipeline, configured via
// MRMC_CHECKPOINT_DIR.  A killed script — Algorithm 3 or any other —
// resumes with completed steps served from checkpoint and byte-identical
// stored outputs.
#include "pig/pig.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "bio/fasta.hpp"
#include "mr/recovery.hpp"
#include "pig/script.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::pig {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::string fresh_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir = ::testing::TempDir() + "/mrmc_pig_resume_" + tag +
                          std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

constexpr std::size_t kSteps = 8;  // 6 foreach + 2 group-all driver stages

struct Fixture {
  mr::SimDfs dfs;
  Algorithm3Params params;

  Fixture() : dfs({.nodes = 4, .block_size = 4096}) {
    const auto sample = simdata::build_whole_metagenome(
        simdata::whole_metagenome_spec("S8"), {.reads = 30, .seed = 5});
    dfs.write("/input.fa", bio::write_fasta_string(sample.reads));
    params.kmer = 5;
    params.num_hashes = 32;
    params.cutoff = 0.45;
  }

  Algorithm3Result run() {
    return run_algorithm3(dfs, "/input.fa", "/out/hier", "/out/greedy",
                          params, {.nodes = 4});
  }
};

TEST(PigResume, KilledScriptResumesWithByteIdenticalStores) {
  Fixture baseline_fixture;
  const Algorithm3Result baseline = baseline_fixture.run();
  const std::string hier_bytes = baseline_fixture.dfs.read("/out/hier");
  const std::string greedy_bytes = baseline_fixture.dfs.read("/out/greedy");
  EXPECT_EQ(baseline.jobs_run, kSteps);
  // Without MRMC_CHECKPOINT_DIR the driver still runs (and counts) every
  // stage — it just has nothing to hit or write.
  EXPECT_EQ(baseline.recovery.stages, kSteps);
  EXPECT_EQ(baseline.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(baseline.recovery.checkpoint_writes, 0u);

  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("kill"));
  {
    // Die right after the minwise-hash step (driver sequence 2) commits.
    ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", "foreach-CalculateMinwiseHash");
    EXPECT_THROW(fixture.run(), mr::recovery::InjectedDriverCrash);
    EXPECT_FALSE(fixture.dfs.exists("/out/hier"));
  }

  const Algorithm3Result resumed = fixture.run();
  EXPECT_EQ(resumed.hierarchical, baseline.hierarchical);
  EXPECT_EQ(resumed.greedy, baseline.greedy);
  EXPECT_EQ(fixture.dfs.read("/out/hier"), hier_bytes);
  EXPECT_EQ(fixture.dfs.read("/out/greedy"), greedy_bytes);
  EXPECT_EQ(resumed.recovery.stages, kSteps);
  EXPECT_EQ(resumed.recovery.checkpoint_hits, 3u);
  EXPECT_EQ(resumed.recovery.checkpoint_misses, kSteps - 3);
  EXPECT_EQ(resumed.jobs_run, kSteps - 3);  // hit steps run no jobs
}

TEST(PigResume, FullyResumedScriptRunsNoJobsButStoresEverything) {
  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("full"));
  const Algorithm3Result first = fixture.run();
  EXPECT_EQ(first.recovery.checkpoint_writes, kSteps);
  EXPECT_GT(first.sim_time_s, 0.0);
  const std::string hier_bytes = fixture.dfs.read("/out/hier");

  // Same DFS, warm directory: the twice-run "group-all" step resolves by
  // sequence number, every step hits, and the stores still materialize.
  const Algorithm3Result second = fixture.run();
  EXPECT_EQ(second.recovery.checkpoint_hits, kSteps);
  EXPECT_EQ(second.jobs_run, 0u);
  EXPECT_EQ(second.sim_time_s, 0.0);
  EXPECT_EQ(second.hierarchical, first.hierarchical);
  EXPECT_EQ(second.greedy, first.greedy);
  EXPECT_EQ(fixture.dfs.read("/out/hier"), hier_bytes);
}

TEST(PigResume, ChangedParamsIgnoreTheWarmDirectory) {
  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("params"));
  (void)fixture.run();

  fixture.params.cutoff = 0.6;
  const Algorithm3Result rerun = fixture.run();
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kSteps);
  EXPECT_EQ(rerun.jobs_run, kSteps);
}

// ------------------------------------------------- any script, same driver

// GROUP BY + FOREACH + STORE: run_script drives every MapReduce statement
// as one stage — three FOREACHes, the inline GROUP ALL, the clustering
// FOREACH and the GROUP BY.
constexpr std::size_t kScriptStages = 6;

constexpr const char* kGroupByScript = R"(
A = LOAD '/input.fa' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 5));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(kmers, id, 32, 0));
L = FOREACH (GROUP E ALL) GENERATE FLATTEN(GreedyClustering(F, 32, $CUTOFF));
G = GROUP L BY $1;
STORE L INTO '/out/labels';
STORE G INTO '/out/groups';
)";

ScriptResult run_group_by_script(Fixture& fixture, const std::string& cutoff) {
  PigContext ctx(&fixture.dfs, {.nodes = 4});
  return run_script(ctx, kGroupByScript, {{"CUTOFF", cutoff}});
}

TEST(PigResume, KilledGroupByScriptResumesWithByteIdenticalStores) {
  Fixture baseline;
  const ScriptResult first = run_group_by_script(baseline, "0.45");
  EXPECT_EQ(first.jobs_run, kScriptStages);
  EXPECT_EQ(first.recovery.stages, kScriptStages);

  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("script"));
  {
    // Die right after the inline GROUP ALL (driver sequence 3) commits.
    ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", "group-all");
    EXPECT_THROW(run_group_by_script(fixture, "0.45"),
                 mr::recovery::InjectedDriverCrash);
    EXPECT_FALSE(fixture.dfs.exists("/out/labels"));
  }

  const ScriptResult resumed = run_group_by_script(fixture, "0.45");
  EXPECT_EQ(fixture.dfs.read("/out/labels"), baseline.dfs.read("/out/labels"));
  EXPECT_EQ(fixture.dfs.read("/out/groups"), baseline.dfs.read("/out/groups"));
  EXPECT_EQ(resumed.recovery.stages, kScriptStages);
  EXPECT_EQ(resumed.recovery.checkpoint_hits, 4u);
  EXPECT_EQ(resumed.recovery.checkpoint_misses, kScriptStages - 4);
  EXPECT_EQ(resumed.jobs_run, kScriptStages - 4);
}

TEST(PigResume, EditedScriptIgnoresTheWarmDirectory) {
  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("edit"));
  (void)run_group_by_script(fixture, "0.45");
  EXPECT_EQ(run_group_by_script(fixture, "0.45").recovery.checkpoint_hits,
            kScriptStages);

  // Editing a downstream statement re-keys every stage, upstream ones too.
  const ScriptResult edited = run_group_by_script(fixture, "0.6");
  EXPECT_EQ(edited.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(edited.recovery.checkpoint_misses, kScriptStages);
}

}  // namespace
}  // namespace mrmc::pig
