// Pipeline-doctor coverage for the recovery layer: "stage_checkpoint"
// instants reconstruct the driver's "recovery" section for cold runs (all
// misses), resumed runs (all hits, no jobs at all), and crashed runs
// resumed mid-pipeline.
#include "obs/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "common/prng.hpp"
#include "core/pipeline.hpp"
#include "mr/recovery.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::obs::pipeline {
namespace {

class PipelineRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_output_path("");
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    ReportSink::global().set_pipeline_path("");
    Tracer::global().set_enabled(false);
    Tracer::global().set_output_path("");
    Tracer::global().clear();
  }

  static std::string fresh_dir(const std::string& tag) {
    static int serial = 0;
    const std::string dir = ::testing::TempDir() + "/mrmc_obs_recovery_" +
                            tag + std::to_string(serial++);
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::vector<bio::FastaRecord> sample_reads() {
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S2"), {.reads = 60, .seed = 3})
        .reads;
  }

  static core::PipelineParams sample_params() {
    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true,
                      .seed = 1};
    params.mode = core::Mode::kHierarchical;
    params.theta = 0.5;
    return params;
  }

  static core::PipelineResult run_checkpointed(
      const std::vector<bio::FastaRecord>& reads,
      const core::PipelineParams& params, const std::string& ckpt_dir,
      const std::string& trace_path) {
    core::ExecutionOptions exec;
    exec.threads = 2;
    exec.records_per_split = 16;
    exec.checkpoint_dir = ckpt_dir;
    Tracer::global().set_output_path(trace_path);
    return core::run_pipeline(reads, params, exec);
  }

  static core::PipelineResult run_checkpointed(const std::string& ckpt_dir,
                                               const std::string& trace_path) {
    return run_checkpointed(sample_reads(), sample_params(), ckpt_dir,
                            trace_path);
  }

  /// The pipelines the live tracer holds — what MRMC_PIPELINE renders.
  static std::vector<PipelineReport> traced_reports() {
    return analyze_trace(Tracer::global().parsed_trace());
  }

  static bool has_finding(const PipelineReport& report,
                          const std::string& id) {
    for (const auto& finding : report.findings) {
      if (finding.id == id) return true;
    }
    return false;
  }
};

TEST_F(PipelineRecoveryTest, ColdRunRecoverySectionRoundTripsByteIdentical) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_recovery_cold_trace.json";
  run_checkpointed(fresh_dir("cold"), trace_path);

  const std::vector<PipelineReport> in_process = traced_reports();
  ASSERT_EQ(in_process.size(), 1u);
  EXPECT_EQ(in_process[0].stages.size(), 3u);
  ASSERT_EQ(in_process[0].recovery.rows.size(), 3u);
  EXPECT_EQ(in_process[0].recovery.hits, 0u);
  EXPECT_EQ(in_process[0].recovery.misses, 3u);
  EXPECT_EQ(in_process[0].recovery.writes, 3u);
  EXPECT_EQ(in_process[0].recovery.rows[0].stage, "sketch");
  EXPECT_EQ(in_process[0].recovery.rows[0].outcome, "miss+write");
  EXPECT_FALSE(has_finding(in_process[0], "checkpoint-resume"));

  // The renderers actually surface the section.
  EXPECT_NE(to_text(in_process[0]).find("recovery:"), std::string::npos);
  const auto parsed = common::parse_json(to_json(in_process[0]));
  EXPECT_EQ(parsed.at("recovery").at("stages").array.size(), 3u);
  const std::vector<PipelineReport> all{in_process[0]};
  EXPECT_NE(to_html(all).find("recovery"), std::string::npos);
}

TEST_F(PipelineRecoveryTest, ResumedRunIsRecoveryOnlyAndStillRoundTrips) {
  const std::string ckpt_dir = fresh_dir("resume");
  run_checkpointed(ckpt_dir, ::testing::TempDir() + "/mrmc_warmup_trace.json");
  Tracer::global().clear();

  // Warm run: every stage hits, no MapReduce job runs, so the pipeline
  // exists in the trace ONLY through its recovery rows.
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_recovery_warm_trace.json";
  const core::PipelineResult result =
      run_checkpointed(ckpt_dir, trace_path);
  EXPECT_EQ(result.recovery.checkpoint_hits, 3u);

  const std::vector<PipelineReport> in_process = traced_reports();
  ASSERT_EQ(in_process.size(), 1u);
  EXPECT_TRUE(in_process[0].stages.empty());
  EXPECT_EQ(in_process[0].recovery.hits, 3u);
  EXPECT_EQ(in_process[0].recovery.misses, 0u);
  for (const RecoveryRecord& row : in_process[0].recovery.rows) {
    EXPECT_EQ(row.outcome, "hit");
    EXPECT_EQ(row.attempts, 0);
  }
  // A fully-resumed run announces itself.
  EXPECT_TRUE(has_finding(in_process[0], "checkpoint-resume"));

  // flush() must not treat a recovery-only trace as empty.
  const std::string out_path =
      ::testing::TempDir() + "/mrmc_recovery_warm_report.json";
  ReportSink::global().set_pipeline_path(out_path);
  ASSERT_TRUE(ReportSink::global().flush());
  ReportSink::global().set_pipeline_path("");
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  const auto parsed = common::parse_json(text.str());
  ASSERT_EQ(parsed.at("pipelines").array.size(), 1u);
  EXPECT_EQ(parsed.at("pipelines")
                .array[0]
                .at("recovery")
                .at("hits")
                .number,
            3.0);
}

TEST_F(PipelineRecoveryTest, CrashedThenResumedRunKeepsStageNamesAligned) {
  // Kill the driver after the last stage before clustering; the resumed run
  // claims the killed stages' lineage slots from checkpoint, so its computed
  // stage keeps the sequence number an uninterrupted run gives it.  The
  // second case is hierarchical + LSH on unrelated random reads: no
  // candidate pair survives, and the verify stage must still run (and so
  // claim) its one job.
  struct Case {
    std::string crash_after;
    std::vector<bio::FastaRecord> reads;
    core::PipelineParams params;
    std::size_t hits;  ///< stages served from checkpoint on resume
  };
  std::vector<bio::FastaRecord> random_reads(40);
  common::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < random_reads.size(); ++i) {
    random_reads[i].id = std::string("r").append(std::to_string(i));
    for (int b = 0; b < 100; ++b) random_reads[i].seq += "ACGT"[rng.bounded(4)];
  }
  core::PipelineParams lsh;
  lsh.minhash = {.kmer = 15, .num_hashes = 64, .seed = 1};
  lsh.mode = core::Mode::kHierarchical;
  lsh.theta = 0.9;
  lsh.candidates.backend = core::candidates::Backend::kLshBanded;
  const std::vector<Case> cases{
      {"similarity", sample_reads(), sample_params(), 2},
      {"verify", random_reads, lsh, 3}};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.crash_after);
    const auto cluster_sequence = [](const PipelineReport& report) {
      for (const StageReport& stage : report.stages) {
        if (stage.job.name == "hierarchical-cluster") return stage.job.sequence;
      }
      ADD_FAILURE() << "no hierarchical-cluster job";
      return std::size_t{0};
    };

    Tracer::global().clear();
    const core::PipelineResult straight =
        run_checkpointed(c.reads, c.params, fresh_dir("straight"),
                         ::testing::TempDir() + "/mrmc_straight_trace.json");
    EXPECT_EQ(straight.candidate_pairs, 0u);
    const std::vector<PipelineReport> uninterrupted = traced_reports();
    ASSERT_EQ(uninterrupted.size(), 1u);
    // Every stage before clustering ran one job.
    EXPECT_EQ(cluster_sequence(uninterrupted[0]), c.hits);

    const std::string ckpt_dir = fresh_dir("crash");
    ::setenv("MRMC_CRASH_AFTER_STAGE", c.crash_after.c_str(), 1);
    const std::string crash_trace =
        ::testing::TempDir() + "/mrmc_crash_trace.json";
    EXPECT_THROW(run_checkpointed(c.reads, c.params, ckpt_dir, crash_trace),
                 mr::recovery::InjectedDriverCrash);
    ::unsetenv("MRMC_CRASH_AFTER_STAGE");
    Tracer::global().clear();

    run_checkpointed(c.reads, c.params, ckpt_dir,
                     ::testing::TempDir() + "/mrmc_resume_trace.json");
    const std::vector<PipelineReport> in_process = traced_reports();
    ASSERT_EQ(in_process.size(), 1u);
    // One computed job after the checkpoint hits, on the sequence slot of
    // the uninterrupted run.
    ASSERT_EQ(in_process[0].stages.size(), 1u);
    EXPECT_EQ(in_process[0].stages[0].job.name, "hierarchical-cluster");
    EXPECT_EQ(in_process[0].stages[0].job.sequence,
              cluster_sequence(uninterrupted[0]));
    EXPECT_EQ(in_process[0].recovery.hits, c.hits);
    EXPECT_EQ(in_process[0].recovery.misses, 1u);
    EXPECT_TRUE(has_finding(in_process[0], "checkpoint-resume"));
  }
}

}  // namespace
}  // namespace mrmc::obs::pipeline
