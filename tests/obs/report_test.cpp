// Tests for the job doctor (obs::report): the analyzer's critical-path
// arithmetic and findings heuristics, the golden straggler detection on a
// deterministic seeded Job timeline, the exactness claim that the report
// reconstructed from a trace (file, mrmc_doctor CLI, or MRMC_REPORT sink)
// is bit-identical to one built straight from the JobTimeline, and the
// trace decoder's rejection of malformed events.
#include "obs/report.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "mr/cluster.hpp"
#include "mr/job.hpp"
#include "obs/pipeline.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mrmc {
namespace {

using obs::report::analyze;
using obs::report::AnalyzeOptions;
using obs::report::JobInput;
using obs::report::JobReport;
using obs::report::Severity;
using obs::report::TaskSample;

JobInput two_node_input() {
  JobInput input;
  input.name = "unit";
  input.nodes = 2;
  input.map_slots_per_node = 2;
  input.reduce_slots_per_node = 1;
  input.job_startup_s = 8.0;
  input.shuffle_s = 3.5;
  input.shuffle_bytes = 1e6;
  input.map_tasks = {{0, 0, 0, 0.0, 4.0, true},
                     {1, 0, 1, 0.0, 3.0, true},
                     {2, 1, 0, 0.0, 5.0, true},
                     {3, 1, 1, 0.0, 4.5, true}};
  input.reduce_tasks = {{0, 0, 0, 0.0, 2.0, true}, {1, 1, 0, 0.0, 2.5, true}};
  return input;
}

TEST(Analyze, DecomposesTheCriticalPath) {
  const JobReport report = analyze(two_node_input());
  EXPECT_EQ(report.name, "unit");
  EXPECT_EQ(report.nodes, 2u);
  EXPECT_DOUBLE_EQ(report.map_phase.makespan_s, 5.0);
  EXPECT_DOUBLE_EQ(report.reduce_phase.makespan_s, 2.5);
  // Exactly startup + map + shuffle + reduce, left to right.
  EXPECT_EQ(report.total_s, ((8.0 + 5.0) + 3.5) + 2.5);
  EXPECT_DOUBLE_EQ(report.map_phase.busy_s, 16.5);
  EXPECT_EQ(report.map_phase.busy_slots, 4u);
  EXPECT_EQ(report.map_phase.slots, 4u);
  EXPECT_DOUBLE_EQ(report.map_phase.ideal_s, 16.5 / 4.0);
  EXPECT_DOUBLE_EQ(report.map_phase.parallel_efficiency, 16.5 / (5.0 * 4.0));
  ASSERT_EQ(report.map_phase.node_busy_s.size(), 2u);
  EXPECT_DOUBLE_EQ(report.map_phase.node_busy_s[0], 7.0);
  EXPECT_DOUBLE_EQ(report.map_phase.node_busy_s[1], 9.5);
  ASSERT_EQ(report.node_utilization.size(), 2u);
  // Node 0: 7.0 map + 2.0 reduce over (5.0 x 2 + 2.5 x 1) slot-seconds.
  EXPECT_DOUBLE_EQ(report.node_utilization[0].busy_s, 9.0);
  EXPECT_DOUBLE_EQ(report.node_utilization[0].utilization, 9.0 / 12.5);
  // Balanced job: no straggler/skew/idle findings.
  EXPECT_FALSE(report.has_finding("map-straggler"));
  EXPECT_FALSE(report.has_finding("reduce-skew"));
  EXPECT_FALSE(report.has_finding("map-idle-slots"));
}

TEST(Analyze, FlagsStragglerAndSkewAndNamesTheTask) {
  JobInput input = two_node_input();
  input.reduce_tasks = {{0, 0, 0, 0.0, 1.0, true},
                        {1, 1, 0, 0.0, 1.0, true},
                        {2, 0, 0, 1.0, 2.0, true},
                        {3, 1, 0, 1.0, 11.0, true}};
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("reduce-straggler"));
  EXPECT_TRUE(report.has_finding("reduce-skew"));
  bool named = false;
  for (const auto& finding : report.findings) {
    if (finding.id == "reduce-straggler") {
      named = finding.message.find("task 3 on node 1") != std::string::npos;
      EXPECT_EQ(finding.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(named);
}

TEST(Analyze, FlagsIdleSlotsStartupBoundAndLowLocality) {
  JobInput input = two_node_input();
  input.nodes = 8;  // way more slots than tasks
  input.map_tasks = {{0, 0, 0, 0.0, 4.0, false},
                     {1, 0, 1, 0.0, 3.0, false},
                     {2, 1, 0, 0.0, 5.0, true}};
  input.reduce_tasks = {{0, 0, 0, 0.0, 0.5, true}};
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("map-idle-slots"));
  EXPECT_TRUE(report.has_finding("reduce-idle-slots"));
  EXPECT_TRUE(report.has_finding("startup-bound"));  // 8s of a ~17s job
  EXPECT_TRUE(report.has_finding("low-locality"));   // 1 of 3 local
  EXPECT_TRUE(report.has_finding("low-parallel-efficiency"));
  // Findings are ordered most severe first.
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_GE(static_cast<int>(report.findings[i - 1].severity),
              static_cast<int>(report.findings[i].severity));
  }
}

TEST(Analyze, ShuffleBoundFiresOnShuffleHeavyJobs) {
  JobInput input = two_node_input();
  input.shuffle_s = 50.0;
  input.shuffle_bytes = 4e9;
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("shuffle-bound"));
}

TEST(Renderers, TextJsonAndHtmlTellTheSameStory) {
  JobInput input = two_node_input();
  input.name = "render <job> & escape";
  input.map_tasks.push_back({4, 1, 0, 5.0, 25.0, true});  // a straggler
  const JobReport report = analyze(input);
  ASSERT_TRUE(report.has_finding("map-straggler"));

  const std::string text = obs::report::to_text(report);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("map-straggler"), std::string::npos);
  EXPECT_NE(text.find("node utilization"), std::string::npos);

  const std::string json = obs::report::to_json(report);
  const common::JsonValue root = common::parse_json(json);
  EXPECT_EQ(root.at("name").string, input.name);
  // %.17g doubles survive the parse bit-for-bit.
  EXPECT_EQ(root.at("critical_path").at("total_s").number, report.total_s);
  EXPECT_EQ(root.at("map").at("busy_s").number, report.map_phase.busy_s);
  bool straggler_in_json = false;
  for (const auto& finding : root.at("findings").array) {
    straggler_in_json |= finding.at("id").string == "map-straggler";
  }
  EXPECT_TRUE(straggler_in_json);

  const std::vector<JobReport> reports{report};
  const std::vector<JobInput> inputs{input};
  const std::string html = obs::report::to_html(reports, inputs);
  EXPECT_NE(html.find("<svg"), std::string::npos);  // critical-path visuals
  EXPECT_NE(html.find("render &lt;job&gt; &amp; escape"), std::string::npos);
  EXPECT_EQ(html.find("<job>"), std::string::npos);  // name was escaped
  EXPECT_NE(html.find("<h3>schedule</h3>"), std::string::npos);  // Gantt
}

// ---------------------------------------------------------------- golden

using CountJob = mr::Job<std::string, std::string, long,
                         std::pair<std::string, long>>;

/// Deterministic job with seeded injected stragglers: every map task models
/// the same work, except the straggler_rate fraction that runs
/// straggler_slowdown x longer (mr::Job's per-task-index seeded rng).
mr::JobStats golden_straggler_stats(double straggler_rate) {
  mr::JobConfig config;
  config.name = "golden";
  config.records_per_split = 1;  // one map task per line
  config.threads = 2;
  config.cluster.nodes = 4;
  config.seed = 7;
  config.straggler_rate = straggler_rate;
  config.straggler_slowdown = 8.0;

  CountJob job(
      config,
      [](const std::string& line, mr::Emitter<std::string, long>& emit) {
        emit.emit(line.substr(0, 1), 1);
      },
      [](const std::string& key, std::vector<long>& counts,
         std::vector<std::pair<std::string, long>>& out) {
        out.emplace_back(key, static_cast<long>(counts.size()));
      });
  job.with_map_work([](const std::string&) { return 40.0; });

  std::vector<std::string> lines;
  for (int i = 0; i < 16; ++i) lines.push_back("line " + std::to_string(i));
  return job.run(lines).stats;
}

TEST(GoldenStraggler, InjectedSkewYieldsANamedFinding) {
  const mr::JobStats stats = golden_straggler_stats(0.25);
  mr::ClusterConfig cluster;
  cluster.nodes = 4;
  const JobInput input = mr::report_input(stats.timeline, cluster, "golden",
                                          stats.shuffle_bytes);
  ASSERT_EQ(input.map_tasks.size(), 16u);

  // Sanity: the injection really produced a >2x-median map task.
  double median = 0.0, max = 0.0;
  {
    std::vector<double> durations;
    for (const TaskSample& task : input.map_tasks) {
      durations.push_back(task.duration_s());
    }
    std::sort(durations.begin(), durations.end());
    median = durations[durations.size() / 2];
    max = durations.back();
  }
  ASSERT_GT(max, 2.0 * median)
      << "seeded straggler injection produced no straggler";

  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("map-straggler"));

  // Control: without injection the same job is clean.
  const mr::JobStats clean = golden_straggler_stats(0.0);
  const JobReport clean_report = analyze(
      mr::report_input(clean.timeline, cluster, "clean", clean.shuffle_bytes));
  EXPECT_FALSE(clean_report.has_finding("map-straggler"));
}

// ------------------------------------------------------------- round trip

class DoctorRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }
};

/// Two dissimilar jobs with awkward doubles: bandwidth divisions, locality
/// misses, a straggler, and an empty map phase.
std::vector<JobInput> simulate_two_jobs(const std::string& trace_path) {
  mr::ClusterConfig config;
  config.nodes = 3;
  const mr::SimScheduler scheduler(config);

  std::vector<mr::TaskSpec> maps;
  for (int i = 0; i < 11; ++i) {
    maps.push_back({i == 4 ? 700.0 : 30.0 + static_cast<double>(i) / 3.0,
                    1.7e6, 3.1e5, i % 4 == 0 ? -1 : i % 3});
  }
  std::vector<mr::TaskSpec> reduces(5, {20.0, 2.5e6, 1.25e6, -1});
  const mr::JobTimeline first =
      simulate_job(scheduler, maps, 2.3e8, {}, reduces, "roundtrip A");

  std::vector<mr::TaskSpec> lone_reduce{{55.5, 9.9e6, 1e3, -1}};
  const mr::JobTimeline second =
      simulate_job(scheduler, {}, 7.7e7, {}, lone_reduce, "roundtrip B");

  auto& tracer = obs::Tracer::global();
  tracer.set_output_path(trace_path);
  EXPECT_TRUE(tracer.flush());

  return {mr::report_input(first, config, "roundtrip A", 2.3e8),
          mr::report_input(second, config, "roundtrip B", 7.7e7)};
}

TEST_F(DoctorRoundTripTest, OfflineReportIsBitIdenticalToInProcess) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_roundtrip.json";
  const std::vector<JobInput> inputs = simulate_two_jobs(trace_path);

  const std::vector<JobReport> offline =
      obs::report::analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), inputs.size());

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const JobReport in_process = analyze(inputs[i]);
    EXPECT_EQ(in_process.name, offline[i].name);
    // The headline exactness claims: critical path and makespans.
    EXPECT_EQ(in_process.total_s, offline[i].total_s);
    EXPECT_EQ(in_process.startup_s, offline[i].startup_s);
    EXPECT_EQ(in_process.shuffle_s, offline[i].shuffle_s);
    EXPECT_EQ(in_process.map_phase.makespan_s, offline[i].map_phase.makespan_s);
    EXPECT_EQ(in_process.reduce_phase.makespan_s,
              offline[i].reduce_phase.makespan_s);
    // ...and in fact the entire serialized report is byte-identical.
    EXPECT_EQ(obs::report::to_json(in_process),
              obs::report::to_json(offline[i]));
  }
}

TEST_F(DoctorRoundTripTest, SamplerCountersLeaveTheReportByteIdentical) {
  // Counter events ('C') ride along in the trace but are invisible to the
  // report reconstruction: a sampler-on trace must yield the exact bytes a
  // sampler-off trace does.
  const std::string off_path = ::testing::TempDir() + "/sampler_off.json";
  const std::string on_path = ::testing::TempDir() + "/sampler_on.json";
  simulate_two_jobs(off_path);

  auto& sampler = obs::ResourceSampler::global();
  sampler.set_period_ms(1e9);  // enabled, but the thread never gets a tick
  sampler.set_enabled(true);
  obs::Tracer::global().clear();
  sampler.sample_once();  // wall-clock counters on the real track
  simulate_two_jobs(on_path);  // + deterministic sim-grid task counters
  sampler.set_enabled(false);

  // The sampler-on trace really carries counter events...
  std::ifstream in(on_path);
  std::ostringstream trace_text;
  trace_text << in.rdbuf();
  EXPECT_NE(trace_text.str().find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("sim active tasks"), std::string::npos);

  // ...and the reconstructed reports are byte-identical regardless.
  const std::vector<JobReport> off = obs::report::analyze_trace_file(off_path);
  const std::vector<JobReport> on = obs::report::analyze_trace_file(on_path);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(obs::report::to_json(off[i]), obs::report::to_json(on[i]));
  }
}

TEST_F(DoctorRoundTripTest, ByteAccountingSurvivesTheTraceRoundTrip) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_bytes.json";
  const std::vector<JobInput> inputs = simulate_two_jobs(trace_path);
  ASSERT_FALSE(inputs[0].bytes.empty());

  const std::vector<JobReport> offline =
      obs::report::analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const JobReport in_process = analyze(inputs[i]);
    EXPECT_EQ(in_process.bytes.map_input_bytes,
              offline[i].bytes.map_input_bytes);
    EXPECT_EQ(in_process.bytes.map_output_bytes,
              offline[i].bytes.map_output_bytes);
    EXPECT_EQ(in_process.bytes.reduce_input_bytes,
              offline[i].bytes.reduce_input_bytes);
    EXPECT_EQ(in_process.bytes.reduce_output_bytes,
              offline[i].bytes.reduce_output_bytes);
    EXPECT_EQ(in_process.bytes.fetch_bytes, offline[i].bytes.fetch_bytes);
    EXPECT_EQ(in_process.bytes.fetch_count, offline[i].bytes.fetch_count);
    EXPECT_EQ(in_process.bytes.max_fetch_fan_in,
              offline[i].bytes.max_fetch_fan_in);
    // The rendered "bytes" sections agree byte for byte.
    const std::string in_json = obs::report::to_json(in_process);
    EXPECT_NE(in_json.find("\"bytes\""), std::string::npos);
    EXPECT_EQ(in_json, obs::report::to_json(offline[i]));
  }
}

#ifdef MRMC_DOCTOR_BIN
TEST_F(DoctorRoundTripTest, CliBinaryReproducesTheInProcessReport) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_cli_trace.json";
  const std::string out_path =
      ::testing::TempDir() + "/mrmc_doctor_cli_report.json";
  const std::vector<JobInput> inputs = simulate_two_jobs(trace_path);

  const std::string command = std::string(MRMC_DOCTOR_BIN) + " " + trace_path +
                              " --format=json -o " + out_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const common::JsonValue root = common::parse_json(buffer.str());
  const auto& jobs = root.at("jobs").array;
  ASSERT_EQ(jobs.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const JobReport in_process = analyze(inputs[i]);
    EXPECT_EQ(jobs[i].at("name").string, in_process.name);
    // strtod on the CLI's %.17g output recovers the scheduler's doubles.
    EXPECT_EQ(jobs[i].at("critical_path").at("total_s").number,
              in_process.total_s);
    EXPECT_EQ(jobs[i].at("critical_path").at("map_s").number,
              in_process.map_phase.makespan_s);
    EXPECT_EQ(jobs[i].at("critical_path").at("reduce_s").number,
              in_process.reduce_phase.makespan_s);
    EXPECT_EQ(jobs[i].at("critical_path").at("shuffle_s").number,
              in_process.shuffle_s);
  }
}
#endif  // MRMC_DOCTOR_BIN

// ------------------------------------------------------------ report sink

TEST(ReportSink, FlushWritesTheFormatTheExtensionAsksFor) {
  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  auto& sink = obs::pipeline::ReportSink::global();
  const std::string html_path = ::testing::TempDir() + "/mrmc_report.html";
  sink.set_report_path(html_path);
  EXPECT_TRUE(tracer.enabled());  // a report path keeps events in memory

  mr::ClusterConfig config;
  config.nodes = 2;
  const mr::SimScheduler scheduler(config);
  const std::vector<mr::TaskSpec> maps(4, {30.0, 1e6, 1e5, -1});
  const std::vector<mr::TaskSpec> reduces(2, {20.0, 1e6, 1e5, -1});
  (void)simulate_job(scheduler, maps, 1e6, {}, reduces, "unit");

  ASSERT_TRUE(sink.flush());
  std::ifstream html_in(html_path);
  std::ostringstream html;
  html << html_in.rdbuf();
  EXPECT_NE(html.str().find("<svg"), std::string::npos);
  EXPECT_NE(html.str().find("<h3>schedule</h3>"), std::string::npos);
  EXPECT_NE(html.str().find("unit"), std::string::npos);

  const std::string json_path = ::testing::TempDir() + "/mrmc_report.json";
  sink.set_report_path(json_path);
  ASSERT_TRUE(sink.flush());
  std::ifstream json_in(json_path);
  std::ostringstream json;
  json << json_in.rdbuf();
  const common::JsonValue root = common::parse_json(json.str());
  ASSERT_EQ(root.at("jobs").array.size(), 1u);
  EXPECT_EQ(root.at("jobs").array[0].at("name").string, "unit");

  tracer.clear();
  EXPECT_FALSE(sink.flush());  // no jobs in the trace: nothing written
  sink.set_report_path("");
  tracer.set_enabled(false);
}

// ---------------------------------------------------------- trace intake

/// A one-job trace whose events are spliced in from `events` (JSON objects
/// separated by commas), after a well-formed process_name event.
std::string trace_with(const std::string& events) {
  return "{\"traceEvents\": [\n"
         "{\"name\": \"process_name\", \"cat\": \"meta\", \"ph\": \"M\", "
         "\"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"sim: probe\"}},\n" +
         events + "\n]}\n";
}

std::string map_task_event(const std::string& pid, const std::string& end_s) {
  return "{\"name\": \"map 0\", \"cat\": \"sim\", \"ph\": \"X\", \"pid\": " +
         pid +
         ", \"tid\": 0, \"ts\": 0, \"dur\": 1, \"args\": {\"phase\": \"map\", "
         "\"task\": \"0\", \"start_s\": \"0\", \"end_s\": \"" +
         end_s + "\"}}";
}

/// The decoder, and mrmc_doctor on the same bytes, must reject `trace` with
/// a message containing `field`.
void expect_rejected(const std::string& trace, const std::string& field,
                     const std::string& tag) {
  try {
    (void)obs::report::jobs_from_trace(common::parse_json(trace));
    ADD_FAILURE() << tag << ": jobs_from_trace accepted the trace";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << tag << ": " << error.what();
  }
#ifdef MRMC_DOCTOR_BIN
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_probe_" + tag + ".json";
  const std::string err_path =
      ::testing::TempDir() + "/mrmc_probe_" + tag + ".err";
  std::ofstream(trace_path) << trace;
  for (const char* mode : {"", "pipeline "}) {
    const std::string command = std::string(MRMC_DOCTOR_BIN) + " " + mode +
                                trace_path + " > /dev/null 2> " + err_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    std::ifstream err_in(err_path);
    std::ostringstream err;
    err << err_in.rdbuf();
    EXPECT_NE(err.str().find(field), std::string::npos)
        << command << ": " << err.str();
  }
#endif  // MRMC_DOCTOR_BIN
}

TEST(TraceIntake, RejectsATrackNodeBeyondTheNodeLimit) {
  expect_rejected(
      trace_with("{\"name\": \"thread_name\", \"cat\": \"meta\", \"ph\": "
                 "\"M\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": "
                 "\"node 2000000000 map slot 0\"}},\n" +
                 map_task_event("2", "1")),
      "node 2000000000", "track_node");
}

TEST(TraceIntake, RejectsANodeCountBeyondTheNodeLimit) {
  expect_rejected(
      trace_with("{\"name\": \"job_config\", \"cat\": \"sim\", \"ph\": \"i\", "
                 "\"pid\": 2, \"tid\": 0, \"ts\": 0, \"args\": {\"nodes\": "
                 "\"1e19\", \"map_slots_per_node\": \"1\", "
                 "\"reduce_slots_per_node\": \"1\", \"job_startup_s\": "
                 "\"0\"}},\n" +
                 map_task_event("2", "1")),
      "args.nodes", "node_count");
}

TEST(TraceIntake, RejectsAnOutOfRangePidAndANonFiniteTime) {
  expect_rejected(trace_with(map_task_event("1e30", "nan")), "pid",
                  "huge_pid");
  expect_rejected(trace_with(map_task_event("2", "nan")), "args.end_s",
                  "nan_end");
  expect_rejected(trace_with(map_task_event("2.5", "1")), "pid",
                  "fractional_pid");
}

}  // namespace
}  // namespace mrmc
