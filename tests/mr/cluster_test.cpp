#include "mr/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mrmc::mr {
namespace {

ClusterConfig small_cluster(std::size_t nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.task_startup_s = 1.0;
  config.job_startup_s = 5.0;
  return config;
}

TEST(SimScheduler, RejectsDegenerateConfigs) {
  ClusterConfig config;
  config.nodes = 0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
  config = ClusterConfig{};
  config.node.cpu_rate = 0.0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
}

TEST(SimScheduler, RejectsZeroSlotsPerNodeWhenTasksArePending) {
  const SimScheduler scheduler(small_cluster(3));
  const std::vector<TaskSpec> tasks(4, TaskSpec{2.0, 0.0, 0.0, 1});
  EXPECT_THROW((void)scheduler.schedule_phase(tasks, 0),
               common::InvalidArgument);
  // Nothing to place needs no slot.
  EXPECT_TRUE(scheduler.schedule_phase({}, 0).tasks.empty());
}

TEST(SimScheduler, TaskDurationComposesCosts) {
  const SimScheduler scheduler(small_cluster(2));
  const TaskSpec task{10.0, 80e6, 40e6, -1};  // 10 s work, 1 s disk in, .5 s out
  // startup 1 + work 10 + in 80e6/80e6 + out 40e6/80e6 = 12.5
  EXPECT_DOUBLE_EQ(scheduler.task_duration(task, true), 12.5);
  // remote input goes over the 40 MB/s NIC: 1 + 10 + 2 + 0.5
  EXPECT_DOUBLE_EQ(scheduler.task_duration(task, false), 13.5);
}

TEST(SimScheduler, EmptyPhaseHasZeroMakespan) {
  const SimScheduler scheduler(small_cluster(4));
  const auto timeline = scheduler.schedule_phase({}, 2);
  EXPECT_DOUBLE_EQ(timeline.makespan_s, 0.0);
  EXPECT_TRUE(timeline.tasks.empty());
}

TEST(SimScheduler, SingleTaskMakespanIsItsDuration) {
  const SimScheduler scheduler(small_cluster(4));
  const std::vector<TaskSpec> tasks{{5.0, 0.0, 0.0, -1}};
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_DOUBLE_EQ(timeline.makespan_s, 6.0);  // startup + work
}

TEST(SimScheduler, ParallelSlotsShortenMakespan) {
  const SimScheduler scheduler2(small_cluster(2));
  const SimScheduler scheduler8(small_cluster(8));
  const std::vector<TaskSpec> tasks(32, TaskSpec{10.0, 0.0, 0.0, -1});
  const double makespan2 = scheduler2.schedule_phase(tasks, 2).makespan_s;
  const double makespan8 = scheduler8.schedule_phase(tasks, 2).makespan_s;
  EXPECT_LT(makespan8, makespan2);
  // 32 tasks of 11 s over 4 slots = 8 waves; over 16 slots = 2 waves.
  EXPECT_DOUBLE_EQ(makespan2, 8 * 11.0);
  EXPECT_DOUBLE_EQ(makespan8, 2 * 11.0);
}

TEST(SimScheduler, MakespanMonotoneNonIncreasingInNodes) {
  const std::vector<TaskSpec> tasks(50, TaskSpec{3.0, 1e6, 1e6, -1});
  double previous = 1e18;
  for (const std::size_t nodes : {2u, 4u, 6u, 8u, 10u, 12u}) {
    const SimScheduler scheduler(small_cluster(nodes));
    const double makespan = scheduler.schedule_phase(tasks, 2).makespan_s;
    EXPECT_LE(makespan, previous + 1e-9) << nodes;
    previous = makespan;
  }
}

TEST(SimScheduler, SmallInputGainsNothingFromMoreNodes) {
  // One task cannot parallelize — the flat line of Figure 2's 1000-read curve.
  const std::vector<TaskSpec> tasks{{30.0, 0.0, 0.0, -1}};
  const SimScheduler s2(small_cluster(2));
  const SimScheduler s12(small_cluster(12));
  EXPECT_DOUBLE_EQ(s2.schedule_phase(tasks, 2).makespan_s,
                   s12.schedule_phase(tasks, 2).makespan_s);
}

TEST(SimScheduler, HonorsLocalityPreference) {
  const SimScheduler scheduler(small_cluster(4));
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back({1.0, 1e6, 0.0, i});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_EQ(timeline.data_local_tasks, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(timeline.tasks[i].node, i);
    EXPECT_TRUE(timeline.tasks[i].data_local);
  }
}

TEST(SimScheduler, OverloadedPreferredNodeSpillsRemote) {
  const SimScheduler scheduler(small_cluster(4));
  // 12 tasks all preferring node 0 with heavy work: delay scheduling gives
  // up and runs some remotely.
  const std::vector<TaskSpec> tasks(12, TaskSpec{50.0, 1e6, 0.0, 0});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_LT(timeline.data_local_tasks, 12u);
  EXPECT_GT(timeline.data_local_tasks, 0u);
}

TEST(SimScheduler, ShuffleTimeScalesWithBytesAndNodes) {
  const SimScheduler s2(small_cluster(2));
  const SimScheduler s8(small_cluster(8));
  EXPECT_DOUBLE_EQ(s2.shuffle_time(0.0), 0.0);
  EXPECT_GT(s2.shuffle_time(1e9), s8.shuffle_time(1e9));
  EXPECT_GT(s2.shuffle_time(2e9), s2.shuffle_time(1e9));
}

TEST(SimScheduler, SingleNodeShuffleIsDiskOnly) {
  const SimScheduler s1(small_cluster(1));
  // All data stays local: time = bytes / disk_bw.
  EXPECT_DOUBLE_EQ(s1.shuffle_time(80e6), 1.0);
}

TEST(SimulateJob, TotalComposesPhases) {
  const SimScheduler scheduler(small_cluster(2));
  const std::vector<TaskSpec> maps(4, TaskSpec{2.0, 0.0, 0.0, -1});
  const std::vector<TaskSpec> reduces(2, TaskSpec{1.0, 0.0, 0.0, -1});
  const auto timeline = simulate_job(scheduler, maps, 0.0, {}, reduces, "job");
  EXPECT_DOUBLE_EQ(timeline.total_s, 5.0 + timeline.map_phase.makespan_s +
                                         timeline.reduce_phase.makespan_s);
  EXPECT_FALSE(timeline.summary().empty());
}

TEST(SimScheduler, SpeculativeExecutionRescuesInjectedStraggler) {
  ClusterConfig config = small_cluster(4);
  std::vector<TaskSpec> tasks(16, TaskSpec{2.0, 0.0, 0.0, -1});
  tasks[5].work = 200.0;  // one task 100x slower: a failing disk / data skew

  const SimScheduler baseline{config};
  const auto without = baseline.schedule_phase(tasks, 2);
  EXPECT_EQ(without.speculated_tasks, 0u);

  config.speculative_execution = true;
  const SimScheduler speculating{config};
  const auto with = speculating.schedule_phase(tasks, 2);
  EXPECT_GT(with.speculated_tasks, 0u);
  EXPECT_LT(with.makespan_s, without.makespan_s);
  // The backup copy caps the straggler at (factor + 1) x the phase median
  // (3 s per task here), measured from its start.
  const double median = 3.0;
  EXPECT_DOUBLE_EQ(with.tasks[5].end_s,
                   with.tasks[5].start_s +
                       (config.speculation_factor + 1.0) * median);
}

TEST(SimScheduler, SpeculationLeavesUniformPhasesAlone) {
  ClusterConfig config = small_cluster(4);
  config.speculative_execution = true;
  const SimScheduler scheduler{config};
  const std::vector<TaskSpec> tasks(16, TaskSpec{2.0, 0.0, 0.0, -1});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_EQ(timeline.speculated_tasks, 0u);
}

TEST(SimScheduler, PlacementsNeverOverlapOnASlot) {
  const SimScheduler scheduler(small_cluster(3));
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 24; ++i) tasks.push_back({1.0 + i % 5, 1e5, 1e5, i % 3});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  // Sort each (node, slot) track's intervals and check back-to-back order.
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> tracks;
  for (const TaskPlacement& task : timeline.tasks) {
    EXPECT_GE(task.node, 0);
    EXPECT_LT(task.node, 3);
    EXPECT_GE(task.slot, 0);
    EXPECT_LT(task.slot, 2);
    tracks[{task.node, task.slot}].emplace_back(task.start_s, task.end_s);
  }
  for (auto& [slot, intervals] : tracks) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second)
          << "overlap on node " << slot.first << " slot " << slot.second;
    }
  }
}

TEST(JobTimeline, SummaryReportsEveryPhase) {
  const SimScheduler scheduler(small_cluster(2));
  const std::vector<TaskSpec> maps(4, TaskSpec{2.0, 0.0, 0.0, -1});
  const std::vector<TaskSpec> reduces(2, TaskSpec{1.0, 0.0, 0.0, -1});
  const auto timeline = simulate_job(scheduler, maps, 80e6, {}, reduces, "t");
  const std::string summary = timeline.summary();
  EXPECT_NE(summary.find("map="), std::string::npos);
  EXPECT_NE(summary.find("shuffle="), std::string::npos);
  EXPECT_NE(summary.find("reduce="), std::string::npos);
  EXPECT_NE(summary.find("total="), std::string::npos);
  // An all-empty job still reports (zero) phases rather than crashing.
  const auto empty = simulate_job(scheduler, {}, 0.0, {}, {}, "empty");
  EXPECT_DOUBLE_EQ(empty.total_s, scheduler.config().job_startup_s);
  EXPECT_NE(empty.summary().find("shuffle=0"), std::string::npos);
}

TEST(SimulateJob, DeterministicAcrossCalls) {
  const SimScheduler scheduler(small_cluster(3));
  std::vector<TaskSpec> maps;
  for (int i = 0; i < 10; ++i) maps.push_back({1.0 + i, 1e5, 1e5, i % 3});
  const auto a = simulate_job(scheduler, maps, 5e6, {}, {}, "job");
  const auto b = simulate_job(scheduler, maps, 5e6, {}, {}, "job");
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
}


// ------------------------------------------------------- golden schedules
// Every placement, the shuffle and both makespans of a few fixed jobs,
// pinned to the last bit.  The literals were recorded from the scheduler
// as %.17g; any change to placement order, tie-breaks, locality, the
// speculation rule or either shuffle model shows up here first.

struct GoldenCase {
  std::string name;
  JobTimeline timeline;
};

/// The fixed jobs whose schedules the golden table pins.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    // One node, aggregate barrier shuffle: every task queues on two slots.
    const SimScheduler scheduler(small_cluster(1));
    const std::vector<TaskSpec> maps{{3.0, 1.0e6, 2.0e5, -1},
                                     {7.5, 4.0e6, 1.0e6, 0},
                                     {1.25, 5.0e5, 0.0, -1},
                                     {4.0, 2.0e6, 3.0e5, 0},
                                     {2.0, 0.0, 1.0e5, -1}};
    const std::vector<TaskSpec> reduces{{2.5, 1.5e6, 4.0e5, -1},
                                        {0.75, 6.0e5, 1.0e5, -1}};
    cases.push_back({"1 node, aggregate",
                     simulate_job(scheduler, maps, 3.3e7, {}, reduces,
                                  "golden 1n")});
  }
  {
    // Three nodes, per-fetch shuffle; most maps prefer node 0, so delay
    // scheduling gives up on locality and spills them to nodes 1 and 2.
    const SimScheduler scheduler(small_cluster(3));
    std::vector<TaskSpec> maps;
    for (int i = 0; i < 9; ++i) {
      maps.push_back({20.0 + 1.7 * i, 2.0e6 + 3.0e5 * i, 5.0e5,
                      i % 4 == 3 ? 2 : 0});
    }
    const std::vector<TaskSpec> reduces{{5.0, 3.0e6, 1.0e6, -1},
                                        {6.0, 2.0e6, 1.0e6, -1},
                                        {7.0, 1.0e6, 1.0e6, -1}};
    std::vector<FetchSpec> fetches;
    for (std::size_t m = 0; m < maps.size(); ++m) {
      for (std::size_t r = 0; r < reduces.size(); ++r) {
        fetches.push_back(
            {m, r, 1.0e6 * static_cast<double>(1 + (m * 3 + r) % 4)});
      }
    }
    cases.push_back({"3 nodes, per-fetch, remote spill",
                     simulate_job(scheduler, maps, 2.7e7, fetches, reduces,
                                  "golden 3n")});
  }
  {
    // Eight nodes with speculative execution: one map and one reduce
    // straggler get rescued by a backup copy; aggregate shuffle.
    ClusterConfig config = small_cluster(8);
    config.speculative_execution = true;
    const SimScheduler scheduler(config);
    std::vector<TaskSpec> maps;
    for (int i = 0; i < 24; ++i) {
      maps.push_back({2.0 + 0.25 * (i % 3), 1.0e6, 2.0e5, i % 8});
    }
    maps[7].work = 200.0;
    std::vector<TaskSpec> reduces(8, TaskSpec{3.0, 2.0e6, 5.0e5, -1});
    reduces[2].work = 90.0;
    cases.push_back({"8 nodes, speculation, aggregate",
                     simulate_job(scheduler, maps, 5.0e8, {}, reduces,
                                  "golden 8n")});
  }
  {
    // Eight nodes, speculation and per-fetch shuffle: the fetches wait on
    // the rescued straggler's capped end, not its own.
    ClusterConfig config = small_cluster(8);
    config.speculative_execution = true;
    const SimScheduler scheduler(config);
    std::vector<TaskSpec> maps;
    for (int i = 0; i < 12; ++i) {
      maps.push_back({4.0 + 0.5 * (i % 4), 8.0e6, 4.0e6, (i * 3) % 8});
    }
    maps[4].work = 120.0;
    const std::vector<TaskSpec> reduces(4, TaskSpec{6.0, 4.0e6, 2.0e6, -1});
    std::vector<FetchSpec> fetches;
    for (std::size_t m = 0; m < maps.size(); ++m) {
      for (std::size_t r = 0; r < reduces.size(); ++r) {
        fetches.push_back({m, r, 2.5e6 + 1.0e5 * static_cast<double>(m + r)});
      }
    }
    cases.push_back({"8 nodes, speculation, per-fetch",
                     simulate_job(scheduler, maps, 1.2e8, fetches, reduces,
                                  "golden 8n fetch")});
  }
  return cases;
}

struct GoldenTimeline {
  const char* name;
  std::vector<TaskPlacement> map_tasks;
  std::vector<TaskPlacement> reduce_tasks;
  double map_makespan_s;
  double shuffle_s;
  double reduce_makespan_s;
  double total_s;
  std::size_t speculated_tasks;
  std::size_t map_data_local_tasks;
  std::size_t fetches;
};

void expect_placements(const std::vector<TaskPlacement>& actual,
                       const std::vector<TaskPlacement>& expected,
                       const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].node, expected[i].node) << where << " task " << i;
    EXPECT_EQ(actual[i].slot, expected[i].slot) << where << " task " << i;
    EXPECT_EQ(actual[i].start_s, expected[i].start_s) << where << " task " << i;
    EXPECT_EQ(actual[i].end_s, expected[i].end_s) << where << " task " << i;
    EXPECT_EQ(actual[i].data_local, expected[i].data_local)
        << where << " task " << i;
  }
}

TEST(SimScheduler, GoldenSchedulesArePinned) {
  const std::vector<GoldenTimeline> golden = {
      {"1 node, aggregate",
       {{0, 1, 5.0287500000000005, 9.0437500000000011, true},
        {0, 0, 0, 8.5625, true},
        {0, 1, 9.0437500000000011, 11.300000000000001, true},
        {0, 1, 0, 5.0287500000000005, true},
        {0, 0, 8.5625, 11.563750000000001, true}},
       {{0, 0, 0, 3.5237499999999997, true},
        {0, 1, 0, 1.75875, true}},
       11.563750000000001, 0.41249999999999998,
       3.5237499999999997, 20.5,
       0, 5, 0},
      {"3 nodes, per-fetch, remote spill",
       {{1, 0, 29.59375, 50.650000000000006, false},
        {1, 1, 27.88625, 50.650000000000006, false},
        {2, 1, 26.142500000000002, 50.613750000000003, false},
        {2, 1, 0, 26.142500000000002, true},
        {1, 1, 0, 27.88625, false},
        {1, 0, 0, 29.59375, false},
        {0, 1, 0, 31.25375, true},
        {2, 0, 0, 32.957500000000003, true},
        {0, 0, 0, 34.661250000000003, true}},
       {{1, 0, 0, 6.0499999999999998, true},
        {0, 1, 0, 7.0375000000000005, true},
        {0, 0, 0, 8.0249999999999986, true}},
       50.650000000000006, 0.13041666666666885,
       8.0249999999999986, 63.805416666666673,
       0, 4, 27},
      {"8 nodes, speculation, aggregate",
       {{0, 1, 3.2650000000000001, 6.2800000000000002, true},
        {1, 1, 0, 3.2650000000000001, true},
        {2, 0, 0, 3.5150000000000001, true},
        {3, 1, 3.2650000000000001, 6.2800000000000002, true},
        {4, 1, 0, 3.2650000000000001, true},
        {5, 0, 0, 3.5150000000000001, true},
        {6, 1, 3.2650000000000001, 6.2800000000000002, true},
        {7, 0, 0, 8.1624999999999996, true},
        {0, 0, 0, 3.5150000000000001, true},
        {1, 1, 3.2650000000000001, 6.2800000000000002, true},
        {2, 1, 0, 3.2650000000000001, true},
        {3, 0, 0, 3.5150000000000001, true},
        {4, 1, 3.2650000000000001, 6.2800000000000002, true},
        {5, 1, 0, 3.2650000000000001, true},
        {6, 0, 0, 3.5150000000000001, true},
        {7, 1, 3.5150000000000001, 6.5300000000000002, true},
        {0, 1, 0, 3.2650000000000001, true},
        {1, 0, 0, 3.5150000000000001, true},
        {2, 1, 3.2650000000000001, 6.2800000000000002, true},
        {3, 1, 0, 3.2650000000000001, true},
        {4, 0, 0, 3.5150000000000001, true},
        {5, 1, 3.2650000000000001, 6.2800000000000002, true},
        {6, 1, 0, 3.2650000000000001, true},
        {7, 1, 0, 3.5150000000000001, true}},
       {{0, 1, 0, 4.03125, true},
        {1, 0, 0, 4.03125, true},
        {0, 0, 0, 10.078125, true},
        {1, 1, 0, 4.03125, true},
        {2, 0, 0, 4.03125, true},
        {2, 1, 0, 4.03125, true},
        {3, 0, 0, 4.03125, true},
        {3, 1, 0, 4.03125, true}},
       8.1624999999999996, 1.46484375,
       10.078125, 24.705468750000001,
       2, 24, 0},
      {"8 nodes, speculation, per-fetch",
       {{0, 0, 0, 5.1499999999999995, true},
        {3, 0, 0, 5.6499999999999995, true},
        {6, 0, 0, 6.1499999999999995, true},
        {1, 0, 0, 6.6499999999999995, true},
        {4, 0, 0, 15.374999999999998, true},
        {7, 0, 0, 5.6499999999999995, true},
        {2, 0, 0, 6.1499999999999995, true},
        {5, 0, 0, 6.6499999999999995, true},
        {0, 1, 0, 5.1499999999999995, true},
        {3, 1, 0, 5.6499999999999995, true},
        {6, 1, 0, 6.1499999999999995, true},
        {1, 1, 0, 6.6499999999999995, true}},
       {{0, 0, 0, 7.0750000000000002, true},
        {0, 1, 0, 7.0750000000000002, true},
        {1, 0, 0, 7.0750000000000002, true},
        {1, 1, 0, 7.0750000000000002, true}},
       15.374999999999998, 0.074999999999999289,
       7.0750000000000002, 27.524999999999999,
       1, 12, 48}};
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), golden.size());
  for (std::size_t c = 0; c < golden.size(); ++c) {
    const GoldenTimeline& want = golden[c];
    const JobTimeline& got = cases[c].timeline;
    ASSERT_EQ(cases[c].name, want.name);
    expect_placements(got.map_phase.tasks, want.map_tasks,
                      std::string(want.name) + " map");
    expect_placements(got.reduce_phase.tasks, want.reduce_tasks,
                      std::string(want.name) + " reduce");
    EXPECT_EQ(got.map_phase.makespan_s, want.map_makespan_s) << want.name;
    EXPECT_EQ(got.shuffle_s, want.shuffle_s) << want.name;
    EXPECT_EQ(got.reduce_phase.makespan_s, want.reduce_makespan_s)
        << want.name;
    EXPECT_EQ(got.total_s, want.total_s) << want.name;
    EXPECT_EQ(got.map_phase.speculated_tasks +
                  got.reduce_phase.speculated_tasks,
              want.speculated_tasks)
        << want.name;
    EXPECT_EQ(got.map_phase.data_local_tasks, want.map_data_local_tasks)
        << want.name;
    EXPECT_EQ(got.fetches.size(), want.fetches) << want.name;
  }
}

}  // namespace
}  // namespace mrmc::mr
